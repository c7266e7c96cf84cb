//! Batch-of-seeds execution: fan up to 64 scenario variants into the
//! lanes of a [`SlicedInterpreter`] so one tape pass advances every
//! scenario at once.
//!
//! A *scenario* is one (name, seed) cell of an experiment matrix — e.g.
//! one fault-injection schedule, one randomized stimulus stream, one
//! traffic pattern. Scenarios that share the top-level circuit are
//! packed into the lanes of a single bit-sliced interpreter; scenarios
//! that override the circuit (structural divergence — a different
//! mutation, a different topology) cannot share planes and fall back to
//! independent compiled-engine runs. Either way the caller gets one
//! [`BatchLaneResult`] per scenario, in submission order, each carrying
//! the lane's architectural digest and demuxed [`SimMetrics`].
//!
//! With [`BatchRun::verify`] enabled, every sliced lane is re-executed
//! as an independent sequential run and the two digests are
//! cross-checked — the same guarantee the `sliced_parity` proptest
//! provides, available at experiment scale.

use crate::engine::SimMetrics;
use crate::error::{Result, SimError};
use fireaxe_ir::{
    Bits, Circuit, ExecEngine, ExternBehavior, Interpreter, PortWriter, SlicedInterpreter,
};

/// Maximum scenarios a single sliced interpreter evaluates per tape
/// pass (one lane per bit of a `u64` plane word).
pub const MAX_BATCH_LANES: usize = 64;

/// One cell of a batch experiment: a named seed, optionally with a
/// structurally different circuit.
#[derive(Debug, Clone)]
pub struct BatchScenario {
    /// Human-readable cell name (e.g. `"ring4/seed42"`).
    pub name: String,
    /// Seed handed to the stimulus callback and behavior factory.
    pub seed: u64,
    /// When set, this scenario simulates a different netlist and runs
    /// sequentially instead of sharing bit-planes with the batch.
    pub circuit_override: Option<Circuit>,
}

impl BatchScenario {
    /// A scenario on the batch's shared circuit.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        BatchScenario {
            name: name.into(),
            seed,
            circuit_override: None,
        }
    }

    /// A scenario with its own circuit (runs sequentially).
    pub fn with_circuit(name: impl Into<String>, seed: u64, circuit: Circuit) -> Self {
        BatchScenario {
            name: name.into(),
            seed,
            circuit_override: Some(circuit),
        }
    }
}

/// Where a stimulus callback drives its scenario's inputs. One
/// implementation addresses a single lane of a sliced batch, the other
/// a plain sequential interpreter; the callback cannot tell them apart.
pub trait InputSink {
    /// Drives top-level input `name` (resize semantics, like
    /// [`Interpreter::poke`]).
    fn poke(&mut self, name: &str, value: &Bits);

    /// Drives top-level input `name` from a `u64`.
    fn poke_u64(&mut self, name: &str, value: u64);
}

struct LaneSink<'a> {
    si: &'a mut SlicedInterpreter,
    lane: u32,
}

impl InputSink for LaneSink<'_> {
    fn poke(&mut self, name: &str, value: &Bits) {
        self.si.poke(self.lane, name, value);
    }

    fn poke_u64(&mut self, name: &str, value: u64) {
        self.si
            .poke_u64(self.lane, name, value)
            .expect("batch stimulus drives a known input port");
    }
}

struct ScalarSink<'a> {
    interp: &'a mut Interpreter,
}

impl InputSink for ScalarSink<'_> {
    fn poke(&mut self, name: &str, value: &Bits) {
        self.interp.poke(name, value.clone());
    }

    fn poke_u64(&mut self, name: &str, value: u64) {
        self.interp
            .poke_u64(name, value)
            .expect("batch stimulus drives a known input port");
    }
}

/// Per-scenario outcome.
#[derive(Debug, Clone)]
pub struct BatchLaneResult {
    /// Scenario name, as submitted.
    pub name: String,
    /// Scenario seed, as submitted.
    pub seed: u64,
    /// `Some(lane)` when the scenario ran in a sliced lane; `None` when
    /// it ran as a sequential compiled-engine fallback.
    pub lane: Option<u32>,
    /// FNV-1a digest of the final architectural state (identical to
    /// [`Interpreter::state_digest`] for an equivalent sequential run).
    pub digest: u64,
    /// Demuxed per-scenario measurements (`target_cycles` and
    /// `host_cycles`; link/token counters stay empty — a batch run has
    /// no partition links).
    pub metrics: SimMetrics,
    /// True when verify mode cross-checked this lane against an
    /// independent sequential run.
    pub verified: bool,
}

/// Whole-batch outcome: per-scenario results plus packing statistics.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One result per scenario, in submission order.
    pub results: Vec<BatchLaneResult>,
    /// Number of sliced interpreters built (⌈shared scenarios / 64⌉).
    pub sliced_batches: usize,
    /// Scenarios that ran inside sliced lanes.
    pub sliced_lanes: usize,
    /// Scenarios that ran sequentially (circuit overrides, plus verify
    /// re-runs are *not* counted here — they are checks, not results).
    pub sequential_runs: usize,
}

type BehaviorFactory = Box<dyn Fn(&str, &str, u64) -> Option<Box<dyn ExternBehavior>>>;

/// Drives a set of [`BatchScenario`]s for a fixed number of cycles,
/// packing structurally identical scenarios 64-to-a-tape-pass.
///
/// ```
/// use fireaxe_ir::build::ModuleBuilder;
/// use fireaxe_ir::Circuit;
/// use fireaxe_sim::{BatchRun, BatchScenario};
///
/// # fn main() -> Result<(), fireaxe_sim::SimError> {
/// let mut mb = ModuleBuilder::new("Acc");
/// let x = mb.input("x", 16);
/// let o = mb.output("o", 16);
/// let acc = mb.reg("acc", 16, 0);
/// mb.connect_sig(&acc, &acc.add(&x));
/// mb.connect_sig(&o, &acc);
/// let circuit = Circuit::from_modules("Acc", vec![mb.finish()], "Acc");
///
/// let scenarios: Vec<_> = (0..8)
///     .map(|s| BatchScenario::new(format!("seed{s}"), s))
///     .collect();
/// let report = BatchRun::new(circuit, 100).verify(true).run(
///     &scenarios,
///     |scn, cycle, sink| sink.poke_u64("x", scn.seed.wrapping_mul(cycle + 1)),
/// )?;
/// assert_eq!(report.sliced_lanes, 8);
/// assert!(report.results.iter().all(|r| r.verified));
/// # Ok(())
/// # }
/// ```
pub struct BatchRun {
    circuit: Circuit,
    cycles: u64,
    verify: bool,
    behavior_factory: Option<BehaviorFactory>,
}

impl std::fmt::Debug for BatchRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRun")
            .field("cycles", &self.cycles)
            .field("verify", &self.verify)
            .field("behavior_factory", &self.behavior_factory.is_some())
            .finish()
    }
}

impl BatchRun {
    /// A batch over `circuit`, running each scenario for `cycles` target
    /// cycles.
    pub fn new(circuit: Circuit, cycles: u64) -> Self {
        BatchRun {
            circuit,
            cycles,
            verify: false,
            behavior_factory: None,
        }
    }

    /// When enabled, every sliced lane is replayed as an independent
    /// sequential compiled-engine run and the architectural digests are
    /// cross-checked; a mismatch is a [`SimError::BatchDivergence`].
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Supplies behavioral models for extern instances, seeded per
    /// scenario: the factory receives `(behavior key, instance path,
    /// scenario seed)` so each lane can get a differently-seeded model.
    /// Returning `None` declines the key, which surfaces as
    /// [`SimError::MissingBehavior`].
    pub fn behaviors(
        mut self,
        factory: impl Fn(&str, &str, u64) -> Option<Box<dyn ExternBehavior>> + 'static,
    ) -> Self {
        self.behavior_factory = Some(Box::new(factory));
        self
    }

    /// Runs every scenario. `stimulus` is called once per scenario per
    /// cycle, before that cycle's settle, and drives inputs through the
    /// sink; it must be a pure function of `(scenario, cycle)` — verify
    /// mode replays it and expects the same pokes.
    ///
    /// # Errors
    ///
    /// Propagates elaboration/engine errors, [`SimError::MissingBehavior`]
    /// for unbound externs, and [`SimError::BatchDivergence`] when verify
    /// mode catches a lane/sequential digest mismatch.
    pub fn run(
        &self,
        scenarios: &[BatchScenario],
        mut stimulus: impl FnMut(&BatchScenario, u64, &mut dyn InputSink),
    ) -> Result<BatchReport> {
        let mut results: Vec<Option<BatchLaneResult>> = vec![None; scenarios.len()];
        let shared: Vec<usize> = (0..scenarios.len())
            .filter(|&i| scenarios[i].circuit_override.is_none())
            .collect();
        let mut sliced_batches = 0;
        let mut sliced_lanes = 0;
        let mut sequential_runs = 0;

        for chunk in shared.chunks(MAX_BATCH_LANES) {
            sliced_batches += 1;
            self.run_chunk(chunk, scenarios, &mut stimulus, &mut results)?;
            sliced_lanes += chunk.len();
        }
        for (i, scn) in scenarios.iter().enumerate() {
            if let Some(circuit) = &scn.circuit_override {
                let digest = self.run_sequential(circuit, scn, &mut stimulus)?;
                results[i] = Some(self.result(scn, None, digest, false));
                sequential_runs += 1;
            }
        }

        Ok(BatchReport {
            results: results
                .into_iter()
                .map(|r| r.expect("all filled"))
                .collect(),
            sliced_batches,
            sliced_lanes,
            sequential_runs,
        })
    }

    /// One sliced interpreter over ≤ 64 same-circuit scenarios.
    fn run_chunk(
        &self,
        chunk: &[usize],
        scenarios: &[BatchScenario],
        stimulus: &mut impl FnMut(&BatchScenario, u64, &mut dyn InputSink),
        results: &mut [Option<BatchLaneResult>],
    ) -> Result<()> {
        let mut si = SlicedInterpreter::new(&self.circuit, chunk.len() as u32)?;
        for (path, key, bound) in si.extern_instances() {
            if bound {
                continue;
            }
            // One model per lane, seeded by that lane's scenario.
            let mut made: Result<()> = Ok(());
            si.bind_behavior_with(&path, |lane| {
                let seed = scenarios[chunk[lane as usize]].seed;
                match self.make_behavior(&key, &path, seed) {
                    Ok(m) => m,
                    Err(e) => {
                        made = Err(e);
                        Box::new(NullBehavior)
                    }
                }
            })?;
            made?;
        }
        si.reset();
        for cycle in 0..self.cycles {
            for (lane, &idx) in chunk.iter().enumerate() {
                let mut sink = LaneSink {
                    si: &mut si,
                    lane: lane as u32,
                };
                stimulus(&scenarios[idx], cycle, &mut sink);
            }
            si.step()?;
        }
        si.eval()?;
        for (lane, &idx) in chunk.iter().enumerate() {
            let scn = &scenarios[idx];
            let digest = si.lane_digest(lane as u32);
            let mut verified = false;
            if self.verify {
                let sequential = self.run_sequential(&self.circuit, scn, stimulus)?;
                if sequential != digest {
                    return Err(SimError::BatchDivergence {
                        name: scn.name.clone(),
                        seed: scn.seed,
                        lane: lane as u32,
                        sliced_digest: digest,
                        sequential_digest: sequential,
                    });
                }
                verified = true;
            }
            results[idx] = Some(self.result(scn, Some(lane as u32), digest, verified));
        }
        Ok(())
    }

    /// One independent compiled-engine run; returns the final digest.
    fn run_sequential(
        &self,
        circuit: &Circuit,
        scn: &BatchScenario,
        stimulus: &mut impl FnMut(&BatchScenario, u64, &mut dyn InputSink),
    ) -> Result<u64> {
        let mut interp = Interpreter::with_engine(circuit, ExecEngine::Compiled)?;
        for (path, key, bound) in interp.extern_instances() {
            if !bound {
                interp.bind_behavior(&path, self.make_behavior(&key, &path, scn.seed)?)?;
            }
        }
        interp.reset();
        for cycle in 0..self.cycles {
            let mut sink = ScalarSink {
                interp: &mut interp,
            };
            stimulus(scn, cycle, &mut sink);
            interp.step()?;
        }
        interp.eval()?;
        Ok(interp.state_digest())
    }

    fn make_behavior(&self, key: &str, path: &str, seed: u64) -> Result<Box<dyn ExternBehavior>> {
        self.behavior_factory
            .as_ref()
            .and_then(|f| f(key, path, seed))
            .ok_or_else(|| SimError::MissingBehavior {
                node: "batch".to_string(),
                path: path.to_string(),
                key: key.to_string(),
            })
    }

    fn result(
        &self,
        scn: &BatchScenario,
        lane: Option<u32>,
        digest: u64,
        verified: bool,
    ) -> BatchLaneResult {
        BatchLaneResult {
            name: scn.name.clone(),
            seed: scn.seed,
            lane,
            digest,
            metrics: SimMetrics {
                target_cycles: self.cycles,
                host_cycles: vec![self.cycles],
                ..SimMetrics::default()
            },
            verified,
        }
    }
}

/// Placeholder bound while reporting a behavior-factory error; never
/// actually stepped.
#[derive(Debug)]
struct NullBehavior;

impl ExternBehavior for NullBehavior {
    fn reset(&mut self) {}

    fn source_outputs(&mut self, _out: &mut PortWriter<'_>) {}

    fn tick(&mut self, _inputs: &std::collections::BTreeMap<String, Bits>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::build::{ModuleBuilder, Sig};
    use std::collections::BTreeMap;

    fn acc_circuit(taps: u64) -> Circuit {
        let mut mb = ModuleBuilder::new("Acc");
        let x = mb.input("x", 16);
        let o = mb.output("o", 16);
        let acc = mb.reg("acc", 16, taps);
        mb.connect_sig(&acc, &acc.add(&x.xor(&Sig::lit(taps & 0xFFFF, 16))));
        mb.connect_sig(&o, &acc);
        Circuit::from_modules("Acc", vec![mb.finish()], "Acc")
    }

    fn stim(scn: &BatchScenario, cycle: u64, sink: &mut dyn InputSink) {
        sink.poke_u64(
            "x",
            (scn.seed.wrapping_mul(cycle.wrapping_add(3)) >> 5) & 0xFFFF,
        );
    }

    #[test]
    fn verified_batch_matches_reference_runs() {
        let scenarios: Vec<_> = (0..7)
            .map(|s| BatchScenario::new(format!("s{s}"), 0x9E37 + s))
            .collect();
        let report = BatchRun::new(acc_circuit(0), 50)
            .verify(true)
            .run(&scenarios, stim)
            .expect("batch");
        assert_eq!(report.sliced_batches, 1);
        assert_eq!(report.sliced_lanes, 7);
        assert_eq!(report.sequential_runs, 0);
        assert!(report
            .results
            .iter()
            .all(|r| r.verified && r.lane.is_some()));

        // Digests also match plain reference-engine runs.
        for r in &report.results {
            let mut gold =
                Interpreter::with_engine(&acc_circuit(0), ExecEngine::Reference).unwrap();
            let scn = BatchScenario::new(r.name.clone(), r.seed);
            for cycle in 0..50 {
                let mut sink = ScalarSink { interp: &mut gold };
                stim(&scn, cycle, &mut sink);
                gold.step().unwrap();
            }
            gold.eval().unwrap();
            assert_eq!(gold.state_digest(), r.digest, "{}", r.name);
            assert_eq!(r.metrics.target_cycles, 50);
        }
    }

    #[test]
    fn circuit_overrides_fall_back_to_sequential() {
        let mut scenarios: Vec<_> = (0..3)
            .map(|s| BatchScenario::new(format!("s{s}"), 100 + s))
            .collect();
        scenarios.push(BatchScenario::with_circuit(
            "mutant",
            100,
            acc_circuit(0xBEEF),
        ));
        let report = BatchRun::new(acc_circuit(0), 20)
            .run(&scenarios, stim)
            .expect("batch");
        assert_eq!(report.sliced_lanes, 3);
        assert_eq!(report.sequential_runs, 1);
        let mutant = &report.results[3];
        assert_eq!(mutant.name, "mutant");
        assert!(mutant.lane.is_none());
        // Same seed, different circuit: the mutant's digest diverges
        // from the shared-circuit cell with that seed.
        assert_ne!(mutant.digest, report.results[0].digest);
    }

    #[test]
    fn more_than_64_scenarios_split_into_batches() {
        let scenarios: Vec<_> = (0..70)
            .map(|s| BatchScenario::new(format!("s{s}"), s * 7 + 1))
            .collect();
        let report = BatchRun::new(acc_circuit(0), 10)
            .run(&scenarios, stim)
            .expect("batch");
        assert_eq!(report.sliced_batches, 2);
        assert_eq!(report.sliced_lanes, 70);
        // All-distinct seeds ⇒ all-distinct digests.
        let set: std::collections::BTreeSet<u64> =
            report.results.iter().map(|r| r.digest).collect();
        assert_eq!(set.len(), 70);
    }

    /// Behavior used by the extern test: state = state*3 + x each tick,
    /// comb output y = state ^ x.
    #[derive(Debug)]
    struct Lfsr {
        state: u64,
    }

    impl ExternBehavior for Lfsr {
        fn reset(&mut self) {}

        fn source_outputs(&mut self, _out: &mut PortWriter<'_>) {}

        fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>, out: &mut PortWriter<'_>) {
            let x = inputs.get("x").map(|b| b.to_u64()).unwrap_or(0);
            out.set_u64("y", self.state ^ x);
        }

        fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
            let x = inputs.get("x").map(|b| b.to_u64()).unwrap_or(0);
            self.state = (self.state.wrapping_mul(3).wrapping_add(x)) & 0xFFFF;
        }
    }

    fn extern_circuit() -> Circuit {
        use fireaxe_ir::{CombPath, ExternInfo, Module, Port, ResourceHints};
        let mut ext = Module::new("Dev");
        ext.ports.push(Port::input("x", 16));
        ext.ports.push(Port::output("y", 16));
        ext.extern_info = Some(ExternInfo {
            behavior: "dev".into(),
            comb_paths: vec![CombPath {
                input: "x".into(),
                output: "y".into(),
            }],
            resources: ResourceHints::default(),
        });
        let mut mb = ModuleBuilder::new("Top");
        let a = mb.input("a", 16);
        let o = mb.output("o", 16);
        let inst = mb.inst("u0", "Dev");
        mb.connect_inst(&inst, "x", &a);
        let y = mb.inst_port(&inst, "y");
        mb.connect_sig(&o, &y.add(&a));
        Circuit::from_modules("Top", vec![mb.finish(), ext], "Top")
    }

    #[test]
    fn lane_seeded_behaviors_are_verified_per_lane() {
        let scenarios: Vec<_> = (0..5)
            .map(|s| BatchScenario::new(format!("dev{s}"), 0xACE0 + s * 11))
            .collect();
        let report = BatchRun::new(extern_circuit(), 40)
            .verify(true)
            .behaviors(|key, _path, seed| {
                (key == "dev").then(|| {
                    Box::new(Lfsr {
                        state: seed & 0xFFFF,
                    }) as Box<dyn ExternBehavior>
                })
            })
            .run(&scenarios, |scn, cycle, sink| {
                sink.poke_u64("a", scn.seed.rotate_left((cycle % 13) as u32) & 0xFFFF)
            })
            .expect("batch");
        assert!(report.results.iter().all(|r| r.verified));
        let set: std::collections::BTreeSet<u64> =
            report.results.iter().map(|r| r.digest).collect();
        assert_eq!(set.len(), 5, "seeded models must diverge per lane");
    }

    #[test]
    fn missing_behavior_is_a_typed_error() {
        let err = BatchRun::new(extern_circuit(), 5)
            .run(&[BatchScenario::new("s", 1)], |_, _, sink| {
                sink.poke_u64("a", 1)
            })
            .unwrap_err();
        assert!(matches!(err, SimError::MissingBehavior { .. }), "{err}");
    }
}
