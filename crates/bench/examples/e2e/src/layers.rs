//! The rungs of the stack, each driven from `.fir` text through the
//! program's public entry points only.
//!
//! Every rung has the same shape: a clock calibration, a timed *setup*
//! (text → ready to execute the first cycle), a timed *run* bracketed by
//! `getrusage`, a timed *teardown*, and the target-visible results the
//! golden gate compares. Times are reference-clock seconds (`trace.rs`). A workload is one rung at its full budget; the traced run
//! walks all of them at probe budgets so each layer gets a number.

use crate::inputs::{Design, Drive, LANES};
use crate::measure::Usage;
use crate::trace::Tracer;
use fireaxe::fpga::{fit, FpgaSpec};
use fireaxe::ir::parser::parse_circuit;
use fireaxe::ir::typecheck::validate;
use fireaxe::ir::{Circuit, Direction, ExecEngine, Interpreter, SlicedInterpreter};
use fireaxe::obs::MetricsSeries;
use fireaxe::ripper::{compile, PartitionedDesign};
use fireaxe::sim::{
    Backend, BehaviorRegistry, ObsSpec, SimBuilder, SimError, SimMetrics, StallReport,
};
use fireaxe_net::{
    execute_placed, place_cluster, prepare_job, serve, NetListener, PreparedJob, RecoveryOptions,
    Teardown, WireSettings,
};
use std::cell::Cell;
use std::hint::black_box;
use std::path::PathBuf;

/// Harness errors are reported, never recovered from.
pub type Res<T> = Result<T, String>;

/// Shorthand: stringify any program error.
pub fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// What every rung needs from the harness.
pub struct Ctx {
    /// Span recorder (timing-only when tracing is off).
    pub tr: Tracer,
    /// Pid-unique scratch directory for sockets, relative to the cwd so
    /// Unix socket paths stay under the 108-byte `sun_path` limit.
    pub sock_dir: PathBuf,
    sock_seq: Cell<u32>,
    /// Threaded attempts that reported a deadlock and were run again
    /// (see [`in_process`]).
    pub false_deadlocks: Cell<u64>,
}

impl Ctx {
    /// A context recording spans iff `trace`.
    pub fn new(trace: bool, sock_dir: PathBuf) -> Self {
        Ctx {
            tr: Tracer::new(trace),
            sock_dir,
            sock_seq: Cell::new(0),
            false_deadlocks: Cell::new(0),
        }
    }

    /// A fresh `unix:` listen address under the scratch directory.
    pub fn unix_addr(&self) -> String {
        let n = self.sock_seq.get();
        self.sock_seq.set(n + 1);
        format!("unix:{}/s{n}.sock", self.sock_dir.display())
    }
}

/// The setup hook every process of a run applies: the SoC behavioural
/// models, resolved by behaviour key.
pub fn sim_setup(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut registry = BehaviorRegistry::new();
    registry.register_fallback(fireaxe::soc::make_behavior);
    b.behaviors(registry)
}

/// One repetition of one rung.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Text + spec → ready to execute the first cycle, seconds.
    pub setup_s: f64,
    /// The run phase, seconds.
    pub run_s: f64,
    /// Joining workers / dropping the simulation, seconds.
    pub teardown_s: f64,
    /// Target cycles simulated in the run phase (× lanes when sliced).
    pub cycles: u64,
    /// Resource use of the run phase.
    pub usage: Usage,
    /// Target-visible results: must equal the golden on every backend.
    pub results: Vec<(String, u64)>,
    /// Engine-specific exact counts: must repeat across repetitions.
    pub counters: Vec<(String, u64)>,
}

impl Rep {
    /// Setup + run + teardown: what one "job" costs its submitter.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.teardown_s
    }

    /// A named exact counter (0 when the rung does not report it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }
}

fn parse_and_validate(cx: &Ctx, d: &Design) -> Res<Circuit> {
    let (circuit, _) = cx
        .tr
        .timed("ir.parser.parse", &d.name, || parse_circuit(&d.text));
    let circuit = circuit.map_err(s)?;
    cx.tr
        .timed("ir.typecheck.validate", &d.name, || validate(&circuit))
        .0
        .map_err(s)?;
    Ok(circuit)
}

// ---------------------------------------------------------------------------
// Monolithic interpreter
// ---------------------------------------------------------------------------

/// Port names of a bare ring NoC, built once so the cycle loop does not
/// format strings.
struct RingPorts {
    valid: Vec<String>,
    bits: Vec<String>,
}

impl RingPorts {
    fn new(nodes: usize) -> Self {
        RingPorts {
            valid: (0..nodes).map(|i| format!("node{i}_tx_valid")).collect(),
            bits: (0..nodes).map(|i| format!("node{i}_tx_bits")).collect(),
        }
    }
}

/// Runs `d` unpartitioned on one [`Interpreter`] for `cycles` target
/// cycles (lane 0's stimulus). A [`Drive::Done`] design with
/// `stop_at_done` ends at the cycle `done` first reads 1 instead.
pub fn mono(cx: &Ctx, d: &Design, engine: ExecEngine, cycles: u64, stop_at_done: bool) -> Res<Rep> {
    let tag = d.name.as_str();
    cx.tr.calibrate();
    let (sim, setup_s) = cx.tr.timed("setup", tag, || -> Res<Interpreter> {
        let circuit = parse_and_validate(cx, d)?;
        let (sim, _) = cx.tr.timed("ir.tape.compile", tag, || {
            Interpreter::with_engine(&circuit, engine)
        });
        let mut sim = sim.map_err(s)?;
        for (path, key, bound) in sim.extern_instances() {
            if !bound {
                let model = fireaxe::soc::make_behavior(&key, &path)
                    .ok_or_else(|| format!("no behavioural model for `{key}`"))?;
                sim.bind_behavior(&path, model).map_err(s)?;
            }
        }
        sim.reset();
        Ok(sim)
    });
    let mut sim = sim?;
    let before = sim.exec_stats();
    let u0 = Usage::now();
    let (ran, run_s) = cx
        .tr
        .timed("ir.exec.run", tag, || -> Res<(u64, Option<u64>)> {
            match &d.drive {
                Drive::Closed => {
                    for _ in 0..cycles {
                        sim.step().map_err(s)?;
                    }
                    sim.eval().map_err(s)?;
                    Ok((cycles, None))
                }
                Drive::Ring(traffic) => {
                    let ports = RingPorts::new(traffic.nodes);
                    for c in 0..cycles {
                        for i in 0..traffic.nodes {
                            let (valid, bits) = traffic.flit(c, i, 0);
                            sim.poke_u64(&ports.valid[i], u64::from(valid)).map_err(s)?;
                            sim.poke_u64(&ports.bits[i], bits).map_err(s)?;
                        }
                        sim.eval().map_err(s)?;
                        sim.tick();
                    }
                    sim.eval().map_err(s)?;
                    Ok((cycles, None))
                }
                Drive::Done => {
                    let mut done_at = None;
                    let mut c = 0;
                    loop {
                        sim.eval().map_err(s)?;
                        if done_at.is_none() && sim.peek("done").to_u64() == 1 {
                            done_at = Some(c);
                        }
                        if c == cycles || (stop_at_done && done_at.is_some()) {
                            return Ok((c, done_at));
                        }
                        sim.tick();
                        c += 1;
                    }
                }
            }
        });
    let usage = Usage::now().since(&u0, cx.tr.scale());
    let (ran, done_at) = ran?;
    let after = sim.exec_stats();
    let mut results = vec![("state.digest".to_string(), sim.state_digest())];
    if let Some(c) = done_at {
        results.push(("cycles_to_done".to_string(), c));
    }
    for (port, _) in sim.output_ports() {
        results.push((format!("probe.{port}"), sim.peek(&port).to_u64()));
    }
    let (_, teardown_s) = cx.tr.timed("teardown", tag, || drop(sim));
    Ok(Rep {
        setup_s,
        run_s,
        teardown_s,
        cycles: ran,
        usage,
        results,
        counters: vec![
            (
                "ir.exec.settle_passes".to_string(),
                after.settle_passes - before.settle_passes,
            ),
            (
                "ir.exec.defs_run".to_string(),
                after.defs_run - before.defs_run,
            ),
            (
                "ir.exec.defs_skipped".to_string(),
                after.defs_skipped - before.defs_skipped,
            ),
        ],
    })
}

// ---------------------------------------------------------------------------
// Bit-sliced interpreter
// ---------------------------------------------------------------------------

/// Runs `d` on one [`SlicedInterpreter`] of [`LANES`] lanes: `cycles`
/// target cycles, or for a [`Drive::Done`] design until `done` (at most
/// `cycles`). Results carry every lane's digest (and cycles-to-done).
pub fn sliced(cx: &Ctx, d: &Design, cycles: u64) -> Res<Rep> {
    let tag = d.name.as_str();
    cx.tr.calibrate();
    let (si, setup_s) = cx.tr.timed("setup", tag, || -> Res<SlicedInterpreter> {
        let circuit = parse_and_validate(cx, d)?;
        let (si, _) = cx.tr.timed("ir.slice.compile", tag, || {
            SlicedInterpreter::new(&circuit, LANES)
        });
        let mut si = si.map_err(s)?;
        for (path, key, bound) in si.extern_instances() {
            if !bound {
                if fireaxe::soc::make_behavior(&key, &path).is_none() {
                    return Err(format!("no behavioural model for `{key}`"));
                }
                si.bind_behavior_with(&path, |_| {
                    fireaxe::soc::make_behavior(&key, &path).expect("checked above")
                })
                .map_err(s)?;
            }
        }
        si.reset();
        Ok(si)
    });
    let mut si = si?;
    let u0 = Usage::now();
    let (ran, run_s) = cx
        .tr
        .timed("ir.slice.run", tag, || -> Res<(u64, Option<u64>)> {
            match &d.drive {
                Drive::Closed => {
                    for _ in 0..cycles {
                        si.step().map_err(s)?;
                    }
                    si.eval().map_err(s)?;
                    Ok((cycles, None))
                }
                Drive::Ring(traffic) => {
                    let ports = RingPorts::new(traffic.nodes);
                    let mut bits = [0u64; LANES as usize];
                    let mut valid = [0u64; LANES as usize];
                    for c in 0..cycles {
                        for i in 0..traffic.nodes {
                            for lane in 0..LANES {
                                let (v, b) = traffic.flit(c, i, lane);
                                valid[lane as usize] = u64::from(v);
                                bits[lane as usize] = b;
                            }
                            si.poke_lanes_u64(&ports.valid[i], &valid);
                            si.poke_lanes_u64(&ports.bits[i], &bits);
                        }
                        si.eval().map_err(s)?;
                        si.tick();
                    }
                    si.eval().map_err(s)?;
                    Ok((cycles, None))
                }
                Drive::Done => {
                    // The design has no inputs, so all lanes run the
                    // same scenario: `done` is polled on lane 0 and the
                    // per-lane digests checked against the golden prove
                    // the other lanes followed.
                    let mut c = 0;
                    loop {
                        si.eval().map_err(s)?;
                        if si.peek_u64(0, "done") == 1 {
                            return Ok((c, Some(c)));
                        }
                        if c == cycles {
                            return Ok((c, None));
                        }
                        si.tick();
                        c += 1;
                    }
                }
            }
        });
    let usage = Usage::now().since(&u0, cx.tr.scale());
    let (ran, done) = ran?;
    let mut results = vec![("cycles".to_string(), ran)];
    if let Some(c) = done {
        results.push(("cycles_to_done".to_string(), c));
    }
    for lane in 0..LANES {
        results.push((format!("lane{lane}.digest"), si.lane_digest(lane)));
    }
    let stats = si.exec_stats();
    let (_, teardown_s) = cx.tr.timed("teardown", tag, || drop(si));
    Ok(Rep {
        setup_s,
        run_s,
        teardown_s,
        cycles: ran * u64::from(LANES),
        usage,
        results,
        counters: vec![("ir.slice.defs_run".to_string(), stats.defs_run)],
    })
}

// ---------------------------------------------------------------------------
// Partitioned, in one process (DES golden engine or OS threads)
// ---------------------------------------------------------------------------

/// FNV-1a over a node's output-port values: the same target-visible
/// state the program's own metric samples digest.
fn node_digest(t: &dyn fireaxe::libdn::TargetModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (port, width) in t.output_ports() {
        eat(u64::from(width.get()));
        for w in t.peek(&port).as_words() {
            eat(*w);
        }
    }
    h
}

/// Flattens the sampled `(cycle, state_digest)` rows of a metric series,
/// node by node: the parity-bearing payload of an observed run.
pub fn series_rows(series: &MetricsSeries, out: &mut Vec<(String, u64)>) {
    for (ni, node) in series.nodes.iter().enumerate() {
        for sample in &node.samples {
            out.push((
                format!("node{ni}@{}.digest", sample.cycle),
                sample.state_digest,
            ));
        }
    }
}

fn link_results(metrics: &SimMetrics, out: &mut Vec<(String, u64)>) {
    out.push(("target_cycles".to_string(), metrics.target_cycles));
    for (li, tokens) in metrics.link_tokens.iter().enumerate() {
        out.push((format!("link{li}.tokens"), *tokens));
    }
}

/// Parses, validates and FireRipper-compiles `d`, fit-checking every
/// partition the way the push-button flow's `check_fit` does.
pub fn compile_partitions(cx: &Ctx, d: &Design) -> Res<(Circuit, PartitionedDesign)> {
    let tag = d.name.as_str();
    let spec = d.spec.as_ref().ok_or("design has no partition spec")?;
    let circuit = parse_and_validate(cx, d)?;
    let (design, _) = cx
        .tr
        .timed("ripper.compile", tag, || compile(&circuit, spec));
    let design = design.map_err(s)?;
    cx.tr.timed("fpga.fit", tag, || {
        let fpga = FpgaSpec::alveo_u250();
        for p in &design.partitions {
            for t in &p.threads {
                black_box(fit(&t.circuit, &fpga));
            }
        }
    });
    Ok((circuit, design))
}

/// Attempts of a threaded repetition before its deadlock report is
/// believed.
const DEADLOCK_ATTEMPTS: u32 = 3;

/// Runs `d` partitioned inside this process for exactly `budget` target
/// cycles on `backend`; `sample > 0` also collects `(cycle, digest)` rows
/// every `sample` cycles (the golden gate's payload).
///
/// The threaded backend declares deadlock after a fixed number of idle
/// service passes, not after a time. On a box with fewer cores than
/// partitions the first worker thread can spin through all of them
/// before the last one is scheduled for the first time (1 in 500 to
/// 3 000 starts on the 2-core reference box; the report then shows every
/// node at cycle 0). Every design run here has completed under DES, so such a
/// report is false: the repetition is built and run again, the attempt
/// counted in `cx.false_deadlocks`. A deadlock that repeats
/// [`DEADLOCK_ATTEMPTS`] times is returned as the error it is.
pub fn in_process(cx: &Ctx, d: &Design, backend: Backend, budget: u64, sample: u64) -> Res<Rep> {
    for _ in 0..DEADLOCK_ATTEMPTS {
        match in_process_once(cx, d, backend, budget, sample)? {
            Ok(rep) => return Ok(rep),
            Err(report) => {
                cx.false_deadlocks.set(cx.false_deadlocks.get() + 1);
                eprintln!(
                    "{}: the threaded backend reported a deadlock on a design DES completes; \
                     running the repetition again\n{report}",
                    d.name
                );
            }
        }
    }
    Err(format!(
        "{}: the threaded backend reported a deadlock {DEADLOCK_ATTEMPTS} times in a row",
        d.name
    ))
}

/// One build and run of [`in_process`]; the inner error is a deadlock
/// report of the threaded backend.
fn in_process_once(
    cx: &Ctx,
    d: &Design,
    backend: Backend,
    budget: u64,
    sample: u64,
) -> Res<Result<Rep, StallReport>> {
    let tag = d.name.as_str();
    cx.tr.calibrate();
    let (built, setup_s) = cx.tr.timed("setup", tag, || {
        let (circuit, design) = compile_partitions(cx, d)?;
        let (sim, _) = cx.tr.timed("sim.build", tag, || {
            sim_setup(SimBuilder::new(&design))
                .backend(backend)
                .observe(ObsSpec {
                    sample_interval: sample,
                    ..ObsSpec::default()
                })
                .build()
        });
        let probes: Vec<String> = circuit
            .top_module()
            .ports_in(Direction::Output)
            .map(|p| p.name.clone())
            .collect();
        Ok::<_, String>((sim.map_err(s)?, probes))
    });
    let (mut sim, probes) = built?;
    let span = match backend {
        Backend::Des => "sim.engine.run",
        _ => "sim.threaded.run",
    };
    let u0 = Usage::now();
    let (metrics, run_s) = cx.tr.timed(span, tag, || sim.run_target_cycles(budget));
    let usage = Usage::now().since(&u0, cx.tr.scale());
    let metrics = match metrics {
        Err(SimError::Deadlock { report }) if backend != Backend::Des => return Ok(Err(report)),
        other => other.map_err(s)?,
    };

    let mut results = Vec::new();
    link_results(&metrics, &mut results);
    for ni in 0..sim.node_names().len() {
        let node = sim.target(ni);
        results.push((format!("node{ni}.digest"), node_digest(node)));
        // The design's top-level outputs, wherever the cut left them.
        for (port, _) in node.output_ports() {
            if probes.contains(&port) {
                results.push((format!("probe.{port}"), node.peek(&port).to_u64()));
            }
        }
    }
    if sample > 0 {
        series_rows(&sim.obs_report().metrics, &mut results);
    }
    // Host-cycle accounting is virtual-time exact under DES only; the
    // threaded service loops count real polling passes.
    let mut counters = Vec::new();
    if backend == Backend::Des {
        counters.push(("sim.time_ps".to_string(), metrics.time_ps));
        for (ni, c) in metrics.counters.iter().enumerate() {
            counters.push((format!("sim.node{ni}.host_cycles"), c.host_cycles));
            counters.push((format!("sim.node{ni}.target_cycles"), c.target_cycles));
            counters.push((
                format!("sim.node{ni}.input_stall"),
                c.input_stall_host_cycles,
            ));
            counters.push((
                format!("sim.node{ni}.output_stall"),
                c.output_stall_host_cycles,
            ));
        }
    }
    let (_, teardown_s) = cx.tr.timed("teardown", tag, || drop(sim));
    Ok(Ok(Rep {
        setup_s,
        run_s,
        teardown_s,
        cycles: metrics.target_cycles,
        usage,
        results,
        counters,
    }))
}

// ---------------------------------------------------------------------------
// Partitioned, over Unix-domain sockets (one worker thread per partition)
// ---------------------------------------------------------------------------

/// In-process `serve` workers on fresh `unix:` listeners: bound before
/// the coordinator dials, joined after it tears the cluster down.
pub struct WorkerFleet {
    /// Listen address of each worker, partition-aligned.
    pub addrs: Vec<String>,
    handles: Vec<std::thread::JoinHandle<fireaxe::sim::Result<()>>>,
}

impl WorkerFleet {
    /// Binds and starts `n` one-shot workers.
    pub fn start(cx: &Ctx, n: usize) -> Res<Self> {
        let mut fleet = WorkerFleet {
            addrs: Vec::new(),
            handles: Vec::new(),
        };
        for _ in 0..n {
            let listener = NetListener::bind(&cx.unix_addr()).map_err(s)?;
            fleet.addrs.push(listener.local_addr_string());
            fleet
                .handles
                .push(std::thread::spawn(move || serve(&listener, &sim_setup)));
        }
        Ok(fleet)
    }

    /// Joins every worker (each returns once its session was shut down).
    pub fn join(self) -> Res<()> {
        for h in self.handles {
            h.join().map_err(|_| "worker thread panicked")?.map_err(s)?;
        }
        Ok(())
    }
}

/// `prepare_job` on parsed text: the coordinator-side admission step.
pub fn prepare(
    cx: &Ctx,
    d: &Design,
    circuit: &Circuit,
    settings: &WireSettings,
) -> Res<PreparedJob> {
    let spec = d.spec.as_ref().ok_or("design has no partition spec")?;
    cx.tr
        .timed("net.coordinator.prepare_job", &d.name, || {
            prepare_job(circuit, spec, settings, &sim_setup)
        })
        .0
        .map_err(s)
}

/// Runs `d` as a cluster: one `serve` worker thread per partition on a
/// `unix:` socket, driven through `prepare_job` → `place_cluster` →
/// `execute_placed` with default wire settings (plus sampling when
/// `sample > 0`).
pub fn net_unix(cx: &Ctx, d: &Design, budget: u64, sample: u64) -> Res<Rep> {
    let tag = d.name.as_str();
    cx.tr.calibrate();
    let settings = WireSettings {
        sample_interval: sample,
        ..WireSettings::default()
    };
    let (ready, setup_s) = cx.tr.timed("setup", tag, || {
        let circuit = parse_and_validate(cx, d)?;
        let prepared = prepare(cx, d, &circuit, &settings)?;
        let fleet = WorkerFleet::start(cx, prepared.n_workers())?;
        let (placed, _) = cx.tr.timed("net.coordinator.place_cluster", tag, || {
            place_cluster(&prepared, &fleet.addrs, 10_000)
        });
        Ok::<_, String>((prepared, fleet, placed.map_err(s)?))
    });
    let (prepared, fleet, placed) = ready?;
    let u0 = Usage::now();
    let (report, run_s) = cx.tr.timed("net.execute", tag, || {
        execute_placed(
            &prepared,
            placed,
            budget,
            RecoveryOptions::none(),
            None,
            Teardown::Shutdown,
        )
    });
    let usage = Usage::now().since(&u0, cx.tr.scale());
    let report = report.map_err(s)?;
    let (joined, teardown_s) = cx.tr.timed("teardown", tag, || fleet.join());
    joined?;

    let mut results = Vec::new();
    link_results(&report.metrics, &mut results);
    if sample > 0 {
        series_rows(&report.series, &mut results);
    }
    Ok(Rep {
        setup_s,
        run_s,
        teardown_s,
        cycles: report.metrics.target_cycles,
        usage,
        results,
        counters: Vec::new(),
    })
}
