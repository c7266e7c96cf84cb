//! Interpreter-engine throughput benchmark and allocation regression
//! guard.
//!
//! Runs the same workloads through both execution engines (the compiled
//! instruction tape and the tree-walking reference), reports settle-loop
//! throughput in cycles/s, and enforces these CI invariants:
//!
//! 1. **Bit-exactness** — both engines must end every workload in an
//!    identical architectural state (probe signals compared).
//! 2. **Zero per-cycle heap allocation** — on an all-≤64-bit pure-RTL
//!    design (the 4-node NoC ring), the compiled engine's steady-state
//!    poke/eval/tick loop must not allocate at all. A counting global
//!    allocator measures the delta over a thousand cycles; any nonzero
//!    count is a regression and fails the build. The sliced engine is
//!    held to the same on the ring and on a 64-lane RocketLite boot
//!    (memory read and write ports in the measured window). The binary is
//!    single-threaded precisely so this counter is meaningful. The
//!    measured loop carries live tracing (a `SpanSeq` span per cycle,
//!    `obs_counter!`), so this guard also proves the disabled tracer is
//!    allocation-free on the hot path.
//! 3. **Bounded observability overhead** — enabling the tracer (a span
//!    per cycle, with the default 100-cycle metric-sampling cadence)
//!    must keep settle-loop throughput within 5% of the untraced run.
//! 4. **A partition boundary that costs what it carries** — over 1 000
//!    steady-state target cycles of the partitioned `noc6` cut on the
//!    DES engine, the heap is touched at most once per token wider than
//!    64 bits packed (a token is a `Bits`, and only those keep their
//!    words on the heap; narrower ones are inline) plus whatever the
//!    by-name bridge interface allocates on environment channels and the
//!    run's metrics snapshot: nothing from narrow tokens, the LI-BDN's
//!    host step, the extern-model ABI, `push_input`, or draining an idle
//!    channel. And exact-mode partitioning of RocketLite (the core on
//!    its own partition) must stay within 12.5× the monolithic host time
//!    per target cycle.
//! 5. **Sliced batch floors** — aggregate 64-lane throughput over one
//!    compiled run: ≥ 2.8× on `noc_ring_4`, ≥ 3.5× on `soc24_fig6`,
//!    ≥ 8× on `sha3` and ≥ 16× on `rocket` (RocketLite run to `done`).
//!
//! The floors and the RocketLite limit are ratios against the compiled
//! engine, so they move when that engine gets faster while the other
//! side stays where it was. Inline one-word `Bits` and the value-arena
//! tape moved the floors from 20×/10× to 10×/7× (two alternated runs per
//! tree on a 2-core box: sliced `noc_ring_4` 8.3–9.2 M lane-c/s before,
//! 8.0–9.1 M after; gain 20.2–25.0× → 12.5–14.0×; `soc24_fig6`
//! 11.0–12.7× → 10.2–12.1×, single runs down to 9.6×). Folding
//! port-connection copies into their source's write moved them again,
//! with the limit from 9×, over 14 alternated runs per tree on a noisy
//! 2-core box: the other sides did not slow down — sliced `noc_ring_4`
//! 4.3–7.9 M → 4.1–7.9 M lane-c/s (medians 5.54 → 5.51 M), sliced
//! `soc24_fig6` 0.63–1.22 M → 0.72–1.21 M, the DES cut 2.0–4.4 →
//! 2.0–3.9 µs per target cycle — while the compiled denominators rose
//! (`noc_ring_4` medians 413 k → 643 k c/s). The gains read 11.2–26.0× →
//! 5.9–11.1× and 9.1–18.4× → 5.3–10.6×, the cut ratio 6.1–7.7× →
//! 6.0–10.3×. Each bound keeps the previous re-basing's headroom from
//! the worst reading: 0.8 × 5.9 for `noc_ring_4`, 0.73 × 5.3 for
//! `soc24_fig6`, 1.2 × 10.3 for the cut.
//!
//! Dirty-set scheduling in the sliced engine (lane kernels skipped when
//! their input planes did not move, as the compiled engine skips
//! definitions) added the last two floors. `sha3` is idle after cycle
//! 230, so both engines skip nearly everything there: nine runs on a
//! noisy 2-core box read 54–95× (4.2–4.6 M → 121–204 M sliced
//! lane-c/s), and the floor is the 8× the roadmap's gate asks for.
//! `rocket` read 32–60× over nine runs (before, running every kernel
//! every cycle, the e2e `rocket_sliced64` workload read 20–31 M lane-c/s
//! against 2.3–3.7 M compiled c/s here, ≈ 6–13×); its floor keeps the
//! usual headroom from the worst reading, 0.75 × 31.7. The `noc_ring_4`
//! and `soc24_fig6` floors did not move.
//!
//! Reading folded copies through their views (no copy written per
//! cycle but an outer head's shadow) sped the compiled side up again,
//! measured over 14 alternated runs per tree on a noisy 2-core box,
//! medians [range]. The other sides did not slow down: sliced
//! `noc_ring_4` 8.03 M [4.59–8.98 M] → 7.82 M [4.39–9.47 M] lane-c/s,
//! sliced `rocket` 152 M [83–173 M] → 155 M [78–175 M], the DES cut
//! 2.11 [1.92–3.34] → 2.17 [1.95–4.22] µs per target cycle. Compiled
//! `noc_ring_4` rose 886 k [466 k–1.01 M] → 1.20 M [0.92–1.37 M] c/s and
//! its gain fell 9.4× [7.0–14.8] → 6.5× [3.5–9.4]; its floor keeps the
//! 0.8 headroom from the worst reading, 0.8 × 3.5. Compiled `rocket`
//! read 3.95 M → 4.21 M c/s, gains 37.6× [31.7–52.5] → 36.2× [29.5–39.6],
//! but 3 of 20 earlier runs of the parent read 21.8–23.2×, so its floor
//! keeps the 0.75 headroom from the worst reading known, 0.75 × 21.8.
//! The rest did not move their denominators: compiled `soc24_fig6` 164 k
//! → 170 k c/s (its copies feed extern inputs, written eagerly), `sha3`
//! 3.03 M → 3.03 M, monolithic RocketLite 275 → 271 ns per cycle, so
//! the 3.5× and 8× floors and the 12.5× cut limit stay (worst readings
//! on the change: 7.1×, 64×, 9.7×).
//!
//! Folding port-connection copies in the lowering for both engines
//! (the sliced tape no longer runs a copy program per port connection:
//! plane-copy runs per cycle `noc_ring_4` 118.7 → 32.0, `soc24_fig6`
//! 186.8 → 100.0) moved no floor: ten runs on a quiet 2-core box all
//! passed, gains `noc_ring_4` 6.9–10.3×, `soc24_fig6` 10.5–12.5×,
//! `sha3` 65–100×, `rocket` 26.8–40.7×, obs gate 95.1–117.5 %.
//!
//! The observability gate is noise-dominated at this size (single
//! attempts in one session read anywhere from 95 % to above 100 %),
//! which is why it retries; its 95 % bar is unchanged. Its span per
//! cycle is a `SpanSeq`, one clock read a span: two time-stamp-counter
//! reads alone, an `obs_span!` pair's, were 4-5 % of the ~0.8 µs
//! viewed-copies `noc_ring_4` cycle on a 2-core Xeon VM, and the gate
//! failed 7 of 14 runs (3 of 10 in a later batch); at one read it
//! passed 42 of 43.
//!
//! The bin prints its rows and writes no file. Throughput numbers are
//! machine-dependent; the invariants and ratio gates are not.

use fireaxe::ir::{Bits, ExecEngine, Interpreter, SliceCoverage, SlicedInterpreter, TapeShape};
use fireaxe::obs::{obs_counter, trace, SpanSeq};
use fireaxe::prelude::*;
use fireaxe::soc::noc::{ring_noc_circuit, NocConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation made by the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Lanes every bit-sliced measurement packs (one per plane-word bit).
const LANES: u32 = 64;

/// CI floor on the sliced RocketLite row's gain (see the header).
const ROCKET_MIN_GAIN: f64 = 16.0;

/// One workload's bit-sliced measurement: aggregate lane-cycles/s over
/// a 64-lane batch, each lane cross-checked against an independent
/// sequential run of the same stimulus.
struct SlicedResult {
    lane_cps: f64,
    lanes_match: bool,
    /// CI floor on `gain` (aggregate lane throughput over one compiled
    /// run); `None` rows are informational.
    min_gain: Option<f64>,
    /// What ran as plane kernels and what still went through the tree
    /// walker — the first thing to read beside a low gain.
    coverage: SliceCoverage,
}

struct WorkloadResult {
    name: &'static str,
    cycles: u64,
    compiled_cps: f64,
    reference_cps: f64,
    probes_match: bool,
    /// The compiled engine's tape: what its row's rate pays for.
    shape: TapeShape,
    sliced: Option<SlicedResult>,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.compiled_cps / self.reference_cps
    }

    /// Aggregate sliced lane-cycles/s over a single compiled run's
    /// cycles/s — how many scenarios-worth of simulation one batch pass
    /// buys compared to running them one at a time.
    fn sliced_gain(&self) -> f64 {
        self.sliced
            .as_ref()
            .map_or(0.0, |s| s.lane_cps / self.compiled_cps)
    }
}

/// Drives a NoC ring: every node injects a flit each cycle it can.
/// Port-name strings live in the driver so the measured loop itself is
/// allocation-free on the harness side.
struct NocDriver {
    valid_names: Vec<String>,
    bits_names: Vec<String>,
}

impl NocDriver {
    fn new(cfg: &NocConfig) -> Self {
        NocDriver {
            valid_names: (0..cfg.nodes)
                .map(|i| format!("node{i}_tx_valid"))
                .collect(),
            bits_names: (0..cfg.nodes).map(|i| format!("node{i}_tx_bits")).collect(),
        }
    }

    /// Per-cycle flit for node `i` as lane `lane` sees it: lanes salt
    /// the payload so every lane simulates a distinct traffic pattern.
    /// Lane 0 is exactly the scalar stimulus [`NocDriver::run`] drives.
    fn flit(cfg: &NocConfig, c: u64, i: usize, lane: u32) -> u64 {
        let n = cfg.nodes;
        let layout = cfg.flit();
        let dest = (i + 1 + (c as usize % (n - 1))) % n;
        let payload = (c ^ i as u64 ^ (lane as u64).wrapping_mul(0x9E37)) & 0xFFFF;
        layout.pack(dest as u64, i as u64, 0, payload) & ((1u64 << layout.width()) - 1)
    }

    /// Scalar replay of one lane's stimulus (used to cross-check every
    /// sliced lane against an independent compiled run).
    fn run_lane(&self, sim: &mut Interpreter, cfg: &NocConfig, cycles: u64, lane: u32) {
        for c in 0..cycles {
            for i in 0..cfg.nodes {
                sim.poke_u64(&self.valid_names[i], (c % 3 != 0) as u64)
                    .unwrap();
                sim.poke_u64(&self.bits_names[i], Self::flit(cfg, c, i, lane))
                    .unwrap();
            }
            sim.eval().unwrap();
            sim.tick();
        }
        sim.eval().unwrap();
    }

    /// Drives all 64 lanes of a sliced batch with the per-lane stimulus
    /// of [`NocDriver::flit`]. Allocation-free after warmup: per-port
    /// lane values live in one stack array and enter the planes through
    /// `poke_lanes_u64`'s bit-matrix transpose.
    fn run_sliced(&self, si: &mut SlicedInterpreter, cfg: &NocConfig, cycles: u64, start: u64) {
        let mut vals = [0u64; LANES as usize];
        for c in start..start + cycles {
            let valid = (c % 3 != 0) as u64;
            for i in 0..cfg.nodes {
                for (lane, v) in vals.iter_mut().enumerate() {
                    *v = Self::flit(cfg, c, i, lane as u32);
                }
                si.poke_lanes_u64(&self.bits_names[i], &vals);
                vals = [valid; LANES as usize];
                si.poke_lanes_u64(&self.valid_names[i], &vals);
            }
            si.eval().unwrap();
            si.tick();
        }
        si.eval().unwrap();
    }

    fn run(&self, sim: &mut Interpreter, cfg: &NocConfig, cycles: u64) {
        let n = cfg.nodes;
        let layout = cfg.flit();
        let w = layout.width();
        // The tracing calls stay in the measured loop: disabled they
        // compile to one relaxed load (the alloc guard proves they never
        // allocate), enabled they model a profiled simulation run, a span
        // per cycle and the default 100-cycle sampling cadence.
        let mut cycle_span = SpanSeq::new("bench.cycle");
        for c in 0..cycles {
            cycle_span.next(0);
            for i in 0..n {
                let dest = (i + 1 + (c as usize % (n - 1))) % n;
                let flit = layout.pack(dest as u64, i as u64, 0, (c ^ i as u64) & 0xFFFF);
                sim.poke_u64(&self.valid_names[i], (c % 3 != 0) as u64)
                    .unwrap();
                sim.poke_u64(&self.bits_names[i], flit & ((1u64 << w) - 1))
                    .unwrap();
            }
            sim.eval().unwrap();
            sim.tick();
            if c % 100 == 0 {
                obs_counter!("bench.cycles", 0, c as f64);
            }
        }
        drop(cycle_span);
        sim.eval().unwrap();
    }
}

fn noc_probes(sim: &Interpreter, cfg: &NocConfig) -> Vec<Bits> {
    (0..cfg.nodes)
        .flat_map(|i| {
            [
                sim.peek(&format!("node{i}_rx_valid")).clone(),
                sim.peek(&format!("node{i}_rx_bits")).clone(),
                sim.peek(&format!("node{i}_tx_ready")).clone(),
            ]
        })
        .collect()
}

fn bench_noc_ring() -> WorkloadResult {
    let cfg = NocConfig {
        nodes: 4,
        payload_bits: 32,
    };
    let circuit = ring_noc_circuit(&cfg);
    let driver = NocDriver::new(&cfg);
    let cycles = 30_000u64;
    let mut out = [0.0f64; 2];
    let mut probes: Vec<Vec<Bits>> = Vec::new();
    for (k, engine) in [ExecEngine::Compiled, ExecEngine::Reference]
        .into_iter()
        .enumerate()
    {
        let mut sim = Interpreter::with_engine(&circuit, engine).unwrap();
        driver.run(&mut sim, &cfg, 64); // warmup
        let t0 = Instant::now();
        driver.run(&mut sim, &cfg, cycles);
        out[k] = cycles as f64 / t0.elapsed().as_secs_f64();
        probes.push(noc_probes(&sim, &cfg));
    }
    // Bit-sliced batch: 64 lanes, each with lane-salted traffic, in one
    // tape pass per cycle. Every lane is then replayed as an independent
    // compiled run and the architectural digests compared.
    let mut si = SlicedInterpreter::new(&circuit, LANES).unwrap();
    driver.run_sliced(&mut si, &cfg, 64, 0); // warmup
    let t0 = Instant::now();
    driver.run_sliced(&mut si, &cfg, cycles, 64);
    let lane_cps = (u64::from(LANES) * cycles) as f64 / t0.elapsed().as_secs_f64();
    let lanes_match = (0..LANES).all(|lane| {
        let mut sim = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
        driver.run_lane(&mut sim, &cfg, 64 + cycles, lane);
        sim.state_digest() == si.lane_digest(lane)
    });
    WorkloadResult {
        name: "noc_ring_4",
        cycles,
        compiled_cps: out[0],
        reference_cps: out[1],
        probes_match: probes[0] == probes[1],
        shape: Interpreter::with_engine(&circuit, ExecEngine::Compiled)
            .unwrap()
            .tape_shape(),
        sliced: Some(SlicedResult {
            lane_cps,
            lanes_match,
            min_gain: Some(2.8),
            coverage: si.coverage(),
        }),
    }
}

/// The steady-state allocation guard: after warmup, a compiled-engine
/// poke/eval/tick loop over the all-narrow NoC ring must not touch the
/// heap at all.
fn alloc_guard() -> Result<(), String> {
    let cfg = NocConfig {
        nodes: 4,
        payload_bits: 32,
    };
    let circuit = ring_noc_circuit(&cfg);
    let driver = NocDriver::new(&cfg);
    let mut sim = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    // Warm up: first eval force-settles everything, Vec capacities and
    // interned lookups reach steady state.
    driver.run(&mut sim, &cfg, 64);
    let guard_cycles = 1_000u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    driver.run(&mut sim, &cfg, guard_cycles);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    if delta != 0 {
        return Err(format!(
            "compiled engine allocated {delta} times over {guard_cycles} steady-state cycles \
             on an all-<=64-bit design (expected 0)"
        ));
    }
    println!(
        "alloc guard: 0 heap allocations over {guard_cycles} compiled-engine cycles (noc_ring_4)"
    );
    Ok(())
}

/// The sliced steady-state allocation guard: a 64-lane batch over the
/// same all-narrow NoC ring must keep its poke/eval/tick loop off the
/// heap too — lane values cross into the bit planes through a stack
/// transpose, logic runs on preallocated planes, and register commits
/// are plane copies.
fn sliced_alloc_guard() -> Result<(), String> {
    let cfg = NocConfig {
        nodes: 4,
        payload_bits: 32,
    };
    let circuit = ring_noc_circuit(&cfg);
    let driver = NocDriver::new(&cfg);
    let mut si = SlicedInterpreter::new(&circuit, LANES).unwrap();
    driver.run_sliced(&mut si, &cfg, 64, 0); // warmup
    let guard_cycles = 1_000u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    driver.run_sliced(&mut si, &cfg, guard_cycles, 64);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    if delta != 0 {
        return Err(format!(
            "sliced engine allocated {delta} times over {guard_cycles} steady-state 64-lane \
             cycles on an all-<=64-bit design (expected 0)"
        ));
    }
    println!(
        "alloc guard: 0 heap allocations over {guard_cycles} sliced 64-lane cycles (noc_ring_4)"
    );
    Ok(())
}

/// The same guard where memory ports are in the cycle: a 64-lane
/// RocketLite boot. The scratchpad's read port runs every settle and its
/// write port fires inside the measured window (counted on the port's
/// enable), both as lane kernels — transposes on the stack, staged
/// writes in buffers that keep their capacity.
fn sliced_mem_alloc_guard() -> Result<(), String> {
    let circuit = fireaxe::soc::validation::rocket_soc(60, 16);
    let mut si = SlicedInterpreter::new(&circuit, LANES).unwrap();
    let cov = si.coverage();
    if !cov.scalarized.is_empty() {
        return Err(format!(
            "rocket_soc scalarizes under the sliced engine: {cov}"
        ));
    }
    for _ in 0..256 {
        si.step().unwrap(); // warmup, past the first store
    }
    let guard_cycles = 2_000u64;
    let mut writes = 0u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..guard_cycles {
        si.step().unwrap();
        // Still the settled pre-edge value the tick just acted on.
        writes += si.peek_u64(LANES - 1, "mem.is_write_fire");
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    if writes == 0 {
        return Err(format!(
            "rocket_soc's scratchpad write port never fired in {guard_cycles} cycles: \
             the guard no longer covers the write-port kernel"
        ));
    }
    if delta != 0 {
        return Err(format!(
            "sliced engine allocated {delta} times over {guard_cycles} steady-state 64-lane \
             cycles of rocket_soc (memory read port + {writes} writes per lane; expected 0)"
        ));
    }
    println!(
        "alloc guard: 0 heap allocations over {guard_cycles} sliced 64-lane cycles \
         (rocket_soc: read port every settle, {writes} writes per lane)"
    );
    Ok(())
}

/// Heap allocations made while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The partitioned allocation guard: `noc6` (6 tiles, 3 × 2 routers + the
/// remainder) on the DES engine. A budgeted run advances every node by
/// exactly the budget, so the window packs exactly one token per output
/// channel per cycle; each is one `Bits`, which allocates only when it is
/// wider than 64 bits. Environment channels still go
/// through the by-name bridge interface (`ChannelSpec::{pack, unpack}`
/// and the bridge's maps), which is priced here by running it standalone
/// on the design's own channel specs. Everything else on the cycle —
/// host-step bookkeeping, behavioural-model calls, `push_input`, idle
/// env channels — must come to zero.
fn des_alloc_guard() -> Result<(), String> {
    const WARMUP: u64 = 500;
    const CYCLES: u64 = 1_000;
    // One request per tile every 16 cycles: a load the subsystem keeps up
    // with, so the behavioural models' own queues stop growing.
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 16,
        ..Default::default()
    });
    let groups = (0..3)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: vec![2 * g, 2 * g + 1],
            },
            fame5: false,
        })
        .collect();
    let (design, mut sim) = FireAxe::new(soc.circuit, PartitionSpec::exact(groups))
        .build()
        .map_err(|e| e.to_string())?;

    let mut packed_per_cycle = 0u64;
    let mut env_per_cycle = 0u64;
    for (_, _, _, t) in design.nodes() {
        packed_per_cycle += t
            .libdn
            .outputs
            .iter()
            .filter(|o| o.channel.width().get() > 64)
            .count() as u64;
        let mut bridge = ConstBridge::zeros();
        for &chan in &t.env_outputs {
            let spec = &t.libdn.outputs[chan].channel;
            let token = Bits::zero(spec.width());
            env_per_cycle += allocs_during(|| {
                let values = spec.unpack(&token);
                fireaxe::sim::Bridge::consume(&mut bridge, 0, &spec.name, &values);
            })
            .1;
        }
        for &chan in &t.env_inputs {
            let spec = &t.libdn.inputs[chan];
            env_per_cycle += allocs_during(|| {
                let values = fireaxe::sim::Bridge::produce(&mut bridge, 0);
                spec.pack(&values)
            })
            .1;
        }
    }

    sim.run_target_cycles(WARMUP).map_err(|e| e.to_string())?;
    // The run hands back a metrics snapshot; price that too.
    let (_, report) = allocs_during(|| sim.metrics());
    let (run, delta) = allocs_during(|| sim.run_target_cycles(WARMUP + CYCLES));
    run.map_err(|e| e.to_string())?;
    let allowance = (packed_per_cycle + env_per_cycle) * CYCLES + report;
    println!(
        "alloc guard: {:.2} heap allocations per target cycle over {CYCLES} DES cycles of the \
         noc6 cut ({packed_per_cycle} tokens > 64 bits packed + {env_per_cycle} on env channels \
         per cycle; {delta} total, allowance {allowance})",
        delta as f64 / CYCLES as f64
    );
    if delta > allowance {
        return Err(format!(
            "partitioned noc6 allocated {delta} times over {CYCLES} steady-state target cycles, \
             above one per token wider than 64 bits packed ({packed_per_cycle}/cycle) plus the \
             bridge interface's own ({env_per_cycle}/cycle): narrow tokens, the host step, the \
             extern ABI or the queues are back on the heap"
        ));
    }
    Ok(())
}

/// The partitioning-overhead gate: RocketLite run to `done`, monolithic
/// and with the core extracted onto its own partition in exact mode.
/// Host time per target cycle, partitioned over monolithic, best of
/// three each — both sides measured in this process, so the ratio gates.
fn rocket_cut_gate() -> Result<(), String> {
    use fireaxe::validation::{partitioned_cycles_to_done, ValidationTarget};
    const MAX_RATIO: f64 = 12.5;
    let (iterations, mem_latency) = (30, 8);
    let circuit = fireaxe::soc::validation::rocket_soc(iterations, mem_latency);
    let target = ValidationTarget::Rocket { iterations };
    let best_ns_per_cycle = |run: &dyn Fn() -> Result<u64, String>| -> Result<(u64, f64), String> {
        let mut best = f64::INFINITY;
        let mut cycles = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            cycles = run()?;
            best = best.min(t0.elapsed().as_secs_f64() * 1e9 / cycles as f64);
        }
        Ok((cycles, best))
    };
    let (mono_cycles, mono) = best_ns_per_cycle(&|| {
        fireaxe::soc::validation::run_monolithic_to_done(&circuit, 1_000_000)
    })?;
    let (cut_cycles, cut) = best_ns_per_cycle(&|| {
        partitioned_cycles_to_done(target, PartitionMode::Exact, mem_latency)
    })?;
    if cut_cycles != mono_cycles {
        return Err(format!(
            "RocketLite exact-mode cut finished at cycle {cut_cycles}, monolithic at {mono_cycles}"
        ));
    }
    let ratio = cut / mono;
    println!(
        "partition gate: RocketLite to done in {mono_cycles} cycles, monolithic {mono:.0} ns/cycle, \
         core on its own partition (exact, DES) {cut:.0} ns/cycle = {ratio:.1}x (limit {MAX_RATIO:.1}x)"
    );
    if ratio > MAX_RATIO {
        return Err(format!(
            "exact-mode partitioning of RocketLite costs {ratio:.1}x the monolithic host time \
             per target cycle (limit {MAX_RATIO:.1}x)"
        ));
    }
    Ok(())
}

/// Settle-loop throughput of the compiled engine over the NoC ring,
/// with whatever tracer state is currently in force.
fn noc_throughput(cycles: u64) -> f64 {
    let cfg = NocConfig {
        nodes: 4,
        payload_bits: 32,
    };
    let circuit = ring_noc_circuit(&cfg);
    let driver = NocDriver::new(&cfg);
    let mut sim = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    driver.run(&mut sim, &cfg, 64); // warmup
    let t0 = Instant::now();
    driver.run(&mut sim, &cfg, cycles);
    cycles as f64 / t0.elapsed().as_secs_f64()
}

/// The observability overhead gate: tracing enabled (per-cycle spans
/// plus the default 100-cycle counter cadence) must stay within 5% of
/// untraced settle-loop throughput. Timing is noisy on shared CI hosts,
/// so the comparison retries a few times before failing.
fn obs_overhead_gate() -> Result<(), String> {
    const MAX_TRIES: u32 = 3;
    const CYCLES: u64 = 10_000;
    let mut worst = 0.0f64;
    for attempt in 1..=MAX_TRIES {
        let off = noc_throughput(CYCLES);
        trace::set_enabled(true);
        let on = noc_throughput(CYCLES);
        trace::set_enabled(false);
        let _ = trace::take_events(); // drain the rings between attempts
        let ratio = on / off;
        worst = worst.max(ratio);
        if ratio >= 0.95 {
            println!(
                "obs overhead gate: traced run at {:.1}% of untraced throughput \
                 (attempt {attempt})",
                ratio * 100.0
            );
            return Ok(());
        }
    }
    Err(format!(
        "tracing overhead too high: best traced run reached only {:.1}% of untraced \
         settle-loop throughput over {MAX_TRIES} attempts (need >= 95%)",
        worst * 100.0
    ))
}

fn bind_all(sim: &mut Interpreter) {
    for (path, key, bound) in sim.extern_instances() {
        if !bound {
            let model = fireaxe::soc::make_behavior(&key, &path).unwrap();
            sim.bind_behavior(&path, model).unwrap();
        }
    }
    sim.reset();
}

fn bench_soc24() -> WorkloadResult {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        ..Default::default()
    });
    let cycles = 2_000u64;
    let mut out = [0.0f64; 2];
    let mut probes: Vec<(Bits, u64)> = Vec::new();
    for (k, engine) in [ExecEngine::Compiled, ExecEngine::Reference]
        .into_iter()
        .enumerate()
    {
        let mut sim = Interpreter::with_engine(&soc.circuit, engine).unwrap();
        bind_all(&mut sim);
        for _ in 0..64 {
            sim.step().unwrap(); // warmup
        }
        let t0 = Instant::now();
        for _ in 0..cycles {
            sim.step().unwrap();
        }
        out[k] = cycles as f64 / t0.elapsed().as_secs_f64();
        sim.eval().unwrap();
        probes.push((sim.peek("subsys.serviced").clone(), sim.cycle()));
    }
    // Bit-sliced batch over the extern-heavy SoC: the top has no input
    // ports, so all 64 lanes run the same scenario — a pure throughput
    // measurement of the worst case for slicing (per-lane behavioral
    // model scalarization). Every lane must still equal an independent
    // compiled run bit for bit.
    let mut si = SlicedInterpreter::new(&soc.circuit, LANES).unwrap();
    for (path, key, bound) in si.extern_instances() {
        if !bound {
            si.bind_behavior_with(&path, |_| fireaxe::soc::make_behavior(&key, &path).unwrap())
                .unwrap();
        }
    }
    si.reset();
    for _ in 0..64 {
        si.step().unwrap(); // warmup
    }
    let t0 = Instant::now();
    for _ in 0..cycles {
        si.step().unwrap();
    }
    let lane_cps = (u64::from(LANES) * cycles) as f64 / t0.elapsed().as_secs_f64();
    si.eval().unwrap();
    let mut gold = Interpreter::with_engine(&soc.circuit, ExecEngine::Compiled).unwrap();
    bind_all(&mut gold);
    for _ in 0..64 + cycles {
        gold.step().unwrap();
    }
    gold.eval().unwrap();
    let gd = gold.state_digest();
    let lanes_match = (0..LANES).all(|lane| si.lane_digest(lane) == gd);
    WorkloadResult {
        name: "soc24_fig6",
        cycles,
        compiled_cps: out[0],
        reference_cps: out[1],
        probes_match: probes[0] == probes[1],
        shape: gold.tape_shape(),
        sliced: Some(SlicedResult {
            lane_cps,
            lanes_match,
            min_gain: Some(3.5),
            coverage: si.coverage(),
        }),
    }
}

fn bench_sha3() -> WorkloadResult {
    let circuit = fireaxe::soc::validation::sha3_soc(8);
    let cycles = 5_000u64;
    let mut out = [0.0f64; 2];
    let mut probes: Vec<Vec<Bits>> = Vec::new();
    for (k, engine) in [ExecEngine::Compiled, ExecEngine::Reference]
        .into_iter()
        .enumerate()
    {
        let mut sim = Interpreter::with_engine(&circuit, engine).unwrap();
        sim.poke_u64("go", 1).unwrap();
        for _ in 0..64 {
            sim.step().unwrap(); // warmup
        }
        let t0 = Instant::now();
        for _ in 0..cycles {
            sim.step().unwrap();
        }
        out[k] = cycles as f64 / t0.elapsed().as_secs_f64();
        sim.eval().unwrap();
        probes.push(
            sim.signal_paths()
                .iter()
                .map(|p| sim.peek(p).clone())
                .collect::<Vec<_>>(),
        );
    }
    // Bit-sliced batch: all lanes hash the same stream, each lane
    // cross-checked against a compiled run.
    let mut si = SlicedInterpreter::new(&circuit, LANES).unwrap();
    for lane in 0..LANES {
        si.poke_u64(lane, "go", 1).unwrap();
    }
    for _ in 0..64 {
        si.step().unwrap(); // warmup
    }
    let t0 = Instant::now();
    for _ in 0..cycles {
        si.step().unwrap();
    }
    let lane_cps = (u64::from(LANES) * cycles) as f64 / t0.elapsed().as_secs_f64();
    si.eval().unwrap();
    let mut gold = Interpreter::with_engine(&circuit, ExecEngine::Compiled).unwrap();
    gold.poke_u64("go", 1).unwrap();
    for _ in 0..64 + cycles {
        gold.step().unwrap();
    }
    gold.eval().unwrap();
    let gd = gold.state_digest();
    let lanes_match = (0..LANES).all(|lane| si.lane_digest(lane) == gd);
    WorkloadResult {
        name: "sha3",
        cycles,
        compiled_cps: out[0],
        reference_cps: out[1],
        probes_match: probes[0] == probes[1],
        shape: gold.tape_shape(),
        sliced: Some(SlicedResult {
            lane_cps,
            lanes_match,
            min_gain: Some(8.0),
            coverage: si.coverage(),
        }),
    }
}

/// RocketLite run to `done` the way e2e's `rocket_sliced64` runs it (on
/// the 30-iteration, 8-cycle-memory build the partition gate uses): no
/// inputs, so every lane boots the same program. A boot is a few thousand cycles,
/// so each engine's rate is taken over several fresh boots (elaboration
/// outside the timed region); the reference engine boots once.
fn bench_rocket() -> WorkloadResult {
    const BOOTS: u32 = 8;
    let circuit = fireaxe::soc::validation::rocket_soc(30, 8);
    let boot = |sim: &mut Interpreter| -> u64 {
        let mut cycles = 0;
        loop {
            sim.eval().unwrap();
            if sim.peek("done").to_u64() == 1 {
                return cycles;
            }
            sim.tick();
            cycles += 1;
        }
    };
    let mut out = [0.0f64; 2];
    let mut probes: Vec<(u64, u64)> = Vec::new();
    for (k, (engine, boots)) in [(ExecEngine::Compiled, BOOTS), (ExecEngine::Reference, 1)]
        .into_iter()
        .enumerate()
    {
        let mut secs = 0.0;
        let mut cycles = 0;
        let mut end = (0, 0);
        for _ in 0..boots {
            let mut sim = Interpreter::with_engine(&circuit, engine).unwrap();
            let t0 = Instant::now();
            let c = boot(&mut sim);
            secs += t0.elapsed().as_secs_f64();
            cycles += c;
            end = (c, sim.state_digest());
        }
        out[k] = cycles as f64 / secs;
        probes.push(end);
    }
    let mut secs = 0.0;
    let mut cycles = 0;
    let mut batch = None;
    for _ in 0..BOOTS {
        let mut si = SlicedInterpreter::new(&circuit, LANES).unwrap();
        let t0 = Instant::now();
        loop {
            si.eval().unwrap();
            if si.peek_u64(0, "done") == 1 {
                break;
            }
            si.tick();
        }
        secs += t0.elapsed().as_secs_f64();
        cycles += si.cycle();
        batch = Some(si);
    }
    let si = batch.expect("at least one boot");
    let lane_cps = (u64::from(LANES) * cycles) as f64 / secs;
    let (gold_cycles, gold_digest) = probes[0];
    let lanes_match =
        si.cycle() == gold_cycles && (0..LANES).all(|lane| si.lane_digest(lane) == gold_digest);
    WorkloadResult {
        name: "rocket",
        cycles: gold_cycles,
        compiled_cps: out[0],
        reference_cps: out[1],
        probes_match: probes[0] == probes[1],
        shape: Interpreter::with_engine(&circuit, ExecEngine::Compiled)
            .unwrap()
            .tape_shape(),
        sliced: Some(SlicedResult {
            lane_cps,
            lanes_match,
            min_gain: Some(ROCKET_MIN_GAIN),
            coverage: si.coverage(),
        }),
    }
}

fn main() -> ExitCode {
    println!("== Interpreter engine throughput (compiled tape vs tree reference vs sliced) ==\n");
    let results = [
        bench_noc_ring(),
        bench_soc24(),
        bench_sha3(),
        bench_rocket(),
    ];
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>8} {:>16} {:>8}  exact",
        "workload", "cycles", "compiled c/s", "reference c/s", "speedup", "sliced lane-c/s", "gain"
    );
    let mut ok = true;
    for r in &results {
        let (lane_cps, gain, sliced_ok) = match &r.sliced {
            Some(sl) => (
                format!("{:.0}", sl.lane_cps),
                format!("{:.1}x", r.sliced_gain()),
                sl.lanes_match,
            ),
            None => ("-".to_string(), "-".to_string(), true),
        };
        println!(
            "{:<12} {:>10} {:>14.0} {:>14.0} {:>7.2}x {:>16} {:>8}  {}",
            r.name,
            r.cycles,
            r.compiled_cps,
            r.reference_cps,
            r.speedup(),
            lane_cps,
            gain,
            if r.probes_match && sliced_ok {
                "yes"
            } else {
                "NO"
            }
        );
        println!("{:<12} tape {}", "", r.shape);
        if let Some(sl) = &r.sliced {
            println!("{:<12} sliced {}", "", sl.coverage);
        }
        ok &= r.probes_match && sliced_ok;
        // The batch-throughput floor is machine-relative (both sides
        // are measured in this same process), so it gates in CI.
        if let Some(min) = r.sliced.as_ref().and_then(|sl| sl.min_gain) {
            if r.sliced_gain() < min {
                eprintln!(
                    "FAIL: {} sliced gain {:.1}x below the {min:.1}x floor",
                    r.name,
                    r.sliced_gain()
                );
                ok = false;
            }
        }
    }
    println!();
    if let Err(e) = alloc_guard() {
        eprintln!("FAIL: {e}");
        ok = false;
    }
    if let Err(e) = sliced_alloc_guard() {
        eprintln!("FAIL: {e}");
        ok = false;
    }
    if let Err(e) = sliced_mem_alloc_guard() {
        eprintln!("FAIL: {e}");
        ok = false;
    }
    if let Err(e) = des_alloc_guard() {
        eprintln!("FAIL: {e}");
        ok = false;
    }
    if let Err(e) = rocket_cut_gate() {
        eprintln!("FAIL: {e}");
        ok = false;
    }
    if let Err(e) = obs_overhead_gate() {
        eprintln!("FAIL: {e}");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nFAIL: engine parity, allocation or overhead regression detected");
        ExitCode::FAILURE
    }
}
