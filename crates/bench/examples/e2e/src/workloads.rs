//! The six workloads: inputs, golden gate, timed repetitions, and the
//! end-to-end metrics of an untraced run.

use crate::inputs::{self, mix, Design, LANES};
use crate::layers::{in_process, mono, net_unix, sliced, Ctx, Rep, Res};
use crate::measure::{median, peak_rss_kb, percentile, undisturbed_half};
use crate::serve::{Daemon, JobSample, JobSpec};
use fireaxe::ir::ExecEngine;
use fireaxe::sim::Backend;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which rung of the stack a workload (or probe) exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Monolithic compiled interpreter.
    Mono,
    /// 64-lane bit-sliced interpreter.
    Sliced,
    /// Partitioned, DES golden engine.
    Des,
    /// Partitioned, one OS thread per partition.
    Threads,
    /// Partitioned, worker threads over Unix-domain sockets.
    NetUnix,
    /// The job server.
    Serve,
}

/// A workload's fixed shape. Budgets are sized so one repetition's run
/// phase takes ≈60 ms on the 2-core reference box: short enough that the
/// clock calibration ahead of it still holds at its end, and a 15 s run
/// has ≈150 repetitions, the faster half of them under its medians.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The rung under test.
    pub rung: Rung,
    /// Target cycles per repetition (per job for `serve_mix`; an upper
    /// bound for the run-to-done `rocket_sliced64`).
    pub budget: u64,
}

/// Run parameters shared by every mode.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Budgets ÷ 20 and two repetitions: exercises every path quickly.
    pub smoke: bool,
}

impl Args {
    /// Divides a full-size count for smoke runs.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// The cycle budget of `plan` in this run. A run-to-done workload's
    /// budget is only a cap: smoke shortens its design instead.
    pub fn budget(&self, plan: Plan) -> u64 {
        if plan.rung == Rung::Sliced {
            plan.budget
        } else {
            self.scaled(plan.budget)
        }
    }
}

/// The plan of workload `name`.
pub fn plan(name: &str) -> Option<Plan> {
    let (rung, budget) = match name {
        "soc24_des" => (Rung::Des, 1_500),
        "noc6_threads" => (Rung::Threads, 4_500),
        "noc6_net_unix" => (Rung::NetUnix, 500),
        "ring32_mono" => (Rung::Mono, 3_750),
        "rocket_sliced64" => (Rung::Sliced, 100_000),
        "serve_mix" => (Rung::Serve, 300),
        _ => return None,
    };
    Some(Plan { rung, budget })
}

/// Variant `variant` of the design family workload `name` runs on.
pub fn design(name: &str, args: &Args, variant: u64) -> Design {
    match name {
        "soc24_des" => inputs::soc24(args.seed, variant),
        "ring32_mono" => inputs::ring32(args.seed),
        "rocket_sliced64" => inputs::rocket(args.seed, if args.smoke { 3 } else { 60 }),
        _ => inputs::noc6(args.seed, variant),
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (repetitions or jobs) attempted.
    pub attempted: u64,
    /// Operations that errored or failed their golden check.
    pub failed: u64,
    /// Individual result values that differed from the golden.
    pub mismatches: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Exact counts, asserted identical across repetitions.
    pub counts: Vec<(String, u64)>,
}

/// Reference results a run must reproduce.
#[derive(Debug, Default)]
pub struct Golden(BTreeMap<String, u64>);

impl Golden {
    /// A golden holding `results`.
    pub fn of(results: &[(String, u64)]) -> Self {
        Golden(results.iter().cloned().collect())
    }

    /// How many observed values differ from the golden. Values the golden
    /// does not cover are ignored (a backend may report more than the
    /// reference path), so `evidence` names key fragments that must each
    /// match at least one compared value: a check that compared nothing
    /// counts as a mismatch.
    pub fn mismatches(&self, observed: &[(String, u64)], evidence: &[&str]) -> u64 {
        let compared: Vec<_> = observed
            .iter()
            .filter_map(|(k, v)| self.0.get(k).map(|want| (k, *v, *want)))
            .collect();
        let mut bad = 0;
        for (k, got, want) in &compared {
            if got != want {
                if bad < 4 {
                    eprintln!("golden mismatch: {k} = {got}, golden {want}");
                }
                bad += 1;
            }
        }
        for fragment in evidence {
            if !compared.iter().any(|(k, _, _)| k.contains(fragment)) {
                eprintln!("golden check compared no `{fragment}` value");
                bad += 1;
            }
        }
        bad
    }
}

/// The result kinds a run on `rung` must have had compared: sampled
/// digests only exist on gate runs, which sample.
pub fn evidence(rung: Rung, gate: bool) -> &'static [&'static str] {
    match (rung, gate) {
        (Rung::Des, _) => &["probe."],
        (Rung::Threads, true) => &["link", "probe.", "@"],
        (Rung::Threads, false) => &["link", "probe.", ".digest"],
        (Rung::NetUnix, false) => &["link"],
        (Rung::NetUnix | Rung::Serve, _) => &["link", "@"],
        (Rung::Mono, _) => &["state.digest"],
        (Rung::Sliced, _) => &["cycles_to_done", "lane63.digest"],
    }
}

/// One repetition of `rung` on `d`.
pub fn rep(cx: &Ctx, rung: Rung, d: &Design, budget: u64, sample: u64) -> Res<Rep> {
    match rung {
        Rung::Mono => mono(cx, d, ExecEngine::Compiled, budget, false),
        Rung::Sliced => sliced(cx, d, budget),
        Rung::Des => in_process(cx, d, Backend::Des, budget, sample),
        Rung::Threads => in_process(cx, d, Backend::Threads(0), budget, sample),
        Rung::NetUnix => net_unix(cx, d, budget, sample),
        Rung::Serve => Err("serve_mix is not a repetition rung".to_string()),
    }
}

/// Computes the golden for `rung` on `d` through an independent path;
/// also returns mismatches found between the reference paths themselves.
pub fn golden(cx: &Ctx, rung: Rung, d: &Design, budget: u64) -> Res<(Golden, u64)> {
    match rung {
        // Probe signals (top-level outputs) of the monolithic interpreter.
        // A partition that completed N target cycles holds the outputs it
        // fired for cycle N-1 (it ticked since, but nothing settled them
        // again), so that is the cycle the reference is read at.
        Rung::Des => {
            let reference = mono(cx, d, ExecEngine::Compiled, budget - 1, false)?;
            let probes: Vec<_> = reference
                .results
                .into_iter()
                .filter(|(k, _)| k.starts_with("probe."))
                .collect();
            if probes.is_empty() {
                return Err("monolithic reference exposes no probe signal".to_string());
            }
            Ok((Golden::of(&probes), 0))
        }
        // Per-node digests (final and sampled) and per-link token totals
        // of a DES run of the same seed and budget.
        Rung::Threads | Rung::NetUnix | Rung::Serve => {
            let reference = in_process(cx, d, Backend::Des, budget, sample_interval(budget))?;
            Ok((Golden::of(&reference.results), 0))
        }
        // The compiled engine must agree with the tree-walking reference
        // engine on a prefix; its own full run is then the golden every
        // repetition must reproduce.
        Rung::Mono => {
            let prefix = (budget / 15).max(1);
            let tree = mono(cx, d, ExecEngine::Reference, prefix, false)?;
            let tape = mono(cx, d, ExecEngine::Compiled, prefix, false)?;
            let bad =
                Golden::of(&tree.results).mismatches(&tape.results, evidence(Rung::Mono, true));
            let full = mono(cx, d, ExecEngine::Compiled, budget, false)?;
            Ok((Golden::of(&full.results), bad))
        }
        // Every lane must equal an independent compiled run: same
        // cycles-to-done, same state digest at that cycle.
        Rung::Sliced => {
            let reference = mono(cx, d, ExecEngine::Compiled, budget, true)?;
            let find = |key: &str| {
                reference
                    .results
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("compiled reference reports no {key}"))
            };
            let (done, digest) = (find("cycles_to_done")?, find("state.digest")?);
            let mut want = vec![
                ("cycles".to_string(), done),
                ("cycles_to_done".to_string(), done),
            ];
            want.extend((0..LANES).map(|lane| (format!("lane{lane}.digest"), digest)));
            Ok((Golden::of(&want), 0))
        }
    }
}

/// Sampling cadence of gate runs: four `(cycle, digest)` rows per node,
/// the last one at the budget cycle.
pub fn sample_interval(budget: u64) -> u64 {
    (budget / 4).max(1)
}

/// The determinism gate: `rep` must have observed the exact counts the
/// run's first repetition did.
pub fn determinism(first: &Rep, rep: &Rep) -> Res<()> {
    if rep.counters != first.counters || rep.results != first.results || rep.cycles != first.cycles
    {
        return Err(
            "determinism gate: a repetition observed different exact counts than the first"
                .to_string(),
        );
    }
    Ok(())
}

/// The exact counts of a run whose repetitions all matched `first`.
fn exact_counts(first: Rep) -> Vec<(String, u64)> {
    let mut counts = first.counters;
    counts.push(("cycles_per_rep".to_string(), first.cycles));
    counts.extend(first.results);
    counts
}

/// The end-to-end metrics from the samples of the timed operations (the
/// undisturbed half of those attempted); `busy_s` is those operations
/// back to back. The p95 is of every operation attempted and rides along
/// as an informational row: a run has too few operations beyond it to
/// gate on.
fn end_to_end(
    cycles_per_s: f64,
    setup_s: f64,
    cpu_us_per_cycle: f64,
    busy_s: f64,
    latencies_s: &[f64],
    admission_ms: &[f64],
    latency_ms_p95: f64,
) -> Vec<(&'static str, f64)> {
    let ms: Vec<f64> = latencies_s.iter().map(|l| l * 1e3).collect();
    vec![
        ("target_cycles_per_s", cycles_per_s),
        ("setup_s", setup_s),
        ("cpu_us_per_cycle", cpu_us_per_cycle),
        ("peak_rss_mb", peak_rss_kb() as f64 / 1024.0),
        ("jobs_per_s", latencies_s.len() as f64 / busy_s),
        ("job_latency_ms_p50", median(&ms)),
        ("job_latency_ms_p95", latency_ms_p95),
        ("admission_ms_p50", median(admission_ms)),
    ]
}

/// A batch workload's untraced run: golden gate (which doubles as the
/// discarded warm-up repetition), then timed repetitions — each a fresh
/// build plus the fixed cycle budget — until `seconds` have elapsed.
pub fn batch(cx: &Ctx, args: &Args, plan: Plan) -> Res<Outcome> {
    let d = design(&args.workload, args, 0);
    let budget = args.budget(plan);
    let (gold, mut mismatches) = golden(cx, plan.rung, &d, budget)?;
    let gate = rep(cx, plan.rung, &d, budget, sample_interval(budget))?;
    mismatches += gold.mismatches(&gate.results, evidence(plan.rung, true));

    // Per repetition only its timings are kept (cycles/s, set-up s, CPU
    // µs per cycle, wall s), so peak RSS does not grow with how many
    // repetitions the box managed.
    let mut out = Outcome::default();
    let mut first: Option<Rep> = None;
    let mut timings: Vec<[f64; 4]> = Vec::new();
    let started = Instant::now();
    while if args.smoke {
        out.attempted < 2
    } else {
        out.attempted < 3 || started.elapsed().as_secs_f64() < args.seconds
    } {
        out.attempted += 1;
        match rep(cx, plan.rung, &d, budget, 0) {
            Ok(r) => {
                let bad = gold.mismatches(&r.results, evidence(plan.rung, false));
                mismatches += bad;
                if bad > 0 {
                    out.failed += 1;
                }
                timings.push([
                    r.cycles as f64 / r.run_s,
                    r.setup_s,
                    r.usage.cpu_us / r.cycles as f64,
                    r.wall_s(),
                ]);
                match &first {
                    Some(first) => determinism(first, &r)?,
                    None => first = Some(r),
                }
            }
            Err(e) => {
                eprintln!("repetition {} failed: {e}", out.attempted);
                out.failed += 1;
            }
        }
    }
    out.mismatches = mismatches;
    out.counts = exact_counts(first.ok_or("no repetition completed")?);

    let p95_ms = percentile(
        &timings.iter().map(|t| t[3] * 1e3).collect::<Vec<_>>(),
        95.0,
    );
    let timings = undisturbed_half(timings, |t| t[3]);
    let column = |i: usize| -> Vec<f64> { timings.iter().map(|t| t[i]).collect() };
    let (setup, walls) = (column(1), column(3));
    out.metrics = end_to_end(
        median(&column(0)),
        median(&setup),
        median(&column(2)),
        walls.iter().sum(),
        &walls,
        &setup.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        p95_ms,
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Jobs per round of the mix: 16 over the hot designs, 4 never seen.
const ROUND: u64 = 20;
const HOT: u64 = 4;
const NOVEL: u64 = ROUND - 4 * HOT;

/// Which design variant job `j` of the mix submits. Every round has the
/// same shape, so its exact counts repeat: never-seen variants at four
/// evenly spaced positions (the seed picks the first), the hot variants
/// (`0..HOT`) in strict rotation everywhere else (the seed picks the
/// phase). A hot design is thus always in the daemon's tape cache and
/// never the design its pooled workers built last.
fn mix_variant(seed: u64, j: u64) -> u64 {
    let (round, pos) = (j / ROUND, j % ROUND);
    let stride = ROUND / NOVEL;
    let shifted = (pos + ROUND - mix(seed) % stride) % ROUND;
    if shifted.is_multiple_of(stride) {
        1_000 + round * NOVEL + shifted / stride
    } else {
        // `shifted - shifted / stride - 1` hot jobs precede this one in
        // its round, and a multiple of HOT in the rounds before it.
        (mix(seed ^ 0x5bd1) + shifted - shifted / stride - 1) % HOT
    }
}

/// Lazily built submissions and goldens, one per design variant.
struct Catalog<'a> {
    cx: &'a Ctx,
    args: &'a Args,
    budget: u64,
    jobs: BTreeMap<u64, JobSpec>,
    goldens: BTreeMap<u64, Golden>,
}

impl<'a> Catalog<'a> {
    fn job(&mut self, variant: u64) -> Res<&JobSpec> {
        if !self.jobs.contains_key(&variant) {
            let d = design(&self.args.workload, self.args, variant);
            self.jobs
                .insert(variant, JobSpec::new(self.cx, &d, self.budget)?);
        }
        Ok(&self.jobs[&variant])
    }

    /// Mismatches of `sample` against a solo DES run of its design.
    fn check(&mut self, variant: u64, sample: &JobSample) -> Res<u64> {
        if !self.goldens.contains_key(&variant) {
            let d = self.job(variant)?.design.clone();
            let solo = in_process(self.cx, &d, Backend::Des, self.budget, self.budget)?;
            self.goldens.insert(variant, Golden::of(&solo.results));
        }
        let bad = self.goldens[&variant].mismatches(&sample.results, evidence(Rung::Serve, true));
        Ok(bad + u64::from(sample.cycles != self.budget))
    }
}

/// `serve_mix`'s untraced run.
pub fn serve_mix(cx: &Ctx, args: &Args, plan: Plan) -> Res<Outcome> {
    let mut cat = Catalog {
        cx,
        args,
        budget: plan.budget,
        jobs: BTreeMap::new(),
        goldens: BTreeMap::new(),
    };
    let hot0 = cat.job(0)?.clone();

    // Set-up: a fresh daemon to its first completed job (pool spawn,
    // cold compile, placement). Sampled on throwaway daemons first; the
    // last one stays up for the mix.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..if args.smoke { 2 } else { 9 } {
        if let Some(old) = daemon.take() {
            Daemon::stop(old, cx, &hot0)?;
        }
        cx.tr.calibrate();
        let (d, start_s) = cx.tr.timed("setup", "daemon", || Daemon::start(cx));
        let d = d?;
        setups.push(start_s + d.submit(cx, &hot0)?.latency_s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up sample");

    // Fill the daemon's cache with the hot designs, then gate one full
    // round against solo DES runs before anything is timed.
    let mut mismatches = 0;
    for v in 1..HOT {
        let job = cat.job(v)?.clone();
        let sample = daemon.submit(cx, &job)?;
        mismatches += cat.check(v, &sample)?;
    }
    let gate_round = 1_000_000; // a round index the timed loop never reaches
    for j in gate_round * ROUND..(gate_round + 1) * ROUND {
        let v = mix_variant(args.seed, j);
        let job = cat.job(v)?.clone();
        let sample = daemon.submit(cx, &job)?;
        mismatches += cat.check(v, &sample)?;
    }

    // The closed loop: whole rounds until the time is up. Submissions
    // are encoded ahead of each round so the client only submits; each
    // round's jobs are checked against their designs' solo DES runs once
    // it is over, and its never-seen designs forgotten, so peak RSS does
    // not grow with how many rounds the box managed. Per job only its
    // timings are kept (latency s, admission µs, CPU µs, cycles).
    let mut out = Outcome::default();
    let mut timings: Vec<Vec<[f64; 4]>> = Vec::new();
    let mut rounds: Vec<[u64; 3]> = Vec::new();
    let started = Instant::now();
    while if args.smoke {
        rounds.is_empty()
    } else {
        rounds.len() < 2 || started.elapsed().as_secs_f64() < args.seconds
    } {
        let first = rounds.len() as u64 * ROUND;
        let variants: Vec<u64> = (first..first + ROUND)
            .map(|j| mix_variant(args.seed, j))
            .collect();
        for v in &variants {
            cat.job(*v)?;
        }
        let mut samples = Vec::new();
        for v in variants {
            out.attempted += 1;
            match daemon.submit(cx, &cat.jobs[&v]) {
                Ok(sample) => samples.push((v, sample)),
                Err(e) => {
                    eprintln!("job {} failed: {e}", out.attempted);
                    out.failed += 1;
                }
            }
        }
        let mut counts = [0; 3];
        let mut round = Vec::new();
        for (v, sample) in samples {
            let bad = cat.check(v, &sample)?;
            mismatches += bad;
            out.failed += u64::from(bad > 0);
            counts[0] += 1;
            counts[1] += u64::from(sample.cache_hit);
            counts[2] += sample.cycles;
            round.push([
                sample.latency_s,
                sample.admission_us,
                sample.cpu_us,
                sample.cycles as f64,
            ]);
        }
        timings.push(round);
        rounds.push(counts);
        cat.jobs.retain(|v, _| *v < HOT);
        cat.goldens.retain(|v, _| *v < HOT);
    }
    Daemon::stop(daemon, cx, &hot0)?;
    out.mismatches = mismatches;

    // The determinism gate: a round is this workload's repetition.
    if out.failed == 0 && rounds.iter().any(|r| *r != rounds[0]) {
        return Err(format!(
            "determinism gate: rounds observed different (jobs, cache hits, cycles): {rounds:?}"
        ));
    }
    out.counts = ["jobs", "serve.cache.hits", "target_cycles"]
        .iter()
        .zip(rounds[0])
        .map(|(name, n)| (format!("{name}_per_round"), n))
        .collect();

    // One client, closed loop: the timed window is the jobs back to back.
    // Jobs differ (hits, misses) but rounds do not: the jobs at one
    // position of the round are the same kind of job, and of those the
    // slower half goes untimed.
    let all_ms: Vec<f64> = timings.iter().flatten().map(|t| t[0] * 1e3).collect();
    let timings: Vec<[f64; 4]> = (0..ROUND as usize)
        .flat_map(|pos| {
            let at_pos = timings.iter().filter_map(|round| round.get(pos)).copied();
            undisturbed_half(at_pos.collect(), |t| t[0])
        })
        .collect();
    let column = |i: usize| -> Vec<f64> { timings.iter().map(|t| t[i]).collect() };
    let latencies = column(0);
    let (busy_s, cycles) = (latencies.iter().sum::<f64>(), column(3).iter().sum::<f64>());
    if cycles == 0.0 {
        return Err("no job completed".to_string());
    }
    out.metrics = end_to_end(
        cycles / busy_s,
        median(&setups),
        column(2).iter().sum::<f64>() / cycles,
        busy_s,
        &latencies,
        &column(1).iter().map(|us| us / 1e3).collect::<Vec<_>>(),
        percentile(&all_ms, 95.0),
    );
    Ok(out)
}
