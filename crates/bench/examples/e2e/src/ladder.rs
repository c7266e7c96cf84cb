//! The traced run: every rung of the stack walked on the workload's
//! inputs, with the harness recording a span around each call into the
//! program, plus the standalone probes. This is where every per-layer
//! metric comes from.
//!
//! The workload's own rung runs at its full budget, traced and untraced
//! in alternation (their difference is `e2e.trace_overhead_pct`); the
//! other rungs run at probe budgets. Monolithic and bit-sliced rungs run
//! on the workload's design `d`; partitioned rungs run on `p`, which is
//! `d` when it comes with a partition spec and the noc6 reference cut
//! otherwise, so that every traced run prices every layer.
//!
//! Order matters: the socket rungs come last because `prepare_job`
//! switches the program's own global tracer on for the rest of the
//! process, which would tax the in-process rungs if they ran after it.

use crate::inputs::{self, Design};
use crate::layers::{in_process, mono, net_unix, sliced, Ctx, Rep, Res};
use crate::measure::median;
use crate::probes::{self, Rows};
use crate::serve::{Daemon, JobSample, JobSpec};
use crate::workloads::{self, determinism, evidence, golden, Args, Golden, Outcome, Plan, Rung};
use fireaxe::ir::ExecEngine;
use fireaxe::ripper::PartitionMode;
use fireaxe::sim::Backend;
use fireaxe::soc::validation::{rocket_soc, run_monolithic_to_done, sha3_soc};
use fireaxe::validation::{partitioned_cycles_to_done, ValidationTarget};
use fireaxe_net::WireSettings;
use std::time::Instant;

/// Median wall time of the spans called `name` on design `tag`.
fn span_s(cx: &Ctx, name: &str, tag: &str) -> Res<f64> {
    let d = cx.tr.durations(name, tag);
    if d.is_empty() {
        return Err(format!("traced run recorded no `{name}` span on {tag}"));
    }
    Ok(median(&d))
}

/// Median run-phase ns per target cycle (per lane-cycle when sliced).
fn ns_per_cycle(reps: &[Rep]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| r.run_s * 1e9 / r.cycles as f64)
            .collect::<Vec<_>>(),
    )
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Everything the walk needs to know about the run.
struct Walk<'a> {
    on: &'a Ctx,
    off: &'a Ctx,
    args: &'a Args,
    plan: Plan,
    started: Instant,
    /// Traced ÷ untraced wall time of each back-to-back pair of the own
    /// rung's operations.
    own_ratio: Vec<f64>,
    out: Outcome,
}

impl Walk<'_> {
    /// Repetitions of `rung`: the own rung at full budget in traced /
    /// untraced pairs until 40% of the run's seconds are spent (the rest
    /// belongs to the probes), any other rung seven times at `probe`.
    fn reps(
        &mut self,
        rung: Rung,
        own: bool,
        probe: u64,
        run: &dyn Fn(&Ctx, u64) -> Res<Rep>,
        gold: Option<&Golden>,
    ) -> Res<Vec<Rep>> {
        let budget = if own {
            self.args.budget(self.plan)
        } else {
            self.args.scaled(probe).max(64)
        };
        let mut traced = Vec::new();
        loop {
            // The untraced partner runs first in even pairs and second in
            // odd ones, so drift in the box's speed cancels in the median.
            let before = traced.len() % 2 == 0;
            let mut partner = 0.0;
            if own && before {
                partner = run(self.off, budget)?.wall_s();
            }
            let rep = run(self.on, budget)?;
            if own && !before {
                partner = run(self.off, budget)?.wall_s();
            }
            self.out.attempted += 1;
            if let Some(gold) = gold {
                let bad = gold.mismatches(&rep.results, evidence(rung, false));
                self.out.mismatches += bad;
                self.out.failed += u64::from(bad > 0);
            }
            if own {
                self.own_ratio.push(rep.wall_s() / partner);
            }
            traced.push(rep);
            let enough = if self.args.smoke {
                traced.len() >= if own { 2 } else { 1 }
            } else if own {
                traced.len() >= 4 && self.started.elapsed().as_secs_f64() >= 0.4 * self.args.seconds
            } else {
                traced.len() >= 7
            };
            if enough {
                for rep in &traced[1..] {
                    determinism(&traced[0], rep).map_err(|e| format!("{rung:?}: {e}"))?;
                }
                return Ok(traced);
            }
        }
    }
}

/// How the previous job on the pool relates to a served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    Miss,
    HitSame,
    HitRotated,
}

/// A short served sequence that visits every admission path: two cold
/// designs, `same` repeats of the second, `rotated` alternations between
/// the two, `miss` never-seen designs. Each job is classified from what
/// the daemon reported, not from what the sequence intended.
fn serve_probe(
    cx: &Ctx,
    family: &dyn Fn(u64) -> Design,
    budget: u64,
    (same, rotated, miss): (u64, u64, u64),
) -> Res<(Vec<(Admit, JobSample)>, u64)> {
    let a = JobSpec::new(cx, &family(0), budget)?;
    let b = JobSpec::new(cx, &family(1), budget)?;
    let mut sequence = vec![0, 1];
    sequence.extend(std::iter::repeat_n(1, same as usize));
    sequence.extend((0..rotated).map(|k| k % 2));
    sequence.extend((0..miss).map(|k| 100 + k));

    let daemon = Daemon::start(cx)?;
    let mut samples = Vec::new();
    let mut prev = None;
    for v in sequence {
        let novel;
        let job = match v {
            0 => &a,
            1 => &b,
            _ => {
                novel = JobSpec::new(cx, &family(v), budget)?;
                &novel
            }
        };
        let sample = daemon.submit(cx, job)?;
        let class = match (sample.cache_hit, prev == Some(v)) {
            (false, _) => Admit::Miss,
            (true, true) => Admit::HitSame,
            (true, false) => Admit::HitRotated,
        };
        samples.push((v, class, sample));
        prev = Some(v);
    }
    Daemon::stop(daemon, cx, &a)?;

    // The two hot designs' jobs against their solo DES runs.
    let mut bad = 0;
    for (v, job) in [(0, &a), (1, &b)] {
        let solo = in_process(cx, &job.design, Backend::Des, budget, budget)?;
        let gold = Golden::of(&solo.results);
        for (_, _, sample) in samples.iter().filter(|(sv, _, _)| *sv == v) {
            bad += gold.mismatches(&sample.results, evidence(Rung::Serve, true));
        }
    }
    Ok((samples.into_iter().map(|(_, c, s)| (c, s)).collect(), bad))
}

fn serve_rows(samples: &[(Admit, JobSample)]) -> Res<Rows> {
    let admission = |class: Admit, name: &str| -> Res<f64> {
        let v: Vec<f64> = samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, s)| s.admission_us)
            .collect();
        if v.is_empty() {
            return Err(format!("served sequence produced no {name} admission"));
        }
        Ok(median(&v))
    };
    let hits = samples.iter().filter(|(_, s)| s.cache_hit).count();
    let each = |f: &dyn Fn(&JobSample) -> f64| {
        median(&samples.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    Ok(vec![
        ("serve.cache.hit_ratio", hits as f64 / samples.len() as f64),
        (
            "serve.admission_hit_same_us_p50",
            admission(Admit::HitSame, "same-design hit")?,
        ),
        (
            "serve.admission_hit_rotated_us_p50",
            admission(Admit::HitRotated, "rotated hit")?,
        ),
        (
            "serve.admission_miss_us_p50",
            admission(Admit::Miss, "miss")?,
        ),
        (
            "serve.exec_ms_p50",
            each(&|s| s.latency_s * 1e3 - s.admission_us / 1e3),
        ),
        ("serve.client_overhead_ms_p50", each(&|s| s.client_s * 1e3)),
    ])
}

/// Table II accuracy beside every simulated speed: run-to-`done` cycle
/// counts of the Sha3 and RocketLite validation SoCs, monolithic vs the
/// master extracted onto its own partition. Exact mode must reproduce the
/// monolithic count; fast-mode error is reported. The RocketLite runs
/// are timed, which prices exact-mode partitioning of a small design.
fn validation_rows(cx: &Ctx, smoke: bool, out: &mut Outcome) -> Res<Rows> {
    let mem_latency = 8;
    let rocket_iterations = if smoke { 5 } else { 30 };
    let rocket = ValidationTarget::Rocket {
        iterations: rocket_iterations,
    };
    let mut inexact = 0;
    // Per target: fast-mode error, and exact-mode over monolithic host
    // time per target cycle.
    let mut error_pct = [0.0f64; 2];
    let mut slowdown = [0.0f64; 2];
    for (ti, (name, target, circuit)) in [
        ("sha3", ValidationTarget::Sha3, sha3_soc(mem_latency)),
        ("rocket", rocket, rocket_soc(rocket_iterations, mem_latency)),
    ]
    .into_iter()
    .enumerate()
    {
        cx.tr.calibrate();
        let (mono, mono_s) = cx.tr.timed("validation.monolithic", name, || {
            run_monolithic_to_done(&circuit, 1_000_000)
        });
        let (exact, exact_s) = cx.tr.timed("validation.exact", name, || {
            partitioned_cycles_to_done(target, PartitionMode::Exact, mem_latency)
        });
        let (fast, _) = cx.tr.timed("validation.fast", name, || {
            partitioned_cycles_to_done(target, PartitionMode::Fast, mem_latency)
        });
        let (mono, exact, fast) = (mono?, exact?, fast?);
        inexact += u64::from(exact != mono);
        error_pct[ti] = (fast as f64 - mono as f64).abs() / mono as f64 * 100.0;
        slowdown[ti] = (exact_s / exact as f64) / (mono_s / mono as f64);
        out.counts.extend([
            (format!("validation.{name}.monolithic_cycles"), mono),
            (format!("validation.{name}.exact_cycles"), exact),
            (format!("validation.{name}.fast_cycles"), fast),
        ]);
    }
    out.mismatches += inexact;
    Ok(vec![
        ("validation.exact_cycle_mismatches", inexact as f64),
        ("validation.sha3_fast_cycle_error_pct", error_pct[0]),
        ("validation.rocket_fast_cycle_error_pct", error_pct[1]),
        ("validation.rocket_exact_slowdown", slowdown[1]),
    ])
}

/// The traced run of `args.workload`.
pub fn traced(on: &Ctx, off: &Ctx, args: &Args, plan: Plan) -> Res<Outcome> {
    let d = workloads::design(&args.workload, args, 0);
    let family = |variant: u64| {
        if d.spec.is_some() {
            workloads::design(&args.workload, args, variant)
        } else {
            inputs::noc6(args.seed, variant)
        }
    };
    let p = family(0);
    let mut walk = Walk {
        on,
        off,
        args,
        plan,
        started: Instant::now(),
        own_ratio: Vec::new(),
        out: Outcome::default(),
    };
    let mut rows: Rows = Vec::new();

    // The own rung is gated against its golden here too.
    let own_gold = if plan.rung == Rung::Serve {
        None
    } else {
        let (gold, bad) = golden(off, plan.rung, &d, args.budget(plan))?;
        walk.out.mismatches += bad;
        Some(gold)
    };
    let own = |rung: Rung| rung == plan.rung;
    let gold_for = |rung: Rung| own_gold.as_ref().filter(|_| own(rung));

    // --- tape engines on d ---------------------------------------------------
    let mono_d = walk.reps(
        Rung::Mono,
        own(Rung::Mono),
        d.mono_probe,
        &|cx, n| mono(cx, &d, ExecEngine::Compiled, n, true),
        gold_for(Rung::Mono),
    )?;
    let mono_ns = ns_per_cycle(&mono_d);
    let first = &mono_d[0];
    let cycles = first.cycles.max(1) as f64;
    let defs_run = first.counter("ir.exec.defs_run") as f64;
    let defs_skipped = first.counter("ir.exec.defs_skipped") as f64;
    rows.extend([
        ("ir.exec.mono_ns_per_cycle", mono_ns),
        ("ir.exec.defs_run_per_cycle", defs_run / cycles),
        (
            "ir.exec.dirty_skip_rate",
            defs_skipped / (defs_run + defs_skipped).max(1.0),
        ),
        (
            "ir.exec.settle_passes_per_cycle",
            first.counter("ir.exec.settle_passes") as f64 / cycles,
        ),
    ]);
    let sliced_d = walk.reps(
        Rung::Sliced,
        own(Rung::Sliced),
        d.mono_probe / 8,
        &|cx, n| sliced(cx, &d, n),
        gold_for(Rung::Sliced),
    )?;
    let lane_ns = ns_per_cycle(&sliced_d);
    rows.extend([
        ("ir.slice.lane_ns_per_cycle", lane_ns),
        ("ir.slice.gain_vs_compiled", mono_ns / lane_ns),
    ]);

    // --- in-process engines on p --------------------------------------------
    // The monolithic interpreter does the same target work per cycle as
    // an exact-mode cut, so it prices the model evaluation inside them.
    let mono_p_ns = if p.name == d.name {
        mono_ns
    } else {
        let reps = walk.reps(
            Rung::Mono,
            false,
            p.mono_probe,
            &|cx, n| mono(cx, &p, ExecEngine::Compiled, n, true),
            None,
        )?;
        ns_per_cycle(&reps)
    };
    let des = walk.reps(
        Rung::Des,
        own(Rung::Des),
        p.part_probe,
        &|cx, n| in_process(cx, &p, Backend::Des, n, 0),
        gold_for(Rung::Des),
    )?;
    let des_ns = ns_per_cycle(&des);
    let sum = |r: &Rep, suffix: &str| -> f64 {
        r.counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let r = &des[0];
    let host = sum(r, ".host_cycles").max(1.0);
    let fmr_max = r
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with(".host_cycles"))
        .map(|(k, host)| {
            *host as f64
                / r.counter(&k.replace(".host_cycles", ".target_cycles"))
                    .max(1) as f64
        })
        .fold(0.0, f64::max);
    let tokens_per_cycle = r
        .results
        .iter()
        .filter(|(k, _)| k.starts_with("link"))
        .map(|(_, v)| *v as f64)
        .sum::<f64>()
        / r.cycles as f64;
    rows.extend([
        ("sim.engine.run_ns_per_cycle", des_ns),
        ("sim.engine.self_ns_per_cycle", des_ns - mono_p_ns),
        ("sim.engine.fmr_max", fmr_max),
        (
            "sim.engine.input_stall_share",
            sum(r, ".input_stall") / host,
        ),
        (
            "sim.engine.output_stall_share",
            sum(r, ".output_stall") / host,
        ),
        ("sim.link_tokens_per_cycle", tokens_per_cycle),
        (
            "sim.modelled_target_mhz",
            r.cycles as f64 * 1e6 / r.counter("sim.time_ps").max(1) as f64,
        ),
    ]);
    // A threaded probe runs the DES probe's budget, so DES is its golden.
    let des_gold = Golden::of(&des[0].results);
    let threads = walk.reps(
        Rung::Threads,
        own(Rung::Threads),
        p.part_probe,
        &|cx, n| in_process(cx, &p, Backend::Threads(0), n, 0),
        gold_for(Rung::Threads).or((plan.rung != Rung::Des).then_some(&des_gold)),
    )?;
    let threads_ns = ns_per_cycle(&threads);
    rows.extend([
        ("sim.threaded.run_ns_per_cycle", threads_ns),
        ("sim.threaded.speedup_vs_des", des_ns / threads_ns),
        (
            "sim.threaded.ctx_switches_per_cycle",
            per_rep(&threads, |r| r.usage.ctx_switches as f64 / r.cycles as f64),
        ),
    ]);

    // --- standalone probes and model accuracy -------------------------------
    let standalone = probes::standalone(on, &d, &p, if args.smoke { 20 } else { 1 })?;
    let probe = |name: &str| {
        standalone
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    };
    rows.extend(validation_rows(on, args.smoke, &mut walk.out)?);

    // --- the wire on p --------------------------------------------------------
    let net = walk.reps(
        Rung::NetUnix,
        own(Rung::NetUnix),
        p.part_probe / 6,
        &|cx, n| net_unix(cx, &p, n, 0),
        gold_for(Rung::NetUnix),
    )?;
    let net_ns = ns_per_cycle(&net);
    // Time no probe explains: the cycle minus model evaluation, minus the
    // per-token codec and reliability work, minus one socket round trip
    // (worker → coordinator → worker) per batched message.
    let per_token = probe("net.codec.encode_ns_per_token")
        + probe("net.codec.decode_ns_per_token")
        + probe("transport.reliable.frame_ns");
    let per_message = probe("net.stream.unix_rtt_us") * 1e3;
    let batch = WireSettings::default().effective_batch() as f64;
    rows.extend([
        ("net.execute_ns_per_cycle", net_ns),
        ("net.gap_vs_threads", net_ns / threads_ns),
        (
            "net.ctx_switches_per_cycle",
            per_rep(&net, |r| r.usage.ctx_switches as f64 / r.cycles as f64),
        ),
        (
            "net.sys_cpu_share",
            per_rep(&net, |r| r.usage.sys_us / r.usage.cpu_us.max(1.0)),
        ),
        (
            "net.residual_ns_per_cycle",
            net_ns - mono_p_ns - tokens_per_cycle * (per_token + per_message / batch),
        ),
    ]);
    rows.extend(standalone);

    // --- the job server on p's family ---------------------------------------
    let own = own(Rung::Serve);
    let budget = workloads::plan("serve_mix")
        .expect("serve_mix is a workload")
        .budget;
    let sizes = match (args.smoke, own) {
        (true, _) => (2, 2, 1),
        (false, true) => (16, 16, 6),
        (false, false) => (6, 6, 3),
    };
    let (samples, bad) = serve_probe(on, &family, budget, sizes)?;
    walk.out.attempted += samples.len() as u64;
    walk.out.mismatches += bad;
    if own {
        // The same sequence untraced: job by job, traced over untraced.
        let (partner, bad) = serve_probe(off, &family, budget, sizes)?;
        walk.out.mismatches += bad;
        walk.own_ratio.extend(
            samples
                .iter()
                .zip(&partner)
                .map(|((_, on), (_, off))| on.latency_s / off.latency_s),
        );
    }
    rows.extend(serve_rows(&samples)?);

    // --- setup spans -----------------------------------------------------------
    for (name, span, design) in [
        ("ir.parser.parse_s", "ir.parser.parse", &d),
        ("ir.typecheck.validate_s", "ir.typecheck.validate", &d),
        ("ir.tape.compile_s", "ir.tape.compile", &d),
        ("ir.tape.compile_parts_s", "ir.tape.compile_parts", &p),
        ("ir.tape.encode_s", "ir.tape.encode", &d),
        ("ir.tape.decode_s", "ir.tape.decode", &d),
        ("ir.slice.compile_s", "ir.slice.compile", &d),
        ("ripper.compile_s", "ripper.compile", &p),
        ("fpga.fit_s", "fpga.fit", &p),
        ("sim.build_s", "sim.build", &p),
        (
            "net.coordinator.prepare_job_s",
            "net.coordinator.prepare_job",
            &p,
        ),
        (
            "net.coordinator.place_cluster_s",
            "net.coordinator.place_cluster",
            &p,
        ),
    ] {
        rows.push((name, span_s(on, span, &design.name)?));
    }
    rows.push((
        "e2e.trace_overhead_pct",
        (median(&walk.own_ratio) - 1.0) * 100.0,
    ));

    let mut out = walk.out;
    out.metrics = rows;
    out.counts.extend(des[0].counters.iter().cloned());
    out.counts.extend(mono_d[0].counters.iter().cloned());
    Ok(out)
}
