//! `e2e`: the repository's reference benchmark (see README.md beside
//! this file and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! e2e --all       [--seed <n>] [--seconds <s>] [--smoke]
//! e2e --selfcheck [--seed <n>] [--seconds <s>] [--smoke]
//! e2e --manifest
//! ```
//!
//! A single-workload run prints every metric as `name unit value`, the
//! exact counts once as `name count value`, and as its last line the
//! result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics from untraced runs,
//! `--trace 1` the per-layer metrics from the traced run. `--all` and
//! `--selfcheck` re-execute this binary once per workload and trace
//! mode, so peak RSS is per workload.

mod inputs;
mod ladder;
mod layers;
mod manifest;
mod measure;
mod probes;
mod serve;
mod trace;
mod workloads;

use layers::{Ctx, Res};
use manifest::{END_TO_END, INFORMATIONAL, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Args, Outcome, Rung};

/// `<cargo target dir>/e2e`: where traces, result documents and sockets
/// go. Never a tracked path.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .ancestors()
        .find(|a| {
            a.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf);
    target.join("e2e")
}

/// A pid-unique scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> Res<Self> {
        let dir = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // Relative to the cwd when possible: `sun_path` holds 108 bytes.
        let cwd = std::env::current_dir().unwrap_or_default();
        let short = dir
            .strip_prefix(&cwd)
            .map_or(dir.clone(), Path::to_path_buf);
        if short.as_os_str().len() > 80 {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(format!(
                "socket directory {} is too long for a Unix socket path; run from the \
                 repository root",
                short.display()
            ));
        }
        Ok(Scratch(short))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|(n, u, _, _)| (n, u)))
        .chain(INFORMATIONAL.iter().map(|(n, u)| (n, u)))
        .find(|(n, _)| **n == name)
        .map_or("count", |(_, u)| u)
}

/// One workload, one trace mode, in this process.
fn run_one(args: &Args, trace: bool) -> Res<Outcome> {
    let plan = workloads::plan(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let out = out_dir();
    let scratch = Scratch::create(&out)?;
    let off = Ctx::new(false, scratch.0.clone());
    let on = Ctx::new(true, scratch.0.join("t"));
    let mut outcome = if !trace {
        match plan.rung {
            Rung::Serve => workloads::serve_mix(&off, args, plan),
            _ => workloads::batch(&off, args, plan),
        }?
    } else {
        std::fs::create_dir_all(&on.sock_dir).map_err(|e| e.to_string())?;
        let outcome = ladder::traced(&on, &off, args, plan)?;
        let path = out.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        on.tr
            .write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
        outcome
    };
    outcome.metrics.push((
        "sim.threaded.false_deadlocks",
        (off.false_deadlocks.get() + on.false_deadlocks.get()) as f64,
    ));
    Ok(outcome)
}

/// Prints a single-workload run's report; returns whether it was correct.
fn report(args: &Args, trace: bool, outcome: &Outcome) -> Res<bool> {
    let wanted: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    println!(
        "# e2e {} seed={} trace={} smoke={} cores={} operations={}",
        args.workload,
        args.seed,
        u8::from(trace),
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        outcome.attempted
    );
    for (name, value) in &outcome.counts {
        println!("{name} count {value}");
    }
    // Informational rows the contract does not list.
    for (name, value) in &outcome.metrics {
        if !wanted.contains(name) {
            println!("{name} {} {value}", unit_of(name));
        }
    }
    let mut json = Vec::new();
    for name in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("run produced no `{name}`"))?;
        if !value.is_finite() {
            return Err(format!("`{name}` is not a finite number"));
        }
        let unit = unit_of(name);
        println!("{name} {unit} {value}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "failed_share ratio {}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("golden_mismatches count {}", outcome.mismatches);
    let correct = outcome.failed == 0 && outcome.mismatches == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    Ok(correct)
}

/// `name → (unit, value)` of every `name unit value` line a child printed.
type Table = BTreeMap<String, (String, f64)>;

/// Re-executes this binary for one workload and trace mode, echoing its
/// report and collecting its metric lines.
fn child(args: &Args, trace: bool) -> Res<Table> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut table = Table::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [name, unit, value] = words[..] {
            if let Ok(v) = value.parse() {
                table.insert(name.to_string(), (unit.to_string(), v));
            }
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{} --trace {} failed: {}",
            args.workload,
            u8::from(trace),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(table)
}

/// Both trace modes of every workload: `(end_to_end, per_layer)` tables.
fn run_set(base: &Args) -> Res<BTreeMap<&'static str, (Table, Table)>> {
    let mut set = BTreeMap::new();
    for (name, _) in WORKLOADS {
        let args = Args {
            workload: name.to_string(),
            ..base.clone()
        };
        set.insert(name, (child(&args, false)?, child(&args, true)?));
    }
    Ok(set)
}

/// `--all`: every workload once, plus one JSON document under the
/// target directory.
fn all(base: &Args) -> Res<bool> {
    let set = run_set(base)?;
    let mut doc = format!("{{\n  \"seed\": {},\n  \"workloads\": {{\n", base.seed);
    let body: Vec<String> = set
        .iter()
        .map(|(name, (e2e, layers))| {
            let rows = |t: &Table| {
                t.iter()
                    .map(|(k, (_, v))| format!("\"{k}\": {v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            format!(
                "    \"{name}\": {{\"untraced\": {{{}}}, \"traced\": {{{}}}}}",
                rows(e2e),
                rows(layers)
            )
        })
        .collect();
    doc.push_str(&body.join(",\n"));
    doc.push_str("\n  }\n}\n");
    let path = out_dir().join(format!("e2e-seed{}.json", base.seed));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc).map_err(|e| e.to_string())?;
    println!("# wrote {}", path.display());
    Ok(true)
}

/// `--selfcheck`: the full set twice back to back. Every end-to-end
/// metric's two values must agree within its bound — otherwise the box
/// is too noisy to resolve that bound and the metric is reported as
/// unresolved, never as unchanged — and every exact count must repeat.
fn selfcheck(base: &Args) -> Res<bool> {
    if let Ok(on_disk) = std::fs::read_to_string("BENCHMARK.json") {
        if on_disk != manifest::benchmark_json() {
            return Err("BENCHMARK.json is stale: regenerate it with `e2e --manifest`".to_string());
        }
    }
    let first = run_set(base)?;
    let second = run_set(base)?;
    let mut ok = true;
    println!("# selfcheck: workload metric first second spread bound verdict");
    for (name, _) in WORKLOADS {
        let ((a, a_layers), (b, b_layers)) = (&first[name], &second[name]);
        for (metric, _, _, bound) in END_TO_END {
            let (x, y) = (a[metric].1, b[metric].1);
            let spread = (x - y).abs() / x.abs().min(y.abs());
            let verdict = if spread <= bound {
                "agree"
            } else {
                "unresolved"
            };
            ok &= spread <= bound;
            println!("{name} {metric} {x} {y} {spread:.4} {bound} {verdict}");
        }
        // Exact rows: the per-layer metrics the manifest marks exact, and
        // every raw count printed beside the metrics.
        for (first, second) in [(a, b), (a_layers, b_layers)] {
            for (key, (unit, x)) in first {
                let exact = PER_LAYER
                    .iter()
                    .find(|m| m.0 == key)
                    .map_or(unit == "count", |m| m.3);
                let y = second.get(key).map(|(_, y)| *y);
                if exact && y != Some(*x) {
                    ok = false;
                    println!("{name} {key} {x} {y:?} exact-count MISMATCH");
                }
            }
        }
    }
    println!(
        "# selfcheck: {}",
        if ok {
            "every end-to-end metric agrees within its bound; every exact count repeats"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         e2e --all | --selfcheck [--seed <n>] [--seconds <s>] [--smoke]\n       e2e --manifest",
        names.join("|")
    )
}

fn real_main() -> Res<bool> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        smoke: false,
    };
    let (mut trace, mut mode) = (false, "");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--all" => mode = "all",
            "--selfcheck" => mode = "selfcheck",
            "--manifest" => mode = "manifest",
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    match mode {
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        "all" => all(&args),
        "selfcheck" => selfcheck(&args),
        _ if args.workload.is_empty() => Err(usage()),
        _ => {
            let outcome = run_one(&args, trace)?;
            report(&args, trace, &outcome)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
