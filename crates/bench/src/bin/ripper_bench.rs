//! FireRipper compile-time scaling guard.
//!
//! Compiles `ring_soc` at 6, 12, 24 and 48 tiles in NoC-partition-mode
//! (every tile extracted, the subsystem node left in the remainder),
//! reports the minimum `compile` wall time of several runs with the
//! per-pass split read from the compiler's own `ripper.*` spans, and
//! enforces one CI invariant: **`t(48 tiles) ÷ t(6 tiles) ≤ 14`**. The
//! design grows 8×, so a compiler linear in design size lands at 8–9×;
//! the per-instance hierarchy passes this guard replaced sat at 25–30×.
//! The gate is a ratio of two measurements taken in one process, so it
//! does not depend on the machine; the absolute times are informational.

use fireaxe::obs::trace::{self, EventKind};
use fireaxe::ripper::{compile, PartitionGroup, PartitionSpec, Selection};
use fireaxe::soc::{ring_soc, RingSocConfig};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Compiles per design size; the minimum is reported.
const RUNS: usize = 15;
/// Largest accepted `t(48 tiles) ÷ t(6 tiles)`.
const MAX_RATIO: f64 = 14.0;

const PASSES: [&str; 9] = [
    "validate",
    "select",
    "reparent",
    "passthrough",
    "group",
    "split",
    "fast_mode",
    "channels",
    "validate_out",
];

/// One design size: best whole-compile time and, from that same run, the
/// time inside each pass (all in milliseconds).
struct Row {
    tiles: usize,
    total_ms: f64,
    pass_ms: [f64; PASSES.len()],
}

fn measure(tiles: usize) -> Row {
    let soc = ring_soc(&RingSocConfig {
        tiles,
        tile_period: 4,
        ..Default::default()
    });
    let groups = if tiles < 24 { 3 } else { 4 };
    let per = tiles / groups;
    let spec = PartitionSpec::exact(
        (0..groups)
            .map(|g| PartitionGroup {
                name: format!("fpga{g}"),
                selection: Selection::NocRouters {
                    routers: soc.router_paths.clone(),
                    indices: (g * per..(g + 1) * per).collect(),
                },
                fame5: false,
            })
            .collect(),
    );
    let mut best = Row {
        tiles,
        total_ms: f64::INFINITY,
        pass_ms: [0.0; PASSES.len()],
    };
    for _ in 0..RUNS {
        let started = Instant::now();
        let design = compile(black_box(&soc.circuit), black_box(&spec)).expect("ring compiles");
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        black_box(design);
        let events = trace::take_events();
        if total_ms >= best.total_ms {
            continue;
        }
        best.total_ms = total_ms;
        best.pass_ms = [0.0; PASSES.len()];
        for (i, pass) in PASSES.iter().enumerate() {
            let of_pass = |kind| {
                events
                    .iter()
                    .find(|e| e.kind == kind && e.name.strip_prefix("ripper.") == Some(pass))
                    .map(|e| e.host_ns)
            };
            if let (Some(b), Some(e)) = (of_pass(EventKind::SpanBegin), of_pass(EventKind::SpanEnd))
            {
                best.pass_ms[i] = (e - b) as f64 / 1e6;
            }
        }
    }
    best
}

fn main() -> ExitCode {
    trace::set_enabled(true);
    let rows: Vec<Row> = [6, 12, 24, 48].into_iter().map(measure).collect();
    trace::set_enabled(false);

    println!("FireRipper compile time, ring_soc in NoC-partition-mode (min of {RUNS}, ms)");
    print!("{:>5} {:>9}", "tiles", "compile");
    for pass in PASSES {
        print!(" {pass:>12}");
    }
    println!();
    for r in &rows {
        print!("{:>5} {:>9.3}", r.tiles, r.total_ms);
        for ms in r.pass_ms {
            print!(" {ms:>12.3}");
        }
        println!();
    }
    let ratio = rows[3].total_ms / rows[0].total_ms;
    println!("t(48 tiles) / t(6 tiles) = {ratio:.1}  (design grows 8x; gate <= {MAX_RATIO})");
    if ratio > MAX_RATIO {
        eprintln!("FAIL: compile time grows super-linearly with design size");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
