//! # fireaxe-bench — the paper's evaluation, regenerated
//!
//! One function per table/figure of the FireAxe paper, shared by the
//! `fig*`/`table*` binaries (full-size runs printing the same rows and
//! series the paper reports) and `repro_all`.

#![warn(missing_docs)]

use fireaxe::prelude::*;
use fireaxe::Platform;

/// One measured point of a rate sweep (Figs. 11/12).
#[derive(Debug, Clone, PartialEq)]
pub struct RatePoint {
    /// Partition interface width in bits.
    pub width_bits: u64,
    /// Bitstream (host) frequency in MHz.
    pub host_mhz: f64,
    /// Partitioning mode.
    pub mode: PartitionMode,
    /// Measured simulation rate in MHz.
    pub measured_mhz: f64,
}

fn sweep_soc(trace_bits: u32) -> RingSoc {
    xbar_soc(&XbarSocConfig {
        tiles: 1,
        trace_bits,
        tile_period: 4,
        ..Default::default()
    })
}

/// Runs one point of the interface-width/bitstream-frequency/mode sweep
/// over the given platform (Fig. 11 = QSFP, Fig. 12 = p2p PCIe).
pub fn rate_point(
    platform: Platform,
    trace_bits: u32,
    host_mhz: f64,
    mode: PartitionMode,
    cycles: u64,
) -> RatePoint {
    let soc = sweep_soc(trace_bits);
    let spec = PartitionSpec {
        mode,
        channel_policy: ChannelPolicy::Separated,
        groups: vec![PartitionGroup::instances("tiles", vec!["tile0".into()])],
    };
    let (design, mut sim) = fireaxe::FireAxe::new(soc.circuit, spec)
        .platform(platform)
        .clock_mhz(host_mhz)
        .build()
        .expect("sweep SoC compiles");
    let width = design.report.total_boundary_width();
    let measured = sim
        .run_target_cycles(cycles)
        .expect("sweep runs")
        .target_mhz();
    RatePoint {
        width_bits: width,
        host_mhz,
        mode,
        measured_mhz: measured,
    }
}

/// Full sweep grid (Figs. 11/12).
pub fn rate_sweep(
    platform: Platform,
    trace_widths: &[u32],
    freqs_mhz: &[f64],
    cycles: u64,
) -> Vec<RatePoint> {
    let mut out = Vec::new();
    for &mode in &[PartitionMode::Exact, PartitionMode::Fast] {
        for &f in freqs_mhz {
            for &w in trace_widths {
                out.push(rate_point(platform, w, f, mode, cycles));
            }
        }
    }
    out
}

/// Fig. 13: simulation rate vs number of FPGAs in the (NoC-partitioned)
/// ring, at a fixed bitstream frequency.
pub fn fpga_count_sweep(fpga_counts: &[usize], host_mhz: f64, cycles: u64) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for &fpgas in fpga_counts {
        let tiles = (fpgas - 1) * 2;
        let soc = ring_soc(&RingSocConfig {
            tiles,
            tile_period: 4,
            ..Default::default()
        });
        let groups: Vec<PartitionGroup> = (0..fpgas - 1)
            .map(|g| PartitionGroup {
                name: format!("fpga{g}"),
                selection: Selection::NocRouters {
                    routers: soc.router_paths.clone(),
                    indices: vec![2 * g, 2 * g + 1],
                },
                fame5: false,
            })
            .collect();
        let (_d, mut sim) = fireaxe::FireAxe::new(soc.circuit, PartitionSpec::exact(groups))
            .platform(Platform::OnPremQsfp)
            .clock_mhz(host_mhz)
            .build()
            .expect("ring compiles");
        let mhz = sim
            .run_target_cycles(cycles)
            .expect("ring runs")
            .target_mhz();
        out.push((fpgas, mhz));
    }
    out
}

/// Fig. 14: FAME-5 multi-threading sweep — N tiles multi-threaded on one
/// FPGA at 15 MHz, SoC side swept over `soc_mhz`.
pub fn fame5_sweep(tile_counts: &[usize], soc_mhz: &[f64], cycles: u64) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    for &n in tile_counts {
        for &f in soc_mhz {
            let soc = xbar_soc(&XbarSocConfig {
                tiles: n,
                tile_period: 4,
                ..Default::default()
            });
            let paths: Vec<String> = (0..n).map(|i| format!("tile{i}")).collect();
            let spec =
                PartitionSpec::fast(vec![PartitionGroup::instances("tiles", paths).with_fame5()]);
            let (_d, mut sim) = fireaxe::FireAxe::new(soc.circuit, spec)
                .platform(Platform::OnPremQsfp)
                .partition_clock_mhz(0, 15.0)
                .partition_clock_mhz(1, f)
                .build()
                .expect("fame5 soc compiles");
            let mhz = sim
                .run_target_cycles(cycles)
                .expect("fame5 runs")
                .target_mhz();
            out.push((n, f, mhz));
        }
    }
    out
}

/// Table II rows. The scratchpad latency (16 cycles, an L2-like figure)
/// sets how much of each workload is memory-bound and therefore how
/// sensitive it is to fast-mode's injected boundary latency.
pub fn table2_rows(rocket_iterations: u32) -> Vec<fireaxe::validation::ValidationRow> {
    use fireaxe::validation::{validation_row, ValidationTarget};
    const MEM_LATENCY: u32 = 16;
    vec![
        validation_row(
            ValidationTarget::Rocket {
                iterations: rocket_iterations,
            },
            MEM_LATENCY,
        )
        .expect("rocket validates"),
        validation_row(ValidationTarget::Sha3, MEM_LATENCY).expect("sha3 validates"),
        validation_row(ValidationTarget::Gemmini, MEM_LATENCY).expect("gemmini validates"),
    ]
}

/// Directory where figure binaries drop CSV series (the artifact's
/// `generated-plots` analog): `$FIREAXE_RESULTS_DIR` or `results/`.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("FIREAXE_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Writes a CSV file into [`results_dir`]; failures are reported but not
/// fatal (figure binaries still print their series).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = results_dir();
    let path = dir.join(name);
    let mut text = header.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("(series written to {})", path.display());
    }
}

/// CSV rows for a rate sweep.
pub fn rate_sweep_rows(points: &[RatePoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                match p.mode {
                    PartitionMode::Exact => "exact".to_string(),
                    PartitionMode::Fast => "fast".to_string(),
                },
                format!("{}", p.host_mhz),
                format!("{}", p.width_bits),
                format!("{:.6}", p.measured_mhz),
            ]
        })
        .collect()
}

/// Pretty-prints a rate sweep as the Fig. 11/12 series.
pub fn print_rate_sweep(title: &str, points: &[RatePoint]) {
    println!("== {title} ==\n");
    println!(
        "{:>10} {:>10} {:>12} {:>12}",
        "mode", "host MHz", "width bits", "rate MHz"
    );
    for p in points {
        println!(
            "{:>10} {:>10.0} {:>12} {:>12.3}",
            match p.mode {
                PartitionMode::Exact => "exact",
                PartitionMode::Fast => "fast",
            },
            p.host_mhz,
            p.width_bits,
            p.measured_mhz
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_point_runs() {
        let p = rate_point(Platform::OnPremQsfp, 0, 30.0, PartitionMode::Fast, 60);
        assert!(p.measured_mhz > 0.1);
    }

    #[test]
    fn fame5_sweep_smoke() {
        let rows = fame5_sweep(&[1, 2], &[20.0], 40);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, _, mhz)| *mhz > 0.0));
    }
}
