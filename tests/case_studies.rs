//! Case-study reproductions (paper §V).
//!
//! * §V-A: the multi-FPGA ring SoC, NoC-partition-mode, and the RTL bug
//!   that only manifests with larger binaries — found with BOOM tiles,
//!   absent after swapping in in-order tiles.
//! * §V-B: the GC40 BOOM split across two FPGAs after the monolithic
//!   build fails congestion.
//! * §VI-B: FAME-5 multi-threading amortizing inter-FPGA latency.

use fireaxe::prelude::*;
use fireaxe::Platform;
use std::collections::BTreeMap;

/// Builds and runs a ring SoC split across `fpgas` partitions with
/// NoC-partition-mode; returns (serviced, traps) after `cycles`.
fn run_ring_soc(
    tiles: usize,
    fpgas: usize,
    kind: TileKind,
    heavy: bool,
    bug_after: u64,
    cycles: u64,
) -> (u64, u64) {
    let soc = ring_soc(&RingSocConfig {
        tiles,
        tile_kind: kind,
        heavy_workload: heavy,
        bug_after,
        tile_period: 4,
        subsystem_latency: 6,
        ..Default::default()
    });
    // Split the tile routers into fpgas-1 groups; subsystem + its router
    // stay in the remainder.
    let per = tiles / (fpgas - 1);
    assert_eq!(per * (fpgas - 1), tiles, "tiles must divide evenly");
    let groups: Vec<PartitionGroup> = (0..fpgas - 1)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: (g * per..(g + 1) * per).collect(),
            },
            fame5: false,
        })
        .collect();
    let spec = PartitionSpec::exact(groups);
    let (design, mut sim) = fireaxe::FireAxe::new(soc.circuit, spec)
        .platform(Platform::OnPremQsfp)
        .build()
        .unwrap();
    assert_eq!(design.partitions.len(), fpgas);
    sim.run_target_cycles(cycles).unwrap();
    // Read the subsystem counters off the remainder's recorded outputs.
    let rest = design.node_index(fpgas - 1, 0);
    let target = sim.target(rest);
    let serviced = target.peek("serviced").to_u64();
    let traps = target.peek("traps").to_u64();
    (serviced, traps)
}

#[test]
fn ring_soc_boots_and_makes_progress_across_three_fpgas() {
    let (serviced, traps) = run_ring_soc(
        4,
        3,
        TileKind::Boom(BoomConfig::large()),
        false, // small binaries: bug dormant
        200,
        4_000,
    );
    assert!(
        serviced > 100,
        "subsystem serviced only {serviced} requests"
    );
    assert_eq!(traps, 0, "no trap expected with small binaries");
}

#[test]
fn rtl_bug_manifests_only_with_heavy_workload_and_boom() {
    // Paper §V-A: Linux + small binaries boot fine; adding larger
    // binaries triggers an SBI trap billions of cycles in; swapping BOOM
    // for in-order cores makes it disappear.
    let cycles = 6_000;
    let bug_after = 120;

    // BOOM + heavy workload: trap fires.
    let (_, traps) = run_ring_soc(
        4,
        3,
        TileKind::Boom(BoomConfig::large()),
        true,
        bug_after,
        cycles,
    );
    assert!(
        traps > 0,
        "the RTL bug should manifest under heavy workload"
    );

    // BOOM + light workload: no trap.
    let (_, traps) = run_ring_soc(
        4,
        3,
        TileKind::Boom(BoomConfig::large()),
        false,
        bug_after,
        cycles,
    );
    assert_eq!(traps, 0);

    // In-order swap + heavy workload: no trap (isolates the bug to BOOM).
    let (serviced, traps) = run_ring_soc(4, 3, TileKind::InOrder, true, bug_after, cycles);
    assert_eq!(traps, 0, "in-order cores must not trap");
    assert!(serviced > 100, "in-order SoC still makes progress");
}

#[test]
fn gc40_fails_monolithic_but_splits_onto_two_fpgas() {
    // Paper §V-B.
    let gc40 = BoomConfig::gc40();
    let circuit = fireaxe::soc::boom::core_circuit(&gc40);

    // Monolithic: fails the congestion check on a U250.
    let u250 = FpgaSpec::alveo_u250();
    let mono = fit(&circuit, &u250);
    assert!(!mono.routable, "GC40 must fail the monolithic build");

    // Partitioned: backend+LSU on one FPGA, frontend+memory on the other.
    let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
        "backend_fpga",
        vec!["backend".into(), "lsu".into()],
    )]);
    let (design, mut sim) = fireaxe::FireAxe::new(circuit, spec)
        .platform(Platform::OnPremQsfp)
        .check_fit()
        .build()
        .unwrap();

    // Boundary is >7000 bits (paper: "the number of bits going through
    // the partition interface is over 7000").
    assert!(
        design.report.total_boundary_width() > 7_000,
        "boundary width {}",
        design.report.total_boundary_width()
    );

    // It runs, and the backend commits instructions.
    sim.run_target_cycles(2_000).unwrap();
    let backend_node = design.node_index(0, 0);
    let commits = sim.target(backend_node).peek("backend_commits").to_u64();
    assert!(commits > 1_000, "only {commits} commits after 2000 cycles");
}

#[test]
fn fame5_threads_amortize_latency() {
    // Paper §VI-B / Fig. 14: going from 1 to N threaded tiles costs far
    // less than N× in simulation rate, because inter-FPGA latency
    // dominates the N-1 extra host cycles.
    let rate = |tiles: usize, fame5: bool| -> f64 {
        let soc = xbar_soc(&XbarSocConfig {
            tiles,
            tile_kind: TileKind::Boom(BoomConfig::large()),
            ..Default::default()
        });
        let paths: Vec<String> = (0..tiles).map(|i| format!("tile{i}")).collect();
        let g = PartitionGroup::instances("tiles", paths);
        let g = if fame5 { g.with_fame5() } else { g };
        let spec = PartitionSpec::fast(vec![g]);
        let (design, mut sim) = fireaxe::FireAxe::new(soc.circuit, spec)
            .partition_clock_mhz(0, 15.0)
            .partition_clock_mhz(1, 25.0)
            .build()
            .unwrap();
        let _ = design;
        sim.run_target_cycles(400).unwrap().target_mhz()
    };
    let one = rate(1, true);
    let four = rate(4, true);
    // 4 threads on one FPGA: < 2.5x slowdown, not 4x (latency amortized).
    assert!(
        four > one / 2.5,
        "FAME-5 scaling collapsed: 1 tile {one:.3} MHz vs 4 tiles {four:.3} MHz"
    );
    assert!(four < one, "more threads cannot be faster");
}

#[test]
fn speedup_over_software_rtl_simulation() {
    // Paper §V-A: 0.58 MHz FireAxe vs 1.26 kHz commercial software RTL
    // simulation = 460x. Our software-RTL baseline is the monolithic
    // interpreter itself, timed in virtual terms: the partitioned
    // simulation's virtual rate must exceed the paper's software rate by
    // orders of magnitude.
    let soc = ring_soc(&RingSocConfig {
        tiles: 4,
        tile_period: 4,
        ..Default::default()
    });
    let spec = PartitionSpec::exact(vec![PartitionGroup {
        name: "fpga0".into(),
        selection: Selection::NocRouters {
            routers: soc.router_paths.clone(),
            indices: vec![0, 1],
        },
        fame5: false,
    }]);
    let (_design, mut sim) = fireaxe::FireAxe::new(soc.circuit, spec).build().unwrap();
    let m = sim.run_target_cycles(1_000).unwrap();
    let fireaxe_hz = m.target_hz();
    let sw_rtl_hz = 1_260.0; // the paper's commercial-simulator rate
    assert!(
        fireaxe_hz / sw_rtl_hz > 50.0,
        "virtual rate {fireaxe_hz} Hz should dwarf software RTL simulation"
    );
}

#[test]
fn partition_feedback_reports_widths_and_notes() {
    let soc = ring_soc(&RingSocConfig::default());
    let spec = PartitionSpec::exact(vec![PartitionGroup {
        name: "fpga0".into(),
        selection: Selection::NocRouters {
            routers: soc.router_paths.clone(),
            indices: vec![0, 1],
        },
        fame5: false,
    }]);
    let design = compile(&soc.circuit, &spec).unwrap();
    assert!(!design.report.link_widths.is_empty());
    assert!(design.report.max_link_width() > 0);
}

/// Bridges aren't needed for these tests, but exercise the user-behavior
/// extension point once.
#[test]
fn user_behaviors_override_builtins() {
    use fireaxe_ir_shim::*;
    mod fireaxe_ir_shim {
        pub use fireaxe::ir::{Bits, ExternBehavior, PortWriter};
    }

    #[derive(Debug)]
    struct Stuck;
    impl ExternBehavior for Stuck {
        fn reset(&mut self) {}
        fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
            out.set_u64("tx_valid", 0);
            out.set_u64("trap", 1);
        }
        fn tick(&mut self, _i: &BTreeMap<String, Bits>) {}
    }

    let soc = ring_soc(&RingSocConfig {
        tiles: 2,
        ..Default::default()
    });
    let spec = PartitionSpec::exact(vec![]);
    // No groups: unpartitioned single-node simulation of the whole SoC.
    let mut registry = BehaviorRegistry::new();
    registry.register("boom_tile", |_key, _path| {
        Box::new(Stuck) as Box<dyn ExternBehavior>
    });
    let (_d, mut sim) = fireaxe::FireAxe::new(soc.circuit, spec)
        .behaviors(registry)
        .build()
        .unwrap();
    sim.run_target_cycles(50).unwrap();
    // Tiles are stuck: the subsystem services nothing.
    assert_eq!(sim.target(0).peek("serviced").to_u64(), 0);
}
