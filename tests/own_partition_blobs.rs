//! A net worker's own-partition build reproduces the blobs of a
//! whole-design `Backend::Net` build.
//!
//! Each partition is built the way a worker builds it — from the
//! coordinator's payload, only its own threads elaborated — and its
//! cycle-0 blob and VCD signal table must equal those of the same
//! partition in a whole-design build. `state_blobs.rs` freezes the
//! whole-design blobs, so together the two suites pin the worker's.
//!
//! This is its own test binary because `prepare_job` turns the tracer on
//! for the rest of the process, and from then on metric samples carry
//! host time: in `state_blobs.rs` it would move every blob with a sample
//! in it whenever these tests happened to run first.

use fireaxe::net::{build_partition, prepare_job, WireSettings};
use fireaxe::prelude::*;

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `groups` NoC-mode groups of `per` consecutive routers each.
fn noc_groups(router_paths: &[String], groups: usize, per: usize) -> Vec<PartitionGroup> {
    (0..groups)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: router_paths.to_vec(),
                indices: (g * per..(g + 1) * per).collect(),
            },
            fame5: false,
        })
        .collect()
}

/// The `noc6` cut of the reference benchmark: 6 tiles, 3 × 2 routers.
fn noc6_cut() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 3, 2);
    (soc.circuit, PartitionSpec::exact(groups))
}

/// The `soc24` cut (paper Fig. 6): 24 tiles, 4 × 6 routers.
fn soc24_cut() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        bug_after: u64::MAX / 2,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 4, 6);
    (soc.circuit, PartitionSpec::exact(groups))
}

/// FNV-1a of a VCD signal table, one `scope\0name\0width\n` row per
/// signal in identifier order.
fn vcd_table_digest(table: &[fireaxe::obs::VcdSignal]) -> u64 {
    let rows: String = table
        .iter()
        .map(|s| format!("{}\0{}\0{}\n", s.scope, s.name, s.width))
        .collect();
    fnv1a(rows.as_bytes())
}

fn soc_behaviors(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut registry = BehaviorRegistry::new();
    fireaxe::register_soc_behaviors(&mut registry);
    b.behaviors(registry)
}

/// Every partition's cycle-0 blob and VCD signal table digest, from a
/// whole-design `Backend::Net` build and from the partition built alone
/// out of its payload.
fn whole_and_own_cycle0(
    (circuit, spec): (Circuit, PartitionSpec),
    settings: WireSettings,
) -> [(Vec<Vec<u8>>, Vec<u64>); 2] {
    let whole = FireAxe::new(circuit.clone(), spec.clone())
        .observe(ObsSpec {
            sample_interval: settings.sample_interval,
            vcd: settings.vcd,
            signals: settings.signals.clone(),
        })
        .backend(Backend::Net)
        .build()
        .expect("flow builds")
        .1;
    let prepared = prepare_job(&circuit, &spec, &settings, &soc_behaviors).expect("prepare");
    let parts = prepared.n_partitions();
    let whole = (0..parts)
        .map(|p| {
            (
                whole.snapshot_partition_bytes(p).expect("portable state"),
                vcd_table_digest(whole.vcd_signal_table()),
            )
        })
        .unzip();
    let own = (0..parts)
        .map(|p| {
            let payload = prepared.partition_payload(p);
            let sim = build_partition(payload, p, prepared.settings(), &soc_behaviors)
                .expect("partition build");
            let counters = sim.metrics().counters;
            assert!(
                counters.iter().all(|c| c.partition == p),
                "built a foreign node"
            );
            (
                sim.snapshot_partition_bytes(p).expect("portable state"),
                vcd_table_digest(sim.vcd_signal_table()),
            )
        })
        .unzip();
    [whole, own]
}

#[test]
fn own_partition_builds_reproduce_the_noc6_net_blobs() {
    let settings = WireSettings {
        sample_interval: 50,
        vcd: true,
        ..WireSettings::default()
    };
    let [whole, own] = whole_and_own_cycle0(noc6_cut(), settings);
    assert_eq!(whole.0.len(), 4);
    assert!(own.0 == whole.0, "an own-partition blob moved");
    assert_eq!(own.1, whole.1, "VCD table moved");
}

#[test]
fn own_partition_builds_reproduce_the_soc24_net_blobs() {
    let [whole, own] = whole_and_own_cycle0(soc24_cut(), WireSettings::default());
    assert_eq!(whole.0.len(), 5);
    assert!(own.0 == whole.0, "an own-partition blob moved");
    assert_eq!(own.1, whole.1, "VCD table moved");
}
