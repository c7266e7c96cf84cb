//! Seeded program inputs.
//!
//! Every design is generated with the `fireaxe::soc` generators,
//! perturbed by the run's `--seed`, and printed to `.fir` text: the
//! program is handed only that text plus a `PartitionSpec` (and, for the
//! job server, the tape bytes encoded from the parsed text). The same
//! seed always yields byte-identical inputs.

use fireaxe::ir::printer::print_circuit;
use fireaxe::ir::Circuit;
use fireaxe::ripper::{PartitionGroup, PartitionSpec, Selection};
use fireaxe::soc::noc::{ring_noc_circuit, NocConfig};
use fireaxe::soc::validation::rocket_soc;
use fireaxe::soc::{ring_soc, FlitLayout, RingSocConfig};

/// Lanes of every bit-sliced run (one per plane-word bit).
pub const LANES: u32 = 64;

/// SplitMix64: the harness's only source of pseudo-randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded traffic every node of a bare ring NoC injects.
#[derive(Debug, Clone)]
pub struct RingTraffic {
    /// Ring nodes.
    pub nodes: usize,
    flit: FlitLayout,
    seed: u64,
}

impl RingTraffic {
    /// Whether node `node` offers a flit at `cycle`, and the flit, as
    /// lane `lane` sees it. Lane 0 is the scalar stimulus.
    pub fn flit(&self, cycle: u64, node: usize, lane: u32) -> (bool, u64) {
        let r = mix(self.seed ^ cycle.wrapping_mul(0x1_0001) ^ ((node as u64) << 48));
        let dest = (node + 1 + (r as usize % (self.nodes - 1))) % self.nodes;
        let payload = ((r >> 16) ^ u64::from(lane).wrapping_mul(0x9E37)) & 0xFFFF;
        let bits = self.flit.pack(dest as u64, node as u64, 0, payload)
            & ((1u64 << self.flit.width()) - 1);
        (r >> 60 != 0, bits)
    }
}

/// How a monolithic or bit-sliced run of a design is stimulated.
#[derive(Debug, Clone)]
pub enum Drive {
    /// Behavioural tiles generate the traffic; the top has no inputs.
    Closed,
    /// Every node of a bare ring NoC injects seeded flits.
    Ring(RingTraffic),
    /// No inputs either; the run ends when the top-level `done` reads 1.
    Done,
}

/// One generated program input.
#[derive(Debug, Clone)]
pub struct Design {
    /// Name used to tag spans and results.
    pub name: String,
    /// The circuit as `.fir` text.
    pub text: String,
    /// How to cut it across partitions (`None`: monolithic-only design).
    pub spec: Option<PartitionSpec>,
    /// How to stimulate a monolithic or bit-sliced run.
    pub drive: Drive,
    /// Cycles of a monolithic probe run (≈60 ms; a cap for run-to-done
    /// designs). Bit-sliced probes run an eighth of it.
    pub mono_probe: u64,
    /// Cycles of a partitioned in-process probe run (≈60 ms). Socket
    /// probes run a sixth of it.
    pub part_probe: u64,
}

/// A ring SoC cut along NoC router boundaries into `groups` partitions of
/// `per` routers each plus the remainder; `tile_seed` salts every tile's
/// traffic stream through the behaviour key's `seed=` parameter.
fn ring_design(
    name: String,
    cfg: &RingSocConfig,
    groups: usize,
    per: usize,
    tile_seed: u64,
    (mono_probe, part_probe): (u64, u64),
) -> Design {
    let soc = ring_soc(cfg);
    let mut circuit: Circuit = soc.circuit;
    let tile = circuit
        .module_mut("Tile")
        .and_then(|m| m.extern_info.as_mut())
        .expect("ring_soc emits a behavioural Tile module");
    tile.behavior.push_str(&format!("&seed={tile_seed}"));
    let groups = (0..groups)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: (g * per..(g + 1) * per).collect(),
            },
            fame5: false,
        })
        .collect();
    Design {
        name,
        text: print_circuit(&circuit),
        spec: Some(PartitionSpec::exact(groups)),
        drive: Drive::Closed,
        mono_probe,
        part_probe,
    }
}

/// Tile-traffic seed of variant `variant` of a seeded design family.
fn tile_seed(seed: u64, variant: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(variant)
}

/// The paper's Fig. 6 design: 24 BOOM tiles on a ring NoC under the
/// heavy workload, NoC-partition-mode onto 4 tile FPGAs + the subsystem.
/// Distinct `variant`s are distinct designs to the job server: same
/// structure, different tape.
///
/// The §V-A RTL bug is disarmed (`bug_after` out of reach): a trapped
/// tile stops issuing requests, and a throughput workload wants the
/// traffic steady. Disarmed is also the only setting under which the
/// monolithic golden can gate this cut: once tile state matters, the
/// partitioned build and the monolithic interpreter part ways (README,
/// "Why `soc24_des` runs with the RTL bug disarmed").
pub fn soc24(seed: u64, variant: u64) -> Design {
    let cfg = RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        bug_after: u64::MAX / 2,
        ..Default::default()
    };
    ring_design(
        format!("soc24v{variant}"),
        &cfg,
        4,
        6,
        tile_seed(seed, variant),
        (3_000, 1_500),
    )
}

/// The 6-tile ring SoC cut into 3 router groups + the rest (the cut the
/// repo's `backends`/`transports` benches use).
pub fn noc6(seed: u64, variant: u64) -> Design {
    let cfg = RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    };
    ring_design(
        format!("noc6v{variant}"),
        &cfg,
        3,
        2,
        tile_seed(seed, variant),
        (9_000, 4_500),
    )
}

/// A 32-node pure-RTL ring NoC (every signal ≤ 64 bits).
pub fn ring32(seed: u64) -> Design {
    let cfg = NocConfig {
        nodes: 32,
        payload_bits: 32,
    };
    Design {
        name: "ring32".into(),
        text: print_circuit(&ring_noc_circuit(&cfg)),
        spec: None,
        drive: Drive::Ring(RingTraffic {
            nodes: cfg.nodes,
            flit: cfg.flit(),
            seed,
        }),
        mono_probe: 3_750,
        part_probe: 0,
    }
}

/// The RocketLite validation SoC; the seed moves the boot-loop length,
/// and with it cycles-to-done — by at most two iterations, because a
/// run-to-done job's latency moves with it and the benchmark's spread
/// is taken across seeds.
pub fn rocket(seed: u64, iterations: u32) -> Design {
    let iterations = iterations + (mix(seed) % 3) as u32;
    Design {
        name: "rocket".into(),
        text: print_circuit(&rocket_soc(iterations, 16)),
        spec: None,
        drive: Drive::Done,
        mono_probe: 100_000,
        part_probe: 0,
    }
}
