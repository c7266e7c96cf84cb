//! Shared fixture for the distributed-backend integration tests: the
//! 4-partition NoC ring SoC (the same cut the backend benchmarks use),
//! a 2-partition feed-forward cut that fills whole credit windows, the
//! behavior-registry setup hook every process applies, a DES golden
//! reference run, and in-process worker spawning on TCP or Unix-domain
//! listeners.

#![allow(dead_code)] // each test binary uses a different subset

use fireaxe_ir::build::ModuleBuilder;
use fireaxe_ir::Circuit;
use fireaxe_net::{
    serve, serve_pooled, serve_with, NetListener, SimSetup, WireSettings, WorkerOptions,
};
use fireaxe_ripper::{PartitionGroup, PartitionSpec, Selection};
use fireaxe_sim::{Backend, BehaviorRegistry, ObsReport, ObsSpec, Result, SimBuilder, SimMetrics};
use fireaxe_soc::{ring_soc, RingSocConfig};
use std::thread::JoinHandle;

/// Target-cycle budget: enough traffic for retransmission scenarios,
/// small enough to keep every test well under the CI ceiling.
pub const CYCLES: u64 = 600;

/// The 6-tile ring SoC cut along NoC router boundaries into 4
/// partitions (3 router groups + the rest).
pub fn noc_4partition_design() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups: Vec<PartitionGroup> = (0..3)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: vec![2 * g, 2 * g + 1],
            },
            fame5: false,
        })
        .collect();
    (soc.circuit, PartitionSpec::exact(groups))
}

/// A feed-forward cut: the remainder `Feed` streams a 200-bit word into
/// the `Sink` partition every cycle and never waits on it, so its
/// worker runs a whole credit window ahead and ships it as one message.
/// The same design `des_exact_counts` freezes under backpressure.
pub fn feed_forward_design() -> (Circuit, PartitionSpec) {
    let mut sink = ModuleBuilder::new("Sink");
    let x = sink.input("x", 200);
    let acc = sink.reg("acc", 200, 0);
    sink.connect_sig(&acc, &acc.add(&x));
    let sink = sink.finish();

    let mut top = ModuleBuilder::new("Feed");
    let i = top.input("i", 8);
    let o = top.output("o", 8);
    top.inst("s", "Sink");
    let n = top.reg("n", 200, 1);
    top.connect_sig(&n, &n.add(&n).xor(&i));
    top.connect_inst("s", "x", &n);
    top.connect_sig(&o, &n.bits(7, 0));
    let circuit = Circuit::from_modules("Feed", vec![top.finish(), sink], "Feed");
    let spec = PartitionSpec::exact(vec![PartitionGroup::instances("s", vec!["s".into()])]);
    (circuit, spec)
}

/// The setup hook every process (workers, coordinator's passive build,
/// and the DES reference) must apply identically: SoC extern behaviors.
pub fn setup_hook(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut r = BehaviorRegistry::new();
    r.register_fallback(fireaxe_soc::make_behavior);
    b.behaviors(r)
}

/// Wire settings with observation on, so parity can compare sampled
/// `(cycle, state_digest)` rows and the VCD document.
pub fn observed_settings() -> WireSettings {
    WireSettings {
        sample_interval: 100,
        vcd: true,
        io_timeout_ms: 30_000,
        ..Default::default()
    }
}

/// Runs the DES golden model with the exact same design, settings, and
/// setup hook the cluster uses.
pub fn des_reference(
    circuit: &Circuit,
    spec: &PartitionSpec,
    settings: &WireSettings,
) -> (SimMetrics, ObsReport) {
    let design = fireaxe_ripper::compile(circuit, spec).expect("reference compile");
    let builder = SimBuilder::new(&design)
        .backend(Backend::Des)
        .observe(ObsSpec {
            sample_interval: settings.sample_interval,
            vcd: settings.vcd,
            signals: settings.signals.clone(),
        });
    let mut sim = setup_hook(builder).build().expect("reference build");
    let metrics = sim.run_target_cycles(CYCLES).expect("reference run");
    let obs = sim.obs_report();
    (metrics, obs)
}

/// `n` worker listen addresses: ephemeral-port TCP, or Unix-domain
/// sockets in the temp dir (namespaced by pid and `label` so parallel
/// test binaries never collide).
pub fn listen_addrs(n: usize, unix: bool, label: &str) -> Vec<String> {
    (0..n)
        .map(|i| {
            if unix {
                format!(
                    "unix:{}/fxnet-{}-{label}-{i}.sock",
                    std::env::temp_dir().display(),
                    std::process::id()
                )
            } else {
                "127.0.0.1:0".to_string()
            }
        })
        .collect()
}

/// A listen address for a fault proxy, namespaced like
/// [`listen_addrs`].
pub fn proxy_addr(unix: bool, label: &str) -> String {
    if unix {
        format!(
            "unix:{}/fxnet-{}-{label}-proxy.sock",
            std::env::temp_dir().display(),
            std::process::id()
        )
    } else {
        "127.0.0.1:0".to_string()
    }
}

/// Binds and serves one in-process worker per address, returning the
/// actual bound addresses (ephemeral TCP ports resolved) and the serve
/// handles. Each worker thread runs [`serve`] with [`setup_hook`].
pub fn spawn_workers(addrs: &[String]) -> (Vec<String>, Vec<JoinHandle<Result<()>>>) {
    let mut bound = Vec::new();
    let mut handles = Vec::new();
    for addr in addrs {
        let listener = NetListener::bind(addr).expect("worker bind");
        bound.push(listener.local_addr_string());
        handles.push(std::thread::spawn(move || serve(&listener, &setup_hook)));
    }
    (bound, handles)
}

/// Spawns one in-process *pooled* worker per address, each applying
/// `setup` to every build and serving jobs until a session ends with
/// `Shutdown`.
pub fn spawn_pooled(
    addrs: &[String],
    setup: &'static SimSetup,
) -> (Vec<String>, Vec<JoinHandle<()>>) {
    let mut bound = Vec::new();
    let mut handles = Vec::new();
    for addr in addrs {
        let listener = NetListener::bind(addr).expect("worker bind");
        bound.push(listener.local_addr_string());
        handles.push(std::thread::spawn(move || {
            serve_pooled(&listener, setup).expect("pooled worker");
        }));
    }
    (bound, handles)
}

/// [`spawn_workers`] with a per-worker [`WorkerOptions`] (chaos hooks
/// for the failover tests); `options` is index-aligned with `addrs`.
pub fn spawn_workers_with(
    addrs: &[String],
    options: &[WorkerOptions],
) -> (Vec<String>, Vec<JoinHandle<Result<()>>>) {
    let mut bound = Vec::new();
    let mut handles = Vec::new();
    for (addr, opts) in addrs.iter().zip(options) {
        let listener = NetListener::bind(addr).expect("worker bind");
        let opts = opts.clone();
        bound.push(listener.local_addr_string());
        handles.push(std::thread::spawn(move || {
            serve_with(&listener, &setup_hook, &opts)
        }));
    }
    (bound, handles)
}
