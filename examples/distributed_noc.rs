//! Distributed NoC SoC simulation (DESIGN.md §7, "Distributed
//! backend").
//!
//! The 6-tile ring SoC is cut along NoC router boundaries into four
//! partitions, and each partition is run in its **own OS process** —
//! the widest placement; with fewer worker addresses each worker hosts
//! a contiguous run of partitions and the links inside a run never
//! reach a socket. The example binary re-execs itself four times as
//! workers, discovers
//! their ephemeral listen addresses from the `listening on <addr>`
//! advertisement, then drives them as the coordinator over localhost
//! TCP. No manual orchestration — `cargo run --example distributed_noc`
//! does the whole flow.
//!
//! The cluster run is compared against the in-process DES golden
//! model: the sampled `(cycle, state_digest)` rows and the rendered VCD
//! must be byte-identical (the LI-BDN argument — target state depends
//! only on token values in per-channel order — holds across process
//! boundaries, real sockets, and any wire framing of the same token
//! stream).
//!
//! Writes `distributed_noc.trace.json` into the working directory: the
//! merged Chrome trace with the coordinator and each worker as separate
//! process tracks (load it in Perfetto or `chrome://tracing`).

use fireaxe::prelude::*;
use fireaxe_net::spawn::LISTENING_PREFIX;
use fireaxe_net::{run_cluster, serve, NetListener, SpawnedWorker, WireSettings};
use std::process::Command;

const CYCLES: u64 = 1_000;
const SAMPLE_EVERY: u64 = 100;

/// The re-exec marker: `example-binary --worker` serves as a worker
/// instead of coordinating.
const WORKER_FLAG: &str = "--worker";

/// The 6-tile ring SoC cut into 4 partitions (3 router groups + rest).
fn design() -> (Circuit, PartitionSpec) {
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

/// Every process — workers, coordinator, DES reference — binds the
/// same extern behaviors, or the digests would not be comparable.
fn setup(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut registry = BehaviorRegistry::new();
    fireaxe::register_soc_behaviors(&mut registry);
    b.behaviors(registry)
}

fn settings() -> WireSettings {
    WireSettings {
        sample_interval: SAMPLE_EVERY,
        vcd: true,
        ..Default::default()
    }
}

/// Worker mode: bind an ephemeral port, advertise it on stdout (the
/// parent parses this line), serve one coordinator session, exit.
fn worker_main() -> ! {
    let listener = NetListener::bind("127.0.0.1:0").expect("worker bind");
    println!("{LISTENING_PREFIX}{}", listener.local_addr_string());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match serve(&listener, &setup) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker: {e}");
            std::process::exit(1);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == WORKER_FLAG) {
        worker_main();
    }

    let (circuit, spec) = design();
    let n = compile(&circuit, &spec)?.partitions.len();
    let exe = std::env::current_exe()?;

    // The in-process DES golden model, same design and settings; every
    // cluster run below must reproduce it bit for bit.
    let (_, mut des) = FireAxe::new(circuit.clone(), spec.clone())
        .backend(Backend::Des)
        .observe(ObsSpec {
            sample_interval: SAMPLE_EVERY,
            vcd: true,
            signals: Vec::new(),
        })
        .build()?;
    let des_metrics = des.run_target_cycles(CYCLES)?;
    let des_report = des.obs_report();

    // Re-exec this binary once per partition, so every worker hosts one
    // (the widest placement); `SpawnedWorker` reads each child's
    // advertised address, and kills it on drop, so a failed run cannot
    // leak processes.
    let workers: Vec<SpawnedWorker> = (0..n)
        .map(|_| {
            let mut cmd = Command::new(&exe);
            cmd.arg(WORKER_FLAG);
            SpawnedWorker::launch(cmd).expect("spawn worker")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    println!("spawned {n} worker processes on {}", addrs.join(", "));

    let net = run_cluster(&circuit, &spec, CYCLES, &addrs, &settings(), 10_000, &setup)?;
    println!(
        "simulated {} target cycles over {} cross-partition links",
        net.metrics.target_cycles,
        net.metrics.link_tokens.len()
    );

    // Clean shutdown: every worker process must exit zero.
    for w in workers {
        assert!(w.wait()?, "worker exited with failure");
    }

    // Bit-exactness across process boundaries: sampled digests, the
    // waveform, and the per-link token totals all match the DES run.
    assert_eq!(net.series.nodes.len(), des_report.metrics.nodes.len());
    for (a, b) in net.series.nodes.iter().zip(&des_report.metrics.nodes) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.samples.len(), b.samples.len(), "node {}", a.node);
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!((sa.cycle, sa.state_digest), (sb.cycle, sb.state_digest));
        }
    }
    assert_eq!(net.vcd, des_report.vcd, "waveforms diverged from DES");
    assert_eq!(net.metrics.link_tokens, des_metrics.link_tokens);
    println!(
        "4 processes and the DES golden model agree on (cycle, state_digest); \
         waveforms are byte-identical"
    );

    std::fs::write("distributed_noc.trace.json", &net.chrome_trace)?;
    println!(
        "wrote distributed_noc.trace.json ({} bytes): coordinator + {} worker process tracks",
        net.chrome_trace.len(),
        n
    );
    Ok(())
}
