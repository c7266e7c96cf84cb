//! Bit-exactness of the distributed backend: a 4-partition NoC ring SoC
//! run as four workers plus a coordinator over real sockets must
//! produce exactly the DES golden model's sampled
//! `(cycle, state_digest)` rows and VCD waveform, and the coordinator's
//! folded `SimMetrics` must account for every cross-process token.
//! Checked on both supported transports (localhost TCP and Unix-domain
//! sockets) with in-process workers, so the test is hermetic. A
//! feed-forward cut checks the same parity when whole credit windows
//! travel as one message.

mod common;

use common::{
    des_reference, feed_forward_design, listen_addrs, noc_4partition_design, observed_settings,
    proxy_addr, setup_hook, spawn_workers, CYCLES,
};
use fireaxe_net::{
    execute_placed, place_cluster, prepare_job, run_cluster, FaultProxy, NetRunReport, ProxyPlan,
    RecoveryOptions, Teardown, INITIAL_CREDITS,
};
use fireaxe_sim::{placement, ObsReport, SimMetrics};

fn run_net(unix: bool, label: &str) -> NetRunReport {
    let (circuit, spec) = noc_4partition_design();
    let addrs = listen_addrs(4, unix, label);
    let (bound, handles) = spawn_workers(&addrs);
    let report = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &bound,
        &observed_settings(),
        10_000,
        &setup_hook,
    )
    .expect("cluster run");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    report
}

/// Deterministic view of a node series: the `(cycle, state_digest)`
/// rows. Host-dependent columns legitimately differ across backends.
fn digests(obs: &fireaxe_obs::MetricsSeries) -> Vec<(String, Vec<(u64, u64)>)> {
    obs.nodes
        .iter()
        .map(|n| {
            (
                n.node.clone(),
                n.samples
                    .iter()
                    .map(|s| (s.cycle, s.state_digest))
                    .collect(),
            )
        })
        .collect()
}

fn assert_parity(
    net: &NetRunReport,
    des_metrics: &SimMetrics,
    des_obs: &ObsReport,
    n_workers: usize,
) {
    // Sampled deterministic state, node by node, cycle by cycle.
    let net_digests = digests(&net.series);
    let des_digests = digests(&des_obs.metrics);
    assert!(
        net_digests.iter().any(|(_, rows)| !rows.is_empty()),
        "net run produced no samples"
    );
    assert_eq!(net_digests, des_digests, "state digests diverged from DES");

    // The full waveform document, byte for byte.
    let net_vcd = net.vcd.as_deref().expect("net VCD missing");
    let des_vcd = des_obs.vcd.as_deref().expect("DES VCD missing");
    assert!(!net_vcd.is_empty());
    assert_eq!(net_vcd, des_vcd, "VCD diverged from DES");

    // Folded metrics: every process's token traffic accounted for.
    assert_eq!(net.metrics.target_cycles, CYCLES);
    assert_eq!(
        net.metrics.link_tokens, des_metrics.link_tokens,
        "per-link token totals diverged from DES"
    );
    assert_eq!(net.metrics.counters.len(), des_metrics.counters.len());
    for (n, d) in net.metrics.counters.iter().zip(&des_metrics.counters) {
        assert_eq!(n.node, d.node);
        assert_eq!(n.partition, d.partition);
        assert_eq!(n.target_cycles, CYCLES, "node {} stopped early", n.node);
    }
    // Cross-worker links actually used the socket protocol, and a clean
    // network required no recovery.
    let framed: u64 = net.metrics.links.iter().map(|l| l.sent_frames).sum();
    assert!(framed > 0, "no cross-worker traffic was framed");
    for l in &net.metrics.links {
        assert_eq!(
            l.retransmits, 0,
            "link {} retransmitted on a clean net",
            l.link
        );
        assert_eq!(
            l.crc_failures, 0,
            "link {} saw CRC failures on a clean net",
            l.link
        );
    }
    // The merged Chrome trace carries the coordinator's and every
    // worker's process track.
    let workers = (0..n_workers).map(|w| format!("worker{w}"));
    for part in std::iter::once("coordinator".to_string()).chain(workers) {
        assert!(
            net.chrome_trace.contains(&part),
            "chrome trace missing process track {part}"
        );
    }
}

#[test]
fn tcp_cluster_matches_des_golden_model() {
    let (circuit, spec) = noc_4partition_design();
    let (des_metrics, des_obs) = des_reference(&circuit, &spec, &observed_settings());
    let net = run_net(false, "parity-tcp");
    assert_parity(&net, &des_metrics, &des_obs, 4);
}

#[test]
fn unix_cluster_matches_des_golden_model() {
    let (circuit, spec) = noc_4partition_design();
    let (des_metrics, des_obs) = des_reference(&circuit, &spec, &observed_settings());
    let net = run_net(true, "parity-unix");
    assert_parity(&net, &des_metrics, &des_obs, 4);
}

/// Runs the feed-forward cut on two workers, one partition each, with a
/// transparent proxy in front of worker 1, and returns the report and
/// the most frames one token message carried through the proxy.
fn run_feed_forward(unix: bool, label: &str) -> (NetRunReport, usize) {
    let (circuit, spec) = feed_forward_design();
    let (bound, handles) = spawn_workers(&listen_addrs(2, unix, label));
    let proxy = FaultProxy::start(
        &proxy_addr(unix, label),
        &bound[1],
        ProxyPlan::clean(),
        ProxyPlan::clean(),
    )
    .expect("proxy start");
    let report = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &[bound[0].clone(), proxy.addr.clone()],
        &observed_settings(),
        10_000,
        &setup_hook,
    )
    .expect("feed-forward cluster run");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    (report, proxy.largest_batch())
}

/// Framing is invisible in target state: the producer runs a whole
/// credit window ahead of its sink and ships the spent window as one
/// message, and digests, VCD and link tokens still match DES exactly.
fn assert_feed_forward_parity(unix: bool, label: &str) {
    let (circuit, spec) = feed_forward_design();
    let (des_metrics, des_obs) = des_reference(&circuit, &spec, &observed_settings());
    let (net, largest) = run_feed_forward(unix, label);
    assert_parity(&net, &des_metrics, &des_obs, 2);
    assert_eq!(
        largest, INITIAL_CREDITS as usize,
        "a spent credit window must travel as one message"
    );
}

#[test]
fn tcp_feed_forward_cut_ships_whole_windows_bit_exact() {
    assert_feed_forward_parity(false, "ff-tcp");
}

#[test]
fn unix_feed_forward_cut_ships_whole_windows_bit_exact() {
    assert_feed_forward_parity(true, "ff-unix");
}

/// Runs the 4-partition cut packed onto `n_workers` Unix-socket workers
/// through `prepare_job` → `place_cluster` → `execute_placed`.
fn run_packed(n_workers: usize, label: &str) -> NetRunReport {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    assert_eq!(prepared.n_partitions(), 4);
    let (bound, handles) = spawn_workers(&listen_addrs(n_workers, true, label));
    let placed = place_cluster(&prepared, &bound, 10_000).expect("place");
    let report = execute_placed(
        &prepared,
        placed,
        CYCLES,
        RecoveryOptions::none(),
        None,
        Teardown::Shutdown,
    )
    .expect("packed cluster run");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    report
}

/// A packed placement changes where partitions run, never what they
/// compute: digests, VCD and per-link token totals match DES, links
/// between co-resident partitions never reach a socket, and the trace
/// carries exactly one track per worker.
fn assert_packed_parity(net: &NetRunReport, n_workers: usize) {
    let (circuit, spec) = noc_4partition_design();
    let (des_metrics, des_obs) = des_reference(&circuit, &spec, &observed_settings());
    assert_eq!(
        digests(&net.series),
        digests(&des_obs.metrics),
        "state digests diverged from DES at {n_workers} worker(s)"
    );
    assert_eq!(
        net.vcd, des_obs.vcd,
        "VCD diverged at {n_workers} worker(s)"
    );
    assert_eq!(net.metrics.target_cycles, CYCLES);
    assert_eq!(
        net.metrics.link_tokens, des_metrics.link_tokens,
        "per-link token totals diverged at {n_workers} worker(s)"
    );
    let worker_of = placement(4, n_workers, n_workers);
    let worker = |node: usize| worker_of[net.metrics.counters[node].partition];
    let design = fireaxe_ripper::compile(&circuit, &spec).expect("compile");
    for (l, spec) in design.links.iter().enumerate() {
        let local = worker(spec.from_node) == worker(spec.to_node);
        let framed = net.metrics.links[l].sent_frames;
        assert_eq!(
            framed == 0,
            local,
            "link {l} framed {framed} token(s) at {n_workers} worker(s)"
        );
    }
    for w in 0..4 {
        assert_eq!(
            net.chrome_trace.contains(&format!("worker{w}")),
            w < n_workers,
            "worker{w} track at {n_workers} worker(s)"
        );
    }
}

#[test]
fn one_worker_hosting_every_partition_matches_des() {
    assert_packed_parity(&run_packed(1, "packed-w1"), 1);
}

#[test]
fn two_workers_hosting_two_partitions_each_match_des() {
    assert_packed_parity(&run_packed(2, "packed-w2"), 2);
}

#[test]
fn three_workers_hosting_uneven_runs_match_des() {
    assert_packed_parity(&run_packed(3, "packed-w3"), 3);
}

/// The fleet the CLI, the job server and the benchmark size by: one
/// worker per core, at most one per partition. Under `taskset -c 0` that
/// is one worker with every link local and only control traffic on the
/// relay.
#[test]
fn a_fleet_sized_by_n_workers_matches_des() {
    let (circuit, spec) = noc_4partition_design();
    let prepared =
        prepare_job(&circuit, &spec, &observed_settings(), &setup_hook).expect("prepare");
    let n = prepared.n_workers();
    assert_eq!(n, 4.min(fireaxe_sim::available_cores()));
    assert_packed_parity(&run_packed(n, "packed-auto"), n);
}
