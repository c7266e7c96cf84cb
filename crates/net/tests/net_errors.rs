//! The typed wire-error surface: a killed worker must surface as
//! `SimError::PeerDisconnected` carrying stall forensics (never a
//! hang), a version skew as `SimError::ProtocolMismatch` on both sides,
//! and a silent peer as `SimError::NetTimeout` — with the coordinator
//! tearing the remaining workers down in every case. Hostile bring-up
//! bytes (a topology that is empty, names a partition twice or past the
//! cut, lists a node at a partition past its node table, mixes two cuts,
//! or is not the run placement assigns) get a typed refusal, never a
//! panic or a hang.

mod common;

use common::{
    listen_addrs, noc_4partition_design, observed_settings, setup_hook, spawn_pooled,
    spawn_workers, CYCLES,
};
use fireaxe_ir::build::ModuleBuilder;
use fireaxe_net::codec::{read_msg, write_msg, Msg, PROTOCOL_MAGIC};
use fireaxe_net::{
    decode_partition_payload, encode_partition_payload, execute_placed, place_cluster, prepare_job,
    run_cluster, FaultProxy, NetListener, ProxyPlan, RecoveryOptions, Teardown, Topology,
    PROTOCOL_VERSION,
};
use fireaxe_sim::SimError;
use std::time::{Duration, Instant};

#[test]
fn killed_worker_surfaces_peer_disconnected_with_stall_report() {
    let (circuit, spec) = noc_4partition_design();
    let mut settings = observed_settings();
    settings.io_timeout_ms = 5_000;
    let addrs = listen_addrs(4, false, "kill");
    let (bound, handles) = spawn_workers(&addrs);

    // Sever worker 2's connection mid-run: to the coordinator this is
    // indistinguishable from the process being killed.
    let proxy = FaultProxy::start(
        "127.0.0.1:0",
        &bound[2],
        ProxyPlan {
            cut_after: Some(5),
            ..ProxyPlan::clean()
        },
        ProxyPlan::clean(),
    )
    .expect("proxy start");
    let mut cluster_addrs = bound.clone();
    cluster_addrs[2] = proxy.addr.clone();

    let started = Instant::now();
    let err = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &cluster_addrs,
        &settings,
        10_000,
        &setup_hook,
    )
    .expect_err("cluster must fail when a worker dies");
    // Detection must come from the EOF, well within the configured
    // timeout — a kill must never degenerate into a silent hang.
    assert!(
        started.elapsed() < Duration::from_millis(settings.io_timeout_ms),
        "worker death took longer than io_timeout_ms to surface"
    );
    match err {
        SimError::PeerDisconnected { peer, report, .. } => {
            assert_eq!(
                peer,
                format!("worker2@{} (partition 2)", cluster_addrs[2]),
                "blamed the wrong worker"
            );
            assert_eq!(
                report.nodes.len(),
                4,
                "stall report must cover every worker"
            );
            assert!(report.nodes.iter().all(|n| n.node.starts_with("worker")));
        }
        other => panic!("expected PeerDisconnected, got {other}"),
    }
    // Teardown reaches the surviving workers: every serve() call
    // returns (with an error — their coordinator vanished) rather than
    // blocking forever.
    for h in handles {
        let _ = h.join().expect("worker thread must exit");
    }
}

#[test]
fn version_skew_surfaces_protocol_mismatch_on_both_sides() {
    // Coordinator side: worker 0 answers with a future version.
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let stub = NetListener::bind("127.0.0.1:0").expect("stub bind");
    let stub_addr = stub.local_addr_string();
    let stub_thread = std::thread::spawn(move || {
        let mut s = stub.accept().expect("stub accept");
        let _ = read_msg(&mut s).expect("stub read");
        write_msg(
            &mut s,
            &Msg::HelloAck {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION + 1,
            },
        )
        .expect("stub write");
    });
    let others = spawn_workers(&listen_addrs(3, false, "skew"));
    let mut cluster_addrs = vec![stub_addr.clone()];
    cluster_addrs.extend(others.0.iter().cloned());

    let err = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &cluster_addrs,
        &settings,
        10_000,
        &setup_hook,
    )
    .expect_err("cluster must reject a version skew");
    match err {
        SimError::ProtocolMismatch { peer, ours, theirs } => {
            assert_eq!(peer, stub_addr);
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, PROTOCOL_VERSION + 1);
        }
        other => panic!("expected ProtocolMismatch, got {other}"),
    }
    stub_thread.join().expect("stub thread");
    for h in others.1 {
        let _ = h.join().expect("worker thread must exit");
    }

    // Worker side: a coordinator announcing a future version gets a
    // HelloAck (so it can diagnose too), then the worker refuses.
    let listener = NetListener::bind("127.0.0.1:0").expect("worker bind");
    let addr = listener.local_addr_string();
    let worker = std::thread::spawn(move || fireaxe_net::serve(&listener, &setup_hook));
    let mut s = fireaxe_net::NetStream::connect(&addr, Duration::from_secs(5)).expect("connect");
    write_msg(
        &mut s,
        &Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION + 1,
            worker: 0,
        },
    )
    .expect("hello write");
    match read_msg(&mut s).expect("helloack read").expect("not EOF") {
        Msg::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    match worker.join().expect("worker thread") {
        Err(SimError::ProtocolMismatch { ours, theirs, .. }) => {
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, PROTOCOL_VERSION + 1);
        }
        other => panic!("worker should refuse the skew, got {other:?}"),
    }
}

#[test]
fn silent_worker_surfaces_net_timeout() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    // A worker that handshakes correctly, then goes silent before Ready.
    let stub = NetListener::bind("127.0.0.1:0").expect("stub bind");
    let stub_addr = stub.local_addr_string();
    let stub_thread = std::thread::spawn(move || {
        let mut s = stub.accept().expect("stub accept");
        let _ = read_msg(&mut s).expect("hello");
        write_msg(
            &mut s,
            &Msg::HelloAck {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
            },
        )
        .expect("helloack");
        let _ = read_msg(&mut s).expect("topology");
        // Hold the socket open, saying nothing, until the coordinator
        // gives up and shuts it down.
        let _ = read_msg(&mut s);
    });
    let others = spawn_workers(&listen_addrs(3, false, "silent"));
    let mut cluster_addrs = vec![stub_addr.clone()];
    cluster_addrs.extend(others.0.iter().cloned());

    let connect_timeout_ms = 1_500;
    let started = Instant::now();
    let err = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &cluster_addrs,
        &settings,
        connect_timeout_ms,
        &setup_hook,
    )
    .expect_err("cluster must time out on a silent worker");
    assert!(
        started.elapsed() < Duration::from_millis(4 * connect_timeout_ms),
        "timeout detection took far longer than configured"
    );
    match err {
        SimError::NetTimeout {
            peer, timeout_ms, ..
        } => {
            assert_eq!(peer, stub_addr);
            assert_eq!(timeout_ms, connect_timeout_ms);
        }
        other => panic!("expected NetTimeout, got {other}"),
    }
    stub_thread.join().expect("stub thread");
    for h in others.1 {
        let _ = h.join().expect("worker thread must exit");
    }
}

/// The tape is the only copy of the design a `Topology` carries: one
/// that does not decode (here: none at all) is a typed configuration
/// error at the worker, not a panic and not a hang.
#[test]
fn undecodable_tape_is_a_config_error_at_the_worker() {
    let listener = NetListener::bind("127.0.0.1:0").expect("worker bind");
    let addr = listener.local_addr_string();
    let worker = std::thread::spawn(move || fireaxe_net::serve(&listener, &setup_hook));
    let mut s = fireaxe_net::NetStream::connect(&addr, Duration::from_secs(5)).expect("connect");
    write_msg(
        &mut s,
        &Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
            worker: 0,
        },
    )
    .expect("hello write");
    let _ = read_msg(&mut s).expect("helloack read");
    let topology = fireaxe_net::Topology {
        worker: 0,
        n_workers: 4,
        settings: observed_settings(),
        payloads: vec![Vec::new()],
    };
    write_msg(&mut s, &Msg::Topology(Box::new(topology))).expect("topology write");
    match worker.join().expect("worker thread") {
        Err(SimError::Config { message }) => {
            assert!(message.contains("bad circuit tape"), "{message}");
        }
        other => panic!("worker should refuse the tape, got {other:?}"),
    }
}

/// A 2^27-bit wire driven by a resize of a 1-bit input: a tape of a
/// hundred-odd bytes that would allocate 16 MiB per value if elaborated.
fn oversized_circuit() -> fireaxe_ir::Circuit {
    let mut m = ModuleBuilder::new("Bomb");
    let i = m.input("i", 1);
    let o = m.output("o", 1);
    let w = m.wire("w", 1 << 27);
    m.mem("m", 64, 1 << 21);
    m.connect_sig(&w, &i.resize(1 << 27));
    m.connect_sig(&o, &w.bits(0, 0));
    fireaxe_ir::Circuit::from_modules("Bomb", vec![m.finish()], "Bomb")
}

/// The worker validates every thread circuit it receives: one past the
/// size limits is refused with the typed error as a `Fatal` before
/// anything is elaborated, and the pooled worker goes back to accept
/// and serves the next job.
#[test]
fn oversized_thread_circuit_is_fatal_and_the_pooled_worker_serves_on() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    let mut cut = decode_partition_payload(prepared.partition_payload(0)).expect("payload");
    cut.artifact.threads[0].circuit = oversized_circuit();

    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, "oversized"), &setup_hook);
    let mut s = fireaxe_net::NetStream::connect(&bound[0], Duration::from_secs(5)).expect("dial");
    write_msg(
        &mut s,
        &Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
            worker: 0,
        },
    )
    .expect("hello write");
    let _ = read_msg(&mut s).expect("helloack read");
    let topology = fireaxe_net::Topology {
        worker: 0,
        n_workers: 4,
        settings: settings.clone(),
        payloads: vec![encode_partition_payload(&cut)],
    };
    write_msg(&mut s, &Msg::Topology(Box::new(topology))).expect("topology write");
    match read_msg(&mut s).expect("fatal read") {
        Some(Msg::Fatal { message, .. }) => assert!(
            message.contains("signal `w` in module `Bomb` is 134217728 bits wide"),
            "{message}"
        ),
        other => panic!("expected Fatal, got {other:?}"),
    }

    // Back in accept: the same four workers run a real job.
    let placed = place_cluster(&prepared, &bound, 10_000).expect("place after the refusal");
    let report = execute_placed(
        &prepared,
        placed,
        CYCLES / 4,
        RecoveryOptions::none(),
        None,
        Teardown::Shutdown,
    )
    .expect("job after the refusal");
    assert_eq!(report.metrics.target_cycles, CYCLES / 4);
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}

/// Handshakes a fresh one-shot worker as worker `worker` and sends it
/// `topology`; returns the worker's typed refusal after checking that
/// the coordinator side was told why with a `Fatal`.
fn refused_topology(topology: Topology) -> String {
    let listener = NetListener::bind("127.0.0.1:0").expect("worker bind");
    let addr = listener.local_addr_string();
    let worker = std::thread::spawn(move || fireaxe_net::serve(&listener, &setup_hook));
    let mut s = fireaxe_net::NetStream::connect(&addr, Duration::from_secs(5)).expect("connect");
    write_msg(
        &mut s,
        &Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
            worker: topology.worker,
        },
    )
    .expect("hello write");
    let _ = read_msg(&mut s).expect("helloack read");
    write_msg(&mut s, &Msg::Topology(Box::new(topology))).expect("topology write");
    match read_msg(&mut s).expect("fatal read") {
        Some(Msg::Fatal { .. }) => {}
        other => panic!("expected Fatal, got {other:?}"),
    }
    match worker.join().expect("worker thread must not panic") {
        Err(SimError::Config { message }) => message,
        other => panic!("worker should refuse the topology, got {other:?}"),
    }
}

/// A topology for worker `worker` of `n_workers` carrying the given
/// partitions of the 4-partition cut.
fn topology_of(worker: u32, n_workers: u32, payloads: Vec<Vec<u8>>) -> Topology {
    Topology {
        worker,
        n_workers,
        settings: observed_settings(),
        payloads,
    }
}

fn noc_payloads() -> Vec<Vec<u8>> {
    let (circuit, spec) = noc_4partition_design();
    let prepared =
        prepare_job(&circuit, &spec, &observed_settings(), &setup_hook).expect("prepare");
    (0..4)
        .map(|p| prepared.partition_payload(p).to_vec())
        .collect()
}

#[test]
fn a_v10_hello_gets_protocol_mismatch_from_a_v11_worker() {
    assert_eq!(PROTOCOL_VERSION, 11);
    let listener = NetListener::bind("127.0.0.1:0").expect("worker bind");
    let addr = listener.local_addr_string();
    let worker = std::thread::spawn(move || fireaxe_net::serve(&listener, &setup_hook));
    let mut s = fireaxe_net::NetStream::connect(&addr, Duration::from_secs(5)).expect("connect");
    write_msg(
        &mut s,
        &Msg::Hello {
            magic: PROTOCOL_MAGIC,
            version: 10,
            worker: 0,
        },
    )
    .expect("hello write");
    match read_msg(&mut s).expect("helloack read").expect("not EOF") {
        Msg::HelloAck { version, .. } => assert_eq!(version, 11),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    match worker.join().expect("worker thread") {
        Err(SimError::ProtocolMismatch { ours, theirs, .. }) => {
            assert_eq!((ours, theirs), (11, 10));
        }
        other => panic!("worker should refuse v10, got {other:?}"),
    }
}

#[test]
fn a_topology_without_payloads_is_refused() {
    let message = refused_topology(topology_of(0, 1, Vec::new()));
    assert!(message.contains("no partition payload"), "{message}");
}

#[test]
fn a_topology_naming_a_partition_twice_is_refused() {
    let p = noc_payloads();
    let message = refused_topology(topology_of(0, 2, vec![p[0].clone(), p[0].clone()]));
    assert!(message.contains("partition 0 is given twice"), "{message}");
}

#[test]
fn a_topology_with_a_partition_past_the_cut_is_refused() {
    let mut cut = decode_partition_payload(&noc_payloads()[3]).expect("payload");
    cut.partition = 4;
    let message = refused_topology(topology_of(3, 4, vec![encode_partition_payload(&cut)]));
    assert!(
        message.contains("partition 4 is out of range for a 4-partition cut"),
        "{message}"
    );
}

#[test]
fn a_node_table_listing_a_partition_past_its_length_is_refused() {
    // A partition count is read off the node table, so an index far past
    // the table must be refused before anything is sized by it.
    for bad in [1 << 40, usize::MAX] {
        let mut cut = decode_partition_payload(&noc_payloads()[0]).expect("payload");
        cut.nodes.last_mut().expect("nodes").1 = bad;
        let message = refused_topology(topology_of(0, 1, vec![encode_partition_payload(&cut)]));
        assert!(
            message.contains(&format!("at partition {bad} after")),
            "{message}"
        );
    }
}

#[test]
fn a_topology_mixing_two_cuts_is_refused() {
    // Partition 1 of a 2-partition cut of another design, beside
    // partition 0 of the 4-partition one.
    let other = {
        let soc = fireaxe_soc::ring_soc(&fireaxe_soc::RingSocConfig {
            tiles: 4,
            tile_period: 4,
            ..Default::default()
        });
        let spec = fireaxe_ripper::PartitionSpec::exact(vec![fireaxe_ripper::PartitionGroup {
            name: "fpga0".into(),
            selection: fireaxe_ripper::Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: vec![0, 1],
            },
            fame5: false,
        }]);
        prepare_job(&soc.circuit, &spec, &observed_settings(), &setup_hook).expect("prepare")
    };
    let payloads = vec![
        noc_payloads()[0].clone(),
        other.partition_payload(1).to_vec(),
    ];
    let message = refused_topology(topology_of(0, 2, payloads));
    assert!(message.contains("come from different cuts"), "{message}");
}

#[test]
fn a_topology_with_another_run_than_placement_assigns_is_refused() {
    let p = noc_payloads();
    // Worker 0 of 2 hosts partitions 0 and 1; 0 alone, 1 and 2, and the
    // right run sent to worker 1 are all refused.
    for (worker, payloads) in [
        (0, vec![p[0].clone()]),
        (0, vec![p[1].clone(), p[2].clone()]),
        (1, vec![p[0].clone(), p[1].clone()]),
    ] {
        let message = refused_topology(topology_of(worker, 2, payloads));
        assert!(message.contains("of 2 hosts"), "{message}");
    }
    // So is a fleet larger than the cut.
    let message = refused_topology(topology_of(0, 5, vec![p[0].clone()]));
    assert!(message.contains("5 worker(s) cannot host"), "{message}");
}

#[test]
fn place_cluster_needs_one_to_p_addresses() {
    let (circuit, spec) = noc_4partition_design();
    let prepared =
        prepare_job(&circuit, &spec, &observed_settings(), &setup_hook).expect("prepare");
    for n in [0usize, 5] {
        let addrs = vec!["127.0.0.1:9".to_string(); n];
        match place_cluster(&prepared, &addrs, 1_000) {
            Err(SimError::Config { message }) => assert!(
                message.contains(&format!("got {n} worker address(es) for a 4-partition"))
                    && message.contains("1 to 4"),
                "{message}"
            ),
            Err(other) => panic!("expected a Config error, got {other}"),
            Ok(_) => panic!("placed {n} workers"),
        }
    }
}

#[test]
fn a_kept_build_is_refused_at_another_place_in_the_fleet() {
    // A pooled worker keys kept builds by partition set. Having built
    // {0, 1} as worker 0 of 2, it must not serve the same payloads as
    // worker 1 of 2, whose run is {2, 3}: the cache hit is checked
    // against placement like a fresh build.
    let p = noc_payloads();
    let run = vec![p[0].clone(), p[1].clone()];
    let (bound, handles) = spawn_pooled(&listen_addrs(1, false, "kept-run"), &setup_hook);
    // One session up to the worker's answer to its topology; a `Ready`
    // session then ends with `bye`.
    let session = |worker: u32, bye: &Msg| {
        let mut s =
            fireaxe_net::NetStream::connect(&bound[0], Duration::from_secs(5)).expect("dial");
        write_msg(
            &mut s,
            &Msg::Hello {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
                worker,
            },
        )
        .expect("hello write");
        let _ = read_msg(&mut s).expect("helloack read");
        let topology = topology_of(worker, 2, run.clone());
        write_msg(&mut s, &Msg::Topology(Box::new(topology))).expect("topology write");
        let reply = read_msg(&mut s).expect("reply read").expect("not EOF");
        if matches!(reply, Msg::Ready { .. }) {
            write_msg(&mut s, bye).expect("goodbye write");
        }
        reply
    };
    assert!(matches!(session(0, &Msg::ResetToIdle), Msg::Ready { .. }));
    match session(1, &Msg::ResetToIdle) {
        Msg::Fatal { message, .. } => assert!(message.contains("of 2 hosts"), "{message}"),
        other => panic!("expected Fatal, got {other:?}"),
    }
    // Still kept, and still served where it belongs.
    assert!(matches!(session(0, &Msg::Shutdown), Msg::Ready { .. }));
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}
