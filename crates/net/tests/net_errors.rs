//! The typed wire-error surface: a killed worker must surface as
//! `SimError::PeerDisconnected` carrying stall forensics (never a
//! hang), a version skew as `SimError::ProtocolMismatch` on both sides,
//! and a silent peer as `SimError::NetTimeout` — with the coordinator
//! tearing the remaining workers down in every case.

mod common;

use common::{
    listen_addrs, noc_4partition_design, observed_settings, setup_hook, spawn_pooled,
    spawn_workers, CYCLES,
};
use fireaxe_ir::build::ModuleBuilder;
use fireaxe_net::codec::{read_msg, write_msg, Msg, PROTOCOL_MAGIC};
use fireaxe_net::{
    decode_partition_payload, encode_partition_payload, execute_placed, place_cluster, prepare_job,
    run_cluster, FaultProxy, NetListener, ProxyPlan, RecoveryOptions, Teardown, PROTOCOL_VERSION,
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
            assert_eq!(peer, cluster_addrs[2], "blamed the wrong worker");
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
        payload: Vec::new(),
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
        payload: encode_partition_payload(&cut),
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
