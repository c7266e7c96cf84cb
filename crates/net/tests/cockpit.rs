//! Live-cockpit acceptance: attach to a running 4-partition cluster,
//! pause it at one fence cycle, peek and poke internal signals, single
//! step, resume — and end with target state bit-identical to a DES run
//! that stages the same poke at the same cycle, while the concurrently
//! subscribed wave stream reassembles to the byte-exact batch VCD.
//!
//! The client here speaks the raw v4 control protocol (the `fireaxe
//! attach` REPL lives in the core crate, above this one in the
//! dependency DAG, and is exercised by the CI cockpit job).

mod common;

use common::{listen_addrs, noc_4partition_design, observed_settings, setup_hook, spawn_workers};
use fireaxe_ir::{Bits, Circuit, Direction};
use fireaxe_net::codec::PROTOCOL_MAGIC;
use fireaxe_net::WireSettings;
use fireaxe_net::{
    run_cluster_controlled, Msg, NetListener, NetStream, NodeInfo, RecoveryOptions,
    PROTOCOL_VERSION,
};
use fireaxe_obs::{DeltaVcdReassembler, NodeSample, VcdSignal};
use fireaxe_ripper::PartitionSpec;
use fireaxe_sim::{Backend, ObsReport, ObsSpec, SimBuilder};
use std::time::Duration;

/// Long enough that the pause request (sent the moment the run starts)
/// always lands before the budget is exhausted, short enough for CI.
const BUDGET: u64 = 4_000;

/// Raw cockpit client: length-prefixed [`Msg`] frames over the control
/// socket, with streamed deltas collected on the side while waiting for
/// a specific reply.
struct Ctl {
    stream: NetStream,
    /// Every streamed wave change, in relay order.
    waves: Vec<(u64, u32, Bits)>,
    /// Every streamed metric sample, tagged with its node index.
    samples: Vec<(u32, NodeSample)>,
}

impl Ctl {
    fn connect(addr: &str) -> Ctl {
        let stream = NetStream::connect(addr, Duration::from_secs(10)).expect("control connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Ctl {
            stream,
            waves: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn send(&mut self, msg: &Msg) {
        fireaxe_net::codec::write_msg(&mut self.stream, msg).expect("control send");
    }

    fn recv(&mut self) -> Option<Msg> {
        fireaxe_net::codec::read_msg(&mut self.stream).expect("control read")
    }

    /// Reads until `want` matches, stashing streamed deltas.
    fn wait(&mut self, want: impl Fn(&Msg) -> bool) -> Msg {
        loop {
            let msg = self.recv().expect("control socket closed while waiting");
            if want(&msg) {
                return msg;
            }
            self.stash(msg);
        }
    }

    fn stash(&mut self, msg: Msg) {
        match msg {
            Msg::WaveDelta { changes, .. } => self.waves.extend(changes),
            Msg::MetricDelta { node, samples } => {
                self.samples.extend(samples.into_iter().map(|s| (node, s)));
            }
            _ => {}
        }
    }

    /// Drains the stream to EOF (the coordinator closes the socket when
    /// the run ends), stashing every delta.
    fn drain(&mut self) {
        while let Some(msg) = self.recv() {
            self.stash(msg);
        }
    }
}

/// What the scripted session observed, for comparison against the DES
/// reference after the fact.
struct Session {
    nodes: Vec<NodeInfo>,
    signals: Vec<VcdSignal>,
    fence: u64,
    peek_addr: String,
    peeked: Bits,
    waves: Vec<(u64, u32, Bits)>,
    samples: Vec<(u32, NodeSample)>,
}

/// The full scripted cockpit session: attach, subscribe, pause, status,
/// peek, poke, step, resume, drain to run end.
fn cockpit_session(addr: &str, poke_node_name: &str, poke_port: &str, poke_value: u64) -> Session {
    let mut ctl = Ctl::connect(addr);
    ctl.send(&Msg::Attach {
        magic: PROTOCOL_MAGIC,
        version: PROTOCOL_VERSION,
    });
    ctl.send(&Msg::Subscribe {
        wave: true,
        metrics: true,
    });
    ctl.send(&Msg::Pause { cycle: 0 });

    let ack = ctl.wait(|m| matches!(m, Msg::AttachAck { .. }));
    let Msg::AttachAck { nodes, signals, .. } = ack else {
        unreachable!()
    };
    assert!(!nodes.is_empty(), "attach reported no nodes");
    assert!(!signals.is_empty(), "attach reported no watched signals");

    let pause = ctl.wait(|m| matches!(m, Msg::PauseAck { .. }));
    let Msg::PauseAck { cycle: fence } = pause else {
        unreachable!()
    };
    assert!(
        fence < BUDGET,
        "pause landed at the budget ({fence}); nothing left to observe"
    );

    // Satellite: per-partition progress. While paused every node sits
    // exactly at the fence, and the status rows carry the same identity
    // table the attach reported.
    ctl.send(&Msg::Status);
    let status = ctl.wait(|m| matches!(m, Msg::StatusReply { .. }));
    let Msg::StatusReply {
        nodes: rows,
        paused,
        fence: status_fence,
    } = status
    else {
        unreachable!()
    };
    assert!(paused, "status says running while paused");
    assert_eq!(status_fence, fence);
    assert_eq!(rows.len(), nodes.len());
    for (row, node) in rows.iter().zip(&nodes) {
        assert_eq!((row.node, &row.name), (node.node, &node.name));
        assert_eq!(row.partition, node.partition);
        assert_eq!(row.cycle, fence, "node {} is off the fence", row.name);
    }

    // Peek the first watched signal — the fence makes the read
    // cycle-exact, so the DES reference must see the same bits at the
    // same cycle.
    let sig = signals[0].clone();
    let peek_node = nodes
        .iter()
        .find(|n| n.name == sig.scope)
        .expect("signal scope names a node");
    ctl.send(&Msg::Peek {
        node: peek_node.node,
        path: sig.name.clone(),
    });
    let reply = ctl.wait(|m| matches!(m, Msg::PeekReply { .. }));
    let Msg::PeekReply { cycle, value, .. } = reply else {
        unreachable!()
    };
    assert_eq!(cycle, fence, "peek answered off the fence");
    let peeked = value.expect("watched signal must be peekable");

    // Poke a boundary input port on its owning node; staged at the
    // fence, it takes effect at the next cycle tick.
    let poke_node = nodes
        .iter()
        .find(|n| n.name == poke_node_name)
        .expect("poke node exists");
    ctl.send(&Msg::Poke {
        node: poke_node.node,
        path: poke_port.to_string(),
        value: poke_value,
    });
    let ack = ctl.wait(|m| matches!(m, Msg::PokeAck { .. }));
    let Msg::PokeAck { cycle, error, .. } = ack else {
        unreachable!()
    };
    assert_eq!(error, "", "poke rejected");
    assert_eq!(cycle, fence, "poke staged off the fence");

    // Single-step: the cluster advances exactly n cycles to a new
    // fence, then holds again.
    ctl.send(&Msg::Step { n: 100 });
    let step = ctl.wait(|m| matches!(m, Msg::PauseAck { .. }));
    let Msg::PauseAck { cycle: stepped } = step else {
        unreachable!()
    };
    assert_eq!(stepped, fence + 100, "step moved a wrong distance");

    ctl.send(&Msg::ResumeRun);
    ctl.drain();

    Session {
        nodes,
        signals,
        fence,
        peek_addr: format!("{}:{}", sig.scope, sig.name),
        peeked,
        waves: ctl.waves,
        samples: ctl.samples,
    }
}

/// DES reference run with the same poke staged at the same fence cycle
/// through the in-process control hooks, segmented exactly like the
/// paused cluster: run to the fence, peek, poke, run out the budget.
fn poked_des_reference(
    circuit: &Circuit,
    spec: &PartitionSpec,
    settings: &WireSettings,
    fence: u64,
    peek_addr: &str,
    poke_addr: &str,
    poke_value: u64,
) -> (Bits, ObsReport) {
    let design = fireaxe_ripper::compile(circuit, spec).expect("reference compile");
    let builder = SimBuilder::new(&design)
        .backend(Backend::Des)
        .observe(ObsSpec {
            sample_interval: settings.sample_interval,
            vcd: settings.vcd,
            signals: settings.signals.clone(),
        });
    let mut sim = setup_hook(builder).build().expect("reference build");
    sim.run_target_cycles(fence)
        .expect("reference run to fence");
    let peeked = sim.peek_signal(peek_addr).expect("reference peek");
    sim.poke_signal(poke_addr, poke_value)
        .expect("reference poke");
    sim.run_target_cycles(BUDGET).expect("reference run out");
    (peeked, sim.obs_report())
}

/// The deterministic `(cycle, state_digest)` rows of a metric series.
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

#[test]
fn cockpit_pause_peek_poke_step_resume_matches_poked_des() {
    pause_peek_poke_step_resume(4, "cockpit");
}

/// The same session on the 4 partitions packed onto 2 workers: peeks
/// and pokes route to the worker hosting the node, and the two-round
/// fence lands every hosted partition on one cycle.
#[test]
fn cockpit_on_a_packed_cluster_matches_poked_des() {
    pause_peek_poke_step_resume(2, "cockpit-packed");
}

/// Runs [`cockpit_session`] against the 4-partition cut on `n_workers`
/// workers and checks it against the poked DES reference.
fn pause_peek_poke_step_resume(n_workers: usize, label: &str) {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();

    // A pokeable address discovered from the compiled cut: the first
    // boundary input port of the first partition's node, driven
    // all-ones for one cycle (boundary traffic never looks like that,
    // so the poke is observable in the digests).
    let design = fireaxe_ripper::compile(&circuit, &spec).expect("compile");
    let thread = &design.partitions[0].threads[0];
    let port = thread
        .circuit
        .top_module()
        .ports_in(Direction::Input)
        .next()
        .expect("partition node has an input port")
        .clone();
    let poke_value = if port.width.get() >= 64 {
        u64::MAX
    } else {
        (1u64 << port.width.get()) - 1
    };
    let poke_node_name = thread.name.clone();
    let poke_port = port.name.clone();
    let poke_addr = format!("{poke_node_name}:{poke_port}");

    let addrs = listen_addrs(n_workers, false, label);
    let (bound, handles) = spawn_workers(&addrs);
    let control = NetListener::bind("127.0.0.1:0").expect("control bind");
    let ctl_addr = control.local_addr_string();

    let client = std::thread::spawn(move || {
        cockpit_session(&ctl_addr, &poke_node_name, &poke_port, poke_value)
    });
    let report = run_cluster_controlled(
        &circuit,
        &spec,
        BUDGET,
        &bound,
        &settings,
        10_000,
        &setup_hook,
        RecoveryOptions::none(),
        Some(control),
    )
    .expect("cluster run");
    let session = client.join().expect("client thread");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    assert_eq!(report.metrics.target_cycles, BUDGET);

    // The wave stream, reassembled in relay order, is byte-identical to
    // the end-of-run batch document — streaming is an observation of
    // the same recording, not a second pipeline.
    let mut reasm = DeltaVcdReassembler::new(session.signals.clone());
    reasm.apply(&session.waves);
    let batch = report.vcd.as_deref().expect("net VCD missing");
    assert_eq!(
        reasm.render(),
        batch,
        "streamed VCD diverged from the batch document"
    );

    // The streamed metric tail covers the whole series: per node, the
    // deterministic rows equal the end-of-run report's.
    for info in &session.nodes {
        let streamed: Vec<(u64, u64)> = session
            .samples
            .iter()
            .filter(|(n, _)| *n == info.node)
            .map(|(_, s)| (s.cycle, s.state_digest))
            .collect();
        let folded: Vec<(u64, u64)> = report
            .series
            .nodes
            .iter()
            .find(|n| n.node == info.name)
            .map(|n| {
                n.samples
                    .iter()
                    .map(|s| (s.cycle, s.state_digest))
                    .collect()
            })
            .unwrap_or_default();
        assert_eq!(streamed, folded, "metric stream diverged at {}", info.name);
    }

    // Determinism: a DES run that stages the same poke at the same
    // fence cycle sees the same peeked bits and produces bit-identical
    // sampled digests and waveform — pausing, poking, and stepping an
    // attached cluster is invisible beyond the poke itself.
    let (des_peeked, des_obs) = poked_des_reference(
        &circuit,
        &spec,
        &settings,
        session.fence,
        &session.peek_addr,
        &poke_addr,
        poke_value,
    );
    assert_eq!(
        session.peeked, des_peeked,
        "paused peek diverged from the DES segment boundary"
    );
    let des_vcd = des_obs.vcd.as_deref().expect("DES VCD missing");
    assert_eq!(batch, des_vcd, "poked cluster VCD diverged from poked DES");
    assert_eq!(
        digests(&report.series),
        digests(&des_obs.metrics),
        "poked cluster digests diverged from poked DES"
    );
}

/// An attach with the wrong protocol version is refused by dropping the
/// connection before any state leaks, and the run is unaffected.
#[test]
fn attach_version_mismatch_is_dropped_and_harmless() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let addrs = listen_addrs(4, false, "cockpit-vm");
    let (bound, handles) = spawn_workers(&addrs);
    let control = NetListener::bind("127.0.0.1:0").expect("control bind");
    let ctl_addr = control.local_addr_string();

    let client = std::thread::spawn(move || {
        let mut ctl = Ctl::connect(&ctl_addr);
        ctl.send(&Msg::Attach {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION + 1,
        });
        assert!(
            ctl.recv().is_none(),
            "version-mismatched attach was not dropped"
        );
    });
    let report = run_cluster_controlled(
        &circuit,
        &spec,
        600,
        &bound,
        &settings,
        10_000,
        &setup_hook,
        RecoveryOptions::none(),
        Some(control),
    )
    .expect("cluster run");
    client.join().expect("client thread");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    assert_eq!(report.metrics.target_cycles, 600);
}

/// A client that vanishes mid-pause (socket drop, no detach) must not
/// wedge the run: the coordinator lifts the orphaned fence and the
/// cluster finishes its budget.
#[test]
fn client_hangup_lifts_the_fence() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let addrs = listen_addrs(4, false, "cockpit-hup");
    let (bound, handles) = spawn_workers(&addrs);
    let control = NetListener::bind("127.0.0.1:0").expect("control bind");
    let ctl_addr = control.local_addr_string();

    let client = std::thread::spawn(move || {
        let mut ctl = Ctl::connect(&ctl_addr);
        ctl.send(&Msg::Attach {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
        });
        ctl.send(&Msg::Pause { cycle: 0 });
        ctl.wait(|m| matches!(m, Msg::AttachAck { .. }));
        let pause = ctl.wait(|m| matches!(m, Msg::PauseAck { .. }));
        let Msg::PauseAck { cycle } = pause else {
            unreachable!()
        };
        // Drop the socket with the fence standing.
        drop(ctl);
        cycle
    });
    let report = run_cluster_controlled(
        &circuit,
        &spec,
        BUDGET,
        &bound,
        &settings,
        10_000,
        &setup_hook,
        RecoveryOptions::none(),
        Some(control),
    )
    .expect("cluster run survived the hangup");
    let fence = client.join().expect("client thread");
    assert!(fence < BUDGET);
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    assert_eq!(
        report.metrics.target_cycles, BUDGET,
        "run did not finish after the client vanished"
    );
}
