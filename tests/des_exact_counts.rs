//! Frozen exact counts of the DES golden engine.
//!
//! The discrete-event backend is the model every other backend is
//! checked against, and its numbers — virtual time, host cycles, stall
//! attribution, link traffic — are a function of the design, the
//! transport/clock models and the cycle budget only. A rewrite of the
//! engine's service loop or of the LI-BDN's host step must therefore
//! reproduce them bit for bit: the modelled machine is the same machine.
//!
//! Each scenario renders everything countable about a finished run
//! (`time_ps`; per node host/target cycles, stall attribution, token
//! traffic and the final output-port digest; per link tokens, frames,
//! retransmits and charged delivery delay; rollbacks) to text and checks
//! it against values frozen from the engine this suite was written
//! against (PR 14's tree): the headline numbers in the clear, the full
//! text by FNV-1a digest. On a mismatch the test prints the text it got;
//! run the suite on the reference tree with `DES_COUNTS_DUMP=<dir>` to
//! write one file per scenario and diff against that.

use fireaxe::prelude::*;
use fireaxe::sim::SimError;
use std::fmt::Write as _;

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything countable about the run so far, one fact per line.
fn fingerprint(sim: &DistributedSim) -> String {
    let m = sim.metrics();
    let mut out = String::new();
    writeln!(
        out,
        "time_ps={} target_cycles={} rollbacks={}",
        m.time_ps,
        m.target_cycles,
        sim.rollbacks_taken()
    )
    .unwrap();
    for (ni, c) in m.counters.iter().enumerate() {
        writeln!(
            out,
            "node {ni} {}: part={} host={} target={} in_stall={} out_stall={} enq={} deq={} \
             digest={:016x}",
            c.node,
            c.partition,
            c.host_cycles,
            c.target_cycles,
            c.input_stall_host_cycles,
            c.output_stall_host_cycles,
            c.tokens_enqueued,
            c.tokens_dequeued,
            sim.node_state_digest(ni)
        )
        .unwrap();
    }
    for l in &m.links {
        writeln!(
            out,
            "link {}: tokens={} frames={} retx={} timeouts={} crc={} dup={} delay_ps={}",
            l.link,
            l.tokens,
            l.sent_frames,
            l.retransmits,
            l.timeout_escalations,
            l.crc_failures,
            l.duplicates_dropped,
            l.delivery_delay_ps
        )
        .unwrap();
    }
    out
}

/// Checks a rendered scenario against its frozen headline and digest.
fn check(name: &str, text: &str, headline: &str, digest: u64) {
    if let Ok(dir) = std::env::var("DES_COUNTS_DUMP") {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(format!("{dir}/{name}.txt"), text).unwrap();
    }
    let got_headline = text.lines().next().unwrap_or("");
    let got = fnv1a(text);
    assert!(
        got_headline == headline && got == digest,
        "DES exact counts moved on `{name}`:\n  headline `{got_headline}`\n  frozen   `{headline}`\n  \
         digest {got:#018x}, frozen {digest:#018x}\nfull text now:\n{text}"
    );
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
fn noc6() -> FireAxe {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 3, 2);
    FireAxe::new(soc.circuit, PartitionSpec::exact(groups))
}

/// The `soc24` cut (paper Fig. 6): 24 tiles, 4 × 6 routers.
fn soc24() -> FireAxe {
    let soc = ring_soc(&RingSocConfig {
        tiles: 24,
        tile_period: 4,
        subsystem_latency: 8,
        heavy_workload: true,
        bug_after: u64::MAX / 2,
        ..Default::default()
    });
    let groups = noc_groups(&soc.router_paths, 4, 6);
    FireAxe::new(soc.circuit, PartitionSpec::exact(groups))
}

fn built(flow: FireAxe) -> DistributedSim {
    flow.build().expect("flow builds").1
}

/// Leaves the simulation between budgets with some node mid-wait: a few
/// host edges past a cycle boundary, tokens in flight, nobody at rest.
fn step_into_a_wait(sim: &mut DistributedSim) {
    for _ in 0..7 {
        sim.step_one_edge().expect("edge");
    }
}

#[test]
fn noc6_exact_cut() {
    let mut sim = built(noc6());
    sim.run_target_cycles(400).unwrap();
    check("noc6", &fingerprint(&sim), NOC6.0, NOC6.1);
}

#[test]
fn soc24_fig6_at_300_cycles() {
    let mut sim = built(soc24());
    sim.run_target_cycles(300).unwrap();
    check("soc24", &fingerprint(&sim), SOC24.0, SOC24.1);
}

#[test]
fn fast_mode_cut() {
    let soc = ring_soc(&RingSocConfig {
        tiles: 12,
        ..Default::default()
    });
    let spec = PartitionSpec::fast(noc_groups(&soc.router_paths, 2, 4));
    let mut sim = built(FireAxe::new(soc.circuit, spec));
    sim.run_target_cycles(300).unwrap();
    check(
        "ring12_fast",
        &fingerprint(&sim),
        RING12_FAST.0,
        RING12_FAST.1,
    );
}

#[test]
fn xbar_cut_with_a_fame5_group() {
    // Four duplicate tiles threaded onto one partition clock: one member
    // serviced per host edge, round-robin.
    let soc = xbar_soc(&XbarSocConfig {
        tiles: 4,
        tile_period: 4,
        ..Default::default()
    });
    let paths: Vec<String> = (0..4).map(|i| format!("tile{i}")).collect();
    let spec = PartitionSpec::fast(vec![PartitionGroup::instances("tiles", paths).with_fame5()]);
    let flow = FireAxe::new(soc.circuit, spec)
        .partition_clock_mhz(0, 15.0)
        .partition_clock_mhz(1, 25.0);
    let mut sim = built(flow);
    sim.run_target_cycles(300).unwrap();
    check("xbar_fame5", &fingerprint(&sim), XBAR_FAME5.0, XBAR_FAME5.1);
}

#[test]
fn backpressure_keeps_fired_tokens_waiting_for_the_wire() {
    // A feed-forward cut: the remainder streams a wide word into a sink
    // partition and never waits on it, so it runs ahead until its
    // two-deep output queue is full behind a link that serializes eight
    // bits per host cycle.
    // Fired tokens wait for the transmitter, and the remainder loses
    // host cycles to output backpressure while the sink starves.
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
    let c = Circuit::from_modules("Feed", vec![top.finish(), sink], "Feed");

    let spec = PartitionSpec::exact(vec![PartitionGroup::instances("s", vec!["s".into()])]);
    let design = compile(&c, &spec).unwrap();
    let mut sim = SimBuilder::new(&design)
        .transport(LinkModel {
            beat_bits: 8,
            ..LinkModel::qsfp_aurora()
        })
        .channel_capacity(2)
        .build()
        .unwrap();
    sim.run_target_cycles(40).unwrap();
    let text = fingerprint(&sim);
    assert!(
        sim.metrics()
            .counters
            .iter()
            .any(|c| c.output_stall_host_cycles > 0),
        "the scenario must exercise output backpressure: {text}"
    );
    check("backpressure", &text, BACKPRESSURE.0, BACKPRESSURE.1);
}

#[test]
fn faults_with_reliability_charge_retransmits_in_virtual_time() {
    let spec = FaultSpec {
        drop_per_mille: 100,
        corrupt_per_mille: 50,
        duplicate_per_mille: 50,
        stall_per_mille: 30,
        max_stall_quanta: 3,
        ..FaultSpec::quiet(7)
    };
    let policy = RetryPolicy {
        max_retries: 12,
        timeout_cycles: 8,
    };
    let mut sim = built(noc6().fault_spec(spec).retry_policy(policy));
    sim.run_target_cycles(300).unwrap();
    let text = fingerprint(&sim);
    assert!(
        sim.metrics().links.iter().any(|l| l.retransmits > 0),
        "the campaign must actually hit: {text}"
    );
    check("noc6_faulty", &text, NOC6_FAULTY.0, NOC6_FAULTY.1);
}

#[test]
fn one_budget_run_as_two() {
    let mut sim = built(noc6());
    sim.run_target_cycles(150).unwrap();
    let mid = fingerprint(&sim);
    sim.run_target_cycles(400).unwrap();
    let text = format!("{mid}--\n{}", fingerprint(&sim));
    check("noc6_split", &text, NOC6_SPLIT.0, NOC6_SPLIT.1);
}

#[test]
fn checkpoint_taken_mid_wait_replays_identically() {
    let mut sim = built(noc6());
    sim.run_target_cycles(100).unwrap();
    step_into_a_wait(&mut sim);
    let at_ckpt = fingerprint(&sim);
    let ckpt = sim.checkpoint().unwrap();
    sim.run_target_cycles(250).unwrap();
    let first = fingerprint(&sim);
    sim.restore(&ckpt).unwrap();
    assert_eq!(fingerprint(&sim), at_ckpt, "restore is exact");
    sim.run_target_cycles(250).unwrap();
    assert_eq!(
        fingerprint(&sim),
        first,
        "replay from a mid-wait checkpoint"
    );
    let text = format!("{at_ckpt}--\n{first}");
    check("noc6_ckpt", &text, NOC6_CKPT.0, NOC6_CKPT.1);
}

#[test]
fn recovering_run_rolls_back_through_a_down_window() {
    // Link 0 hard-down for attempts 8..24 exhausts the retry budget; the
    // run rewinds to its last checkpoint until the window has passed.
    let spec = FaultSpec {
        drop_per_mille: 100,
        corrupt_per_mille: 50,
        duplicate_per_mille: 50,
        down: vec![(8, 24)],
        down_link: Some(0),
        ..FaultSpec::quiet(7)
    };
    let policy = RetryPolicy {
        max_retries: 3,
        timeout_cycles: 8,
    };
    let flow = noc6()
        .fault_spec(spec)
        .retry_policy(policy)
        .checkpoint_interval(16)
        .max_rollbacks(16);
    let mut sim = built(flow);
    sim.run_target_cycles_recovering(200).unwrap();
    assert!(sim.rollbacks_taken() > 0, "the down window must bite");
    check(
        "noc6_recovering",
        &fingerprint(&sim),
        NOC6_RECOVERING.0,
        NOC6_RECOVERING.1,
    );
}

#[test]
fn cockpit_poke_staged_on_a_waiting_node() {
    let mut sim = built(noc6());
    sim.run_target_cycles(100).unwrap();
    step_into_a_wait(&mut sim);
    // Drive the first boundary input of every node for one cycle.
    let names = sim.node_names();
    for (ni, name) in names.iter().enumerate() {
        let (port, width) = sim.target(ni).input_ports().swap_remove(0);
        let value = if width.get() >= 64 {
            u64::MAX
        } else {
            (1u64 << width.get()) - 1
        };
        sim.poke_signal(&format!("{name}:{port}"), value).unwrap();
    }
    sim.run_target_cycles(250).unwrap();
    check("noc6_poked", &fingerprint(&sim), NOC6_POKED.0, NOC6_POKED.1);
}

#[test]
fn true_deadlock_reports_the_same_stall() {
    // Paper Fig. 2a: adders on both sides of the cut, monolithic
    // channels — a circular token dependency no host timing resolves.
    let mut tile = ModuleBuilder::new("Fig2Side");
    let sink_in = tile.input("sink_in", 8);
    let src_in = tile.input("src_in", 8);
    let sink_out = tile.output("sink_out", 8);
    let src_out = tile.output("src_out", 8);
    let x = tile.reg("x", 8, 1);
    tile.connect_sig(&sink_out, &x.add(&sink_in));
    tile.connect_sig(&src_out, &x);
    tile.connect_sig(&x, &src_in);
    let tile = tile.finish();

    let mut top = ModuleBuilder::new("Soc");
    let i = top.input("i", 8);
    let o = top.output("o", 8);
    top.inst("t", "Fig2Side");
    let y = top.reg("y", 8, 2);
    top.connect_inst("t", "sink_in", &y);
    let t_src = top.inst_port("t", "src_out");
    top.connect_inst("t", "src_in", &y.add(&t_src));
    let t_snk = top.inst_port("t", "sink_out");
    top.connect_sig(&y, &t_snk.xor(&i));
    top.connect_sig(&o, &y);
    let c = Circuit::from_modules("Soc", vec![top.finish(), tile], "Soc");

    let spec = PartitionSpec {
        mode: PartitionMode::Exact,
        channel_policy: ChannelPolicy::Monolithic,
        groups: vec![PartitionGroup::instances("t", vec!["t".into()])],
    };
    let design = compile(&c, &spec).unwrap();
    let mut sim = SimBuilder::new(&design)
        .deadlock_horizon(200)
        .build()
        .unwrap();
    let err = sim.run_target_cycles(10).unwrap_err();
    let SimError::Deadlock { report } = err else {
        panic!("expected a deadlock, got {err}");
    };
    let text = format!(
        "stall at time_ps={}\n{report}--\n{}",
        report.time_ps,
        fingerprint(&sim)
    );
    if let Ok(dir) = std::env::var("DES_COUNTS_DUMP") {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(format!("{dir}/deadlock.txt"), &text).unwrap();
    }
    assert_eq!(text, DEADLOCK, "the stall report is part of the model");
}

// Frozen values: (first line of the text, FNV-1a of the whole text).
type Frozen = (&'static str, u64);
const NOC6: Frozen = (
    "time_ps=239964267 target_cycles=400 rollbacks=0",
    0x79c0_a4fb_57aa_b67c,
);
const SOC24: Frozen = (
    "time_ps=184964817 target_cycles=300 rollbacks=0",
    0xcfe1_8b16_9d96_c02b,
);
const RING12_FAST: Frozen = (
    "time_ps=164465022 target_cycles=300 rollbacks=0",
    0xbc4e_4357_7b56_1ecd,
);
const XBAR_FAME5: Frozen = (
    "time_ps=209334380 target_cycles=300 rollbacks=0",
    0xb5f7_96c9_ee30_6034,
);
const BACKPRESSURE: Frozen = (
    "time_ps=34632987 target_cycles=40 rollbacks=0",
    0x0191_befe_7777_966f,
);
const NOC6_FAULTY: Frozen = (
    "time_ps=246130872 target_cycles=300 rollbacks=0",
    0xd06b_99ca_ccce_f9ff,
);
const NOC6_SPLIT: Frozen = (
    "time_ps=89965767 target_cycles=150 rollbacks=0",
    0xdef1_c016_2868_ffc1,
);
const NOC6_CKPT: Frozen = (
    "time_ps=60032733 target_cycles=100 rollbacks=0",
    0xfa37_bc99_1ed7_a070,
);
const NOC6_RECOVERING: Frozen = (
    "time_ps=157531758 target_cycles=200 rollbacks=4",
    0xdfe2_db31_9c36_d468,
);
const NOC6_POKED: Frozen = (
    "time_ps=149965167 target_cycles=250 rollbacks=0",
    0x10be_4511_efc4_fd9e,
);
const DEADLOCK: &str = concat!(
    "stall at time_ps=3366633\n",
    "t=3366 ns, 0 token(s) in flight\n",
    "  node                  cycle  inputs (queued)              outputs (* = fired)\n",
    "  t                         0  rx_rest_src=0                tx_rest_src\n",
    "  rest                      0  rx_t_src=0, env_in=4         tx_t_src, env_out_src*\n",
    "--\n",
    "time_ps=3366633 target_cycles=0 rollbacks=0\n",
    "node 0 t: part=0 host=102 target=0 in_stall=102 out_stall=0 enq=0 deq=0 digest=bf56f96ccc9437a5\n",
    "node 1 rest: part=1 host=101 target=0 in_stall=101 out_stall=0 enq=4 deq=1 digest=63744d6fbfbb4faf\n",
    "link 0: tokens=0 frames=0 retx=0 timeouts=0 crc=0 dup=0 delay_ps=0\n",
    "link 1: tokens=0 frames=0 retx=0 timeouts=0 crc=0 dup=0 delay_ps=0\n",
);
