//! LI-BDN channel construction across partition boundaries.
//!
//! Implements the heart of §III-A: in **exact-mode**, each partition's
//! boundary ports are split into *source* channels (no combinational
//! dependency on boundary inputs — they can emit the seed token that
//! breaks the Fig. 2a deadlock) and *sink* channels (combinationally
//! coupled — they must wait for the peer's source token), giving two link
//! crossings per target cycle. Combinational chains needing more than two
//! crossings abort compilation with the offending port chain. In
//! **fast-mode**, ports are concatenated into one channel per direction
//! and every link is seeded with an initial token, giving one crossing per
//! cycle at the cost of one cycle of injected boundary latency.

use crate::error::{Result, RipperError};
use crate::hier::{CutWire, PartRef};
use crate::spec::{ChannelPolicy, PartitionMode};
use fireaxe_ir::{Circuit, CombAnalysis, Direction, Width};
use fireaxe_libdn::{ChannelSpec, LiBdnSpec, OutputChannelSpec};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Source/sink classification of a boundary port (of the partition that
/// drives it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortClass {
    /// No combinational dependency on any boundary input.
    Source,
    /// Combinationally dependent on at least one boundary input.
    Sink,
}

impl PortClass {
    fn tag(self) -> &'static str {
        match self {
            PortClass::Source => "src",
            PortClass::Sink => "snk",
        }
    }
}

/// One simulation node: a partition thread with its boundary circuit.
#[derive(Debug)]
pub struct NodeDesc<'a> {
    /// Which partition/thread this node is.
    pub part: PartRef,
    /// Display name.
    pub name: String,
    /// The node's circuit; its top module is the boundary module.
    pub circuit: &'a Circuit,
}

fireaxe_ir::wire_struct! {
    /// A token link between two nodes' channels.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LinkSpec {
        /// Sending node index (into the node list handed to
        /// [`build_channels`]).
        pub from_node: usize,
        /// Output channel index on the sender.
        pub from_chan: usize,
        /// Receiving node index.
        pub to_node: usize,
        /// Input channel index on the receiver.
        pub to_chan: usize,
        /// Payload width in bits.
        pub width: u64,
        /// Fast-mode links are seeded with one initial token.
        pub seeded: bool,
    }
}

/// Result of channel construction for all nodes.
#[derive(Debug)]
pub struct ChannelPlan {
    /// One LI-BDN spec per node, same order as the input nodes.
    pub specs: Vec<LiBdnSpec>,
    /// Inter-node token links.
    pub links: Vec<LinkSpec>,
    /// Per node: indices of input channels fed by the environment (one
    /// token per target cycle from a bridge).
    pub env_inputs: Vec<Vec<usize>>,
    /// Per node: indices of output channels consumed by the environment.
    pub env_outputs: Vec<Vec<usize>>,
}

/// Builds LI-BDN channel specs and link pairings for every node.
///
/// # Errors
///
/// Returns [`RipperError::CombChainTooLong`] when exact-mode separated
/// channels cannot satisfy the ≤2-crossing rule, and propagates
/// combinational-analysis failures.
pub fn build_channels(
    nodes: &[NodeDesc<'_>],
    cut_wires: &[CutWire],
    mode: PartitionMode,
    policy: ChannelPolicy,
) -> Result<ChannelPlan> {
    let node_idx: HashMap<PartRef, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.part, i)).collect();

    // 1. Per-node combinational classification of boundary outputs.
    let mut analyses = Vec::with_capacity(nodes.len());
    for n in nodes {
        let analysis = CombAnalysis::run(n.circuit)?;
        analyses.push(analysis);
    }
    let class_of = |ni: usize, port: &str| -> PortClass {
        let top = &nodes[ni].circuit.top;
        let deps = analyses[ni]
            .module(top)
            .and_then(|m| m.output_deps.get(port));
        match deps {
            Some(d) if !d.is_empty() => PortClass::Sink,
            _ => PortClass::Source,
        }
    };

    // 2. Group cut wires into channel-sized bundles.
    // Key: (from_node, to_node, class). Fast mode folds class to Source.
    let mut bundles: BTreeMap<(usize, usize, PortClass), Vec<&CutWire>> = BTreeMap::new();
    for w in cut_wires {
        let fi = node_idx[&w.from.0];
        let ti = node_idx[&w.to.0];
        let class = match (mode, policy) {
            (PartitionMode::Fast, _) | (_, ChannelPolicy::Monolithic) => PortClass::Source,
            (PartitionMode::Exact, ChannelPolicy::Separated) => class_of(fi, &w.from.1),
        };
        bundles.entry((fi, ti, class)).or_default().push(w);
    }
    for ws in bundles.values_mut() {
        ws.sort_by(|a, b| a.from.1.cmp(&b.from.1));
    }

    // 3. Create channels.
    struct NodeChans {
        inputs: Vec<ChannelSpec>,
        outputs: Vec<(ChannelSpec, Vec<String>)>, // (spec, boundary ports)
        in_class: Vec<PortClass>,
        in_port_to_chan: HashMap<String, usize>,
        in_driver: HashMap<String, (usize, String)>, // input port -> (peer node, peer port)
        env_in: Vec<usize>,
        env_out: Vec<usize>,
    }
    let mut chans: Vec<NodeChans> = nodes
        .iter()
        .map(|_| NodeChans {
            inputs: Vec::new(),
            outputs: Vec::new(),
            in_class: Vec::new(),
            in_port_to_chan: HashMap::new(),
            in_driver: HashMap::new(),
            env_in: Vec::new(),
            env_out: Vec::new(),
        })
        .collect();
    let mut links = Vec::new();

    for ((fi, ti, class), ws) in &bundles {
        let tx_ports: Vec<(String, Width)> =
            ws.iter().map(|w| (w.from.1.clone(), w.width)).collect();
        let rx_ports: Vec<(String, Width)> = ws.iter().map(|w| (w.to.1.clone(), w.width)).collect();
        let width: u64 = tx_ports.iter().map(|(_, w)| u64::from(w.get())).sum();
        let tx_name = format!("tx_{}_{}", nodes[*ti].name, class.tag());
        let rx_name = format!("rx_{}_{}", nodes[*fi].name, class.tag());
        let from_chan = chans[*fi].outputs.len();
        chans[*fi].outputs.push((
            ChannelSpec::new(tx_name, tx_ports),
            ws.iter().map(|w| w.from.1.clone()).collect(),
        ));
        let to_chan = chans[*ti].inputs.len();
        chans[*ti].inputs.push(ChannelSpec::new(rx_name, rx_ports));
        chans[*ti].in_class.push(*class);
        for w in ws.iter() {
            chans[*ti].in_port_to_chan.insert(w.to.1.clone(), to_chan);
            chans[*ti]
                .in_driver
                .insert(w.to.1.clone(), (*fi, w.from.1.clone()));
        }
        links.push(LinkSpec {
            from_node: *fi,
            from_chan,
            to_node: *ti,
            to_chan,
            width,
            seeded: mode == PartitionMode::Fast,
        });
    }

    // 4. Environment channels for top ports not covered by cut wires.
    for (ni, n) in nodes.iter().enumerate() {
        let top = n.circuit.top_module();
        let covered_in: BTreeSet<&String> =
            chans[ni].in_port_to_chan.keys().collect::<BTreeSet<_>>();
        let covered_out: BTreeSet<String> = chans[ni]
            .outputs
            .iter()
            .flat_map(|(_, ports)| ports.iter().cloned())
            .collect();
        let env_in_ports: Vec<(String, Width)> = top
            .ports_in(Direction::Input)
            .filter(|p| !covered_in.contains(&p.name))
            .map(|p| (p.name.clone(), p.width))
            .collect();
        if !env_in_ports.is_empty() {
            let idx = chans[ni].inputs.len();
            for (p, _) in &env_in_ports {
                chans[ni].in_port_to_chan.insert(p.clone(), idx);
            }
            chans[ni]
                .inputs
                .push(ChannelSpec::new("env_in", env_in_ports));
            chans[ni].in_class.push(PortClass::Source);
            chans[ni].env_in.push(idx);
        }
        let mut env_out: BTreeMap<PortClass, Vec<(String, Width)>> = BTreeMap::new();
        for p in top.ports_in(Direction::Output) {
            if covered_out.contains(&p.name) {
                continue;
            }
            let class = match mode {
                PartitionMode::Fast => PortClass::Source,
                PartitionMode::Exact => class_of(ni, &p.name),
            };
            env_out
                .entry(class)
                .or_default()
                .push((p.name.clone(), p.width));
        }
        for (class, ports) in env_out {
            let idx = chans[ni].outputs.len();
            let names = ports.iter().map(|(p, _)| p.clone()).collect();
            chans[ni].outputs.push((
                ChannelSpec::new(format!("env_out_{}", class.tag()), ports),
                names,
            ));
            chans[ni].env_out.push(idx);
        }
    }

    // 5. Compute output-channel dependencies and check chain lengths.
    let mut specs = Vec::with_capacity(nodes.len());
    for (ni, n) in nodes.iter().enumerate() {
        let top_name = &n.circuit.top;
        let info = analyses[ni]
            .module(top_name)
            .ok_or_else(|| RipperError::Malformed {
                message: format!("no analysis for `{top_name}`"),
            })?;
        let nc = &chans[ni];
        let mut outputs = Vec::with_capacity(nc.outputs.len());
        for (oi, (spec, ports)) in nc.outputs.iter().enumerate() {
            // Environment channels are served by host-side bridges with
            // zero link crossings, so the chain-length rule (which counts
            // inter-FPGA crossings) does not constrain them.
            let is_env = nc.env_out.contains(&oi);
            let deps: Vec<usize> = match mode {
                PartitionMode::Fast => (0..nc.inputs.len()).collect(),
                PartitionMode::Exact => {
                    let mut dep_set: BTreeSet<usize> = BTreeSet::new();
                    for port in ports {
                        if let Some(port_deps) = info.output_deps.get(port) {
                            for d in port_deps {
                                if let Some(&ci) = nc.in_port_to_chan.get(d) {
                                    dep_set.insert(ci);
                                    // Chain-length check: a sink output
                                    // depending on a sink-driven input
                                    // needs 3+ crossings.
                                    if policy == ChannelPolicy::Separated
                                        && !is_env
                                        && nc.in_class[ci] == PortClass::Sink
                                    {
                                        let (peer, peer_port) = &nc.in_driver[d];
                                        let chain = vec![
                                            format!("{}.{}", nodes[*peer].name, peer_port),
                                            format!("{}.{}", n.name, d),
                                            format!("{}.{}", n.name, port),
                                        ];
                                        return Err(RipperError::CombChainTooLong { chain });
                                    }
                                }
                            }
                        }
                    }
                    dep_set.into_iter().collect()
                }
            };
            outputs.push(OutputChannelSpec {
                channel: spec.clone(),
                deps,
            });
        }
        specs.push(LiBdnSpec {
            name: n.name.clone(),
            inputs: nc.inputs.clone(),
            outputs,
        });
    }

    Ok(ChannelPlan {
        specs,
        links,
        env_inputs: chans.iter().map(|c| c.env_in.clone()).collect(),
        env_outputs: chans.iter().map(|c| c.env_out.clone()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::build::ModuleBuilder;
    use fireaxe_ir::Circuit;

    /// Fig. 2 style pair: each side has a register-driven (source) output
    /// and an adder (sink) output depending on its input.
    fn fig2_side(name: &str, init: u64) -> Circuit {
        let mut mb = ModuleBuilder::new(name);
        let sink_in = mb.input("sink_in", 8);
        let src_in = mb.input("src_in", 8);
        let sink_out = mb.output("sink_out", 8);
        let src_out = mb.output("src_out", 8);
        let x = mb.reg("x", 8, init);
        mb.connect_sig(&sink_out, &sink_in.add(&x));
        mb.connect_sig(&src_out, &x);
        mb.connect_sig(&x, &src_in);
        Circuit::from_modules(name, vec![mb.finish()], name)
    }

    fn pair_wires() -> Vec<CutWire> {
        let a = PartRef::Wrapper {
            group: 0,
            thread: 0,
        };
        let b = PartRef::Remainder;
        let w = |from: (PartRef, &str), to: (PartRef, &str)| CutWire {
            from: (from.0, from.1.to_string()),
            to: (to.0, to.1.to_string()),
            width: Width::new(8),
        };
        vec![
            // A.src_out drives B.sink_in; B.src_out drives A.sink_in
            w((a, "src_out"), (b, "sink_in")),
            w((b, "src_out"), (a, "sink_in")),
            // A.sink_out drives B.src_in; B.sink_out drives A.src_in
            w((a, "sink_out"), (b, "src_in")),
            w((b, "sink_out"), (a, "src_in")),
        ]
    }

    #[test]
    fn exact_mode_separates_source_and_sink() {
        let ca = fig2_side("A", 1);
        let cb = fig2_side("B", 2);
        let nodes = vec![
            NodeDesc {
                part: PartRef::Wrapper {
                    group: 0,
                    thread: 0,
                },
                name: "A".into(),
                circuit: &ca,
            },
            NodeDesc {
                part: PartRef::Remainder,
                name: "B".into(),
                circuit: &cb,
            },
        ];
        let plan = build_channels(
            &nodes,
            &pair_wires(),
            PartitionMode::Exact,
            ChannelPolicy::Separated,
        )
        .unwrap();
        // Each side: 2 output channels (src + snk), 2 input channels.
        assert_eq!(plan.specs[0].outputs.len(), 2);
        assert_eq!(plan.specs[0].inputs.len(), 2);
        // Source channel has no deps; sink channel depends on the
        // source-class input channel only.
        let src = plan.specs[0]
            .outputs
            .iter()
            .find(|o| o.channel.name.ends_with("_src"))
            .unwrap();
        assert!(src.deps.is_empty());
        let snk = plan.specs[0]
            .outputs
            .iter()
            .find(|o| o.channel.name.ends_with("_snk"))
            .unwrap();
        assert_eq!(snk.deps.len(), 1);
        assert_eq!(plan.links.len(), 4);
        assert!(plan.links.iter().all(|l| !l.seeded));
    }

    #[test]
    fn fast_mode_concatenates_and_seeds() {
        let ca = fig2_side("A", 1);
        let cb = fig2_side("B", 2);
        let nodes = vec![
            NodeDesc {
                part: PartRef::Wrapper {
                    group: 0,
                    thread: 0,
                },
                name: "A".into(),
                circuit: &ca,
            },
            NodeDesc {
                part: PartRef::Remainder,
                name: "B".into(),
                circuit: &cb,
            },
        ];
        let plan = build_channels(
            &nodes,
            &pair_wires(),
            PartitionMode::Fast,
            ChannelPolicy::Separated,
        )
        .unwrap();
        // One channel per direction per side.
        assert_eq!(plan.specs[0].outputs.len(), 1);
        assert_eq!(plan.specs[0].inputs.len(), 1);
        assert_eq!(plan.specs[0].outputs[0].channel.width().get(), 16);
        assert_eq!(plan.links.len(), 2);
        assert!(plan.links.iter().all(|l| l.seeded));
        // Output depends on the (seeded) input channel.
        assert_eq!(plan.specs[0].outputs[0].deps, vec![0]);
    }

    #[test]
    fn chain_too_long_rejected() {
        // Side A: sink_out depends on sink_in; wire it so that A.sink_in
        // is driven by B's *sink* output -> chain of 3 crossings.
        let ca = fig2_side("A", 1);
        let cb = fig2_side("B", 2);
        let a = PartRef::Wrapper {
            group: 0,
            thread: 0,
        };
        let b = PartRef::Remainder;
        let w = |from: (PartRef, &str), to: (PartRef, &str)| CutWire {
            from: (from.0, from.1.to_string()),
            to: (to.0, to.1.to_string()),
            width: Width::new(8),
        };
        let wires = vec![
            w((b, "sink_out"), (a, "sink_in")), // sink feeds sink: too long
            w((a, "src_out"), (b, "sink_in")),
            w((a, "sink_out"), (b, "src_in")),
            w((b, "src_out"), (a, "src_in")),
        ];
        let nodes = vec![
            NodeDesc {
                part: a,
                name: "A".into(),
                circuit: &ca,
            },
            NodeDesc {
                part: b,
                name: "B".into(),
                circuit: &cb,
            },
        ];
        let err = build_channels(
            &nodes,
            &wires,
            PartitionMode::Exact,
            ChannelPolicy::Separated,
        )
        .unwrap_err();
        match err {
            RipperError::CombChainTooLong { chain } => {
                assert_eq!(chain.len(), 3);
                assert!(chain[0].contains("sink_out"));
                assert!(chain[2].contains("sink_out"));
            }
            other => panic!("expected chain error, got {other}"),
        }
    }

    #[test]
    fn env_ports_get_channels() {
        // A single node with uncut ports: everything becomes env channels.
        let c = fig2_side("Solo", 0);
        let nodes = vec![NodeDesc {
            part: PartRef::Remainder,
            name: "Solo".into(),
            circuit: &c,
        }];
        let plan =
            build_channels(&nodes, &[], PartitionMode::Exact, ChannelPolicy::Separated).unwrap();
        assert_eq!(plan.env_inputs[0].len(), 1);
        assert_eq!(plan.env_outputs[0].len(), 2); // src + snk env outputs
        let spec = &plan.specs[0];
        assert_eq!(spec.inputs[plan.env_inputs[0][0]].ports.len(), 2);
        // The sink env output depends on the env input channel.
        let snk = spec
            .outputs
            .iter()
            .find(|o| o.channel.name == "env_out_snk")
            .unwrap();
        assert_eq!(snk.deps, vec![0]);
    }

    #[test]
    fn monolithic_policy_merges_channels() {
        let ca = fig2_side("A", 1);
        let cb = fig2_side("B", 2);
        let nodes = vec![
            NodeDesc {
                part: PartRef::Wrapper {
                    group: 0,
                    thread: 0,
                },
                name: "A".into(),
                circuit: &ca,
            },
            NodeDesc {
                part: PartRef::Remainder,
                name: "B".into(),
                circuit: &cb,
            },
        ];
        let plan = build_channels(
            &nodes,
            &pair_wires(),
            PartitionMode::Exact,
            ChannelPolicy::Monolithic,
        )
        .unwrap();
        // One merged channel per direction; its deps point at the single
        // input channel -> runtime deadlock, as in paper Fig. 2a.
        assert_eq!(plan.specs[0].outputs.len(), 1);
        assert_eq!(plan.specs[0].outputs[0].deps, vec![0]);
    }
}
