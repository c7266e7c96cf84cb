//! The FireRipper driver: spec + circuit → partitioned design.
//!
//! Runs the full pass pipeline of §III: selection resolution (explicit or
//! NoC-router growth) → reparenting → grouping (one wrapper per partition,
//! or one per duplicate instance under FAME-5) → extraction/removal →
//! fast-mode boundary rewrites → LI-BDN channel construction with
//! chain-length checking — and emits the artifacts the simulation engine
//! consumes, together with the quick user feedback the paper describes
//! (boundary widths, crossings per cycle).

use crate::channels::{build_channels, ChannelPlan, LinkSpec, NodeDesc};
use crate::error::{Result, RipperError};
use crate::fastmode::apply_fast_mode;
use crate::hier::{group_instances, reparent_all, split_partitions, PartRef};
use crate::noc::ConnGraph;
use crate::spec::{PartitionMode, PartitionSpec, Selection};
use fireaxe_ir::Circuit;
use fireaxe_libdn::LiBdnSpec;
use fireaxe_obs::obs_span;
use std::collections::{BTreeMap, BTreeSet, HashMap};

fireaxe_ir::wire_struct! {
    /// One simulation thread: a circuit plus its LI-BDN channel structure.
    #[derive(Debug, Clone)]
    pub struct ThreadArtifact {
        /// Display name (`<group>` or `<group>_t<i>` or `rest`).
        pub name: String,
        /// The thread's circuit; its top module is the boundary module.
        pub circuit: Circuit,
        /// Channel structure.
        pub libdn: LiBdnSpec,
        /// Indices of input channels fed by the environment.
        pub env_inputs: Vec<usize>,
        /// Indices of output channels drained by the environment.
        pub env_outputs: Vec<usize>,
    }
}

fireaxe_ir::wire_struct! {
    /// One partition (one FPGA's worth of design).
    #[derive(Debug, Clone)]
    pub struct PartitionArtifact {
        /// Group name (or `rest` for the remainder).
        pub name: String,
        /// Threads: one normally, N under FAME-5.
        pub threads: Vec<ThreadArtifact>,
        /// Whether the threads are FAME-5 multiplexed on one host.
        pub fame5: bool,
    }
}

/// Quick feedback FireRipper gives the user about the partition (paper:
/// "providing hardware designers quick feedback about the partition
/// interface and expected simulation performance").
#[derive(Debug, Clone, Default)]
pub struct PartitionReport {
    /// Per-link `(description, width in bits)`.
    pub link_widths: Vec<(String, u64)>,
    /// Link crossings needed to advance one target cycle (2 exact / 1
    /// fast).
    pub crossings_per_cycle: u32,
    /// Human-readable notes (applied rewrites, FAME-5 grouping, ...).
    pub notes: Vec<String>,
}

impl PartitionReport {
    /// The widest link, which bounds (de)serialization cost.
    pub fn max_link_width(&self) -> u64 {
        self.link_widths.iter().map(|(_, w)| *w).max().unwrap_or(0)
    }

    /// Total boundary width across all links.
    pub fn total_boundary_width(&self) -> u64 {
        self.link_widths.iter().map(|(_, w)| *w).sum()
    }
}

/// The compiler's output: everything needed to build a multi-FPGA
/// simulation.
#[derive(Debug, Clone)]
pub struct PartitionedDesign {
    /// Partitions; extracted groups first, remainder last.
    pub partitions: Vec<PartitionArtifact>,
    /// Token links between nodes (flat thread indices; see
    /// [`PartitionedDesign::node_index`]).
    pub links: Vec<LinkSpec>,
    /// Partitioning mode used.
    pub mode: PartitionMode,
    /// User feedback.
    pub report: PartitionReport,
}

impl PartitionedDesign {
    /// Flat node index of `(partition, thread)`, matching link endpoints.
    pub fn node_index(&self, partition: usize, thread: usize) -> usize {
        let mut idx = 0;
        for p in &self.partitions[..partition] {
            idx += p.threads.len();
        }
        idx + thread
    }

    /// Total number of simulation nodes (threads across all partitions).
    pub fn node_count(&self) -> usize {
        self.partitions.iter().map(|p| p.threads.len()).sum()
    }

    /// Iterates `(flat index, partition index, thread index, artifact)`.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, usize, usize, &ThreadArtifact)> {
        self.partitions
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| p.threads.iter().enumerate().map(move |(ti, t)| (pi, ti, t)))
            .enumerate()
            .map(|(flat, (pi, ti, t))| (flat, pi, ti, t))
    }
}

/// Tunable compiler behavior, mostly for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Collapse pure passthrough shells after reparenting so
    /// intra-partition wiring stays inside wrappers (default on; turning
    /// it off routes those wires through the remainder, widening
    /// boundaries and lengthening combinational chains).
    pub resolve_passthroughs: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            resolve_passthroughs: true,
        }
    }
}

/// Runs FireRipper with default options.
///
/// # Errors
///
/// See [`compile_with_options`].
pub fn compile(circuit: &Circuit, spec: &PartitionSpec) -> Result<PartitionedDesign> {
    compile_with_options(circuit, spec, CompileOptions::default())
}

/// Runs FireRipper.
///
/// # Errors
///
/// Propagates IR validation failures, selection errors
/// ([`RipperError::NoSuchInstance`], [`RipperError::OverlappingGroups`]),
/// exact-mode chain violations ([`RipperError::CombChainTooLong`]), and
/// FAME-5 qualification failures ([`RipperError::BadFame5Group`]).
pub fn compile_with_options(
    circuit: &Circuit,
    spec: &PartitionSpec,
    options: CompileOptions,
) -> Result<PartitionedDesign> {
    let _compile = obs_span!("ripper.compile");
    {
        let _pass = obs_span!("ripper.validate");
        fireaxe_ir::typecheck::validate(circuit)?;
    }
    let mut work = circuit.clone();

    // 1. Resolve selections. Every NoC-mode group grows from the same
    // connectivity graph of the input design.
    let select = obs_span!("ripper.select");
    let mut graph: Option<ConnGraph<'_>> = None;
    let mut group_paths: Vec<Vec<String>> = Vec::with_capacity(spec.groups.len());
    for g in &spec.groups {
        let paths = match &g.selection {
            Selection::Instances(p) => p.clone(),
            Selection::NocRouters { routers, indices } => graph
                .get_or_insert_with(|| ConnGraph::build(circuit))
                .select(routers, indices)?,
        };
        if paths.is_empty() {
            return Err(RipperError::Malformed {
                message: format!("group `{}` selects no instances", g.name),
            });
        }
        group_paths.push(paths);
    }
    drop(graph);

    // 2. Overlap check (exact duplicates or nesting).
    check_overlap(&group_paths)?;
    drop(select);

    // 3. Reparent everything to the top.
    let reparent = obs_span!("ripper.reparent");
    let flat: Vec<&str> = group_paths.iter().flatten().map(String::as_str).collect();
    let mut lifted = reparent_all(&mut work, &flat)?.into_iter();
    let group_insts: Vec<Vec<String>> = group_paths
        .iter()
        .map(|paths| lifted.by_ref().take(paths.len()).collect())
        .collect();
    drop(reparent);

    // 3b. Collapse pure passthrough shells left by reparenting so
    // intra-partition connections stay inside the wrapper instead of
    // bouncing through the remainder.
    if options.resolve_passthroughs {
        let _pass = obs_span!("ripper.passthrough");
        crate::passthrough::resolve_shell_passthroughs(&mut work);
        crate::passthrough::prune_dead_shell_ports(&mut work);
    }

    // 4. Grouping: one wrapper per group, or one per instance for FAME-5.
    let group = obs_span!("ripper.group");
    let mut notes = Vec::new();
    let mut wrappers: Vec<(String, PartRef)> = Vec::new();
    let mut thread_names: BTreeMap<PartRef, String> = BTreeMap::new();
    for (gi, (g, insts)) in spec.groups.iter().zip(&group_insts).enumerate() {
        if g.fame5 {
            check_fame5_group(&work, &g.name, insts)?;
            for (ti, inst) in insts.iter().enumerate() {
                let winst = group_instances(
                    &mut work,
                    &format!("{}_t{ti}", g.name),
                    std::slice::from_ref(inst),
                )?;
                let part = PartRef::Wrapper {
                    group: gi,
                    thread: ti,
                };
                thread_names.insert(part, format!("{}_t{ti}", g.name));
                wrappers.push((winst, part));
            }
            notes.push(format!(
                "group `{}`: FAME-5 multi-threading over {} duplicate instances",
                g.name,
                insts.len()
            ));
        } else {
            let winst = group_instances(&mut work, &g.name, insts)?;
            let part = PartRef::Wrapper {
                group: gi,
                thread: 0,
            };
            thread_names.insert(part, g.name.clone());
            wrappers.push((winst, part));
        }
    }
    drop(group);

    // 5. Extract + remove.
    let split_pass = obs_span!("ripper.split");
    let mut split = split_partitions(&work, &wrappers)?;

    // FAME-5 independence: threads of one group must not link directly.
    for w in &split.cut_wires {
        if let (
            PartRef::Wrapper {
                group: ga,
                thread: ta,
            },
            PartRef::Wrapper {
                group: gb,
                thread: tb,
            },
        ) = (w.from.0, w.to.0)
        {
            if ga == gb && ta != tb && spec.groups[ga].fame5 {
                return Err(RipperError::BadFame5Group {
                    group: spec.groups[ga].name.clone(),
                    reason: format!(
                        "threads {ta} and {tb} are directly connected (`{}` -> `{}`)",
                        w.from.1, w.to.1
                    ),
                });
            }
        }
    }
    drop(split_pass);

    // 6. Fast-mode boundary rewrites.
    if spec.mode == PartitionMode::Fast {
        let _pass = obs_span!("ripper.fast_mode");
        let mut boundary_of: BTreeMap<PartRef, BTreeSet<String>> = BTreeMap::new();
        for w in &split.cut_wires {
            boundary_of
                .entry(w.from.0)
                .or_default()
                .insert(w.from.1.clone());
            boundary_of
                .entry(w.to.0)
                .or_default()
                .insert(w.to.1.clone());
        }
        for (wi, (_, part)) in wrappers.iter().enumerate() {
            if let Some(ports) = boundary_of.get(part) {
                let bundles = apply_fast_mode(&mut split.wrapper_circuits[wi], ports)?;
                for b in bundles {
                    notes.push(format!(
                        "fast-mode: {} `{}_*` on `{}`",
                        if b.is_source {
                            "valid&ready gating of"
                        } else {
                            "skid buffer behind"
                        },
                        b.prefix,
                        thread_names[part],
                    ));
                }
            }
        }
        if let Some(ports) = boundary_of.get(&PartRef::Remainder) {
            let bundles = apply_fast_mode(&mut split.remainder, ports)?;
            for b in bundles {
                notes.push(format!(
                    "fast-mode: {} `{}_*` on `rest`",
                    if b.is_source {
                        "valid&ready gating of"
                    } else {
                        "skid buffer behind"
                    },
                    b.prefix,
                ));
            }
        }
    }

    // 7. Channel construction. Node order: wrappers in declaration order,
    // remainder last.
    let channels = obs_span!("ripper.channels");
    let mut node_descs: Vec<NodeDesc<'_>> = Vec::new();
    for (wi, (_, part)) in wrappers.iter().enumerate() {
        node_descs.push(NodeDesc {
            part: *part,
            name: thread_names[part].clone(),
            circuit: &split.wrapper_circuits[wi],
        });
    }
    node_descs.push(NodeDesc {
        part: PartRef::Remainder,
        name: "rest".to_string(),
        circuit: &split.remainder,
    });
    let ChannelPlan {
        specs,
        links,
        env_inputs,
        env_outputs,
    } = build_channels(
        &node_descs,
        &split.cut_wires,
        spec.mode,
        spec.channel_policy,
    )?;

    // 8. Assemble artifacts.
    let node_names: Vec<String> = node_descs.iter().map(|n| n.name.clone()).collect();
    drop(node_descs);
    let circuits = split
        .wrapper_circuits
        .into_iter()
        .chain(std::iter::once(split.remainder));
    let mut threads: Vec<Option<ThreadArtifact>> = specs
        .into_iter()
        .zip(node_names.iter())
        .zip(env_inputs)
        .zip(env_outputs)
        .zip(circuits)
        .map(|((((libdn, name), ei), eo), circuit)| {
            Some(ThreadArtifact {
                name: name.clone(),
                circuit,
                libdn,
                env_inputs: ei,
                env_outputs: eo,
            })
        })
        .collect();

    let mut partitions: Vec<PartitionArtifact> = Vec::new();
    let mut cursor = 0usize;
    for (gi, g) in spec.groups.iter().enumerate() {
        let n_threads = if g.fame5 { group_insts[gi].len() } else { 1 };
        let mut ts = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            ts.push(threads[cursor].take().expect("thread artifact"));
            cursor += 1;
        }
        partitions.push(PartitionArtifact {
            name: g.name.clone(),
            threads: ts,
            fame5: g.fame5,
        });
    }
    partitions.push(PartitionArtifact {
        name: "rest".to_string(),
        threads: vec![threads[cursor].take().expect("remainder artifact")],
        fame5: false,
    });
    drop(channels);

    // 9. Validate every emitted circuit.
    let validate_out = obs_span!("ripper.validate_out");
    for p in &partitions {
        for t in &p.threads {
            fireaxe_ir::typecheck::validate(&t.circuit)?;
        }
    }
    drop(validate_out);

    let link_widths = links
        .iter()
        .map(|l| {
            (
                format!(
                    "{} ch{} -> {} ch{}",
                    node_names[l.from_node], l.from_chan, node_names[l.to_node], l.to_chan
                ),
                l.width,
            )
        })
        .collect();
    let report = PartitionReport {
        link_widths,
        crossings_per_cycle: match spec.mode {
            PartitionMode::Exact => 2,
            PartitionMode::Fast => 1,
        },
        notes,
    };

    Ok(PartitionedDesign {
        partitions,
        links,
        mode: spec.mode,
        report,
    })
}

/// Rejects a path selected twice and a path nested under another,
/// reporting what comparing every ordered pair in declaration order
/// would: the first duplicate, else the first path (as the outer one)
/// with anything nested under it and the first path nested there.
fn check_overlap(group_paths: &[Vec<String>]) -> Result<()> {
    let all: Vec<&String> = group_paths.iter().flatten().collect();
    let mut position: HashMap<&str, usize> = HashMap::with_capacity(all.len());
    for (i, p) in all.iter().enumerate() {
        if position.insert(p, i).is_some() {
            return Err(RipperError::OverlappingGroups { path: (*p).clone() });
        }
    }
    let nested = all
        .iter()
        .enumerate()
        .flat_map(|(inner, p)| {
            let position = &position;
            p.match_indices('.')
                .filter_map(move |(dot, _)| Some((*position.get(&p[..dot])?, inner)))
        })
        .min();
    match nested {
        Some((_, inner)) => Err(RipperError::OverlappingGroups {
            path: all[inner].clone(),
        }),
        None => Ok(()),
    }
}

fn check_fame5_group(circuit: &Circuit, group: &str, insts: &[String]) -> Result<()> {
    let top = circuit.top_module();
    let mut modules: BTreeSet<&str> = BTreeSet::new();
    for inst in insts {
        let m = top
            .instances()
            .find(|(n, _)| n == inst)
            .map(|(_, m)| m)
            .ok_or_else(|| RipperError::NoSuchInstance { path: inst.clone() })?;
        modules.insert(m);
    }
    if modules.len() != 1 {
        return Err(RipperError::BadFame5Group {
            group: group.to_string(),
            reason: format!(
                "members instantiate {} distinct modules ({:?}); FAME-5 requires duplicates",
                modules.len(),
                modules
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelPolicy, PartitionGroup};
    use fireaxe_ir::build::{ModuleBuilder, Sig};

    /// An SoC-ish design: two identical "tiles" hanging off a shared
    /// "bus", with register-decoupled boundaries.
    fn two_tile_soc() -> Circuit {
        let mut tile = ModuleBuilder::new("Tile");
        let req = tile.input("req", 8);
        let rsp = tile.output("rsp", 8);
        let state = tile.reg("state", 8, 0);
        tile.connect_sig(&state, &req.add(&Sig::lit(1, 8)));
        tile.connect_sig(&rsp, &state);
        let tile = tile.finish();

        let mut top = ModuleBuilder::new("Soc");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("tile0", "Tile");
        top.inst("tile1", "Tile");
        let hub = top.reg("hub", 8, 0);
        top.connect_inst("tile0", "req", &hub);
        top.connect_inst("tile1", "req", &hub);
        let r0 = top.inst_port("tile0", "rsp");
        let r1 = top.inst_port("tile1", "rsp");
        top.connect_sig(&hub, &r0.xor(&r1).xor(&i));
        top.connect_sig(&o, &hub);
        Circuit::from_modules("Soc", vec![top.finish(), tile], "Soc")
    }

    #[test]
    fn exact_compile_two_partitions() {
        let c = two_tile_soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tiles",
            vec!["tile0".into(), "tile1".into()],
        )]);
        let d = compile(&c, &spec).unwrap();
        assert_eq!(d.partitions.len(), 2);
        assert_eq!(d.node_count(), 2);
        assert_eq!(d.report.crossings_per_cycle, 2);
        assert!(!d.links.is_empty());
        // Boundary: 2 tiles x (8 in + 8 out).
        assert_eq!(d.report.total_boundary_width(), 32);
    }

    #[test]
    fn fame5_splits_threads() {
        let c = two_tile_soc();
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances(
            "tiles",
            vec!["tile0".into(), "tile1".into()],
        )
        .with_fame5()]);
        let d = compile(&c, &spec).unwrap();
        assert_eq!(d.partitions[0].threads.len(), 2);
        assert!(d.partitions[0].fame5);
        assert_eq!(d.node_count(), 3);
        assert_eq!(d.node_index(1, 0), 2);
    }

    #[test]
    fn fame5_rejects_mixed_modules() {
        let mut c = two_tile_soc();
        // Add a structurally different module and select it together with
        // a tile.
        let mut other = ModuleBuilder::new("Other");
        let a = other.input("req", 8);
        let y = other.output("rsp", 8);
        let r = other.reg("r", 8, 0);
        other.connect_sig(&r, &a);
        other.connect_sig(&y, &r);
        c.add_module(other.finish());
        {
            let top = c.module_mut("Soc").unwrap();
            top.body.push(fireaxe_ir::Stmt::Inst {
                name: "oth".into(),
                module: "Other".into(),
            });
            top.body.push(fireaxe_ir::Stmt::Connect {
                lhs: fireaxe_ir::Ref::instance_port("oth", "req"),
                rhs: fireaxe_ir::Expr::reference("i"),
            });
        }
        let spec = PartitionSpec::exact(vec![PartitionGroup {
            name: "mixed".into(),
            selection: Selection::Instances(vec!["tile0".into(), "oth".into()]),
            fame5: true,
        }]);
        assert!(matches!(
            compile(&c, &spec),
            Err(RipperError::BadFame5Group { .. })
        ));
    }

    #[test]
    fn overlapping_groups_rejected() {
        let c = two_tile_soc();
        let spec = PartitionSpec::exact(vec![
            PartitionGroup::instances("a", vec!["tile0".into()]),
            PartitionGroup::instances("b", vec!["tile0".into()]),
        ]);
        assert!(matches!(
            compile(&c, &spec),
            Err(RipperError::OverlappingGroups { .. })
        ));
    }

    #[test]
    fn fast_mode_reports_single_crossing() {
        let c = two_tile_soc();
        let spec = PartitionSpec::fast(vec![PartitionGroup::instances(
            "tiles",
            vec!["tile0".into(), "tile1".into()],
        )]);
        let d = compile(&c, &spec).unwrap();
        assert_eq!(d.report.crossings_per_cycle, 1);
        assert!(d.links.iter().all(|l| l.seeded));
    }

    #[test]
    fn monolithic_policy_threads_through() {
        let c = two_tile_soc();
        let spec = PartitionSpec {
            mode: PartitionMode::Exact,
            channel_policy: ChannelPolicy::Monolithic,
            groups: vec![PartitionGroup::instances("t", vec!["tile0".into()])],
        };
        let d = compile(&c, &spec).unwrap();
        // One merged channel per direction per link pair.
        assert_eq!(d.links.len(), 2);
    }
}
