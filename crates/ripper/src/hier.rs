//! Hierarchy surgery: the Reparent / Group / Extract / Remove passes.
//!
//! These implement Fig. 5 of the FireAxe paper. [`reparent_all`] pulls the
//! selected instances up the module hierarchy, punching I/O ports through
//! each intermediate module so connectivity is preserved — every module
//! on the way is rewritten once, however many instances leave through it.
//! [`group_instances`] wraps a set of top-level instances in a
//! fresh wrapper module. [`split_partitions`] then extracts each wrapper
//! into its own circuit and removes the wrappers from the remainder,
//! recording every cut wire so channel construction can pair the two
//! sides.

use crate::error::{Result, RipperError};
use fireaxe_ir::{Circuit, Direction, Expr, Module, Port, Ref, Stmt, Width};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The names taken in one module's namespace (ports and body
/// definitions), held as a set so allocating a fresh name is a lookup
/// rather than a scan of every port and statement per candidate.
#[derive(Debug, Default)]
pub struct Names(HashSet<String>);

impl Names {
    /// The names `module` currently defines.
    pub fn of(module: &Module) -> Self {
        let ports = module.ports.iter().map(|p| p.name.clone());
        let defs = module
            .body
            .iter()
            .filter_map(|s| s.defined_name().map(str::to_string));
        Names(ports.chain(defs).collect())
    }

    /// Marks `name` as taken.
    pub fn insert(&mut self, name: &str) {
        self.0.insert(name.to_string());
    }

    /// Allocates `base`, or `base_0`, `base_1`, ... when taken.
    pub fn fresh(&mut self, base: &str) -> String {
        let name = first_free(base, |n| self.0.contains(n));
        self.0.insert(name.clone());
        name
    }

    fn release(&mut self, name: &str) {
        self.0.remove(name);
    }
}

/// `base` if `taken` does not hold for it, else the first of `base_0`,
/// `base_1`, ... for which it does not.
fn first_free(base: &str, taken: impl Fn(&str) -> bool) -> String {
    let mut cand = base.to_string();
    let mut i = 0u64;
    while taken(&cand) {
        cand = format!("{base}_{i}");
        i += 1;
    }
    cand
}

/// Produces a module name not already used in the circuit.
pub fn fresh_module_name(circuit: &Circuit, base: &str) -> String {
    first_free(base, |n| circuit.module(n).is_some())
}

/// Resolves an instance path (`"a.b.c"`) to its module name.
pub fn resolve_path(circuit: &Circuit, path: &str) -> Result<String> {
    let mut cur = circuit.top.clone();
    for seg in path.split('.') {
        let m = circuit
            .module(&cur)
            .ok_or_else(|| RipperError::NoSuchInstance {
                path: path.to_string(),
            })?;
        cur = m
            .instances()
            .find(|(n, _)| *n == seg)
            .map(|(_, c)| c.to_string())
            .ok_or_else(|| RipperError::NoSuchInstance {
                path: path.to_string(),
            })?;
    }
    Ok(cur)
}

/// Applies `f` to every [`Ref`] read in the statement (not connect
/// targets, which are rewritten by callers when needed).
pub fn rewrite_stmt_refs(stmt: &mut Stmt, f: &impl Fn(&mut Ref)) {
    match stmt {
        Stmt::Node { expr, .. } => expr.rewrite_refs(&mut |r| f(r)),
        Stmt::MemRead { addr, .. } => addr.rewrite_refs(&mut |r| f(r)),
        Stmt::MemWrite { addr, data, en, .. } => {
            addr.rewrite_refs(&mut |r| f(r));
            data.rewrite_refs(&mut |r| f(r));
            en.rewrite_refs(&mut |r| f(r));
        }
        Stmt::Connect { rhs, .. } => rhs.rewrite_refs(&mut |r| f(r)),
        _ => {}
    }
}

/// Calls `f` on every [`Ref`] the statement reads.
pub(crate) fn for_each_read<'a>(stmt: &'a Stmt, mut f: impl FnMut(&'a Ref)) {
    let mut refs = Vec::new();
    match stmt {
        Stmt::Node { expr, .. } => expr.collect_refs(&mut refs),
        Stmt::Connect { rhs, .. } => rhs.collect_refs(&mut refs),
        Stmt::MemRead { addr, .. } => addr.collect_refs(&mut refs),
        Stmt::MemWrite { addr, data, en, .. } => {
            addr.collect_refs(&mut refs);
            data.collect_refs(&mut refs);
            en.collect_refs(&mut refs);
        }
        _ => {}
    }
    refs.into_iter().for_each(&mut f);
}

/// Position indexes over a circuit while paths are resolved and
/// specialized: module name → slot in `circuit.modules`, and per module,
/// instance name → position of its (first) `Inst` statement. No statement
/// moves during that phase, so positions stay valid; specialization keeps
/// both maps current as it clones and repoints.
struct PathIndex {
    modules: HashMap<String, usize>,
    insts: HashMap<usize, HashMap<String, usize>>,
}

impl PathIndex {
    fn new(circuit: &Circuit) -> Self {
        let mut modules = HashMap::with_capacity(circuit.modules.len());
        for (i, m) in circuit.modules.iter().enumerate() {
            modules.entry(m.name.clone()).or_insert(i);
        }
        PathIndex {
            modules,
            insts: HashMap::new(),
        }
    }

    /// `(statement position, child module slot)` of instance `inst` in
    /// the module at `slot`.
    fn child(&mut self, circuit: &Circuit, slot: usize, inst: &str) -> Option<(usize, usize)> {
        let body = &circuit.modules[slot].body;
        let insts = self.insts.entry(slot).or_insert_with(|| {
            let mut map = HashMap::new();
            for (pos, s) in body.iter().enumerate() {
                if let Stmt::Inst { name, .. } = s {
                    map.entry(name.clone()).or_insert(pos);
                }
            }
            map
        });
        let pos = *insts.get(inst)?;
        let Stmt::Inst { module, .. } = &body[pos] else {
            unreachable!("indexed an Inst statement")
        };
        Some((pos, *self.modules.get(module)?))
    }

    fn fresh_module_name(&self, base: &str) -> String {
        first_free(base, |n| self.modules.contains_key(n))
    }
}

/// One selected instance on its way to the top.
struct Lift {
    /// Instance names from the top down; `segs[j]` lives in `hosts[j]`.
    segs: Vec<String>,
    /// Slots of the modules hosting each segment (`hosts[0]` is the top).
    hosts: Vec<usize>,
    /// Slot of the selected instance's module: moved, never modified.
    child: usize,
    /// Its name in the module it was last inserted into.
    inst: String,
    /// The ports punched for it through the module it last left, in the
    /// child's port order.
    punched: Vec<String>,
}

/// Reparents every instance in `paths` to the top module, punching ports
/// through every intermediate level (paper Fig. 5a, "Reparent"), and
/// returns their new top-level names in `paths` order. The result is
/// what lifting the paths one after another, each one level at a time,
/// produces.
///
/// All paths are resolved, and the modules above each selected instance
/// cloned until uniquely instantiated (hierarchy surgery mutates module
/// definitions; the selected module itself is moved, not modified),
/// before anything is lifted. Lifts are then applied one module at a
/// time, deepest modules first: every lift through a module only appends
/// ports and statements to it and rewrites the statements that mention
/// the lifted instance, so all lifts through one module are one pass
/// over its body.
///
/// No path may be a prefix of another (the compiler's overlap check).
///
/// # Errors
///
/// Returns [`RipperError::NoSuchInstance`] for the first bad path.
pub fn reparent_all(circuit: &mut Circuit, paths: &[&str]) -> Result<Vec<String>> {
    let missing = |path: &str| RipperError::NoSuchInstance {
        path: path.to_string(),
    };
    let mut index = PathIndex::new(circuit);
    let top_slot = index.modules.get(&circuit.top).copied();
    let mut counts = circuit.instance_counts();

    // Resolve and specialize, in path order.
    let mut lifts: Vec<Lift> = Vec::with_capacity(paths.len());
    for path in paths {
        let segs: Vec<String> = path.split('.').map(str::to_string).collect();
        let mut slot = top_slot.ok_or_else(|| missing(path))?;
        for seg in &segs {
            slot = index
                .child(circuit, slot, seg)
                .ok_or_else(|| missing(path))?
                .1;
        }
        let child = slot;

        let mut hosts = Vec::with_capacity(segs.len());
        let mut host = top_slot.expect("resolved above");
        for seg in &segs[..segs.len() - 1] {
            hosts.push(host);
            let (pos, below) = index.child(circuit, host, seg).expect("resolved above");
            let shared = circuit.modules[below].name.clone();
            if counts.get(&shared).copied().unwrap_or(0) <= 1 {
                host = below;
                continue;
            }
            // Clone it for this instance alone. Every host so far is
            // uniquely instantiated, so exactly one use moves to the clone
            // and everything below keeps its count.
            let clone_name = index.fresh_module_name(&format!("{shared}_u"));
            let mut cloned = circuit.modules[below].clone();
            cloned.name = clone_name.clone();
            index
                .modules
                .insert(clone_name.clone(), circuit.modules.len());
            circuit.modules.push(cloned);
            *counts.get_mut(&shared).expect("counted above") -= 1;
            counts.insert(clone_name.clone(), 1);
            if let Stmt::Inst { module, .. } = &mut circuit.modules[host].body[pos] {
                *module = clone_name;
            }
            host = circuit.modules.len() - 1;
        }
        hosts.push(host);
        lifts.push(Lift {
            child,
            inst: segs[segs.len() - 1].clone(),
            punched: Vec::new(),
            segs,
            hosts,
        });
    }

    // Port lists of the moved modules.
    let mut child_ports: HashMap<usize, ChildPorts> = HashMap::new();
    for lift in &lifts {
        child_ports
            .entry(lift.child)
            .or_insert_with(|| ChildPorts::of(&circuit.modules[lift.child]));
    }

    // Which lifts pass through which module, deepest modules first; each
    // list is in path order because it is filled in path order.
    let mut visits: BTreeMap<(std::cmp::Reverse<usize>, usize), Vec<usize>> = BTreeMap::new();
    for (k, lift) in lifts.iter().enumerate() {
        if lift.segs.len() < 2 {
            continue;
        }
        for (depth, &slot) in lift.hosts.iter().enumerate() {
            visits
                .entry((std::cmp::Reverse(depth), slot))
                .or_default()
                .push(k);
        }
    }
    for ((std::cmp::Reverse(depth), slot), ks) in visits {
        lift_through(
            &mut circuit.modules[slot],
            depth,
            &ks,
            &mut lifts,
            &child_ports,
        );
    }
    Ok(lifts.into_iter().map(|l| l.inst).collect())
}

/// A moved module's name and ports, with a by-name index.
struct ChildPorts {
    module: String,
    ports: Vec<Port>,
    by_name: HashMap<String, usize>,
}

impl ChildPorts {
    fn of(module: &Module) -> Self {
        let mut by_name = HashMap::with_capacity(module.ports.len());
        for (i, p) in module.ports.iter().enumerate() {
            by_name.entry(p.name.clone()).or_insert(i);
        }
        ChildPorts {
            module: module.name.clone(),
            ports: module.ports.clone(),
            by_name,
        }
    }
}

/// Applies every lift that passes through `module` (at `depth` below the
/// top), in path order `ks`.
///
/// A lift arriving from the shell below is inserted as a new instance
/// wired to the ports it left behind there; unless `module` is the top it
/// is then punched out again, as is a selected instance that starts here:
/// each of its ports becomes a port of `module` (child input → module
/// output and vice versa), connects to it drive those ports and reads of
/// it read them. The one-at-a-time result is reproduced because (a) ports
/// and statements are only ever appended, here in the same path order;
/// (b) names are allocated in that order from a set that tracks exactly
/// what the module would define at that moment (an instance's name is
/// released once it is punched out); and (c) rewrites for different
/// instances touch disjoint references, so one pass over the original
/// body applies them all. Statements appended for an arriving lift never
/// mention another lifted instance, so they are emitted already rewritten.
fn lift_through(
    module: &mut Module,
    depth: usize,
    ks: &[usize],
    lifts: &mut [Lift],
    child_ports: &HashMap<usize, ChildPorts>,
) {
    let mut names = Names::of(module);
    // Instances that started here: name → lift.
    let mut leaving: HashMap<String, usize> = HashMap::new();
    let mut appended: Vec<Stmt> = Vec::new();
    for &k in ks {
        let lift = &mut lifts[k];
        let child = &child_ports[&lift.child];
        let arrived = depth + 1 < lift.segs.len();
        if arrived {
            let shell = &lift.segs[depth];
            let inst = names.fresh(&format!("{shell}__{}", lift.inst));
            if depth == 0 {
                appended.push(Stmt::Inst {
                    name: inst.clone(),
                    module: child.module.clone(),
                });
                for (cp, below) in child.ports.iter().zip(&lift.punched) {
                    let here = Ref::instance_port(inst.clone(), cp.name.clone());
                    let there = Ref::instance_port(shell.clone(), below.clone());
                    appended.push(match cp.direction {
                        Direction::Input => Stmt::Connect {
                            lhs: here,
                            rhs: Expr::Ref(there),
                        },
                        Direction::Output => Stmt::Connect {
                            lhs: there,
                            rhs: Expr::Ref(here),
                        },
                    });
                }
            }
            lift.inst = inst;
        }
        if depth == 0 {
            continue;
        }
        let punched: Vec<String> = child
            .ports
            .iter()
            .map(|cp| names.fresh(&format!("{}_{}", lift.inst, cp.name)))
            .collect();
        names.release(&lift.inst);
        for (cp, np) in child.ports.iter().zip(&punched) {
            // The module now exports what it used to drive into the
            // instance, and imports what it used to read from it.
            module
                .ports
                .push(Port::new(np.clone(), cp.direction.flip(), cp.width));
        }
        if arrived {
            let shell = &lift.segs[depth];
            for ((cp, below), np) in child.ports.iter().zip(&lift.punched).zip(&punched) {
                let there = Ref::instance_port(shell.clone(), below.clone());
                appended.push(match cp.direction {
                    Direction::Input => Stmt::Connect {
                        lhs: Ref::local(np.clone()),
                        rhs: Expr::Ref(there),
                    },
                    Direction::Output => Stmt::Connect {
                        lhs: there,
                        rhs: Expr::reference(np.clone()),
                    },
                });
            }
        } else {
            leaving.insert(lift.inst.clone(), k);
        }
        lift.punched = punched;
    }

    if !leaving.is_empty() {
        // `inst.port` → the port punched for it, if `inst` is leaving.
        let punched_for = |r: &Ref| -> Option<(&String, Direction)> {
            let lift = &lifts[*leaving.get(r.instance.as_ref()?)?];
            let child = &child_ports[&lift.child];
            let i = *child.by_name.get(&r.name)?;
            Some((&lift.punched[i], child.ports[i].direction))
        };
        let read = |r: &mut Ref| {
            if let Some((np, Direction::Output)) = punched_for(r) {
                *r = Ref::local(np.clone());
            }
        };
        module.body.retain_mut(|stmt| {
            match stmt {
                Stmt::Inst { name, .. } if leaving.contains_key(name) => return false,
                Stmt::Connect { lhs, .. } => {
                    if let Some((np, _)) = punched_for(lhs) {
                        *lhs = Ref::local(np.clone());
                    }
                }
                _ => {}
            }
            rewrite_stmt_refs(stmt, &read);
            true
        });
    }
    module.body.append(&mut appended);
}

/// Reparents the instance at `path` to the top module; see
/// [`reparent_all`]. Returns the instance's new top-level name.
///
/// # Errors
///
/// Returns [`RipperError::NoSuchInstance`] for bad paths.
pub fn reparent_to_top(circuit: &mut Circuit, path: &str) -> Result<String> {
    Ok(reparent_all(circuit, &[path])?.remove(0))
}

/// Wraps the given top-level instances in a new wrapper module (paper
/// Fig. 5a, "Grouping"). Returns the wrapper's instance name in the top
/// module; the wrapper module is named `wrapper_name` (uniquified).
///
/// # Errors
///
/// Returns [`RipperError::NoSuchInstance`] if an instance is not a direct
/// child of the top module.
pub fn group_instances(
    circuit: &mut Circuit,
    wrapper_name: &str,
    insts: &[String],
) -> Result<String> {
    let selected: BTreeSet<&str> = insts.iter().map(String::as_str).collect();
    let top_name = circuit.top.clone();
    let top = circuit.module(&top_name).expect("top exists").clone();

    // Check selection and capture child module names/ports.
    let mut top_insts: HashMap<&str, &str> = HashMap::new();
    for (inst, module) in top.instances() {
        top_insts.entry(inst).or_insert(module);
    }
    let mut child_modules: HashMap<String, String> = HashMap::new();
    for inst in insts {
        let m = top_insts
            .get(inst.as_str())
            .ok_or_else(|| RipperError::NoSuchInstance { path: inst.clone() })?;
        child_modules.insert(inst.clone(), m.to_string());
    }
    let port_of = |circuit: &Circuit, inst: &str, port: &str| -> Result<Width> {
        let m = circuit
            .module(&child_modules[inst])
            .ok_or_else(|| RipperError::Malformed {
                message: format!("module of `{inst}` missing"),
            })?;
        Ok(m.port(port)
            .ok_or_else(|| RipperError::Malformed {
                message: format!("port `{inst}.{port}` missing"),
            })?
            .width)
    };

    let wrapper_mod_name = fresh_module_name(circuit, wrapper_name);
    let mut wrapper = Module::new(wrapper_mod_name.clone());
    let mut new_top_body: Vec<Stmt> = Vec::new();
    let winst = Names::of(&top).fresh(&format!("{wrapper_name}_inst"));
    // The wrapper's namespace as it fills: moved instances and punched
    // ports.
    let mut wrapper_names = Names::default();

    // Pass 1: move instances and internal connects; punch wrapper inputs.
    for stmt in top.body.iter().cloned() {
        match &stmt {
            Stmt::Inst { name, .. } if selected.contains(name.as_str()) => {
                wrapper_names.insert(name);
                wrapper.body.push(stmt);
            }
            Stmt::Connect { lhs, rhs }
                if lhs
                    .instance
                    .as_deref()
                    .is_some_and(|i| selected.contains(i)) =>
            {
                let inst = lhs.instance.clone().expect("instance connect");
                // Internal if every referenced instance is selected and no
                // top-local signals are referenced.
                let mut refs = Vec::new();
                rhs.collect_refs(&mut refs);
                let internal = refs
                    .iter()
                    .all(|r| r.instance.as_deref().is_some_and(|i| selected.contains(i)));
                if internal {
                    wrapper.body.push(stmt);
                } else {
                    let w = port_of(circuit, &inst, &lhs.name)?;
                    let np = wrapper_names.fresh(&format!("{inst}_{}", lhs.name));
                    wrapper.ports.push(fireaxe_ir::Port::input(np.clone(), w));
                    wrapper.body.push(Stmt::Connect {
                        lhs: lhs.clone(),
                        rhs: Expr::reference(np.clone()),
                    });
                    new_top_body.push(Stmt::Connect {
                        lhs: Ref::instance_port(winst.clone(), np),
                        rhs: rhs.clone(),
                    });
                }
            }
            _ => new_top_body.push(stmt),
        }
    }

    // Pass 2: punch wrapper outputs for selected-instance reads that
    // remain in the top body.
    let mut out_ports: BTreeMap<(String, String), String> = BTreeMap::new();
    {
        // Collect reads first.
        let mut reads: BTreeSet<(String, String)> = BTreeSet::new();
        for stmt in &new_top_body {
            for_each_read(stmt, |r| {
                if let Some(i) = &r.instance {
                    if selected.contains(i.as_str()) {
                        reads.insert((i.clone(), r.name.clone()));
                    }
                }
            });
        }
        for (inst, port) in reads {
            let w = port_of(circuit, &inst, &port)?;
            let np = wrapper_names.fresh(&format!("{inst}_{port}"));
            wrapper.ports.push(fireaxe_ir::Port::output(np.clone(), w));
            wrapper.body.push(Stmt::Connect {
                lhs: Ref::local(np.clone()),
                rhs: Expr::Ref(Ref::instance_port(inst.clone(), port.clone())),
            });
            out_ports.insert((inst, port), np);
        }
    }
    let rewrite = |r: &mut Ref| {
        if let Some(i) = &r.instance {
            if let Some(np) = out_ports.get(&(i.clone(), r.name.clone())) {
                *r = Ref::instance_port(winst.clone(), np.clone());
            }
        }
    };
    for stmt in &mut new_top_body {
        rewrite_stmt_refs(stmt, &rewrite);
    }

    new_top_body.push(Stmt::Inst {
        name: winst.clone(),
        module: wrapper_mod_name,
    });
    circuit.add_module(wrapper);
    circuit.module_mut(&top_name).expect("top exists").body = new_top_body;
    Ok(winst)
}

/// Which partition a cut-wire endpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PartRef {
    /// An extracted wrapper: `(group index, thread index)`.
    Wrapper {
        /// Partition group index.
        group: usize,
        /// FAME-5 thread index within the group (0 unless threaded).
        thread: usize,
    },
    /// The remainder partition (the un-extracted rest of the design).
    Remainder,
}

/// One wire crossing a partition boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutWire {
    /// Driving side: partition and its top-level output port name.
    pub from: (PartRef, String),
    /// Receiving side: partition and its top-level input port name.
    pub to: (PartRef, String),
    /// Wire width.
    pub width: Width,
}

/// Result of [`split_partitions`].
#[derive(Debug)]
pub struct SplitDesign {
    /// One circuit per wrapper, indexed like the input `wrappers` list.
    pub wrapper_circuits: Vec<Circuit>,
    /// The remainder circuit (wrapper instances removed, cut ports
    /// punched).
    pub remainder: Circuit,
    /// Every boundary wire.
    pub cut_wires: Vec<CutWire>,
}

/// Extracts each wrapper instance into its own circuit and removes them
/// from the remainder (paper Fig. 5, "Extract" + module removal),
/// recording the cut wires.
///
/// `wrappers` maps each wrapper's top-level instance name to its
/// [`PartRef`].
///
/// # Errors
///
/// Returns [`RipperError::UnsupportedFanout`] when one wrapper output
/// feeds both another wrapper and remainder logic.
pub fn split_partitions(circuit: &Circuit, wrappers: &[(String, PartRef)]) -> Result<SplitDesign> {
    let top_name = circuit.top.clone();
    let top = circuit.module(&top_name).expect("top exists");
    let winst_of: HashMap<&str, PartRef> = wrappers.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    let wrapper_module: HashMap<&str, &str> = top
        .instances()
        .filter(|(n, _)| winst_of.contains_key(n))
        .collect();

    // Extract wrapper circuits.
    let mut wrapper_circuits = Vec::new();
    for (winst, _) in wrappers {
        let wmod =
            *wrapper_module
                .get(winst.as_str())
                .ok_or_else(|| RipperError::NoSuchInstance {
                    path: winst.clone(),
                })?;
        wrapper_circuits.push(subcircuit(circuit, wmod));
    }

    let port_width = |winst: &str, port: &str| -> Width {
        circuit
            .module(wrapper_module[winst])
            .and_then(|m| m.port(port))
            .map(|p| p.width)
            .unwrap_or_default()
    };

    // Build the remainder, collecting cut wires.
    let mut cut_wires: Vec<CutWire> = Vec::new();
    let mut rem_top = top.clone();
    let mut new_body: Vec<Stmt> = Vec::new();
    // Wrapper outputs consumed by a direct wrapper-to-wrapper link.
    let mut linked_outputs: BTreeSet<(String, String)> = BTreeSet::new();

    let body = std::mem::take(&mut rem_top.body);
    // Only ports are in the way of a punched port's name: the body is
    // being rebuilt.
    let mut rem_names = Names::of(&rem_top);
    for stmt in body {
        match &stmt {
            Stmt::Inst { name, .. } if winst_of.contains_key(name.as_str()) => continue,
            Stmt::Connect { lhs, rhs }
                if lhs
                    .instance
                    .as_deref()
                    .is_some_and(|i| winst_of.contains_key(i)) =>
            {
                let winst = lhs.instance.clone().expect("wrapper connect");
                let to = (winst_of[winst.as_str()], lhs.name.clone());
                let width = port_width(&winst, &lhs.name);
                if let Expr::Ref(r) = rhs {
                    if let Some(src_inst) = &r.instance {
                        if winst_of.contains_key(src_inst.as_str()) {
                            // Direct wrapper-to-wrapper link.
                            linked_outputs.insert((src_inst.clone(), r.name.clone()));
                            cut_wires.push(CutWire {
                                from: (winst_of[src_inst.as_str()], r.name.clone()),
                                to,
                                width,
                            });
                            continue;
                        }
                    }
                }
                // Driven by remainder logic: punch a remainder output port.
                let np = rem_names.fresh(&format!("{winst}_{}", lhs.name));
                rem_top
                    .ports
                    .push(fireaxe_ir::Port::output(np.clone(), width));
                new_body.push(Stmt::Connect {
                    lhs: Ref::local(np.clone()),
                    rhs: rhs.clone(),
                });
                cut_wires.push(CutWire {
                    from: (PartRef::Remainder, np),
                    to,
                    width,
                });
            }
            _ => new_body.push(stmt),
        }
    }

    // Punch remainder input ports for every wrapper output (so tokens are
    // always consumed), rewriting reads.
    let mut in_ports: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut remainder_reads: HashSet<(&str, &str)> = HashSet::new();
    for stmt in &new_body {
        for_each_read(stmt, |r| {
            if let Some(i) = &r.instance {
                remainder_reads.insert((i.as_str(), r.name.as_str()));
            }
        });
    }
    for (winst, part) in wrappers {
        let wmod = circuit
            .module(wrapper_module[winst.as_str()])
            .expect("exists");
        for p in wmod.ports_in(Direction::Output) {
            let linked = linked_outputs.contains(&(winst.clone(), p.name.clone()));
            // Is it read by remainder logic?
            let read = remainder_reads.contains(&(winst.as_str(), p.name.as_str()));
            if linked && read {
                return Err(RipperError::UnsupportedFanout {
                    port: format!("{winst}.{}", p.name),
                });
            }
            if linked {
                continue;
            }
            let np = rem_names.fresh(&format!("{winst}_{}", p.name));
            rem_top
                .ports
                .push(fireaxe_ir::Port::input(np.clone(), p.width));
            in_ports.insert((winst.clone(), p.name.clone()), np.clone());
            cut_wires.push(CutWire {
                from: (*part, p.name.clone()),
                to: (PartRef::Remainder, np),
                width: p.width,
            });
        }
    }
    let rewrite = |r: &mut Ref| {
        if let Some(i) = &r.instance {
            if let Some(np) = in_ports.get(&(i.clone(), r.name.clone())) {
                *r = Ref::local(np.clone());
            }
        }
    };
    for stmt in &mut new_body {
        rewrite_stmt_refs(stmt, &rewrite);
    }
    rem_top.body = new_body;

    let mut remainder = circuit.clone();
    remainder.add_module(rem_top);
    remainder.prune_unreachable();
    Ok(SplitDesign {
        wrapper_circuits,
        remainder,
        cut_wires,
    })
}

/// The modules of `circuit` reachable from `top`, as a circuit of its own
/// named after it (module order kept).
fn subcircuit(circuit: &Circuit, top: &str) -> Circuit {
    let by_name: HashMap<&str, &Module> = circuit
        .modules
        .iter()
        .rev()
        .map(|m| (m.name.as_str(), m))
        .collect();
    let mut reachable: HashSet<&str> = HashSet::from([top]);
    let mut stack = vec![top];
    while let Some(name) = stack.pop() {
        for (_, child) in by_name.get(name).into_iter().flat_map(|m| m.instances()) {
            if reachable.insert(child) {
                stack.push(child);
            }
        }
    }
    let modules = circuit
        .modules
        .iter()
        .filter(|m| reachable.contains(m.name.as_str()))
        .cloned()
        .collect();
    Circuit::from_modules(top, modules, top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::build::{ModuleBuilder, Sig};
    use fireaxe_ir::typecheck::validate;
    use fireaxe_ir::{Bits, Interpreter};

    /// Top -> Mid -> Leaf(adder), plus a sibling Leaf at top.
    fn nested() -> Circuit {
        let mut leaf = ModuleBuilder::new("Leaf");
        let a = leaf.input("a", 8);
        let y = leaf.output("y", 8);
        leaf.connect_sig(&y, &a.add(&Sig::lit(1, 8)));
        let leaf = leaf.finish();

        let mut mid = ModuleBuilder::new("Mid");
        let a = mid.input("a", 8);
        let y = mid.output("y", 8);
        mid.inst("inner", "Leaf");
        mid.connect_inst("inner", "a", &a);
        let iy = mid.inst_port("inner", "y");
        mid.connect_sig(&y, &iy.add(&Sig::lit(10, 8)));
        let mid = mid.finish();

        let mut top = ModuleBuilder::new("Top");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("m", "Mid");
        top.inst("extra", "Leaf");
        top.connect_inst("m", "a", &i);
        let my = top.inst_port("m", "y");
        top.connect_inst("extra", "a", &my);
        let ey = top.inst_port("extra", "y");
        top.connect_sig(&o, &ey);
        Circuit::from_modules("Top", vec![top.finish(), mid, leaf], "Top")
    }

    fn out_for(c: &Circuit, i: u64) -> u64 {
        let mut sim = Interpreter::new(c).unwrap();
        sim.poke("i", Bits::from_u64(i, 8));
        sim.eval().unwrap();
        sim.peek("o").to_u64()
    }

    #[test]
    fn reparent_preserves_behavior() {
        let mut c = nested();
        let before = out_for(&c, 5); // ((5+1)+10)+1 = 17
        assert_eq!(before, 17);
        let new_inst = reparent_to_top(&mut c, "m.inner").unwrap();
        validate(&c).unwrap();
        assert_eq!(out_for(&c, 5), before);
        // The instance now lives at the top.
        let top = c.top_module();
        assert!(top.instances().any(|(n, _)| n == new_inst));
        // Mid no longer contains it.
        let mid_name = resolve_path(&c, "m").unwrap();
        assert_eq!(c.module(&mid_name).unwrap().instances().count(), 0);
    }

    #[test]
    fn specialize_clones_shared_modules() {
        // Two Mids sharing the Leaf module: reparenting through one must
        // not disturb the other.
        let mut c = nested();
        {
            let top = c.module_mut("Top").unwrap();
            top.body.push(Stmt::Inst {
                name: "m2".into(),
                module: "Mid".into(),
            });
            top.body.push(Stmt::Connect {
                lhs: Ref::instance_port("m2", "a"),
                rhs: Expr::reference("i"),
            });
        }
        let before = out_for(&c, 3);
        reparent_to_top(&mut c, "m.inner").unwrap();
        validate(&c).unwrap();
        assert_eq!(out_for(&c, 3), before);
        // m2 still instantiates an unmodified Mid with its inner Leaf.
        let m2_mod = resolve_path(&c, "m2").unwrap();
        assert_eq!(c.module(&m2_mod).unwrap().instances().count(), 1);
    }

    #[test]
    fn group_wraps_and_preserves_behavior() {
        let mut c = nested();
        let before = out_for(&c, 7);
        let winst = group_instances(&mut c, "PartA", &["extra".to_string()]).unwrap();
        validate(&c).unwrap();
        assert_eq!(out_for(&c, 7), before);
        let top = c.top_module();
        assert!(top.instances().any(|(n, _)| n == winst));
        assert!(!top.instances().any(|(n, _)| n == "extra"));
    }

    #[test]
    fn group_keeps_internal_connects_inside() {
        // Group both `m` and `extra`: the m.y -> extra.a connect should
        // move inside the wrapper.
        let mut c = nested();
        let before = out_for(&c, 2);
        let winst =
            group_instances(&mut c, "Both", &["m".to_string(), "extra".to_string()]).unwrap();
        validate(&c).unwrap();
        assert_eq!(out_for(&c, 2), before);
        let wmod = resolve_path(&c, &winst).unwrap();
        let w = c.module(&wmod).unwrap();
        assert_eq!(w.instances().count(), 2);
        // One input (i feed) + one output (o feed) punched.
        assert_eq!(w.ports.len(), 2);
    }

    #[test]
    fn split_produces_working_partitions() {
        let mut c = nested();
        let winst = group_instances(&mut c, "PartA", &["extra".to_string()]).unwrap();
        let part = PartRef::Wrapper {
            group: 0,
            thread: 0,
        };
        let split = split_partitions(&c, &[(winst, part)]).unwrap();
        validate(&split.remainder).unwrap();
        validate(&split.wrapper_circuits[0]).unwrap();
        // Cut wires: one into the wrapper (extra.a) and one out (extra.y).
        assert_eq!(split.cut_wires.len(), 2);
        let into: Vec<_> = split.cut_wires.iter().filter(|w| w.to.0 == part).collect();
        assert_eq!(into.len(), 1);
        assert_eq!(into[0].width.get(), 8);
    }

    #[test]
    fn split_detects_direct_links() {
        // Group m and extra separately; m.y -> extra.a becomes a direct
        // wrapper-to-wrapper link.
        let mut c = nested();
        let w1 = group_instances(&mut c, "P1", &["m".to_string()]).unwrap();
        let w2 = group_instances(&mut c, "P2", &["extra".to_string()]).unwrap();
        let p1 = PartRef::Wrapper {
            group: 0,
            thread: 0,
        };
        let p2 = PartRef::Wrapper {
            group: 1,
            thread: 0,
        };
        let split = split_partitions(&c, &[(w1, p1), (w2, p2)]).unwrap();
        let direct: Vec<_> = split
            .cut_wires
            .iter()
            .filter(|w| w.from.0 == p1 && w.to.0 == p2)
            .collect();
        assert_eq!(direct.len(), 1, "expected m.y -> extra.a direct link");
        validate(&split.remainder).unwrap();
    }

    #[test]
    fn reparent_through_three_levels() {
        // Top -> Outer -> Mid -> Leaf, extracting the innermost leaf.
        let mut leaf = ModuleBuilder::new("Leaf3");
        let a = leaf.input("a", 8);
        let y = leaf.output("y", 8);
        leaf.connect_sig(&y, &a.add(&Sig::lit(5, 8)));
        let leaf = leaf.finish();

        let mut mid = ModuleBuilder::new("Mid3");
        let a = mid.input("a", 8);
        let y = mid.output("y", 8);
        mid.inst("l", "Leaf3");
        mid.connect_inst("l", "a", &a);
        let ly = mid.inst_port("l", "y");
        mid.connect_sig(&y, &ly);
        let mid = mid.finish();

        let mut outer = ModuleBuilder::new("Outer3");
        let a = outer.input("a", 8);
        let y = outer.output("y", 8);
        outer.inst("m", "Mid3");
        outer.connect_inst("m", "a", &a);
        let my = outer.inst_port("m", "y");
        outer.connect_sig(&y, &my.add(&Sig::lit(1, 8)));
        let outer = outer.finish();

        let mut top = ModuleBuilder::new("Top3");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("u", "Outer3");
        top.connect_inst("u", "a", &i);
        let uy = top.inst_port("u", "y");
        top.connect_sig(&o, &uy);
        let mut c = Circuit::from_modules("Top3", vec![top.finish(), outer, mid, leaf], "Top3");

        let before = {
            let mut sim = Interpreter::new(&c).unwrap();
            sim.poke("i", Bits::from_u64(10, 8));
            sim.eval().unwrap();
            sim.peek("o").to_u64()
        };
        assert_eq!(before, 16); // (10+5)+1
        let inst = reparent_to_top(&mut c, "u.m.l").unwrap();
        validate(&c).unwrap();
        assert!(c.top_module().instances().any(|(n, _)| n == inst));
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("i", Bits::from_u64(10, 8));
        sim.eval().unwrap();
        assert_eq!(sim.peek("o").to_u64(), before);
    }

    #[test]
    fn group_handles_literal_driven_inputs() {
        // A selected instance whose input is tied to a constant: the
        // literal-driven connect moves inside the wrapper.
        let mut c = nested();
        {
            let top = c.module_mut("Top").unwrap();
            top.body.push(Stmt::Inst {
                name: "tied".into(),
                module: "Leaf".into(),
            });
            top.body.push(Stmt::Connect {
                lhs: Ref::instance_port("tied", "a"),
                rhs: Expr::lit(9, 8),
            });
        }
        let winst = group_instances(&mut c, "G", &["tied".to_string()]).unwrap();
        validate(&c).unwrap();
        let wmod = resolve_path(&c, &winst).unwrap();
        let w = c.module(&wmod).unwrap();
        // No input port needed: the constant lives inside the wrapper.
        assert!(w.ports.iter().all(|p| p.direction != Direction::Input));
    }

    #[test]
    fn bad_path_errors() {
        let mut c = nested();
        assert!(matches!(
            reparent_to_top(&mut c, "m.nonexistent"),
            Err(RipperError::NoSuchInstance { .. })
        ));
        assert!(matches!(
            group_instances(&mut c, "W", &["ghost".to_string()]),
            Err(RipperError::NoSuchInstance { .. })
        ));
    }
}
