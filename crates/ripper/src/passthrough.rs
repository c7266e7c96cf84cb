//! Shell-passthrough resolution.
//!
//! Reparenting (Fig. 5a) punches I/O ports through every intermediate
//! module, leaving those modules as *shells* of pure wire passthroughs —
//! possibly several levels deep. A signal between two extracted instances
//! would then bounce through the remainder partition, turning a
//! one-crossing wire into a three-crossing combinational chain and
//! wasting link bandwidth.
//!
//! [`resolve_shell_passthroughs`] traces every top-level instance-port
//! read through pure reference chains — down through shell output ports,
//! across shell-internal wiring, and back up through shell input ports —
//! and rewrites the reference to the ultimate top-level driver. Grouping
//! then keeps intra-partition connections inside the wrapper, which is
//! what FireRipper gets for free by wrapping before extraction.

use crate::hier::for_each_read;
use fireaxe_ir::{Circuit, Direction, Expr, Module, Ref, Stmt};
use std::collections::{HashMap, HashSet};

/// What [`Tracer`] looks up per hop, built once per visited module; every
/// map keeps the first match in declaration order.
struct ModuleIndex<'c> {
    /// Signal → the reference that drives it through a pure `lhs <= ref`
    /// connect or `node = ref`. A register is never a pure driver: its
    /// connect takes effect a cycle later.
    pure_driver: HashMap<(Option<&'c str>, &'c str), &'c Ref>,
    /// Instance name → its module and, once visited, that module's index
    /// (`Some(None)`: the circuit has no such module).
    insts: HashMap<&'c str, (&'c str, Option<Option<usize>>)>,
    ports: HashMap<&'c str, Direction>,
}

impl<'c> ModuleIndex<'c> {
    fn new(module: &'c Module) -> Self {
        let regs: HashSet<&str> = module
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Reg { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let mut pure_driver = HashMap::with_capacity(module.body.len());
        let mut insts = HashMap::new();
        for s in &module.body {
            match s {
                Stmt::Connect {
                    lhs,
                    rhs: Expr::Ref(r),
                } if !(lhs.is_local() && regs.contains(lhs.name.as_str())) => {
                    pure_driver
                        .entry((lhs.instance.as_deref(), lhs.name.as_str()))
                        .or_insert(r);
                }
                Stmt::Node {
                    name,
                    expr: Expr::Ref(r),
                } => {
                    pure_driver.entry((None, name.as_str())).or_insert(r);
                }
                Stmt::Inst { name, module } => {
                    insts
                        .entry(name.as_str())
                        .or_insert((module.as_str(), None));
                }
                _ => {}
            }
        }
        let mut ports = HashMap::with_capacity(module.ports.len());
        for p in &module.ports {
            ports.entry(p.name.as_str()).or_insert(p.direction);
        }
        ModuleIndex {
            pure_driver,
            insts,
            ports,
        }
    }

    fn driver(&self, instance: Option<&str>, name: &str) -> Option<&'c Ref> {
        self.pure_driver.get(&(instance, name)).copied()
    }
}

/// Traces top-level reads through shells, indexing each module it walks
/// through the first time it gets there.
struct Tracer<'c> {
    modules: HashMap<&'c str, &'c Module>,
    indexes: Vec<ModuleIndex<'c>>,
    slot_of: HashMap<&'c str, usize>,
    top: usize,
}

impl<'c> Tracer<'c> {
    fn new(circuit: &'c Circuit) -> Self {
        let mut modules = HashMap::with_capacity(circuit.modules.len());
        for m in &circuit.modules {
            modules.entry(m.name.as_str()).or_insert(m);
        }
        let mut tracer = Tracer {
            modules,
            indexes: Vec::new(),
            slot_of: HashMap::new(),
            top: 0,
        };
        tracer.top = tracer
            .index_of(&circuit.top)
            .expect("circuit has its top module");
        tracer
    }

    fn index_of(&mut self, module: &str) -> Option<usize> {
        let (&name, &m) = self.modules.get_key_value(module)?;
        Some(*self.slot_of.entry(name).or_insert_with(|| {
            self.indexes.push(ModuleIndex::new(m));
            self.indexes.len() - 1
        }))
    }

    /// The index of the module that instance `inst` of `ctx` instantiates.
    fn child_of(&mut self, ctx: usize, inst: &str) -> Option<usize> {
        let &(module, known) = self.indexes[ctx].insts.get(inst)?;
        known.unwrap_or_else(|| {
            let child = self.index_of(module);
            if let Some(entry) = self.indexes[ctx].insts.get_mut(inst) {
                entry.1 = Some(child);
            }
            child
        })
    }

    /// Traces `start` (a read of `inst.port` in the top module) through
    /// pure reference chains to a top-level signal, if one exists.
    fn trace_to_top<'a>(&mut self, start: &'a Ref) -> Option<Ref>
    where
        'c: 'a,
    {
        // Stack of (module, instance-name-in-parent) below the current
        // context; empty means the context is the top module.
        let mut stack: Vec<(usize, &str)> = Vec::new();
        let mut ctx = self.top;
        let mut cur: &'a Ref = start;
        // Best top-level-valid resolution seen so far; deeper tracing may
        // still improve on it (multi-level shells), and if it dead-ends we
        // fall back to this.
        let mut best: Option<&Ref> = None;

        for _ in 0..256 {
            let at_top = stack.is_empty();
            let next = match cur.instance.as_deref() {
                Some(inst) => {
                    let child = self.child_of(ctx, inst);
                    let direction =
                        child.and_then(|c| self.indexes[c].ports.get(cur.name.as_str()).copied());
                    // A top-level read of an instance output is a valid
                    // waypoint.
                    if at_top && direction == Some(Direction::Output) && cur != start {
                        best = Some(cur);
                    }
                    let (Some(child), Some(direction)) = (child, direction) else {
                        break;
                    };
                    match direction {
                        Direction::Output => {
                            // Descend into the child and follow its driver.
                            let inner = self.indexes[child].driver(None, &cur.name);
                            if inner.is_some() {
                                stack.push((ctx, inst));
                                ctx = child;
                            }
                            inner
                        }
                        Direction::Input => self.indexes[ctx].driver(Some(inst), &cur.name),
                    }
                }
                None => {
                    // So is any top-local signal.
                    if at_top && cur != start {
                        best = Some(cur);
                    }
                    let port = self.indexes[ctx].ports.get(cur.name.as_str());
                    if !at_top && port == Some(&Direction::Input) {
                        // Ascend: the driver is the parent's connect to
                        // this instance input.
                        let (parent, inst) = stack.pop().expect("nonempty");
                        ctx = parent;
                        self.indexes[ctx].driver(Some(inst), &cur.name)
                    } else if at_top && port.is_some() {
                        // A top-level port: terminal.
                        None
                    } else {
                        // A local wire/node: follow one pure hop.
                        self.indexes[ctx].driver(None, &cur.name)
                    }
                }
            };
            match next {
                Some(n) => cur = n,
                None => break,
            }
        }
        best.cloned()
    }
}

/// Rewrites top-level reads that resolve through pure shell passthroughs
/// to their ultimate drivers. Returns the number of rewritten references.
pub fn resolve_shell_passthroughs(circuit: &mut Circuit) -> usize {
    let top_name = circuit.top.clone();
    // Collect rewrites against an immutable snapshot, then apply.
    let mut map: HashMap<Ref, Ref> = HashMap::new();
    {
        let top = circuit.module(&top_name).expect("top exists");
        let mut candidates: HashSet<&Ref> = HashSet::new();
        for s in &top.body {
            for_each_read(s, |r| {
                if r.instance.is_some() {
                    candidates.insert(r);
                }
            });
        }
        let mut tracer = Tracer::new(circuit);
        for r in candidates {
            if let Some(resolved) = tracer.trace_to_top(r) {
                map.insert(r.clone(), resolved);
            }
        }
    }
    if map.is_empty() {
        return 0;
    }
    let mut count = 0usize;
    let top = circuit.module_mut(&top_name).expect("top exists");
    for s in &mut top.body {
        let mut f = |r: &mut Ref| {
            // Only instance-port reads were traced.
            if let Some(n) = r.instance.as_ref().and_then(|_| map.get(r)) {
                *r = n.clone();
                count += 1;
            }
        };
        match s {
            Stmt::Node { expr, .. } => expr.rewrite_refs(&mut f),
            Stmt::Connect { rhs, .. } => rhs.rewrite_refs(&mut f),
            Stmt::MemRead { addr, .. } => addr.rewrite_refs(&mut f),
            Stmt::MemWrite { addr, data, en, .. } => {
                addr.rewrite_refs(&mut f);
                data.rewrite_refs(&mut f);
                en.rewrite_refs(&mut f);
            }
            _ => {}
        }
    }
    count
}

/// A signal as a module's statements name it: `(instance, name)`.
type Signal<'c> = (Option<&'c str>, &'c str);

/// What dead-port planning tracks per module.
struct Liveness<'c> {
    module: &'c Module,
    /// Reads of each signal by statements still alive.
    reads: HashMap<Signal<'c>, u32>,
    /// Positions of the connects driving each signal: the first, then
    /// any others (none in a well-formed module).
    connects_to: HashMap<Signal<'c>, (usize, Vec<usize>)>,
    /// Local signals driven by a pure `lhs <= ref` connect.
    pure: HashSet<&'c str>,
    ports: HashMap<&'c str, usize>,
    dead_ports: Vec<bool>,
    dead_stmts: Vec<bool>,
}

impl<'c> Liveness<'c> {
    fn new(module: &'c Module) -> Self {
        let mut reads: HashMap<Signal<'c>, u32> = HashMap::with_capacity(module.body.len());
        let mut connects_to: HashMap<Signal<'c>, (usize, Vec<usize>)> =
            HashMap::with_capacity(module.body.len());
        let mut pure = HashSet::new();
        for (pos, s) in module.body.iter().enumerate() {
            for_each_read(s, |r| {
                *reads
                    .entry((r.instance.as_deref(), r.name.as_str()))
                    .or_default() += 1;
            });
            if let Stmt::Connect { lhs, rhs } = s {
                connects_to
                    .entry((lhs.instance.as_deref(), lhs.name.as_str()))
                    .and_modify(|(_, more)| more.push(pos))
                    .or_insert((pos, Vec::new()));
                if lhs.is_local() && matches!(rhs, Expr::Ref(_)) {
                    pure.insert(lhs.name.as_str());
                }
            }
        }
        let mut ports = HashMap::with_capacity(module.ports.len());
        for (i, p) in module.ports.iter().enumerate() {
            ports.entry(p.name.as_str()).or_insert(i);
        }
        Liveness {
            module,
            reads,
            connects_to,
            pure,
            ports,
            dead_ports: vec![false; module.ports.len()],
            dead_stmts: vec![false; module.body.len()],
        }
    }

    fn is_read(&self, signal: Signal<'_>) -> bool {
        self.reads.get(&signal).is_some_and(|&n| n > 0)
    }

    /// Kills the connects driving `target`, returning the signals whose
    /// last read went with them.
    fn kill_connects_to(&mut self, target: Signal<'_>, unread: &mut Vec<Signal<'c>>) {
        let Some((first, more)) = self.connects_to.get(&target) else {
            return;
        };
        for &pos in std::iter::once(first).chain(more) {
            if std::mem::replace(&mut self.dead_stmts[pos], true) {
                continue;
            }
            let reads = &mut self.reads;
            for_each_read(&self.module.body[pos], |r| {
                let signal = (r.instance.as_deref(), r.name.as_str());
                let n = reads.get_mut(&signal).expect("counted when indexed");
                *n -= 1;
                if *n == 0 {
                    unread.push(signal);
                }
            });
        }
    }
}

/// Removes shell ports orphaned by [`resolve_shell_passthroughs`]:
/// output ports whose value is no longer read by the (unique) parent and
/// whose internal driver is a pure passthrough, and input ports nothing
/// inside the module reads anymore. Works at every hierarchy level; only
/// uniquely-instantiated, non-extern modules are touched (shells always
/// are, after path specialization). Iterates to fixpoint; returns the
/// number of ports removed.
///
/// A port goes together with its local driver and the parent's connect
/// to it, which can orphan further ports. Rather than re-deriving every
/// module's read set per round, reads are counted once and a removed
/// connect decrements the counts of what it read; only ports whose last
/// read just went are looked at again. Rounds are kept as such (a round
/// judges ports against the circuit the previous round left), so the
/// result is the round-by-round one, then applied in one pass per module.
pub fn prune_dead_shell_ports(circuit: &mut Circuit) -> usize {
    let mut removed = 0usize;
    let masks: Vec<(usize, Vec<bool>, Vec<bool>)> = {
        let circuit = &*circuit;
        let counts = circuit.instance_counts();
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        for (slot, m) in circuit.modules.iter().enumerate() {
            slot_of.entry(m.name.as_str()).or_insert(slot);
        }
        // Unique parent of each module: (parent slot, instance name).
        // Only modules reachable from the top count as parents, like the
        // instance counts: an unreachable module naming a shell's module
        // would otherwise have the shell's ports judged against its reads.
        let mut parent: HashMap<&str, (usize, &str)> = HashMap::new();
        for m in circuit
            .modules
            .iter()
            .filter(|m| counts.contains_key(&m.name))
        {
            for (inst, child) in m.instances() {
                parent.insert(child, (slot_of[m.name.as_str()], inst));
            }
        }
        // Prunable modules by slot, and by where they are instantiated.
        let mut parent_of: HashMap<usize, (usize, &str)> = HashMap::new();
        let mut child_at: HashMap<(usize, &str), usize> = HashMap::new();
        let mut live: HashMap<usize, Liveness<'_>> = HashMap::new();
        for (slot, m) in circuit.modules.iter().enumerate() {
            if m.is_extern() || m.name == circuit.top || slot_of[m.name.as_str()] != slot {
                continue;
            }
            if counts.get(&m.name).copied().unwrap_or(0) != 1 {
                continue;
            }
            let Some(&(p_slot, inst)) = parent.get(m.name.as_str()) else {
                continue;
            };
            parent_of.insert(slot, (p_slot, inst));
            child_at.insert((p_slot, inst), slot);
            for s in [slot, p_slot] {
                live.entry(s)
                    .or_insert_with(|| Liveness::new(&circuit.modules[s]));
            }
        }

        // Round 0 looks at every port of every prunable module.
        let mut suspects: Vec<(usize, &str)> = Vec::new();
        for (slot, m) in circuit.modules.iter().enumerate() {
            if parent_of.contains_key(&slot) {
                suspects.extend(m.ports.iter().map(|p| (slot, p.name.as_str())));
            }
        }
        for _ in 0..64 {
            // Judge against the circuit as the last round left it ...
            let mut dead: Vec<(usize, &str)> = Vec::new();
            for (slot, name) in suspects.drain(..) {
                let m = &live[&slot];
                let Some(&i) = m.ports.get(name) else {
                    continue;
                };
                if m.dead_ports[i] {
                    continue;
                }
                let (p_slot, inst) = parent_of[&slot];
                let is_dead = match m.module.ports[i].direction {
                    Direction::Output => {
                        !live[&p_slot].is_read((Some(inst), name)) && m.pure.contains(name)
                    }
                    Direction::Input => !m.is_read((None, name)),
                };
                if is_dead {
                    live.get_mut(&slot).expect("indexed above").dead_ports[i] = true;
                    dead.push((slot, name));
                }
            }
            if dead.is_empty() {
                break;
            }
            removed += dead.len();
            // ... then remove, noting whose last read went.
            for (slot, name) in dead {
                let (p_slot, inst) = parent_of[&slot];
                for (at, target) in [(slot, (None, name)), (p_slot, (Some(inst), name))] {
                    let mut unread = Vec::new();
                    live.get_mut(&at)
                        .expect("indexed above")
                        .kill_connects_to(target, &mut unread);
                    for (instance, signal) in unread {
                        match instance {
                            // An input of `at` itself.
                            None if parent_of.contains_key(&at) => suspects.push((at, signal)),
                            None => {}
                            // An output of a child of `at`.
                            Some(i) => {
                                if let Some(&child) = child_at.get(&(at, i)) {
                                    suspects.push((child, signal));
                                }
                            }
                        }
                    }
                }
            }
        }
        live.into_iter()
            .map(|(slot, m)| (slot, m.dead_ports, m.dead_stmts))
            .collect()
    };

    for (slot, dead_ports, dead_stmts) in masks {
        let m = &mut circuit.modules[slot];
        let mut dead = dead_ports.iter();
        m.ports.retain(|_| !dead.next().expect("one flag per port"));
        let mut dead = dead_stmts.iter();
        m.body
            .retain(|_| !dead.next().expect("one flag per statement"));
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::reparent_to_top;
    use fireaxe_ir::build::{ModuleBuilder, Sig};
    use fireaxe_ir::typecheck::validate;
    use fireaxe_ir::{Bits, Interpreter};

    /// Top -> Shell -> {A, B} where A.y feeds B.a inside the shell.
    fn shelled(depth2: bool) -> Circuit {
        let mut leaf = ModuleBuilder::new("Inc");
        let a = leaf.input("a", 8);
        let y = leaf.output("y", 8);
        leaf.connect_sig(&y, &a.add(&Sig::lit(1, 8)));
        let leaf = leaf.finish();

        let mut shell = ModuleBuilder::new("Shell");
        let i = shell.input("i", 8);
        let o = shell.output("o", 8);
        shell.inst("a", "Inc");
        shell.inst("b", "Inc");
        shell.connect_inst("a", "a", &i);
        let ay = shell.inst_port("a", "y");
        shell.connect_inst("b", "a", &ay);
        let by = shell.inst_port("b", "y");
        shell.connect_sig(&o, &by);
        let shell = shell.finish();

        if depth2 {
            let mut mid = ModuleBuilder::new("Mid");
            let i = mid.input("i", 8);
            let o = mid.output("o", 8);
            mid.inst("s", "Shell");
            mid.connect_inst("s", "i", &i);
            let so = mid.inst_port("s", "o");
            mid.connect_sig(&o, &so);
            let mid = mid.finish();

            let mut top = ModuleBuilder::new("Top");
            let i = top.input("i", 8);
            let o = top.output("o", 8);
            top.inst("m", "Mid");
            top.connect_inst("m", "i", &i);
            let mo = top.inst_port("m", "o");
            top.connect_sig(&o, &mo);
            Circuit::from_modules("Top", vec![top.finish(), mid, shell, leaf], "Top")
        } else {
            let mut top = ModuleBuilder::new("Top");
            let i = top.input("i", 8);
            let o = top.output("o", 8);
            top.inst("s", "Shell");
            top.connect_inst("s", "i", &i);
            let so = top.inst_port("s", "o");
            top.connect_sig(&o, &so);
            Circuit::from_modules("Top", vec![top.finish(), shell, leaf], "Top")
        }
    }

    /// Top -> Shell -> {A, B} where a register inside the shell sits
    /// between A.y and B.a.
    fn registered_shell() -> Circuit {
        let mut c = shelled(false);
        let mut shell = ModuleBuilder::new("Shell");
        let i = shell.input("i", 8);
        let o = shell.output("o", 8);
        shell.inst("a", "Inc");
        shell.inst("b", "Inc");
        shell.connect_inst("a", "a", &i);
        let r = shell.reg("r", 8, 0);
        let ay = shell.inst_port("a", "y");
        shell.connect_sig(&r, &ay);
        shell.connect_inst("b", "a", &r);
        let by = shell.inst_port("b", "y");
        shell.connect_sig(&o, &by);
        *c.module_mut("Shell").unwrap() = shell.finish();
        c
    }

    fn check_direct(c: &Circuit, a_inst: &str, b_inst: &str) {
        let top = c.top_module();
        let direct = top.body.iter().any(|s| {
            matches!(s, Stmt::Connect { lhs, rhs: Expr::Ref(r) }
                if lhs.instance.as_deref() == Some(b_inst)
                && r.instance.as_deref() == Some(a_inst))
        });
        assert!(direct, "b.a should be driven directly by a.y");
    }

    #[test]
    fn resolves_through_single_shell() {
        let mut c = shelled(false);
        let a_inst = reparent_to_top(&mut c, "s.a").unwrap();
        let b_inst = reparent_to_top(&mut c, "s.b").unwrap();
        let rewritten = resolve_shell_passthroughs(&mut c);
        assert!(rewritten > 0, "expected passthrough rewrites");
        validate(&c).unwrap();
        check_direct(&c, &a_inst, &b_inst);
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("i", Bits::from_u64(5, 8));
        sim.eval().unwrap();
        assert_eq!(sim.peek("o").to_u64(), 7);
    }

    #[test]
    fn resolves_through_two_level_shells() {
        let mut c = shelled(true);
        let a_inst = reparent_to_top(&mut c, "m.s.a").unwrap();
        let b_inst = reparent_to_top(&mut c, "m.s.b").unwrap();
        let rewritten = resolve_shell_passthroughs(&mut c);
        assert!(rewritten > 0);
        validate(&c).unwrap();
        check_direct(&c, &a_inst, &b_inst);
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("i", Bits::from_u64(40, 8));
        sim.eval().unwrap();
        assert_eq!(sim.peek("o").to_u64(), 42);
    }

    #[test]
    fn a_register_on_a_reparented_path_is_not_a_wire() {
        let original = registered_shell();
        let mut c = original.clone();
        reparent_to_top(&mut c, "s.a").unwrap();
        reparent_to_top(&mut c, "s.b").unwrap();
        resolve_shell_passthroughs(&mut c);
        validate(&c).unwrap();
        let mut want = Interpreter::new(&original).unwrap();
        let mut got = Interpreter::new(&c).unwrap();
        for cycle in 0..8u64 {
            for sim in [&mut want, &mut got] {
                sim.poke("i", Bits::from_u64(cycle * 3, 8));
                sim.eval().unwrap();
            }
            assert_eq!(got.peek("o"), want.peek("o"), "cycle {cycle}");
            want.step().unwrap();
            got.step().unwrap();
        }
    }

    #[test]
    fn noop_without_shells() {
        let mut c = shelled(false);
        assert_eq!(resolve_shell_passthroughs(&mut c), 0);
    }

    #[test]
    fn prune_is_identity_on_clean_designs() {
        let mut c = shelled(true);
        let before = c.clone();
        assert_eq!(prune_dead_shell_ports(&mut c), 0);
        assert_eq!(c, before);
    }

    #[test]
    fn prune_removes_orphaned_shell_ports() {
        let mut c = shelled(false);
        reparent_to_top(&mut c, "s.a").unwrap();
        reparent_to_top(&mut c, "s.b").unwrap();
        resolve_shell_passthroughs(&mut c);
        let removed = prune_dead_shell_ports(&mut c);
        assert!(removed > 0, "orphaned shell ports should be pruned");
        validate(&c).unwrap();
        // Behavior still intact after surgery + pruning.
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("i", Bits::from_u64(1, 8));
        sim.eval().unwrap();
        assert_eq!(sim.peek("o").to_u64(), 3);
    }
    #[test]
    fn prune_ignores_instances_inside_unreachable_modules() {
        // An unreachable module that instantiates the shell's module and
        // reads none of its outputs, declared after the real parent.
        let mut c = shelled(false);
        let mut dead = ModuleBuilder::new("Dead");
        let i = dead.input("i", 8);
        dead.inst("x", "Shell");
        dead.connect_inst("x", "i", &i);
        c.modules.push(dead.finish());

        let before = c.clone();
        assert_eq!(prune_dead_shell_ports(&mut c), 0);
        assert_eq!(c, before, "the shell keeps its live ports");
        validate(&c).unwrap();

        // The whole compiler, over registered leaves so that a cut
        // between them is legal in exact mode.
        let mut leaf = ModuleBuilder::new("Inc");
        let a = leaf.input("a", 8);
        let y = leaf.output("y", 8);
        let r = leaf.reg("r", 8, 0);
        leaf.connect_sig(&r, &a);
        leaf.connect_sig(&y, &r);
        *c.module_mut("Inc").unwrap() = leaf.finish();
        let group = crate::PartitionGroup::instances("g", vec!["s.a".into()]);
        let design = crate::compile(&c, &crate::PartitionSpec::exact(vec![group])).unwrap();
        for p in &design.partitions {
            for t in &p.threads {
                validate(&t.circuit).unwrap();
            }
        }
    }
}
