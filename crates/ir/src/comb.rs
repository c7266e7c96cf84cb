//! Combinational dependency analysis.
//!
//! FireRipper (§III-A1 of the FireAxe paper) must know, for every module,
//! which output ports are combinationally dependent on which input ports:
//! *sink* ports (combinationally coupled across the boundary) get their own
//! LI-BDN channels, separate from *source* ports, so a partitioned
//! simulation can make forward progress without deadlocking.
//!
//! The analysis walks modules bottom-up in hierarchy ([`Circuit::topo_order`])
//! so each instance contributes its child's already-computed input→output
//! paths, exactly as the paper describes ("first it topologically sorts the
//! modules ... then it traverses the FIRRTL AST of each module identifying
//! statements that are combinationally dependent on each other").

use crate::ast::*;
use crate::error::{IrError, Result};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Per-module analysis result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleCombInfo {
    /// For each output port: the set of input ports it combinationally
    /// depends on. Outputs with an empty set are *source* ports.
    pub output_deps: BTreeMap<String, BTreeSet<String>>,
}

impl ModuleCombInfo {
    /// Returns `true` if `output` combinationally depends on `input`.
    pub fn depends(&self, output: &str, input: &str) -> bool {
        self.output_deps
            .get(output)
            .is_some_and(|s| s.contains(input))
    }

    /// Output ports with at least one combinational input dependency
    /// (*sink outputs* in the paper's terminology).
    pub fn sink_outputs(&self) -> impl Iterator<Item = &str> {
        self.output_deps
            .iter()
            .filter(|(_, deps)| !deps.is_empty())
            .map(|(o, _)| o.as_str())
    }

    /// Output ports with no combinational input dependency (*source
    /// outputs*): safe to emit a token for before any input arrives.
    pub fn source_outputs(&self) -> impl Iterator<Item = &str> {
        self.output_deps
            .iter()
            .filter(|(_, deps)| deps.is_empty())
            .map(|(o, _)| o.as_str())
    }

    /// Input ports that feed combinational logic reaching some output
    /// (*sink inputs*).
    pub fn sink_inputs(&self) -> BTreeSet<String> {
        self.output_deps
            .values()
            .flat_map(|deps| deps.iter().cloned())
            .collect()
    }
}

/// Whole-circuit combinational analysis.
#[derive(Debug, Clone, Default)]
pub struct CombAnalysis {
    per_module: HashMap<String, ModuleCombInfo>,
}

impl CombAnalysis {
    /// Runs the analysis over every module in the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::CombCycle`] if a module contains a combinational
    /// loop (possibly through child instances), or propagates resolution
    /// errors from malformed references.
    pub fn run(circuit: &Circuit) -> Result<Self> {
        let mut per_module = HashMap::new();
        for name in circuit.topo_order() {
            let module = circuit.module(&name).ok_or_else(|| IrError::Malformed {
                message: format!("module `{name}` missing during analysis"),
            })?;
            let info = analyze_module(circuit, module, &per_module)?;
            per_module.insert(name, info);
        }
        Ok(CombAnalysis { per_module })
    }

    /// Analysis result for one module.
    pub fn module(&self, name: &str) -> Option<&ModuleCombInfo> {
        self.per_module.get(name)
    }

    /// Convenience: does `module.output` combinationally depend on
    /// `module.input`?
    pub fn depends(&self, module: &str, output: &str, input: &str) -> bool {
        self.per_module
            .get(module)
            .is_some_and(|m| m.depends(output, input))
    }
}

/// A signal vertex in a module's combinational graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Vertex {
    Local(String),
    InstPort(String, String),
}

impl Vertex {
    fn of_ref(r: &Ref) -> Vertex {
        match &r.instance {
            Some(i) => Vertex::InstPort(i.clone(), r.name.clone()),
            None => Vertex::Local(r.name.clone()),
        }
    }

    fn display(&self) -> String {
        match self {
            Vertex::Local(n) => n.clone(),
            Vertex::InstPort(i, p) => format!("{i}.{p}"),
        }
    }
}

fn analyze_module(
    _circuit: &Circuit,
    module: &Module,
    done: &HashMap<String, ModuleCombInfo>,
) -> Result<ModuleCombInfo> {
    // Extern modules declare their comb paths directly.
    if let Some(info) = &module.extern_info {
        let mut output_deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for p in module.ports_in(Direction::Output) {
            output_deps.entry(p.name.clone()).or_default();
        }
        for cp in &info.comb_paths {
            output_deps
                .entry(cp.output.clone())
                .or_default()
                .insert(cp.input.clone());
        }
        return Ok(ModuleCombInfo { output_deps });
    }

    // Build edge list: `to` combinationally depends on `from`.
    let mut edges: HashMap<Vertex, BTreeSet<Vertex>> = HashMap::new();
    let mut add_edge = |to: Vertex, from: Vertex| {
        edges.entry(to).or_default().insert(from);
    };
    let regs: BTreeSet<&str> = module
        .body
        .iter()
        .filter_map(|s| match s {
            Stmt::Reg { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();

    for stmt in &module.body {
        match stmt {
            Stmt::Node { name, expr } => {
                let mut refs = Vec::new();
                expr.collect_refs(&mut refs);
                for r in refs {
                    add_edge(Vertex::Local(name.clone()), Vertex::of_ref(r));
                }
            }
            Stmt::MemRead { name, addr, .. } => {
                // Combinational read: output depends on the address.
                let mut refs = Vec::new();
                addr.collect_refs(&mut refs);
                for r in refs {
                    add_edge(Vertex::Local(name.clone()), Vertex::of_ref(r));
                }
            }
            Stmt::Connect { lhs, rhs } => {
                // A connect to a register sets its *next* value: no comb edge.
                if lhs.is_local() && regs.contains(lhs.name.as_str()) {
                    continue;
                }
                let mut refs = Vec::new();
                rhs.collect_refs(&mut refs);
                for r in refs {
                    add_edge(Vertex::of_ref(lhs), Vertex::of_ref(r));
                }
            }
            Stmt::Inst { name, module: m } => {
                // Child comb paths: inst.out depends on inst.in.
                let child_info = done.get(m).ok_or_else(|| IrError::Malformed {
                    message: format!("child `{m}` analyzed out of order"),
                })?;
                for (out, deps) in &child_info.output_deps {
                    for dep in deps {
                        add_edge(
                            Vertex::InstPort(name.clone(), out.clone()),
                            Vertex::InstPort(name.clone(), dep.clone()),
                        );
                    }
                }
            }
            Stmt::Wire { .. } | Stmt::Reg { .. } | Stmt::Mem { .. } | Stmt::MemWrite { .. } => {}
        }
    }

    // Detect combinational cycles (registers already excluded above).
    detect_cycle(&edges, &module.name)?;

    // For every output port, find reachable input ports.
    let inputs: BTreeSet<&str> = module
        .ports_in(Direction::Input)
        .map(|p| p.name.as_str())
        .collect();
    let mut output_deps = BTreeMap::new();
    for out in module.ports_in(Direction::Output) {
        let mut reach: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![Vertex::Local(out.name.clone())];
        let mut seen: BTreeSet<Vertex> = BTreeSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v.clone()) {
                continue;
            }
            if let Vertex::Local(n) = &v {
                if inputs.contains(n.as_str()) {
                    reach.insert(n.clone());
                }
            }
            if let Some(preds) = edges.get(&v) {
                stack.extend(preds.iter().cloned());
            }
        }
        output_deps.insert(out.name.clone(), reach);
    }
    Ok(ModuleCombInfo { output_deps })
}

fn detect_cycle(edges: &HashMap<Vertex, BTreeSet<Vertex>>, module: &str) -> Result<()> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Visiting,
        Done,
    }
    let mut marks: HashMap<&Vertex, Mark> = HashMap::new();
    // Iterative DFS with an explicit stack to avoid recursion limits on
    // large generated modules.
    for start in edges.keys() {
        if marks.contains_key(start) {
            continue;
        }
        let mut stack: Vec<(&Vertex, usize)> = vec![(start, 0)];
        let mut path: Vec<&Vertex> = Vec::new();
        while let Some((v, child_idx)) = stack.pop() {
            if child_idx == 0 {
                match marks.get(v) {
                    Some(Mark::Done) => continue,
                    Some(Mark::Visiting) => continue,
                    None => {
                        marks.insert(v, Mark::Visiting);
                        path.push(v);
                    }
                }
            }
            let children: Vec<&Vertex> =
                edges.get(v).map(|s| s.iter().collect()).unwrap_or_default();
            if child_idx < children.len() {
                stack.push((v, child_idx + 1));
                let c = children[child_idx];
                match marks.get(c) {
                    Some(Mark::Visiting) => {
                        let mut cycle: Vec<String> = path
                            .iter()
                            .map(|v| format!("{module}.{}", v.display()))
                            .collect();
                        cycle.push(format!("{module}.{}", c.display()));
                        return Err(IrError::CombCycle { cycle });
                    }
                    Some(Mark::Done) => {}
                    None => stack.push((c, 0)),
                }
            } else {
                marks.insert(v, Mark::Done);
                path.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{Bits, Width};

    /// Builds the paper's Fig. 2 module: an adder between input and output
    /// (comb path) plus a register-driven output (source path).
    fn fig2_module(name: &str) -> Module {
        let mut m = Module::new(name);
        m.ports.push(Port::input("sink_in", 8));
        m.ports.push(Port::output("sink_out", 8));
        m.ports.push(Port::output("source_out", 8));
        m.body.push(Stmt::Reg {
            name: "x".into(),
            width: Width::new(8),
            init: Bits::from_u64(1, 8),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("sink_out"),
            rhs: Expr::Binary(
                BinOp::Add,
                Box::new(Expr::reference("sink_in")),
                Box::new(Expr::reference("x")),
            ),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("source_out"),
            rhs: Expr::reference("x"),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("x"),
            rhs: Expr::reference("sink_in"),
        });
        m
    }

    #[test]
    fn classifies_source_and_sink_ports() {
        let c = Circuit::from_modules("T", vec![fig2_module("T")], "T");
        let a = CombAnalysis::run(&c).unwrap();
        let info = a.module("T").unwrap();
        assert!(info.depends("sink_out", "sink_in"));
        assert!(!info.depends("source_out", "sink_in"));
        assert_eq!(info.sink_outputs().collect::<Vec<_>>(), vec!["sink_out"]);
        assert_eq!(
            info.source_outputs().collect::<Vec<_>>(),
            vec!["source_out"]
        );
        assert_eq!(
            info.sink_inputs().into_iter().collect::<Vec<_>>(),
            vec!["sink_in".to_string()]
        );
    }

    #[test]
    fn register_breaks_comb_path() {
        // out <- reg <- in : no combinational dependency.
        let mut m = Module::new("R");
        m.ports.push(Port::input("a", 4));
        m.ports.push(Port::output("y", 4));
        m.body.push(Stmt::Reg {
            name: "r".into(),
            width: Width::new(4),
            init: Bits::zero(4),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("r"),
            rhs: Expr::reference("a"),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("y"),
            rhs: Expr::reference("r"),
        });
        let c = Circuit::from_modules("R", vec![m], "R");
        let a = CombAnalysis::run(&c).unwrap();
        assert!(!a.depends("R", "y", "a"));
    }

    #[test]
    fn paths_compose_through_instances() {
        // Parent wires its input through a child's comb path to its output.
        let child = fig2_module("Child");
        let mut parent = Module::new("Parent");
        parent.ports.push(Port::input("pin", 8));
        parent.ports.push(Port::output("pout", 8));
        parent.ports.push(Port::output("psrc", 8));
        parent.body.push(Stmt::Inst {
            name: "u".into(),
            module: "Child".into(),
        });
        parent.body.push(Stmt::Connect {
            lhs: Ref::instance_port("u", "sink_in"),
            rhs: Expr::reference("pin"),
        });
        parent.body.push(Stmt::Connect {
            lhs: Ref::local("pout"),
            rhs: Expr::Ref(Ref::instance_port("u", "sink_out")),
        });
        parent.body.push(Stmt::Connect {
            lhs: Ref::local("psrc"),
            rhs: Expr::Ref(Ref::instance_port("u", "source_out")),
        });
        let c = Circuit::from_modules("Parent", vec![parent, child], "Parent");
        let a = CombAnalysis::run(&c).unwrap();
        assert!(a.depends("Parent", "pout", "pin"));
        assert!(!a.depends("Parent", "psrc", "pin"));
    }

    #[test]
    fn mem_read_is_combinational() {
        let mut m = Module::new("M");
        m.ports.push(Port::input("addr", 4));
        m.ports.push(Port::output("data", 8));
        m.body.push(Stmt::Mem {
            name: "mem".into(),
            width: Width::new(8),
            depth: 16,
        });
        m.body.push(Stmt::MemRead {
            name: "rd".into(),
            mem: "mem".into(),
            addr: Expr::reference("addr"),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("data"),
            rhs: Expr::reference("rd"),
        });
        let c = Circuit::from_modules("M", vec![m], "M");
        let a = CombAnalysis::run(&c).unwrap();
        assert!(a.depends("M", "data", "addr"));
    }

    #[test]
    fn detects_comb_cycle() {
        let mut m = Module::new("Loop");
        m.ports.push(Port::output("y", 1));
        m.body.push(Stmt::Wire {
            name: "w".into(),
            width: Width::new(1),
        });
        m.body.push(Stmt::Node {
            name: "n".into(),
            expr: Expr::Unary(UnOp::Not, Box::new(Expr::reference("w"))),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("w"),
            rhs: Expr::reference("n"),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("y"),
            rhs: Expr::reference("w"),
        });
        let c = Circuit::from_modules("Loop", vec![m], "Loop");
        assert!(matches!(
            CombAnalysis::run(&c),
            Err(IrError::CombCycle { .. })
        ));
    }

    #[test]
    fn extern_comb_paths_respected() {
        let mut m = Module::new("E");
        m.ports.push(Port::input("req_ready", 1));
        m.ports.push(Port::output("req_valid", 1));
        m.ports.push(Port::output("state", 4));
        m.extern_info = Some(ExternInfo {
            behavior: "model".into(),
            comb_paths: vec![CombPath {
                input: "req_ready".into(),
                output: "req_valid".into(),
            }],
            resources: ResourceHints::default(),
        });
        let c = Circuit::from_modules("E", vec![m], "E");
        let a = CombAnalysis::run(&c).unwrap();
        assert!(a.depends("E", "req_valid", "req_ready"));
        assert!(!a.depends("E", "state", "req_ready"));
    }
}
