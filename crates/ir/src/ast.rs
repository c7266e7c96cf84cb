//! The FireAxe circuit IR.
//!
//! This IR is modeled after FIRRTL's structural subset: a [`Circuit`] is a
//! set of [`Module`]s, one of which is the *top*. Modules declare typed
//! ports, local wires, nodes (named expressions), registers, memories,
//! child instances, and connections. The FireRipper compiler
//! (`fireaxe-ripper`) performs all of its analyses and hierarchy surgery on
//! this representation, and `fireaxe_ir::interp` executes it cycle by cycle.
//!
//! Coarse-grained modules (e.g. a BOOM core's backend, whose full RTL we do
//! not model) are *extern behavioral modules*: they declare ports,
//! combinational paths, and resource hints, and name a behavioral model
//! that the simulator binds at run time. Everything the compiler needs —
//! port directions, widths, and input→output combinational reachability —
//! is present for both kinds of modules, so partitioning treats them
//! uniformly.

use crate::bits::{Bits, Width};
use std::collections::HashMap;
use std::fmt;

/// Direction of a module port, from the perspective of the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Input => Direction::Output,
            Direction::Output => Direction::Input,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Input => write!(f, "input"),
            Direction::Output => write!(f, "output"),
        }
    }
}

crate::wire_struct! {
    /// A typed, directed module port.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Port {
        /// Port name, unique within the module.
        pub name: String,
        /// Direction as seen from the module.
        pub direction: Direction,
        /// Signal width.
        pub width: Width,
    }
}

impl Port {
    /// Creates a port.
    pub fn new(name: impl Into<String>, direction: Direction, width: impl Into<Width>) -> Self {
        Port {
            name: name.into(),
            direction,
            width: width.into(),
        }
    }

    /// Convenience constructor for an input port.
    pub fn input(name: impl Into<String>, width: impl Into<Width>) -> Self {
        Port::new(name, Direction::Input, width)
    }

    /// Convenience constructor for an output port.
    pub fn output(name: impl Into<String>, width: impl Into<Width>) -> Self {
        Port::new(name, Direction::Output, width)
    }
}

crate::wire_struct! {
    /// A reference to a named signal: either a local entity (`name`) or a port
    /// of a child instance (`inst.name`).
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct Ref {
        /// Child instance name, or `None` for a local signal.
        pub instance: Option<String>,
        /// Signal (port/wire/node/register) name.
        pub name: String,
    }
}

impl Ref {
    /// Reference to a local signal.
    pub fn local(name: impl Into<String>) -> Self {
        Ref {
            instance: None,
            name: name.into(),
        }
    }

    /// Reference to a port on a child instance.
    pub fn instance_port(inst: impl Into<String>, port: impl Into<String>) -> Self {
        Ref {
            instance: Some(inst.into()),
            name: port.into(),
        }
    }

    /// Returns `true` for a local (non-instance) reference.
    pub fn is_local(&self) -> bool {
        self.instance.is_none()
    }
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.instance {
            Some(i) => write!(f, "{i}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Binary primitive operations (FIRRTL primop subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (widths ≤ 64).
    Div,
    /// Unsigned remainder (widths ≤ 64).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Unsigned equality, 1-bit result.
    Eq,
    /// Unsigned inequality, 1-bit result.
    Neq,
    /// Unsigned less-than, 1-bit result.
    Lt,
    /// Unsigned less-or-equal, 1-bit result.
    Leq,
    /// Unsigned greater-than, 1-bit result.
    Gt,
    /// Unsigned greater-or-equal, 1-bit result.
    Geq,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Eq => "eq",
            BinOp::Neq => "neq",
            BinOp::Lt => "lt",
            BinOp::Leq => "leq",
            BinOp::Gt => "gt",
            BinOp::Geq => "geq",
        };
        write!(f, "{s}")
    }
}

/// Unary primitive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise NOT at the operand width.
    Not,
    /// OR-reduce to 1 bit.
    OrReduce,
    /// AND-reduce to 1 bit.
    AndReduce,
    /// XOR-reduce (parity) to 1 bit.
    XorReduce,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Not => "not",
            UnOp::OrReduce => "orr",
            UnOp::AndReduce => "andr",
            UnOp::XorReduce => "xorr",
        };
        write!(f, "{s}")
    }
}

/// A combinational expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Lit(Bits),
    /// A reference to a signal.
    Ref(Ref),
    /// A unary primop.
    Unary(UnOp, Box<Expr>),
    /// A binary primop.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// 2-way multiplexer: `Mux(sel, on_true, on_false)`.
    Mux(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Concatenation; element 0 holds the most-significant bits.
    Cat(Vec<Expr>),
    /// Bit extraction `expr[hi:lo]`, inclusive.
    Extract(Box<Expr>, u32, u32),
    /// Zero-extend or truncate to a width.
    Resize(Box<Expr>, Width),
    /// Logical shift left by a constant, width preserved.
    Shl(Box<Expr>, u32),
    /// Logical shift right by a constant, width preserved.
    Shr(Box<Expr>, u32),
}

impl Expr {
    /// Literal helper.
    pub fn lit(value: u64, width: impl Into<Width>) -> Expr {
        Expr::Lit(Bits::from_u64(value, width))
    }

    /// Local-reference helper.
    pub fn reference(name: impl Into<String>) -> Expr {
        Expr::Ref(Ref::local(name))
    }

    /// Collects every [`Ref`] mentioned in the expression into `out`.
    pub fn collect_refs<'a>(&'a self, out: &mut Vec<&'a Ref>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Ref(r) => out.push(r),
            Expr::Unary(_, a) => a.collect_refs(out),
            Expr::Binary(_, a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            Expr::Mux(c, a, b) => {
                c.collect_refs(out);
                a.collect_refs(out);
                b.collect_refs(out);
            }
            Expr::Cat(parts) => {
                for p in parts {
                    p.collect_refs(out);
                }
            }
            Expr::Extract(a, _, _) | Expr::Resize(a, _) | Expr::Shl(a, _) | Expr::Shr(a, _) => {
                a.collect_refs(out)
            }
        }
    }

    /// Rewrites every [`Ref`] in place with `f`.
    pub fn rewrite_refs(&mut self, f: &mut impl FnMut(&mut Ref)) {
        match self {
            Expr::Lit(_) => {}
            Expr::Ref(r) => f(r),
            Expr::Unary(_, a) => a.rewrite_refs(f),
            Expr::Binary(_, a, b) => {
                a.rewrite_refs(f);
                b.rewrite_refs(f);
            }
            Expr::Mux(c, a, b) => {
                c.rewrite_refs(f);
                a.rewrite_refs(f);
                b.rewrite_refs(f);
            }
            Expr::Cat(parts) => {
                for p in parts {
                    p.rewrite_refs(f);
                }
            }
            Expr::Extract(a, _, _) | Expr::Resize(a, _) | Expr::Shl(a, _) | Expr::Shr(a, _) => {
                a.rewrite_refs(f)
            }
        }
    }
}

/// A statement in a module body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An undriven named signal; must be the target of exactly one
    /// [`Stmt::Connect`].
    Wire {
        /// Wire name.
        name: String,
        /// Wire width.
        width: Width,
    },
    /// A named combinational expression (single static assignment).
    Node {
        /// Node name.
        name: String,
        /// Defining expression.
        expr: Expr,
    },
    /// A positive-edge register on the module's implicit clock. Its next
    /// value is set by connecting to its name; if never connected it holds
    /// its value.
    Reg {
        /// Register name.
        name: String,
        /// Register width.
        width: Width,
        /// Reset value applied at time zero.
        init: Bits,
    },
    /// A memory with combinational read and synchronous write.
    Mem {
        /// Memory name.
        name: String,
        /// Data width.
        width: Width,
        /// Number of entries.
        depth: u32,
    },
    /// A combinational read port: defines signal `name` as `mem[addr]`.
    MemRead {
        /// Name of the signal defined by this read port.
        name: String,
        /// Memory being read.
        mem: String,
        /// Address expression.
        addr: Expr,
    },
    /// A synchronous write port: at the clock edge, if `en` is true,
    /// `mem[addr] <- data`.
    MemWrite {
        /// Memory being written.
        mem: String,
        /// Address expression.
        addr: Expr,
        /// Data expression.
        data: Expr,
        /// Enable expression (1 bit).
        en: Expr,
    },
    /// A child module instance.
    Inst {
        /// Instance name.
        name: String,
        /// Name of the instantiated module.
        module: String,
    },
    /// Drives `lhs` (a wire, register, output port, or instance input
    /// port) with `rhs`, resized to the sink width.
    Connect {
        /// The driven signal.
        lhs: Ref,
        /// The driving expression.
        rhs: Expr,
    },
}

impl Stmt {
    /// The name this statement defines, if it defines one.
    pub fn defined_name(&self) -> Option<&str> {
        match self {
            Stmt::Wire { name, .. }
            | Stmt::Node { name, .. }
            | Stmt::Reg { name, .. }
            | Stmt::Mem { name, .. }
            | Stmt::MemRead { name, .. }
            | Stmt::Inst { name, .. } => Some(name),
            Stmt::MemWrite { .. } | Stmt::Connect { .. } => None,
        }
    }
}

crate::wire_struct! {
    /// Resource consumption hints attached to extern behavioral modules, in
    /// lieu of estimating from (absent) RTL.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ResourceHints {
        /// Look-up tables.
        pub luts: u64,
        /// Flip-flops.
        pub regs: u64,
        /// Block RAM tiles (36 kb each).
        pub brams: u64,
        /// DSP slices.
        pub dsps: u64,
    }
}

crate::wire_struct! {
    /// Declared combinational path of an extern behavioral module: the output
    /// port combinationally depends on the input port.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct CombPath {
        /// Input port name.
        pub input: String,
        /// Output port name.
        pub output: String,
    }
}

crate::wire_struct! {
    /// Extra metadata for modules whose internals are behavioral rather than
    /// structural RTL.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ExternInfo {
        /// Key under which the simulator looks up the behavioral model.
        pub behavior: String,
        /// Input→output combinational paths (the compiler trusts these the way
        /// Golden Gate trusts FIRRTL analysis results).
        pub comb_paths: Vec<CombPath>,
        /// FPGA resource hints.
        pub resources: ResourceHints,
    }
}

crate::wire_struct! {
    /// A hardware module: ports plus either a structural body or extern
    /// behavioral metadata.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Module {
        /// Module name, unique within the circuit.
        pub name: String,
        /// Port list.
        pub ports: Vec<Port>,
        /// Body statements (empty for extern modules).
        pub body: Vec<Stmt>,
        /// Present iff this is an extern behavioral module.
        pub extern_info: Option<ExternInfo>,
    }
}

impl Module {
    /// Creates an empty structural module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ports: Vec::new(),
            body: Vec::new(),
            extern_info: None,
        }
    }

    /// Returns `true` if this module is an extern behavioral module.
    pub fn is_extern(&self) -> bool {
        self.extern_info.is_some()
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Iterates ports of one direction.
    pub fn ports_in(&self, direction: Direction) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(move |p| p.direction == direction)
    }

    /// Total boundary width (sum of all port widths), in bits.
    pub fn boundary_width(&self) -> u64 {
        self.ports.iter().map(|p| u64::from(p.width.get())).sum()
    }

    /// All child instances as `(instance_name, module_name)` pairs.
    pub fn instances(&self) -> impl Iterator<Item = (&str, &str)> {
        self.body.iter().filter_map(|s| match s {
            Stmt::Inst { name, module } => Some((name.as_str(), module.as_str())),
            _ => None,
        })
    }

    /// Finds the statement defining `name`.
    pub fn find_def(&self, name: &str) -> Option<&Stmt> {
        self.body.iter().find(|s| s.defined_name() == Some(name))
    }

    /// Width of a locally declared signal or port, if known.
    pub fn signal_width(&self, name: &str) -> Option<Width> {
        if let Some(p) = self.port(name) {
            return Some(p.width);
        }
        match self.find_def(name)? {
            Stmt::Wire { width, .. } | Stmt::Reg { width, .. } => Some(*width),
            Stmt::Mem { width, .. } => Some(*width),
            Stmt::MemRead { mem, .. } => match self.find_def(mem)? {
                Stmt::Mem { width, .. } => Some(*width),
                _ => None,
            },
            Stmt::Node { .. } => None, // requires expression width inference
            _ => None,
        }
    }
}

crate::wire_struct! {
    /// A complete design: a named set of modules with a designated top.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Circuit {
        /// Circuit name (conventionally equals the top module name).
        pub name: String,
        /// All modules; order is not significant.
        pub modules: Vec<Module>,
        /// Name of the top module.
        pub top: String,
    }
}

impl Circuit {
    /// Creates a circuit with a single empty top module.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Circuit {
            top: name.clone(),
            modules: vec![Module::new(name.clone())],
            name,
        }
    }

    /// Creates a circuit from parts.
    pub fn from_modules(
        name: impl Into<String>,
        modules: Vec<Module>,
        top: impl Into<String>,
    ) -> Self {
        Circuit {
            name: name.into(),
            modules,
            top: top.into(),
        }
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Looks up a module mutably by name.
    pub fn module_mut(&mut self, name: &str) -> Option<&mut Module> {
        self.modules.iter_mut().find(|m| m.name == name)
    }

    /// The top module.
    ///
    /// # Panics
    ///
    /// Panics if the declared top module is missing (an ill-formed circuit).
    pub fn top_module(&self) -> &Module {
        self.module(&self.top)
            .unwrap_or_else(|| panic!("top module `{}` not found", self.top))
    }

    /// Adds a module, replacing any module with the same name.
    pub fn add_module(&mut self, module: Module) {
        if let Some(existing) = self.module_mut(&module.name) {
            *existing = module;
        } else {
            self.modules.push(module);
        }
    }

    /// Module names in dependency (topological) order: leaves first, top
    /// last. Modules not reachable from the top are appended at the end.
    ///
    /// This is the "topologically sorts the modules according to their
    /// position in the module hierarchy" step of FireRipper (§III-A1).
    pub fn topo_order(&self) -> Vec<String> {
        let mut order = Vec::new();
        let mut state: HashMap<&str, u8> = HashMap::new(); // 0 = visiting, 1 = done
        fn visit<'a>(
            c: &'a Circuit,
            name: &'a str,
            state: &mut HashMap<&'a str, u8>,
            order: &mut Vec<String>,
        ) {
            if state.contains_key(name) {
                // Done, or currently visiting (recursion; checked elsewhere).
                return;
            }
            state.insert(name, 0);
            if let Some(m) = c.module(name) {
                for (_, child) in m.instances() {
                    visit(c, child, state, order);
                }
            }
            state.insert(name, 1);
            order.push(name.to_string());
        }
        visit(self, &self.top, &mut state, &mut order);
        for m in &self.modules {
            if !state.contains_key(m.name.as_str()) {
                visit(self, &m.name, &mut state, &mut order);
            }
        }
        order
    }

    /// Counts instances of each module reachable from the top (for FAME-5
    /// duplicate detection and resource estimation).
    pub fn instance_counts(&self) -> HashMap<String, u64> {
        let mut counts = HashMap::new();
        fn walk(c: &Circuit, name: &str, mult: u64, counts: &mut HashMap<String, u64>) {
            *counts.entry(name.to_string()).or_insert(0) += mult;
            if let Some(m) = c.module(name) {
                let mut per_child: HashMap<&str, u64> = HashMap::new();
                for (_, child) in m.instances() {
                    *per_child.entry(child).or_insert(0) += 1;
                }
                for (child, n) in per_child {
                    walk(c, child, mult * n, counts);
                }
            }
        }
        walk(self, &self.top, 1, &mut counts);
        counts
    }

    /// Removes modules not reachable from the top. Returns removed names.
    pub fn prune_unreachable(&mut self) -> Vec<String> {
        let reachable: std::collections::HashSet<String> =
            self.instance_counts().keys().cloned().collect();
        let (keep, drop): (Vec<Module>, Vec<Module>) = std::mem::take(&mut self.modules)
            .into_iter()
            .partition(|m| reachable.contains(&m.name));
        self.modules = keep;
        drop.into_iter().map(|m| m.name).collect()
    }
}

// Byte layouts of the enums: a circuit tape (see [`crate::tape`]) is a
// `Circuit` in these and the structs' declared layouts, and a partition
// payload carries its thread circuits in them.

crate::wire_enum!(Direction, "port direction" { 0 => Input, 1 => Output });

crate::wire_enum!(UnOp, "unary op" {
    0 => Not, 1 => OrReduce, 2 => AndReduce, 3 => XorReduce,
});

crate::wire_enum!(BinOp, "binary op" {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Div, 4 => Rem, 5 => And, 6 => Or,
    7 => Xor, 8 => Eq, 9 => Neq, 10 => Lt, 11 => Leq, 12 => Gt, 13 => Geq,
});

crate::wire_enum!(Expr, "expression tag" {
    0 => Lit(v: Bits),
    1 => Ref(r: Ref),
    2 => Unary(op: UnOp, a: Box<Expr>),
    3 => Binary(op: BinOp, a: Box<Expr>, b: Box<Expr>),
    4 => Mux(sel: Box<Expr>, t: Box<Expr>, f: Box<Expr>),
    5 => Cat(parts: Vec<Expr>),
    6 => Extract(a: Box<Expr>, hi: u32, lo: u32),
    7 => Resize(a: Box<Expr>, w: Width),
    8 => Shl(a: Box<Expr>, n: u32),
    9 => Shr(a: Box<Expr>, n: u32),
});

crate::wire_enum!(Stmt, "statement tag" {
    0 => Wire { name: String, width: Width },
    1 => Node { name: String, expr: Expr },
    2 => Reg { name: String, width: Width, init: Bits },
    3 => Mem { name: String, width: Width, depth: u32 },
    4 => MemRead { name: String, mem: String, addr: Expr },
    5 => MemWrite { mem: String, addr: Expr, data: Expr, en: Expr },
    6 => Inst { name: String, module: String },
    7 => Connect { lhs: Ref, rhs: Expr },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str) -> Module {
        let mut m = Module::new(name);
        m.ports.push(Port::input("a", 8));
        m.ports.push(Port::output("b", 8));
        m.body.push(Stmt::Connect {
            lhs: Ref::local("b"),
            rhs: Expr::reference("a"),
        });
        m
    }

    fn two_level() -> Circuit {
        let mut top = Module::new("Top");
        top.ports.push(Port::input("in", 8));
        top.ports.push(Port::output("out", 8));
        top.body.push(Stmt::Inst {
            name: "u0".into(),
            module: "Leaf".into(),
        });
        top.body.push(Stmt::Inst {
            name: "u1".into(),
            module: "Leaf".into(),
        });
        top.body.push(Stmt::Connect {
            lhs: Ref::instance_port("u0", "a"),
            rhs: Expr::reference("in"),
        });
        top.body.push(Stmt::Connect {
            lhs: Ref::instance_port("u1", "a"),
            rhs: Expr::Ref(Ref::instance_port("u0", "b")),
        });
        top.body.push(Stmt::Connect {
            lhs: Ref::local("out"),
            rhs: Expr::Ref(Ref::instance_port("u1", "b")),
        });
        Circuit::from_modules("Top", vec![top, leaf("Leaf")], "Top")
    }

    #[test]
    fn topo_order_leaves_first() {
        let c = two_level();
        let order = c.topo_order();
        assert_eq!(order, vec!["Leaf".to_string(), "Top".to_string()]);
    }

    #[test]
    fn instance_counts_multiplies() {
        let c = two_level();
        let counts = c.instance_counts();
        assert_eq!(counts["Top"], 1);
        assert_eq!(counts["Leaf"], 2);
    }

    #[test]
    fn prune_removes_unreachable() {
        let mut c = two_level();
        c.add_module(Module::new("Orphan"));
        let removed = c.prune_unreachable();
        assert_eq!(removed, vec!["Orphan".to_string()]);
        assert!(c.module("Leaf").is_some());
    }

    #[test]
    fn module_lookups() {
        let c = two_level();
        let top = c.top_module();
        assert_eq!(top.instances().count(), 2);
        assert_eq!(top.boundary_width(), 16);
        assert_eq!(top.port("in").unwrap().direction, Direction::Input);
        assert_eq!(top.signal_width("out"), Some(Width::new(8)));
    }

    #[test]
    fn expr_ref_collection_and_rewrite() {
        let mut e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::reference("x")),
            Box::new(Expr::Mux(
                Box::new(Expr::reference("sel")),
                Box::new(Expr::Ref(Ref::instance_port("u", "p"))),
                Box::new(Expr::lit(0, 4)),
            )),
        );
        let mut refs = Vec::new();
        e.collect_refs(&mut refs);
        assert_eq!(refs.len(), 3);
        e.rewrite_refs(&mut |r| r.name = format!("{}_renamed", r.name));
        let mut refs = Vec::new();
        e.collect_refs(&mut refs);
        assert!(refs.iter().all(|r| r.name.ends_with("_renamed")));
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Input.flip(), Direction::Output);
        assert_eq!(Direction::Output.flip(), Direction::Input);
    }

    #[test]
    fn add_module_replaces_same_name() {
        let mut c = two_level();
        let mut replacement = Module::new("Leaf");
        replacement.ports.push(Port::input("a", 16));
        c.add_module(replacement);
        assert_eq!(c.modules.len(), 2);
        assert_eq!(c.module("Leaf").unwrap().port("a").unwrap().width.get(), 16);
    }
}
