//! Width inference and structural validation.
//!
//! [`infer_width`] computes the width of any [`Expr`] in a module context;
//! [`validate`] checks a whole [`Circuit`] for the structural invariants
//! the rest of FireAxe relies on (unique names, resolvable references,
//! single drivers, acyclic hierarchy) and for the size limits that keep a
//! circuit arriving off a socket from allocating without bound
//! ([`MAX_WIDTH`], [`MAX_MEM_BYTES`]).

use crate::ast::*;
use crate::bits::Width;
use crate::error::{IrError, Result};
use std::collections::{HashMap, HashSet};

/// Widest signal, in bits, a circuit may declare or infer anywhere in an
/// expression — the bound the state and wire codecs already hold every
/// value to.
pub const MAX_WIDTH: u32 = 1 << 20;

/// Most word storage, in bytes, one memory may declare: its checkpoint
/// must still fit a wire frame.
pub const MAX_MEM_BYTES: u64 = 64 << 20;

/// Computes the width of `expr` evaluated inside `module` (of `circuit`).
///
/// # Errors
///
/// Returns [`IrError::UnresolvedRef`] when the expression mentions a signal
/// that is not declared, [`IrError::WidthLimit`] when it or any
/// subexpression is wider than [`MAX_WIDTH`], and [`IrError::Malformed`]
/// for other width inconsistencies.
pub fn infer_width(circuit: &Circuit, module: &Module, expr: &Expr) -> Result<Width> {
    width_of(circuit, module, expr, "expression")
}

/// [`infer_width`], naming `signal` — the statement `expr` drives or
/// defines — in a [`IrError::WidthLimit`].
fn width_of(circuit: &Circuit, module: &Module, expr: &Expr, signal: &str) -> Result<Width> {
    let w = |e: &Expr| width_of(circuit, module, e, signal).map(|w| u64::from(w.get()));
    let bits: u64 = match expr {
        Expr::Lit(b) => b.width().get().into(),
        Expr::Ref(r) => ref_width(circuit, module, r)?.get().into(),
        Expr::Unary(op, a) => match op {
            UnOp::Not => w(a)?,
            UnOp::OrReduce | UnOp::AndReduce | UnOp::XorReduce => {
                w(a)?;
                1
            }
        },
        Expr::Binary(op, a, b) => {
            let (wa, wb) = (w(a)?, w(b)?);
            match op {
                BinOp::Add
                | BinOp::Sub
                | BinOp::Mul
                | BinOp::Div
                | BinOp::Rem
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor => wa.max(wb),
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Leq | BinOp::Gt | BinOp::Geq => 1,
            }
        }
        Expr::Mux(sel, a, b) => {
            w(sel)?;
            w(a)?.max(w(b)?)
        }
        Expr::Cat(parts) => parts.iter().map(w).sum::<Result<u64>>()?,
        Expr::Extract(a, hi, lo) => {
            let wa = w(a)?;
            if hi < lo || u64::from(*hi) >= wa {
                return Err(IrError::Malformed {
                    message: format!(
                        "extract [{hi}:{lo}] out of range for width {wa} in module `{}`",
                        module.name
                    ),
                });
            }
            u64::from(hi - lo + 1)
        }
        Expr::Resize(a, to) => {
            w(a)?;
            to.get().into()
        }
        Expr::Shl(a, _) | Expr::Shr(a, _) => w(a)?,
    };
    within_width(module, signal, bits)
}

/// `bits` as a [`Width`], or [`IrError::WidthLimit`] past [`MAX_WIDTH`].
fn within_width(module: &Module, signal: &str, bits: u64) -> Result<Width> {
    if bits > u64::from(MAX_WIDTH) {
        return Err(IrError::WidthLimit {
            module: module.name.clone(),
            signal: signal.to_string(),
            width: bits,
        });
    }
    Ok(Width::new(bits as u32))
}

/// Width of the signal a [`Ref`] denotes.
///
/// # Errors
///
/// Returns [`IrError::UnresolvedRef`] if the reference cannot be resolved.
pub fn ref_width(circuit: &Circuit, module: &Module, r: &Ref) -> Result<Width> {
    let unresolved = || IrError::UnresolvedRef {
        module: module.name.clone(),
        reference: r.to_string(),
    };
    match &r.instance {
        Some(inst) => {
            let child_mod = module
                .instances()
                .find(|(n, _)| *n == inst)
                .map(|(_, m)| m)
                .ok_or_else(unresolved)?;
            let child = circuit.module(child_mod).ok_or_else(unresolved)?;
            Ok(child.port(&r.name).ok_or_else(unresolved)?.width)
        }
        None => {
            if let Some(p) = module.port(&r.name) {
                return Ok(p.width);
            }
            match module.find_def(&r.name).ok_or_else(unresolved)? {
                Stmt::Wire { width, .. } | Stmt::Reg { width, .. } | Stmt::Mem { width, .. } => {
                    Ok(*width)
                }
                Stmt::MemRead { mem, .. } => match module.find_def(mem) {
                    Some(Stmt::Mem { width, .. }) => Ok(*width),
                    _ => Err(unresolved()),
                },
                Stmt::Node { expr, name } => width_of(circuit, module, expr, name),
                _ => Err(unresolved()),
            }
        }
    }
}

/// Validates a whole circuit.
///
/// Checks, per module: name uniqueness, reference resolution, width
/// computability, drivability and single-driver rules; and globally:
/// existence of the top module and absence of recursive instantiation.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(circuit: &Circuit) -> Result<()> {
    if circuit.module(&circuit.top).is_none() {
        return Err(IrError::Malformed {
            message: format!("top module `{}` not found", circuit.top),
        });
    }
    check_no_recursion(circuit)?;
    for module in &circuit.modules {
        validate_module(circuit, module)?;
    }
    Ok(())
}

fn check_no_recursion(circuit: &Circuit) -> Result<()> {
    // A module hierarchy is a DAG iff DFS from each module finds no back
    // edge to an in-progress module.
    fn visit<'a>(
        c: &'a Circuit,
        name: &'a str,
        visiting: &mut HashSet<&'a str>,
        done: &mut HashSet<&'a str>,
    ) -> Result<()> {
        if done.contains(name) {
            return Ok(());
        }
        if !visiting.insert(name) {
            return Err(IrError::RecursiveHierarchy {
                module: name.to_string(),
            });
        }
        if let Some(m) = c.module(name) {
            for (_, child) in m.instances() {
                visit(c, child, visiting, done)?;
            }
        }
        visiting.remove(name);
        done.insert(name);
        Ok(())
    }
    let mut visiting = HashSet::new();
    let mut done = HashSet::new();
    for m in &circuit.modules {
        visit(circuit, &m.name, &mut visiting, &mut done)?;
    }
    Ok(())
}

/// Declared widths and memory sizes within [`MAX_WIDTH`] and
/// [`MAX_MEM_BYTES`], checked before anything infers a width from them.
fn check_declared_sizes(module: &Module) -> Result<()> {
    for p in &module.ports {
        within_width(module, &p.name, p.width.get().into())?;
    }
    for s in &module.body {
        match s {
            Stmt::Wire { name, width } => {
                within_width(module, name, width.get().into())?;
            }
            Stmt::Reg { name, width, init } => {
                within_width(module, name, width.get().into())?;
                within_width(module, name, init.width().get().into())?;
            }
            Stmt::Mem { name, width, depth } => {
                within_width(module, name, width.get().into())?;
                let bytes = u64::from(*depth) * width.words() as u64 * 8;
                if bytes > MAX_MEM_BYTES {
                    return Err(IrError::MemoryLimit {
                        module: module.name.clone(),
                        memory: name.clone(),
                        bytes,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn validate_module(circuit: &Circuit, module: &Module) -> Result<()> {
    check_declared_sizes(module)?;
    if module.is_extern() {
        if !module.body.is_empty() {
            return Err(IrError::Malformed {
                message: format!("extern module `{}` must have an empty body", module.name),
            });
        }
        // Extern comb paths must name real ports with correct directions.
        if let Some(info) = &module.extern_info {
            for cp in &info.comb_paths {
                let ok_in = module.port(&cp.input).map(|p| p.direction) == Some(Direction::Input);
                let ok_out =
                    module.port(&cp.output).map(|p| p.direction) == Some(Direction::Output);
                if !ok_in || !ok_out {
                    return Err(IrError::Malformed {
                        message: format!(
                            "extern module `{}` comb path {} -> {} does not match its ports",
                            module.name, cp.input, cp.output
                        ),
                    });
                }
            }
        }
        return Ok(());
    }

    // Unique names among ports and defining statements.
    let mut names: HashSet<&str> = HashSet::new();
    for p in &module.ports {
        if !names.insert(&p.name) {
            return Err(IrError::DuplicateName {
                module: module.name.clone(),
                name: p.name.clone(),
            });
        }
    }
    for s in &module.body {
        if let Some(n) = s.defined_name() {
            if !names.insert(n) {
                return Err(IrError::DuplicateName {
                    module: module.name.clone(),
                    name: n.to_string(),
                });
            }
        }
    }

    // Instances must refer to existing modules.
    for (inst, child) in module.instances() {
        if circuit.module(child).is_none() {
            return Err(IrError::UnknownModule {
                module: module.name.clone(),
                instance: inst.to_string(),
                missing: child.to_string(),
            });
        }
    }

    // Every expression must width-check (which also resolves references
    // and holds every subexpression to the width limit).
    for s in &module.body {
        match s {
            Stmt::Node { expr, name } => {
                width_of(circuit, module, expr, name)?;
            }
            Stmt::MemRead { addr, mem, name } => {
                width_of(circuit, module, addr, name)?;
                if !matches!(module.find_def(mem), Some(Stmt::Mem { .. })) {
                    return Err(IrError::UnresolvedRef {
                        module: module.name.clone(),
                        reference: mem.clone(),
                    });
                }
            }
            Stmt::MemWrite {
                addr,
                data,
                en,
                mem,
            } => {
                for e in [addr, data, en] {
                    width_of(circuit, module, e, mem)?;
                }
                if !matches!(module.find_def(mem), Some(Stmt::Mem { .. })) {
                    return Err(IrError::UnresolvedRef {
                        module: module.name.clone(),
                        reference: mem.clone(),
                    });
                }
            }
            Stmt::Connect { lhs, rhs } => {
                width_of(circuit, module, rhs, &lhs.to_string())?;
                ref_width(circuit, module, lhs)?;
                check_drivable(circuit, module, lhs)?;
            }
            _ => {}
        }
    }

    // Drive counts: wires and output ports need exactly one driver;
    // registers at most one; instance inputs exactly one.
    let mut drives: HashMap<String, usize> = HashMap::new();
    for s in &module.body {
        if let Stmt::Connect { lhs, .. } = s {
            *drives.entry(lhs.to_string()).or_insert(0) += 1;
        }
    }
    let mut expect_one: Vec<String> = Vec::new();
    for p in module.ports_in(Direction::Output) {
        expect_one.push(p.name.clone());
    }
    for s in &module.body {
        match s {
            Stmt::Wire { name, .. } => expect_one.push(name.clone()),
            Stmt::Inst { name, module: m } => {
                let child = circuit.module(m).expect("checked above");
                for p in child.ports_in(Direction::Input) {
                    expect_one.push(format!("{name}.{}", p.name));
                }
            }
            _ => {}
        }
    }
    for sig in expect_one {
        let n = drives.get(&sig).copied().unwrap_or(0);
        if n != 1 {
            return Err(IrError::BadDriveCount {
                module: module.name.clone(),
                signal: sig,
                drivers: n,
            });
        }
    }
    for s in &module.body {
        if let Stmt::Reg { name, .. } = s {
            let n = drives.get(name.as_str()).copied().unwrap_or(0);
            if n > 1 {
                return Err(IrError::BadDriveCount {
                    module: module.name.clone(),
                    signal: name.clone(),
                    drivers: n,
                });
            }
        }
    }
    Ok(())
}

fn check_drivable(circuit: &Circuit, module: &Module, lhs: &Ref) -> Result<()> {
    let not_drivable = || IrError::NotDrivable {
        module: module.name.clone(),
        target: lhs.to_string(),
    };
    match &lhs.instance {
        Some(inst) => {
            let child_name = module
                .instances()
                .find(|(n, _)| *n == inst)
                .map(|(_, m)| m)
                .ok_or_else(not_drivable)?;
            let child = circuit.module(child_name).ok_or_else(not_drivable)?;
            match child.port(&lhs.name) {
                Some(p) if p.direction == Direction::Input => Ok(()),
                _ => Err(not_drivable()),
            }
        }
        None => {
            if let Some(p) = module.port(&lhs.name) {
                return if p.direction == Direction::Output {
                    Ok(())
                } else {
                    Err(not_drivable())
                };
            }
            match module.find_def(&lhs.name) {
                Some(Stmt::Wire { .. }) | Some(Stmt::Reg { .. }) => Ok(()),
                _ => Err(not_drivable()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Bits;

    fn passthrough() -> Circuit {
        let mut m = Module::new("M");
        m.ports.push(Port::input("a", 4));
        m.ports.push(Port::output("y", 4));
        m.body.push(Stmt::Connect {
            lhs: Ref::local("y"),
            rhs: Expr::reference("a"),
        });
        Circuit::from_modules("M", vec![m], "M")
    }

    #[test]
    fn validates_passthrough() {
        validate(&passthrough()).unwrap();
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut c = passthrough();
        c.module_mut("M").unwrap().body.push(Stmt::Wire {
            name: "a".into(),
            width: Width::new(1),
        });
        assert!(matches!(
            validate(&c),
            Err(IrError::DuplicateName { name, .. }) if name == "a"
        ));
    }

    #[test]
    fn rejects_undriven_output() {
        let mut c = passthrough();
        c.module_mut("M").unwrap().body.clear();
        assert!(matches!(
            validate(&c),
            Err(IrError::BadDriveCount { drivers: 0, .. })
        ));
    }

    #[test]
    fn rejects_double_drive() {
        let mut c = passthrough();
        c.module_mut("M").unwrap().body.push(Stmt::Connect {
            lhs: Ref::local("y"),
            rhs: Expr::lit(0, 4),
        });
        assert!(matches!(
            validate(&c),
            Err(IrError::BadDriveCount { drivers: 2, .. })
        ));
    }

    #[test]
    fn rejects_driving_input() {
        let mut c = passthrough();
        c.module_mut("M").unwrap().body.push(Stmt::Connect {
            lhs: Ref::local("a"),
            rhs: Expr::lit(0, 4),
        });
        assert!(matches!(validate(&c), Err(IrError::NotDrivable { .. })));
    }

    #[test]
    fn rejects_unknown_instance_module() {
        let mut c = passthrough();
        c.module_mut("M").unwrap().body.push(Stmt::Inst {
            name: "u".into(),
            module: "Nope".into(),
        });
        assert!(matches!(validate(&c), Err(IrError::UnknownModule { .. })));
    }

    #[test]
    fn rejects_recursion() {
        let mut m = Module::new("R");
        m.body.push(Stmt::Inst {
            name: "u".into(),
            module: "R".into(),
        });
        let c = Circuit::from_modules("R", vec![m], "R");
        assert!(matches!(
            validate(&c),
            Err(IrError::RecursiveHierarchy { .. })
        ));
    }

    #[test]
    fn infers_expression_widths() {
        let c = passthrough();
        let m = c.module("M").unwrap();
        let w = |e: &Expr| infer_width(&c, m, e).unwrap().get();
        assert_eq!(w(&Expr::reference("a")), 4);
        assert_eq!(
            w(&Expr::Binary(
                BinOp::Add,
                Box::new(Expr::reference("a")),
                Box::new(Expr::lit(1, 8)),
            )),
            8
        );
        assert_eq!(
            w(&Expr::Binary(
                BinOp::Eq,
                Box::new(Expr::reference("a")),
                Box::new(Expr::lit(1, 4)),
            )),
            1
        );
        assert_eq!(
            w(&Expr::Cat(vec![Expr::reference("a"), Expr::lit(0, 2)])),
            6
        );
        assert_eq!(w(&Expr::Extract(Box::new(Expr::reference("a")), 2, 1)), 2);
        assert_eq!(
            w(&Expr::Unary(UnOp::OrReduce, Box::new(Expr::reference("a")))),
            1
        );
    }

    #[test]
    fn extract_out_of_range_rejected() {
        let c = passthrough();
        let m = c.module("M").unwrap();
        let e = Expr::Extract(Box::new(Expr::reference("a")), 9, 0);
        assert!(infer_width(&c, m, &e).is_err());
    }

    #[test]
    fn extern_comb_paths_checked() {
        let mut m = Module::new("E");
        m.ports.push(Port::input("i", 1));
        m.ports.push(Port::output("o", 1));
        m.extern_info = Some(ExternInfo {
            behavior: "b".into(),
            comb_paths: vec![CombPath {
                input: "o".into(), // wrong direction
                output: "i".into(),
            }],
            resources: ResourceHints::default(),
        });
        let c = Circuit::from_modules("E", vec![m], "E");
        assert!(validate(&c).is_err());
    }

    /// The tape of the bug report: a 2^27-bit wire driven by a resize of
    /// a 1-bit input, beside a 2^21 × 64-bit memory.
    fn bomb() -> Circuit {
        let mut m = Module::new("Bomb");
        m.ports.push(Port::input("i", 1));
        m.ports.push(Port::output("o", 1));
        m.body.push(Stmt::Wire {
            name: "w".into(),
            width: Width::new(1 << 27),
        });
        m.body.push(Stmt::Mem {
            name: "m".into(),
            width: Width::new(64),
            depth: 1 << 21,
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("w"),
            rhs: Expr::Resize(Box::new(Expr::reference("i")), Width::new(1 << 27)),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("o"),
            rhs: Expr::Extract(Box::new(Expr::reference("w")), 0, 0),
        });
        Circuit::from_modules("Bomb", vec![m], "Bomb")
    }

    #[test]
    fn a_tiny_tape_cannot_declare_a_huge_wire() {
        let tape = crate::circuit_to_tape(&bomb());
        assert!(tape.len() <= 128, "{} bytes", tape.len());
        let back = crate::circuit_from_tape(&tape).unwrap();
        assert_eq!(
            validate(&back),
            Err(IrError::WidthLimit {
                module: "Bomb".into(),
                signal: "w".into(),
                width: 1 << 27,
            })
        );
    }

    #[test]
    fn memories_are_capped_by_their_storage() {
        let mem = |depth: u32| {
            let mut m = Module::new("M");
            m.ports.push(Port::output("y", 1));
            m.body.push(Stmt::Mem {
                name: "store".into(),
                width: Width::new(64),
                depth,
            });
            m.body.push(Stmt::Connect {
                lhs: Ref::local("y"),
                rhs: Expr::lit(0, 1),
            });
            Circuit::from_modules("M", vec![m], "M")
        };
        validate(&mem(1 << 23)).expect("64 MiB is the limit, not over it");
        assert_eq!(
            validate(&mem(1 << 24)),
            Err(IrError::MemoryLimit {
                module: "M".into(),
                memory: "store".into(),
                bytes: 128 << 20,
            })
        );
    }

    #[test]
    fn every_subexpression_is_held_to_the_width_limit() {
        // A narrow result hiding a wide intermediate, and a concatenation
        // of two legal halves: both name the signal they drive.
        let wide = Expr::Resize(Box::new(Expr::reference("a")), Width::new(MAX_WIDTH + 1));
        let cat = Expr::Cat(vec![Expr::lit(0, MAX_WIDTH), Expr::lit(0, 1)]);
        for (rhs, width) in [
            (
                Expr::Extract(Box::new(wide), 0, 0),
                u64::from(MAX_WIDTH) + 1,
            ),
            (Expr::Extract(Box::new(cat), 0, 0), u64::from(MAX_WIDTH) + 1),
        ] {
            let mut c = passthrough();
            let m = c.module_mut("M").unwrap();
            m.ports.push(Port::output("z", 1));
            m.body.push(Stmt::Connect {
                lhs: Ref::local("z"),
                rhs,
            });
            assert_eq!(
                validate(&c),
                Err(IrError::WidthLimit {
                    module: "M".into(),
                    signal: "z".into(),
                    width,
                })
            );
        }
    }

    #[test]
    fn reg_may_be_undriven() {
        let mut m = Module::new("M");
        m.ports.push(Port::output("y", 4));
        m.body.push(Stmt::Reg {
            name: "r".into(),
            width: Width::new(4),
            init: Bits::from_u64(3, 4),
        });
        m.body.push(Stmt::Connect {
            lhs: Ref::local("y"),
            rhs: Expr::reference("r"),
        });
        let c = Circuit::from_modules("M", vec![m], "M");
        validate(&c).unwrap();
    }
}
