//! Error types for the circuit IR.

use std::fmt;

/// Errors produced while constructing, validating, parsing, or elaborating
/// circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A name was defined twice within one module.
    DuplicateName {
        /// Offending module.
        module: String,
        /// Duplicated name.
        name: String,
    },
    /// A reference did not resolve to a declared signal.
    UnresolvedRef {
        /// Module containing the reference.
        module: String,
        /// The unresolved reference, formatted.
        reference: String,
    },
    /// An instance referred to a module that does not exist.
    UnknownModule {
        /// Module containing the instance.
        module: String,
        /// Instance name.
        instance: String,
        /// Missing module name.
        missing: String,
    },
    /// A signal that must be driven exactly once was driven zero or
    /// multiple times.
    BadDriveCount {
        /// Module name.
        module: String,
        /// Signal name.
        signal: String,
        /// How many drivers were found.
        drivers: usize,
    },
    /// Connect target is not drivable (e.g. an input port or a node).
    NotDrivable {
        /// Module name.
        module: String,
        /// The offending target.
        target: String,
    },
    /// A combinational cycle was found during elaboration.
    CombCycle {
        /// Signals on the cycle, in instance-path form.
        cycle: Vec<String>,
    },
    /// The module hierarchy instantiates a module inside itself.
    RecursiveHierarchy {
        /// Module on the recursion path.
        module: String,
    },
    /// An extern behavioral module was used where structural RTL is
    /// required (e.g. full interpretation without a bound behavior).
    ExternWithoutBehavior {
        /// Module name.
        module: String,
        /// Behavior key that was not bound.
        behavior: String,
    },
    /// Text parse error.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A peek/poke named a signal path that does not exist in the
    /// elaborated design.
    UnknownSignal {
        /// The path that resolved to nothing.
        path: String,
    },
    /// A poke targeted a signal that is not a drivable top-level input
    /// port (registers and internal nets are overwritten by the next
    /// settle pass, so driving them would be silently lost).
    NotPokeable {
        /// The non-input path.
        path: String,
    },
    /// A poked value does not fit the port width.
    PokeWidth {
        /// The poked port.
        path: String,
        /// The port's declared width in bits.
        width: u32,
        /// Bits required to represent the rejected value.
        value_bits: u32,
    },
    /// A declared or inferred width exceeds
    /// [`MAX_WIDTH`](crate::typecheck::MAX_WIDTH) bits.
    WidthLimit {
        /// Module name.
        module: String,
        /// The signal whose declaration or driving expression is too wide.
        signal: String,
        /// The width it asked for, in bits.
        width: u64,
    },
    /// A memory's word storage exceeds
    /// [`MAX_MEM_BYTES`](crate::typecheck::MAX_MEM_BYTES).
    MemoryLimit {
        /// Module name.
        module: String,
        /// Memory name.
        memory: String,
        /// Bytes its depth × words would take.
        bytes: u64,
    },
    /// Any other structural inconsistency.
    Malformed {
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DuplicateName { module, name } => {
                write!(f, "duplicate name `{name}` in module `{module}`")
            }
            IrError::UnresolvedRef { module, reference } => {
                write!(f, "unresolved reference `{reference}` in module `{module}`")
            }
            IrError::UnknownModule {
                module,
                instance,
                missing,
            } => write!(
                f,
                "instance `{instance}` in module `{module}` refers to unknown module `{missing}`"
            ),
            IrError::BadDriveCount {
                module,
                signal,
                drivers,
            } => write!(
                f,
                "signal `{signal}` in module `{module}` has {drivers} drivers, expected exactly 1"
            ),
            IrError::NotDrivable { module, target } => {
                write!(f, "target `{target}` in module `{module}` cannot be driven")
            }
            IrError::CombCycle { cycle } => {
                write!(f, "combinational cycle through: {}", cycle.join(" -> "))
            }
            IrError::RecursiveHierarchy { module } => {
                write!(f, "module `{module}` is instantiated inside itself")
            }
            IrError::ExternWithoutBehavior { module, behavior } => write!(
                f,
                "extern module `{module}` requires behavior `{behavior}` which is not bound"
            ),
            IrError::UnknownSignal { path } => {
                write!(f, "no signal at path `{path}`")
            }
            IrError::NotPokeable { path } => write!(
                f,
                "signal `{path}` is not a top-level input port and cannot be poked"
            ),
            IrError::PokeWidth {
                path,
                width,
                value_bits,
            } => write!(
                f,
                "poked value needs {value_bits} bits but port `{path}` is {width} bits wide"
            ),
            IrError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IrError::WidthLimit {
                module,
                signal,
                width,
            } => write!(
                f,
                "signal `{signal}` in module `{module}` is {width} bits wide, over the {} bit limit",
                crate::typecheck::MAX_WIDTH
            ),
            IrError::MemoryLimit {
                module,
                memory,
                bytes,
            } => write!(
                f,
                "memory `{memory}` in module `{module}` needs {bytes} bytes, over the {} byte limit",
                crate::typecheck::MAX_MEM_BYTES
            ),
            IrError::Malformed { message } => write!(f, "malformed circuit: {message}"),
        }
    }
}

impl std::error::Error for IrError {}

/// Convenient alias for IR results.
pub type Result<T> = std::result::Result<T, IrError>;
