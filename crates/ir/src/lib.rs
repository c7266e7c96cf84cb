//! # fireaxe-ir — circuit intermediate representation
//!
//! The foundation of FireAxe-rs: a FIRRTL-like structural IR for digital
//! circuits, together with everything the rest of the stack needs to
//! analyze and execute it:
//!
//! * [`Bits`]/[`Width`] — arbitrary-width values ([`bits`]);
//! * [`Circuit`]/[`Module`]/[`Stmt`]/[`Expr`] — the AST ([`ast`]);
//! * [`build::ModuleBuilder`] — ergonomic netlist construction;
//! * [`parser`]/[`printer`] — a round-tripping textual format;
//! * [`codec`] — the one byte codec every binary format is written
//!   with, and [`tape`], the binary circuit format built on it;
//! * [`typecheck`] — width inference and structural validation;
//! * [`comb::CombAnalysis`] — input→output combinational reachability,
//!   the analysis FireRipper's exact-mode channel splitting is built on;
//! * [`interp::Interpreter`] — a cycle-accurate reference interpreter,
//!   the golden model against which partitioned simulation is validated.
//!
//! ## Example
//!
//! ```
//! use fireaxe_ir::build::{ModuleBuilder, Sig};
//! use fireaxe_ir::{Bits, Circuit, Interpreter};
//!
//! # fn main() -> Result<(), fireaxe_ir::IrError> {
//! let mut mb = ModuleBuilder::new("Counter");
//! let en = mb.input("en", 1);
//! let out = mb.output("out", 8);
//! let count = mb.reg("count", 8, 0);
//! mb.connect_sig(&count, &en.mux(&count.add(&Sig::lit(1, 8)), &count));
//! mb.connect_sig(&out, &count);
//! let circuit = Circuit::from_modules("Counter", vec![mb.finish()], "Counter");
//!
//! let mut sim = Interpreter::new(&circuit)?;
//! sim.poke("en", Bits::from_u64(1, 1));
//! for _ in 0..41 {
//!     sim.step()?;
//! }
//! sim.eval()?;
//! assert_eq!(sim.peek("out").to_u64(), 41);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bits;
pub mod build;
pub mod codec;
pub mod comb;
pub mod error;
pub mod exec;
pub mod interp;
mod lower;
pub mod parser;
pub mod printer;
pub mod slice;
pub mod state;
pub mod tape;
pub mod typecheck;

pub use ast::{
    BinOp, Circuit, CombPath, Direction, Expr, ExternInfo, Module, Port, Ref, ResourceHints, Stmt,
    UnOp,
};
pub use bits::{Bits, Width};
pub use codec::{Dec, DecResult, Wire};
pub use comb::{CombAnalysis, ModuleCombInfo};
pub use error::{IrError, Result};
pub use exec::{ExecEngine, ExecStats, TapeShape};
pub use interp::{ExternBehavior, Interpreter, PortTable, PortWriter};
pub use slice::{SliceCoverage, SlicedInterpreter};
pub use tape::{circuit_from_tape, circuit_to_tape};
