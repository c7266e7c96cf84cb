//! A connection thread decodes any tape the codec accepts.
//!
//! The job server decodes submitted circuit tapes on its connection
//! threads, and the tape decoder recurses once per expression level, so
//! the deepest tape the nesting cap lets through sets the stack those
//! threads need. This decodes that tape on a thread built by the server's
//! own constructor; a stack too small aborts the whole test process.
//! It runs in debug and release builds (unoptimised frames are several
//! times larger).

use fireaxe_ir::ast::UnOp;
use fireaxe_ir::codec::{Wire, MAX_DEPTH};
use fireaxe_ir::tape::{TAPE_MAGIC, TAPE_VERSION};
use fireaxe_ir::{circuit_from_tape, Bits, Expr, Stmt};
use fireaxe_serve::server::spawn_conn_thread;

/// A one-module tape whose single node is `depth` nested `Not`s over a
/// literal, written byte by byte (building the `Expr` itself would
/// recurse just as deep in this thread).
fn nested_tape(depth: usize) -> Vec<u8> {
    let mut t = TAPE_MAGIC.to_vec();
    t.push(TAPE_VERSION);
    let name = String::from("Deep");
    name.put(&mut t); // circuit name
    1u32.put(&mut t); // one module
    name.put(&mut t);
    0u32.put(&mut t); // no ports
    1u32.put(&mut t); // one statement: `node n = …`
    t.push(1);
    String::from("n").put(&mut t);
    for _ in 0..depth {
        t.extend_from_slice(&[2, 0]); // `Unary(Not, …)`
    }
    Expr::Lit(Bits::from_u64(1, 1)).put(&mut t);
    t.push(0); // no extern info
    name.put(&mut t); // top
    t
}

/// Nesting levels of the node's expression.
fn depth_of(mut e: &Expr) -> usize {
    let mut d = 1;
    while let Expr::Unary(UnOp::Not, a) = e {
        e = a;
        d += 1;
    }
    d
}

#[test]
fn a_connection_thread_decodes_the_deepest_tape_the_cap_admits() {
    // The statement is one level and the literal another: with
    // `MAX_DEPTH - 2` unary levels the tape sits exactly at the cap.
    let depth = MAX_DEPTH as usize - 2;
    let levels = spawn_conn_thread(move || {
        assert!(circuit_from_tape(&nested_tape(depth + 1)).is_err());
        let circuit = circuit_from_tape(&nested_tape(depth)).expect("within the cap");
        let Stmt::Node { expr, .. } = &circuit.modules[0].body[0] else {
            panic!("not a node statement");
        };
        let levels = depth_of(expr);
        // Dropping the nested expression recurses as deep as decoding it.
        drop(circuit);
        levels
    })
    .expect("spawn")
    .join()
    .expect("no stack overflow");
    assert_eq!(levels, MAX_DEPTH as usize - 1);
}
