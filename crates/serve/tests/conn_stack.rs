//! A connection thread admits any tape the codec accepts.
//!
//! The job server decodes, validates and compiles submitted circuit
//! tapes on its connection threads (`prepare_job_from_tape`), and the
//! decoder, the type checker, FireRipper and the tape compiler all
//! recurse once per expression level, so the deepest tape the nesting cap
//! lets through sets the stack those threads need. This runs that tape
//! through the whole admission path on a thread built by the server's
//! own constructor; a stack too small aborts the whole test process.
//! It runs in debug and release builds (unoptimised frames are several
//! times larger).

use fireaxe_ir::ast::UnOp;
use fireaxe_ir::codec::{Wire, MAX_DEPTH};
use fireaxe_ir::tape::{TAPE_MAGIC, TAPE_VERSION};
use fireaxe_ir::{circuit_from_tape, Bits, Expr, Port, Ref, Stmt};
use fireaxe_net::{prepare_job_from_tape, WireSettings};
use fireaxe_ripper::{PartitionGroup, PartitionSpec};
use fireaxe_serve::server::spawn_conn_thread;

/// A tape whose top module instantiates `Leaf` as `d` and drives its
/// output from `d.o`; `Leaf`'s output is one node of `depth` nested
/// `Not`s over a literal. The node is written byte by byte (building the
/// `Expr` itself would recurse just as deep in this thread).
fn nested_tape(depth: usize) -> Vec<u8> {
    let out = |rhs: Ref| Stmt::Connect {
        lhs: Ref::local("o"),
        rhs: Expr::Ref(rhs),
    };
    let mut t = TAPE_MAGIC.to_vec();
    t.push(TAPE_VERSION);
    String::from("Deep").put(&mut t); // circuit name
    2u32.put(&mut t); // two modules
    String::from("Deep").put(&mut t);
    vec![Port::output("o", 1)].put(&mut t);
    vec![
        Stmt::Inst {
            name: "d".into(),
            module: "Leaf".into(),
        },
        out(Ref::instance_port("d", "o")),
    ]
    .put(&mut t);
    t.push(0); // no extern info
    String::from("Leaf").put(&mut t);
    vec![Port::output("o", 1)].put(&mut t);
    2u32.put(&mut t); // two statements: `node n = …`, `o <= n`
    t.push(1);
    String::from("n").put(&mut t);
    for _ in 0..depth {
        t.extend_from_slice(&[2, 0]); // `Unary(Not, …)`
    }
    Expr::Lit(Bits::from_u64(1, 1)).put(&mut t);
    out(Ref::local("n")).put(&mut t);
    t.push(0); // no extern info
    String::from("Deep").put(&mut t); // top
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
        let tape = nested_tape(depth);
        let circuit = circuit_from_tape(&tape).expect("within the cap");
        let Stmt::Node { expr, .. } = &circuit.modules[1].body[0] else {
            panic!("not a node statement");
        };
        let levels = depth_of(expr);
        // What `handle_conn` runs on a submission: decode, then FireRipper
        // (which validates first), the coordinator's passive build and
        // the payload encoding.
        let spec = PartitionSpec::exact(vec![PartitionGroup::instances("leaf", vec!["d".into()])]);
        let job = prepare_job_from_tape(&tape, &spec, &WireSettings::default(), &|b| b)
            .expect("admitted");
        assert_eq!(job.n_partitions(), 2);
        // Dropping the nested expressions recurses as deep as decoding.
        drop((job, circuit));
        levels
    })
    .expect("spawn")
    .join()
    .expect("no stack overflow");
    assert_eq!(levels, MAX_DEPTH as usize - 1);
}
