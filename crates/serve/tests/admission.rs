//! Admission refuses a submission whose circuit would allocate without
//! bound: the tape arrives from outside the program, so the width and
//! memory limits of `typecheck::validate` stand between it and the
//! daemon's passive build.

mod common;

use common::{design_a, observed_settings, start_server, submit_spec, CYCLES};
use fireaxe_ir::build::ModuleBuilder;
use fireaxe_ir::Circuit;
use fireaxe_net::{BACKEND_NET, JOB_DONE, JOB_FAILED};
use fireaxe_ripper::PartitionSpec;
use fireaxe_serve::{ServeClient, ServeOptions};
use std::time::Duration;

/// A 2^27-bit wire driven by a resize of a 1-bit input, beside a
/// 2^21 × 64-bit memory: a tape of a hundred-odd bytes.
fn oversized_circuit() -> Circuit {
    let mut m = ModuleBuilder::new("Bomb");
    let i = m.input("i", 1);
    let o = m.output("o", 1);
    let w = m.wire("w", 1 << 27);
    m.mem("m", 64, 1 << 21);
    m.connect_sig(&w, &i.resize(1 << 27));
    m.connect_sig(&o, &w.bits(0, 0));
    Circuit::from_modules("Bomb", vec![m.finish()], "Bomb")
}

#[test]
fn an_oversized_circuit_fails_its_job_with_the_typed_message() {
    let (server, addr) = start_server(ServeOptions::default());
    let mut client = ServeClient::connect(&addr, Duration::from_secs(10)).expect("connect");
    let settings = observed_settings();
    let refused = client
        .submit_and_wait(submit_spec(
            &oversized_circuit(),
            &PartitionSpec::exact(Vec::new()),
            &settings,
            "mallory",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("submit");
    assert_eq!(refused.outcome, JOB_FAILED);
    assert!(
        refused
            .error
            .contains("signal `w` in module `Bomb` is 134217728 bits wide"),
        "{}",
        refused.error
    );

    // The daemon serves the next tenant as if nothing happened.
    let (circuit, spec) = design_a();
    let served = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("submit");
    assert_eq!(served.outcome, JOB_DONE, "{}", served.error);
    drop(client);
    drop(server);
}
