//! Cluster bring-up (`place_cluster`): every worker builds its copy of
//! the design between `Topology` and `Ready`, so the handshake has to
//! put all of them to work at once, and a bring-up that fails half-way
//! has to hand every pooled worker back to its accept loop.

mod common;

use common::{
    listen_addrs, noc_4partition_design, observed_settings, setup_hook, spawn_pooled, CYCLES,
};
use fireaxe_net::codec::{read_msg, write_msg, Msg, FATAL_SIM, PROTOCOL_MAGIC};
use fireaxe_net::{
    execute_placed, place_cluster, prepare_job, serve_pooled, NetListener, RecoveryOptions,
    Teardown, PROTOCOL_VERSION,
};
use fireaxe_sim::{SimBuilder, SimError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Meeting point for `n` builds: each arrival waits until all `n` are
/// in, or flags the rendezvous as missed once `patience` runs out.
struct Rendezvous {
    n: usize,
    arrived: Mutex<usize>,
    all_in: Condvar,
    missed: AtomicBool,
    patience: Duration,
}

impl Rendezvous {
    fn arrive(&self) {
        let mut arrived = self.arrived.lock().expect("rendezvous lock");
        *arrived += 1;
        self.all_in.notify_all();
        let (_guard, wait) = self
            .all_in
            .wait_timeout_while(arrived, self.patience, |a| *a < self.n)
            .expect("rendezvous lock");
        if wait.timed_out() {
            self.missed.store(true, Ordering::SeqCst);
        }
    }
}

#[test]
fn workers_build_at_the_same_time() {
    // Each worker's build blocks in its setup hook until all four
    // builds have started. Brought up one after another, worker 0
    // would sit in its hook while the others had not even been sent
    // their topology, and time out.
    static MEET: Rendezvous = Rendezvous {
        n: 4,
        arrived: Mutex::new(0),
        all_in: Condvar::new(),
        missed: AtomicBool::new(false),
        patience: Duration::from_secs(20),
    };
    fn meeting_hook(b: SimBuilder<'_>) -> SimBuilder<'_> {
        MEET.arrive();
        setup_hook(b)
    }

    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, "bringup-meet"), &meeting_hook);
    // The coordinator's own passive build stays out of the meeting.
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    let placed = place_cluster(&prepared, &bound, 60_000).expect("place");
    assert!(
        !MEET.missed.load(Ordering::SeqCst),
        "a worker waited out its patience for the others to start building"
    );
    let report = execute_placed(
        &prepared,
        placed,
        CYCLES / 2,
        RecoveryOptions::none(),
        None,
        Teardown::Shutdown,
    )
    .expect("job after concurrent bring-up");
    assert_eq!(report.metrics.target_cycles, CYCLES / 2);
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}

#[test]
fn fatal_during_bring_up_returns_every_pooled_worker_to_accept() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let mut bound = Vec::new();
    let mut handles = Vec::new();
    for (i, addr) in listen_addrs(4, false, "bringup-fatal")
        .into_iter()
        .enumerate()
    {
        let listener = NetListener::bind(&addr).expect("worker bind");
        bound.push(listener.local_addr_string());
        handles.push(std::thread::spawn(move || {
            if i == 2 {
                // First session: take the topology, answer `Fatal`
                // where `Ready` was due. After that, an ordinary
                // pooled worker.
                let mut s = listener.accept().expect("stub accept");
                let _hello = read_msg(&mut s).expect("stub hello");
                write_msg(
                    &mut s,
                    &Msg::HelloAck {
                        magic: PROTOCOL_MAGIC,
                        version: PROTOCOL_VERSION,
                    },
                )
                .expect("stub helloack");
                let _topology = read_msg(&mut s).expect("stub topology");
                write_msg(
                    &mut s,
                    &Msg::Fatal {
                        code: FATAL_SIM,
                        link: 0,
                        attempts: 0,
                        message: "worker 2: out of FPGAs".into(),
                    },
                )
                .expect("stub fatal");
            }
            serve_pooled(&listener, &setup_hook).expect("pooled worker");
        }));
    }
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");

    match place_cluster(&prepared, &bound, 60_000) {
        Err(SimError::Config { message }) => assert_eq!(message, "worker 2: out of FPGAs"),
        Err(other) => panic!("expected the worker's Fatal, got {other}"),
        Ok(_) => panic!("bring-up succeeded past a Fatal"),
    }

    // The failed bring-up dropped every session. Workers 0, 1 and 3
    // each had a design built (or building) for it; all four must now
    // accept, handshake and run the next job to completion.
    let placed = place_cluster(&prepared, &bound, 60_000).expect("place after failed bring-up");
    let report = execute_placed(
        &prepared,
        placed,
        CYCLES / 2,
        RecoveryOptions::none(),
        None,
        Teardown::Shutdown,
    )
    .expect("job after failed bring-up");
    assert_eq!(report.metrics.target_cycles, CYCLES / 2);
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}
