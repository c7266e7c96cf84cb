//! Admission timed from inside: a worker's bring-up is traced into the
//! served job's merged Chrome trace. A miss decodes, validates, builds
//! and snapshots its partition; a hit only rewinds a kept build — once
//! per worker either way. The run itself is counted, not spanned: each
//! worker's service loop and each relay thread emit their counters once
//! with the report. (Its own test binary: the trace sink is
//! process-wide, and another test's workers would drain it.)

mod common;

use common::{
    listen_addrs, noc_4partition_design, observed_settings, setup_hook, spawn_pooled, CYCLES,
};
use fireaxe_net::{execute_placed, place_cluster, prepare_job, RecoveryOptions, Teardown};

/// How many times `name` occurs in `trace` as `ph` events.
fn count(trace: &str, name: &str, ph: &str) -> usize {
    trace
        .matches(&format!("{{\"name\":\"{name}\",\"ph\":\"{ph}\""))
        .count()
}

/// The values of every `name` counter sample in `trace`.
fn values(trace: &str, name: &str) -> Vec<f64> {
    let head = format!("{{\"name\":\"{name}\",\"ph\":\"C\"");
    trace
        .split(&head)
        .skip(1)
        .map(|event| {
            let at = event.find("\"value\":").expect("counter value") + 8;
            let end = event[at..].find('}').expect("closing brace") + at;
            event[at..end].parse().expect("numeric value")
        })
        .collect()
}

#[test]
fn a_miss_builds_and_a_hit_rewinds_once_per_worker() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, "bringup-trace"), &setup_hook);
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    let budget = CYCLES / 4;
    let mut traces = Vec::new();
    for teardown in [Teardown::ResetToIdle, Teardown::Shutdown] {
        let placed = place_cluster(&prepared, &bound, 10_000).expect("place");
        let report = execute_placed(
            &prepared,
            placed,
            budget,
            RecoveryOptions::none(),
            None,
            teardown,
        )
        .expect("pooled job");
        traces.push(report.chrome_trace);
    }
    for h in handles {
        h.join().expect("pooled worker thread");
    }

    let (miss, hit) = (&traces[0], &traces[1]);
    for trace in [miss, hit] {
        assert_eq!(count(trace, "net.place_cluster", "B"), 1);
        assert_eq!(count(trace, "net.worker.bringup", "B"), 4);
    }
    for span in [
        "net.worker.decode",
        "net.worker.validate",
        "net.worker.build",
        "net.worker.snapshot",
    ] {
        assert_eq!(count(miss, span, "B"), 4, "{span} on a miss");
        assert_eq!(count(hit, span, "B"), 0, "{span} on a hit");
    }
    assert_eq!(count(miss, "net.worker.rewind", "B"), 0);
    assert_eq!(count(hit, "net.worker.rewind", "B"), 4);
    assert_eq!(count(miss, "net.worker.build_cache_misses", "C"), 4);
    assert_eq!(count(hit, "net.worker.build_cache_hits", "C"), 4);

    // The run's own counters, once per worker and per relay thread (one
    // per worker connection) in every job; a worker passes through its
    // loop at least once per target cycle.
    for trace in [miss, hit] {
        for counter in [
            "net.worker.passes",
            "net.worker.waits",
            "net.worker.idle_timeouts",
            "net.worker.recvs",
            "net.worker.sends",
            "net.worker.bytes_in",
            "net.worker.bytes_out",
            "net.relay.reads",
            "net.relay.frames",
            "net.relay.writes",
        ] {
            assert_eq!(count(trace, counter, "C"), 4, "{counter}");
        }
        for passes in values(trace, "net.worker.passes") {
            assert!(
                passes >= budget as f64,
                "{passes} passes for {budget} cycles"
            );
        }
    }
}
