//! Quota enforcement and eviction: cycle-budget clamps produce
//! `JOB_EVICTED` results carrying *partial but real* metrics (bit-exact
//! against a solo run of the granted budget), exhausted quotas reject
//! with the typed `QuotaExceeded` rendering, other tenants keep their
//! full service, operator eviction kills a running job, and mid-job
//! worker failover still recovers a killed pooled worker under the
//! daemon's pool-backed respawn hook.

mod common;

use common::{
    design_a, digest_rows_from_json, digest_rows_from_report, observed_settings, setup_hook,
    solo_reference, start_server, start_server_with, submit_spec, CYCLES,
};
use fireaxe_net::{
    serve_pooled, serve_pooled_with, NetListener, SpawnedWorker, WireSettings, WorkerOptions,
    BACKEND_NET, JOB_DONE, JOB_EVICTED, JOB_FAILED, JOB_RUNNING,
};
use fireaxe_serve::{ServeClient, ServeOptions, TenantQuota};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIAL: Duration = Duration::from_secs(10);

#[test]
fn cycle_quota_clamp_evicts_with_partial_real_metrics_other_tenants_unaffected() {
    let (circuit, spec) = design_a();
    let settings = observed_settings();
    let granted = 300u64; // alice's whole cycle allowance, < CYCLES
    let solo_partial = solo_reference(&circuit, &spec, &settings, granted);
    let solo_full = solo_reference(&circuit, &spec, &settings, CYCLES);

    let (server, addr) = start_server(ServeOptions {
        quotas: HashMap::from([(
            "alice".to_string(),
            TenantQuota {
                cycle_budget: granted,
                ..TenantQuota::default()
            },
        )]),
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr, DIAL).expect("connect");

    // Alice asks for more cycles than she has left: the job is
    // admitted clamped, runs the granted budget for real, and comes
    // back evicted with the partial report.
    let evicted = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("alice submit");
    assert_eq!(evicted.outcome, JOB_EVICTED, "err: {}", evicted.error);
    assert_eq!(evicted.cycles, granted);
    assert!(
        evicted.error.contains("evicted after 300 target cycles")
            && evicted.error.contains("cycle quota exhausted"),
        "eviction error must carry the partial-progress report: {}",
        evicted.error
    );
    assert!(
        evicted.metrics_json.contains("\"target_cycles\": 300"),
        "partial metrics must describe the granted cycles: {}",
        evicted.metrics_json
    );
    // The partial payload is real simulation output, not a stub:
    // bit-exact against a solo run of the same design at the granted
    // budget.
    assert_eq!(
        digest_rows_from_json(&evicted.series_json),
        digest_rows_from_report(&solo_partial),
        "evicted job's partial series must match a solo run of {granted} cycles"
    );
    assert_eq!(evicted.vcd, solo_partial.vcd.clone().expect("partial vcd"));

    // Bob (default quota, unlimited) gets his full budget — and rides
    // alice's compiled design out of the cache.
    let bob = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "bob",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("bob submit");
    assert_eq!(bob.outcome, JOB_DONE, "bob: {}", bob.error);
    assert_eq!(bob.cycles, CYCLES);
    assert!(bob.cache_hit, "bob must reuse alice's compiled design");
    assert_eq!(
        digest_rows_from_json(&bob.series_json),
        digest_rows_from_report(&solo_full)
    );
    drop(client);
    drop(server);
}

#[test]
fn exhausted_quotas_reject_with_the_typed_error_rendering() {
    let (circuit, spec) = design_a();
    let settings = observed_settings();
    let (server, addr) = start_server(ServeOptions {
        quotas: HashMap::from([
            (
                "alice".to_string(),
                TenantQuota {
                    cycle_budget: CYCLES,
                    ..TenantQuota::default()
                },
            ),
            (
                "banned".to_string(),
                TenantQuota {
                    max_concurrent: 0,
                    ..TenantQuota::default()
                },
            ),
        ]),
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr, DIAL).expect("connect");

    // A zero concurrency allowance rejects before any work happens.
    let rejected = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "banned",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("banned submit");
    assert_eq!(rejected.outcome, JOB_FAILED);
    assert!(
        rejected
            .error
            .contains("tenant `banned` exceeded its jobs quota"),
        "want the typed QuotaExceeded rendering, got: {}",
        rejected.error
    );
    assert_eq!(rejected.cycles, 0);
    assert!(
        rejected.series_json.is_empty(),
        "rejection must not simulate"
    );

    // Alice's exact-budget job completes un-clamped and drains her
    // allowance; the next submission is refused on cycles.
    let first = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("alice first");
    assert_eq!(first.outcome, JOB_DONE, "alice first: {}", first.error);
    assert_eq!(first.cycles, CYCLES);
    let second = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("alice second");
    assert_eq!(second.outcome, JOB_FAILED);
    assert!(
        second
            .error
            .contains("tenant `alice` exceeded its cycles quota"),
        "want the typed cycles rejection, got: {}",
        second.error
    );
    drop(client);
    drop(server);
}

#[test]
fn operator_eviction_terminates_a_running_job() {
    // Every pooled worker goes silent at cycle 150, so the job can
    // never finish on its own — the operator's EvictJob (not a timing
    // race) decides its fate. A short I/O timeout bounds how long the
    // coordinator waits on the silent workers.
    let (circuit, spec) = design_a();
    let settings = WireSettings {
        io_timeout_ms: 3_000,
        ..observed_settings()
    };
    let spawner: fireaxe_serve::WorkerSpawner = Box::new(|| {
        let listener = NetListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr_string();
        std::thread::spawn(move || {
            let opts = WorkerOptions {
                chaos_hang: Some(150),
                ..WorkerOptions::default()
            };
            let _ = serve_pooled_with(&listener, &setup_hook, &opts);
        });
        Ok(SpawnedWorker::external(addr))
    });
    let (server, addr) = start_server_with(ServeOptions::default(), spawner);

    let mut submitter = ServeClient::connect(&addr, DIAL).expect("connect");
    let job = submitter
        .submit(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("submit");
    let waiter = std::thread::spawn(move || submitter.wait_result().expect("result"));

    // From a second connection: wait until the job is running, then
    // evict it with an operator reason.
    let mut operator = ServeClient::connect(&addr, DIAL).expect("connect 2");
    loop {
        let (jobs, _) = operator.status(job).expect("status");
        if jobs.iter().any(|j| j.job == job && j.state == JOB_RUNNING) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    operator.evict(job, "operator says no").expect("evict");

    let out = waiter.join().expect("waiter thread");
    assert_eq!(out.outcome, JOB_EVICTED, "err: {}", out.error);
    assert!(
        out.error.contains("evicted") && out.error.contains("operator says no"),
        "eviction reason must surface in the result: {}",
        out.error
    );
    let (jobs, stats) = operator.status(job).expect("status");
    assert!(jobs.iter().any(|j| j.job == job && j.state == JOB_EVICTED));
    assert_eq!(stats.pool_busy, 0, "evicted job's lease must be returned");
    drop(operator);
    drop(server);
}

#[test]
fn failover_replaces_a_chaos_killed_pooled_worker_mid_job() {
    // The first pooled worker the daemon spawns dies (connection
    // dropped, like a crash) at cycle 150; checkpointing is on, so the
    // daemon's respawn hook must pull a replacement from the pool and
    // the job must still complete bit-exact.
    let (circuit, spec) = design_a();
    let settings = WireSettings {
        checkpoint_interval: 100,
        ..observed_settings()
    };
    let solo = solo_reference(&circuit, &spec, &settings, CYCLES);

    let spawned = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&spawned);
    let spawner: fireaxe_serve::WorkerSpawner = Box::new(move || {
        let n = counter.fetch_add(1, Ordering::SeqCst);
        let listener = NetListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr_string();
        std::thread::spawn(move || {
            if n == 0 {
                let opts = WorkerOptions {
                    chaos_kill: Some(150),
                    ..WorkerOptions::default()
                };
                let _ = serve_pooled_with(&listener, &setup_hook, &opts);
            } else {
                let _ = serve_pooled(&listener, &setup_hook);
            }
        });
        Ok(SpawnedWorker::external(addr))
    });
    let (server, addr) = start_server_with(
        ServeOptions {
            max_restarts: 2,
            ..ServeOptions::default()
        },
        spawner,
    );

    let mut client = ServeClient::connect(&addr, DIAL).expect("connect");
    let out = client
        .submit_and_wait(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            CYCLES,
            BACKEND_NET,
        ))
        .expect("submit");
    assert_eq!(
        out.outcome, JOB_DONE,
        "job must survive the crash: {}",
        out.error
    );
    assert_eq!(out.cycles, CYCLES);
    // The pool grows by the job's fleet: one worker per core, at most
    // one per partition.
    let fleet = 2.min(fireaxe_sim::available_cores());
    assert!(
        spawned.load(Ordering::SeqCst) > fleet,
        "expected a replacement spawn beyond the initial {fleet}, saw {}",
        spawned.load(Ordering::SeqCst)
    );
    assert_eq!(
        digest_rows_from_json(&out.series_json),
        digest_rows_from_report(&solo),
        "recovered job diverged from the solo reference"
    );
    assert_eq!(out.vcd, solo.vcd.clone().expect("solo vcd"));
    drop(client);
    drop(server);
}
