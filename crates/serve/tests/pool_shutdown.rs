//! Pool teardown with real OS processes: daemon shutdown (explicit or
//! by drop) must kill *and reap* every pooled child exactly once —
//! no survivors, no zombies — even with jobs in flight, and a second
//! shutdown must be a safe no-op.

mod common;

use common::{design_a, observed_settings, start_server, submit_spec, CYCLES};
use fireaxe_net::{SpawnedWorker, BACKEND_NET, JOB_RUNNING};
use fireaxe_serve::{ServeClient, ServeOptions, WorkerPool, WorkerSpawner};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIAL: Duration = Duration::from_secs(10);

/// The two `/proc`-scanning tests must not interleave: both count
/// child processes of *this* test process, and the harness runs tests
/// concurrently.
static PROC_LOCK: Mutex<()> = Mutex::new(());

/// A real child process posing as a worker: advertises a listen
/// address, then blocks in the `read` builtin on a stdin pipe the child
/// handle holds open. Its argv carries `marker`, so `/proc` can answer
/// "is it still alive (or a zombie)?"; the shell forks nothing, so
/// killing and reaping it leaves no process behind.
fn fake_worker_spawner(marker: &str) -> (WorkerSpawner, Arc<AtomicUsize>) {
    let spawned = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&spawned);
    let marker = marker.to_string();
    let spawner: WorkerSpawner = Box::new(move || {
        let n = counter.fetch_add(1, Ordering::SeqCst);
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!(
            "echo 'listening on 127.0.0.1:{}'; read _; : {marker}",
            40_000 + n
        ));
        cmd.stdin(Stdio::piped());
        SpawnedWorker::launch(cmd)
    });
    (spawner, spawned)
}

/// Counts `/proc` entries whose argv carries `marker`. A shell that was
/// just killed may linger for a moment before it is reaped, so callers
/// poll via `wait_for_count` rather than asserting a single snapshot.
fn live_with_marker(marker: &str) -> usize {
    std::fs::read_dir("/proc")
        .expect("/proc")
        .filter(|e| {
            let Ok(e) = e else { return false };
            let mut p = e.path();
            p.push("cmdline");
            std::fs::read(&p).is_ok_and(|c| String::from_utf8_lossy(&c).contains(marker))
        })
        .count()
}

/// Polls until the marker count settles at `want`, then asserts it.
fn wait_for_count(marker: &str, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = live_with_marker(marker);
        if got == want {
            return;
        }
        if Instant::now() >= deadline {
            assert_eq!(got, want, "{what}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Counts zombie `sh` children of this process — a killed-but-never-
/// reaped worker. (A zombie's cmdline reads empty, so the marker scan
/// cannot see it; its `stat` line still names it.)
fn zombie_sh_children() -> usize {
    let me = std::process::id();
    std::fs::read_dir("/proc")
        .expect("/proc")
        .filter(|e| {
            let Ok(e) = e else { return false };
            let mut p = e.path();
            p.push("stat");
            let Ok(stat) = std::fs::read_to_string(&p) else {
                return false;
            };
            // pid (comm) state ppid ... — comm may hold spaces, split
            // on the closing paren.
            let Some((head, tail)) = stat.rsplit_once(')') else {
                return false;
            };
            let mut f = tail.split_whitespace();
            let state = f.next().unwrap_or("");
            let ppid: u32 = f.next().and_then(|p| p.parse().ok()).unwrap_or(0);
            head.ends_with("(sh") && state == "Z" && ppid == me
        })
        .count()
}

#[test]
#[cfg(target_os = "linux")]
fn shutdown_kills_and_reaps_every_pooled_child_exactly_once() {
    let _guard = PROC_LOCK.lock().unwrap();
    let marker = format!("fxserve_pool_probe_{}", std::process::id());
    let (spawner, spawned) = fake_worker_spawner(&marker);
    let pool = WorkerPool::new(4, spawner);

    // Three leased (busy) + one released (idle): shutdown must take
    // both kinds down.
    let lease_a = pool.acquire(2).expect("lease a");
    let lease_b = pool.acquire(2).expect("lease b");
    pool.release(lease_b);
    assert_eq!(spawned.load(Ordering::SeqCst), 4);
    wait_for_count(&marker, 4, "children should be running");

    pool.shutdown();
    wait_for_count(&marker, 0, "shutdown left pooled children alive");
    assert_eq!(zombie_sh_children(), 0, "shutdown left unreaped zombies");
    // Idempotent: a second shutdown (and the drop-side one) finds
    // nothing left to kill and must not panic or double-reap.
    pool.shutdown();
    drop(pool);
    drop(lease_a); // lease outliving the pool is harmless
    assert_eq!(live_with_marker(&marker), 0);
}

#[test]
#[cfg(target_os = "linux")]
fn pool_drop_alone_reaps_children() {
    let _guard = PROC_LOCK.lock().unwrap();
    let marker = format!("fxserve_drop_probe_{}", std::process::id());
    let (spawner, _) = fake_worker_spawner(&marker);
    let pool = WorkerPool::new(2, spawner);
    let lease = pool.acquire(2).expect("lease");
    pool.release(lease);
    wait_for_count(&marker, 2, "children should be running");
    drop(pool); // no explicit shutdown: Drop must do it
    wait_for_count(&marker, 0, "dropping the pool leaked worker processes");
    assert_eq!(zombie_sh_children(), 0, "drop left unreaped zombies");
}

#[test]
fn server_drop_with_a_job_in_flight_returns_and_fails_the_job() {
    // A job is mid-run on in-process pooled workers when the daemon is
    // dropped. The drop must come back (no deadlock on the running
    // connection) and the submitter must observe a terminal outcome —
    // either a failure result or a dropped connection, never a hang.
    let (circuit, spec) = design_a();
    let settings = observed_settings();
    let (server, addr) = start_server(ServeOptions::default());

    let mut submitter = ServeClient::connect(&addr, DIAL).expect("connect");
    let job = submitter
        .submit(submit_spec(
            &circuit,
            &spec,
            &settings,
            "alice",
            // Big budget: the job is still running when we pull the plug.
            CYCLES * 100,
            BACKEND_NET,
        ))
        .expect("submit");
    let waiter = std::thread::spawn(move || submitter.wait_result());

    let mut poller = ServeClient::connect(&addr, DIAL).expect("connect 2");
    loop {
        let (jobs, _) = poller.status(job).expect("status");
        if jobs.iter().any(|j| j.job == job && j.state == JOB_RUNNING) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(poller);

    let t0 = Instant::now();
    drop(server);
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "server drop hung on the in-flight job"
    );
    // The submitter sees *something* terminal. In-process thread
    // workers cannot be killed mid-protocol, so the exact shape varies
    // (failed result vs connection loss) — the invariant is that the
    // wait returns.
    let _ = waiter.join().expect("waiter thread");
}
