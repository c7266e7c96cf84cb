//! Daemon-process lifecycle tests against the real `fireaxe` binary:
//! `serve` spawns pooled worker *processes*, `serve --stop` shuts the
//! daemon down with every pooled child killed and reaped, and the
//! lifeline pipe takes the children down even when the daemon dies
//! hard (SIGKILL — no chance to run its own teardown).

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FIREAXE: &str = env!("CARGO_BIN_EXE_fireaxe");

fn demo_config() -> String {
    format!("{}/../../demo/run.json", env!("CARGO_MANIFEST_DIR"))
}

/// Reserves an ephemeral port by binding and immediately releasing it.
fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = l.local_addr().expect("probe addr").to_string();
    drop(l);
    addr
}

/// Starts `fireaxe serve` and blocks until it advertises readiness.
fn start_daemon(addr: &str) -> Child {
    let mut child = Command::new(FIREAXE)
        .args(["serve", "--listen", addr, "--pool", "2", "--cache", "4"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("daemon stdout");
        assert_ne!(n, 0, "daemon exited before becoming ready");
        if line.contains("job server listening on") {
            break;
        }
    }
    // Keep draining so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    child
}

/// Submits the demo config. Its `metrics_path` is relative, so the
/// client runs in Cargo's per-package scratch directory: a test run
/// leaves nothing in the source tree.
fn submit(addr: &str, cycles: &str) -> String {
    let out = Command::new(FIREAXE)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "submit",
            &demo_config(),
            "--server",
            addr,
            "--cycles",
            cycles,
        ])
        .output()
        .expect("run submit");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "submit failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Pids of live (or zombie) processes whose parent is `ppid` and whose
/// argv marks them as pooled lifeline workers.
fn pooled_children_of(ppid: u32) -> Vec<u32> {
    let mut pids = Vec::new();
    for e in std::fs::read_dir("/proc").expect("/proc").flatten() {
        let Ok(pid) = e.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(e.path().join("cmdline")) else {
            continue;
        };
        if !String::from_utf8_lossy(&cmdline).contains("--lifeline") {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(e.path().join("stat")) else {
            continue;
        };
        // ppid is the 4th field, after the parenthesised comm.
        let parent: Option<u32> = stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().nth(1))
            .and_then(|f| f.parse().ok());
        if parent == Some(ppid) {
            pids.push(pid);
        }
    }
    pids
}

fn alive(pid: u32) -> bool {
    std::fs::metadata(format!("/proc/{pid}")).is_ok()
}

fn wait_all_dead(pids: &[u32], deadline: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if pids.iter().all(|&p| !alive(p)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    pids.iter().all(|&p| !alive(p))
}

#[test]
fn serve_stop_shuts_down_cleanly_and_reaps_pooled_workers() {
    let addr = free_addr();
    let mut daemon = start_daemon(&addr);

    // Two submissions: the first compiles (miss) and spawns the pooled
    // fleet, the second must ride the cache.
    let first = submit(&addr, "400");
    assert!(first.contains("cache miss"), "first submit: {first}");
    let workers = pooled_children_of(daemon.id());
    assert_eq!(
        workers.len(),
        2,
        "expected a pooled worker per partition, found {workers:?}"
    );
    let second = submit(&addr, "400");
    assert!(second.contains("cache hit"), "second submit: {second}");
    assert_eq!(
        pooled_children_of(daemon.id()).len(),
        2,
        "the second job must reuse the pooled fleet, not grow it"
    );

    // Operator shutdown: the daemon exits 0 and no pooled child
    // survives it (killed AND reaped — a zombie would still show in
    // /proc).
    let stop = Command::new(FIREAXE)
        .args(["serve", "--listen", &addr, "--stop"])
        .status()
        .expect("run serve --stop");
    assert!(stop.success(), "serve --stop failed");
    let status = daemon.wait().expect("daemon wait");
    assert!(status.success(), "daemon exited non-zero: {status}");
    assert!(
        wait_all_dead(&workers, Duration::from_secs(5)),
        "pooled workers outlived the daemon shutdown"
    );
}

#[test]
fn lifeline_pipe_kills_pooled_workers_when_the_daemon_dies_hard() {
    let addr = free_addr();
    let mut daemon = start_daemon(&addr);
    let _ = submit(&addr, "400");
    let workers = pooled_children_of(daemon.id());
    assert_eq!(workers.len(), 2, "expected 2 pooled workers: {workers:?}");

    // SIGKILL: the daemon gets no chance to run its pool teardown. The
    // pooled children must notice the closed lifeline pipe and exit on
    // their own.
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();
    assert!(
        wait_all_dead(&workers, Duration::from_secs(10)),
        "pooled workers survived a SIGKILL'd daemon: lifeline broken"
    );
}
