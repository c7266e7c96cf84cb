//! Worker subprocess management for self-hosted clusters.
//!
//! A spawned worker binds its listener (typically on an ephemeral
//! port), prints a line containing `listening on <addr>` to stdout, and
//! then serves. [`SpawnedWorker::launch`] reads stdout to discover the
//! address, so callers never race the bind or guess ports. The
//! advertisement is matched anywhere in a line (logging frameworks
//! prefix timestamps, and unrelated log lines may interleave), and
//! stdout noise need not be UTF-8. Workers are killed *and reaped* on
//! drop and on every launch failure path: a failed coordinator run can
//! neither leak processes nor accumulate zombies.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// The stdout marker a worker process must print once listening.
pub const LISTENING_PREFIX: &str = "listening on ";

/// A worker subprocess, killed (and reaped) on drop.
#[derive(Debug)]
pub struct SpawnedWorker {
    /// The address the worker is listening on, as printed by the child.
    pub addr: String,
    /// `None` once [`SpawnedWorker::wait`] has reaped the child, which
    /// disarms the drop-side kill — signalling an already-reaped pid
    /// would race pid reuse.
    child: Option<Child>,
}

/// Kills and reaps `child`, then returns `err` — every early exit from
/// [`SpawnedWorker::launch`] must go through here or the child leaks.
fn abandon(mut child: Child, err: io::Error) -> io::Error {
    let _ = child.kill();
    let _ = child.wait();
    err
}

impl SpawnedWorker {
    /// Spawns `cmd` (stdout piped) and scans its stdout for the first
    /// line carrying the [`LISTENING_PREFIX`] advertisement; the
    /// address is the first whitespace-delimited token after the
    /// marker, so trailing log decoration is tolerated.
    ///
    /// # Errors
    ///
    /// Spawn failures, stdout read failures, or the child exiting /
    /// closing stdout before advertising an address. On every error the
    /// child has already been killed and reaped.
    pub fn launch(mut cmd: Command) -> io::Result<Self> {
        cmd.stdout(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = BufReader::new(stdout);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => {
                    return Err(abandon(
                        child,
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "worker exited before printing its listen address",
                        ),
                    ));
                }
                Ok(_) => {}
                Err(e) => return Err(abandon(child, e)),
            }
            let line = String::from_utf8_lossy(&buf);
            let Some(rest) = line.split(LISTENING_PREFIX).nth(1) else {
                continue;
            };
            let Some(addr) = rest.split_whitespace().next() else {
                continue; // marker with no address: keep scanning
            };
            let addr = addr.to_string();
            // Keep draining the pipe so the child never blocks on a
            // full stdout buffer.
            std::thread::spawn(move || {
                let mut sink = Vec::new();
                while matches!(reader.read_until(b'\n', &mut sink), Ok(n) if n > 0) {
                    sink.clear();
                }
            });
            return Ok(SpawnedWorker {
                addr,
                child: Some(child),
            });
        }
    }

    /// Wraps a worker this process does not manage — one serving on an
    /// in-process thread (tests), or a process someone else supervises.
    /// Only the address is tracked: drop kills nothing and
    /// [`SpawnedWorker::wait`] reports success immediately.
    pub fn external(addr: impl Into<String>) -> Self {
        SpawnedWorker {
            addr: addr.into(),
            child: None,
        }
    }

    /// Waits for the worker to exit cleanly (after a coordinator
    /// shutdown), returning whether it exited with success. Reaps the
    /// child and disarms the drop-side kill. For an
    /// [`external`](SpawnedWorker::external) worker there is nothing to
    /// wait on and the answer is `true`.
    ///
    /// # Errors
    ///
    /// Propagates wait failures (the child is killed and reaped
    /// best-effort first).
    pub fn wait(mut self) -> io::Result<bool> {
        let Some(mut child) = self.child.take() else {
            return Ok(true);
        };
        match child.wait() {
            Ok(status) => Ok(status.success()),
            Err(e) => Err(abandon(child, e)),
        }
    }
}

impl Drop for SpawnedWorker {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    // The sleeping scripts `exec` their sleep, so the pid the worker
    // handle kills is the sleep itself: a forked sleep would outlive the
    // killed shell, holding the test's stderr open for its 30 s.
    #[test]
    fn launch_finds_the_advertisement_inside_an_interleaved_log_line() {
        let w = SpawnedWorker::launch(sh("echo '[boot] loading design'; \
             echo 'ts=42 listening on 127.0.0.1:5555 (tcp, worker 1)'; \
             exec sleep 30"))
        .expect("launch");
        assert_eq!(w.addr, "127.0.0.1:5555");
        // Drop kills and reaps the sleeping child.
    }

    #[test]
    fn launch_survives_non_utf8_noise_on_stdout() {
        let w = SpawnedWorker::launch(sh("printf '\\377\\376 binary junk\\n'; \
             echo 'listening on unix:/tmp/fx.sock'; \
             exec sleep 30"))
        .expect("launch must skip undecodable lines, not fail on them");
        assert_eq!(w.addr, "unix:/tmp/fx.sock");
    }

    #[test]
    fn wait_reaps_a_clean_exit_and_reports_status() {
        let w = SpawnedWorker::launch(sh("echo 'listening on 127.0.0.1:1'; exit 0")).expect("ok");
        assert!(w.wait().expect("wait"), "clean exit reported as failure");
        let w = SpawnedWorker::launch(sh("echo 'listening on 127.0.0.1:1'; exit 3")).expect("ok");
        assert!(!w.wait().expect("wait"), "failure exit reported as success");
    }

    /// Regression: a child that emits undecodable noise and closes
    /// stdout without ever advertising must be killed *and reaped* by
    /// the failing launch — the old line iterator surfaced the UTF-8
    /// decode error straight through `?` with the child still running,
    /// leaking it.
    #[test]
    #[cfg(target_os = "linux")]
    fn failed_launch_kills_and_reaps_the_child() {
        let marker = format!("fxspawn_leak_probe_{}", std::process::id());
        let pid_file = std::env::temp_dir().join(format!("{marker}.pid"));
        // The shell records its own pid before closing stdout, which is
        // what fails the launch. It then blocks in the `read` builtin on
        // a stdin pipe the child handle holds open, so the shell itself —
        // still carrying the marker in its argv — is the only process to
        // kill, and no forked child outlives it.
        let mut cmd = sh(&format!(
            "echo $$ > '{}'; printf '\\377\\376 junk\\n'; exec >&-; read _; : {marker}",
            pid_file.display()
        ));
        cmd.stdin(Stdio::piped());
        let err = SpawnedWorker::launch(cmd).expect_err("no advertisement must fail the launch");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let pid = std::fs::read_to_string(&pid_file).expect("pid file");
        let _ = std::fs::remove_file(&pid_file);
        // The shell must be gone: not running, and not a zombie either
        // (reaped processes have no /proc entry at all). An entry under
        // that pid is the shell only if it still carries the marker or,
        // as a zombie (whose cmdline is empty), is still our child;
        // anything else reused the pid.
        let dir = format!("/proc/{}", pid.trim());
        let leaked = std::fs::read_to_string(format!("{dir}/stat")).is_ok_and(|stat| {
            let cmdline = std::fs::read(format!("{dir}/cmdline")).unwrap_or_default();
            let mut fields = stat
                .rsplit_once(')')
                .map_or("", |(_, r)| r)
                .split_whitespace();
            let (state, ppid) = (fields.next(), fields.next());
            String::from_utf8_lossy(&cmdline).contains(&marker)
                || (state == Some("Z") && ppid == Some(&std::process::id().to_string()))
        });
        assert!(
            !leaked,
            "failed launch leaked the worker child process {dir}"
        );
    }
}
