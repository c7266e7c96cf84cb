//! The `fireaxe` command-line runner: push-button partitioned simulation
//! from files, the analog of the paper artifact's `firesim` manager
//! invocations.
//!
//! ```text
//! fireaxe run <run.json> [--circuit design.fir] [--cycles N]
//!             [--backend des|threads[:n]|net] [--trace out.trace.json]
//!             [--vcd out.vcd] [--metrics out.json|out.csv]
//!             [--signals a,b,..] [--sample-interval N] [--estimate]
//! fireaxe coordinator <run.json> [--workers addr,addr,..] [run flags]
//! fireaxe worker [--listen <host:port|unix:/path>] [--pooled]
//! fireaxe attach <addr> [--serve-http <port>]
//! fireaxe serve [--listen <addr>] [--pool N] [--cache N] [--quota t:j:c:s]
//! fireaxe submit <run.json> [--server <addr>] [--tenant <name>] [run flags]
//! fireaxe jobs [--server <addr>] [--job N]
//! fireaxe cancel <job> [--server <addr>] [--reason <text>]
//! ```
//!
//! `run.json` is a [`fireaxe::RunConfig`]; its `"circuit"` field names
//! the textual-IR design (resolved relative to the config file) unless
//! `--circuit` overrides it. The legacy spelling
//! `fireaxe --circuit design.fir --config run.json` still works.
//!
//! The `--backend` flag and the config's `"backend"` field share one
//! parser (`Backend::from_str`), so `des`, `threads`, `threads:<n>`,
//! and `net` mean the same thing everywhere. With `net`, each partition
//! runs in its own OS process: the addresses come from the config's
//! `"net"` object (or `--workers`), and when none are given the binary
//! self-spawns `fireaxe worker` subprocesses on localhost.
//! `fireaxe coordinator` is `run` with the backend pinned to `net`.
//!
//! Every partition runs on the compiled tape. The config's `platform`,
//! `clock_mhz` and `partition_clocks` shape the DES model's virtual
//! clock; a threads or net run has none and ignores them.
//!
//! Prints the partition report, the compiler's quick rate estimate, the
//! measured simulation rate, and the per-node/per-link metrics summary.
//! The `--trace`/`--vcd`/`--metrics`/`--signals`/`--sample-interval`
//! flags override the config's `"obs"` object.
//!
//! With `--backend net`, `--control <addr>` (or the config's
//! `net.control` field) opens a live-cockpit control listener on the
//! coordinator; `fireaxe attach <addr>` then connects a line-oriented
//! REPL — peek/poke signals, pause/step/resume the whole cluster, take
//! on-demand checkpoints, and tail waveform/metric streams — or, with
//! `--serve-http <port>`, relays the streams as NDJSON over HTTP.
//!
//! `fireaxe serve` turns the same machinery into a persistent
//! multi-tenant job server: it pools reusable `fireaxe worker --pooled`
//! processes, caches compiled designs by their canonical tape bytes,
//! and enforces per-tenant quotas. `fireaxe submit` sends a run config
//! to such a daemon and waits for the result; `fireaxe jobs` lists the
//! job table and cache/pool counters; `fireaxe cancel` evicts a job.

use fireaxe::prelude::*;
use fireaxe::{ObsConfig, RunConfig};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: fireaxe run <run.json> [--circuit <design.fir>] [--cycles N] \
     [--backend des|threads[:n]|net] [--trace <out.json>] [--vcd <out.vcd>] \
     [--metrics <out.json|out.csv>] [--signals <a,b,..>] [--sample-interval N] [--estimate]\n\
       fireaxe coordinator <run.json> [--workers <addr,addr,..>] [--control <addr>] \
     [run flags]\n\
       fireaxe worker [--listen <host:port|unix:/path>] [--chaos-kill N] [--pooled]\n\
       fireaxe attach <addr> [--serve-http <port>]\n\
       fireaxe serve [--listen <addr>] [--pool N] [--cache N] [--quota <t:j:c:s>] [--stop]\n\
       fireaxe submit <run.json> [--server <addr>] [--tenant <name>] [--cycles N] [run flags]\n\
       fireaxe jobs [--server <addr>] [--job N]\n\
       fireaxe cancel <job> [--server <addr>] [--reason <text>]";

const ATTACH_USAGE: &str = "usage: fireaxe attach <host:port|unix:/path> [--serve-http <port>]\n\
connects to a coordinator's control listener (the `net.control` config \
field or `--control`); without --serve-http runs the cockpit REPL on \
stdin/stdout (type `help`), with it relays the wave/metric streams as \
NDJSON over HTTP on 127.0.0.1:<port> (0 = ephemeral)";

const WORKER_USAGE: &str =
    "usage: fireaxe worker [--listen <host:port|unix:/path>] [--chaos-kill N] [--pooled]\n\
binds the listener (default 127.0.0.1:0), prints `listening on <addr>`, \
then serves exactly one coordinator session; --chaos-kill aborts the \
process after N simulated target cycles (failover test hook); --pooled \
serves jobs forever, returning to accept after each `ResetToIdle` \
(--lifeline additionally exits when stdin reaches EOF — the job-server \
daemon pipes stdin so its pooled workers die with it)";

const SERVE_USAGE: &str = "usage: fireaxe serve [--listen <host:port|unix:/path>] [--pool N] \
[--cache N] [--max-restarts N] [--quota <tenant:jobs:cycles:worker_secs>]... [--stop]\n\
runs the multi-tenant job server: pooled reusable workers, a compiled-design \
cache keyed by tape bytes, per-tenant quotas (0 = unlimited; tenant `*` sets \
the default). --stop asks a running daemon (at --listen) to shut down";

const SUBMIT_USAGE: &str = "usage: fireaxe submit <run.json> [--server <addr>] \
[--tenant <name>] [--cycles N] [--circuit <design.fir>] [--backend net|threads] \
[--vcd <out.vcd>] [--metrics <out.json>] [--signals <a,b,..>] [--sample-interval N]\n\
sends the design to a `fireaxe serve` daemon and waits for the result";

const JOBS_USAGE: &str = "usage: fireaxe jobs [--server <addr>] [--job N]\n\
lists the daemon's job table (one job with --job) plus cache and pool counters";

const CANCEL_USAGE: &str = "usage: fireaxe cancel <job> [--server <addr>] [--reason <text>]\n\
cancels (or, with --reason, operator-evicts) a job on the daemon";

/// Where `serve` listens and `submit`/`jobs`/`cancel` dial when
/// `--listen`/`--server` are not given.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:4557";

struct Args {
    circuit: Option<String>,
    config: String,
    cycles: u64,
    estimate_only: bool,
    backend: Option<String>,
    /// `coordinator` subcommand: pin the backend to `net`.
    force_net: bool,
    /// `--workers` override for the config's `net.workers` list.
    workers: Option<Vec<String>>,
    /// `--control` override for the config's `net.control` address.
    control: Option<String>,
    obs: ObsFlags,
}

/// The observability flags of `run` and `submit`, folded over the
/// config's `"obs"` object.
#[derive(Default)]
struct ObsFlags {
    /// `--trace`: `run` only.
    trace: Option<String>,
    vcd: Option<String>,
    metrics: Option<String>,
    signals: Option<Vec<String>>,
    sample_interval: Option<u64>,
}

impl ObsFlags {
    /// Takes `arg` (and its value from `it`) when it is a waveform or
    /// metric flag; says whether it was one.
    fn take(&mut self, arg: &str, it: &mut impl Iterator<Item = String>) -> Result<bool, String> {
        match arg {
            "--vcd" => self.vcd = Some(it.next().ok_or("--vcd needs a path")?),
            "--metrics" => self.metrics = Some(it.next().ok_or("--metrics needs a path")?),
            "--signals" => {
                let list = it.next().ok_or("--signals needs a comma-separated list")?;
                self.signals = Some(list.split(',').map(str::to_string).collect());
            }
            "--sample-interval" => {
                self.sample_interval = Some(parse_u64(it, "--sample-interval")?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Overrides the config's `"obs"` fields with the flags given.
    fn apply(&self, cfg: &mut RunConfig) {
        let wants_obs = self.trace.is_some()
            || self.vcd.is_some()
            || self.metrics.is_some()
            || self.signals.is_some()
            || self.sample_interval.is_some();
        if cfg.obs.is_none() && !wants_obs {
            return;
        }
        let obs = cfg.obs.get_or_insert_with(ObsConfig::default);
        if let Some(p) = &self.trace {
            obs.trace_path = p.clone();
        }
        if let Some(p) = &self.vcd {
            obs.vcd_path = p.clone();
        }
        if let Some(p) = &self.metrics {
            obs.metrics_path = p.clone();
        }
        if let Some(s) = &self.signals {
            obs.signals = s.clone();
        }
        if let Some(n) = self.sample_interval {
            obs.sample_interval = n;
        }
        // Asking for a trace or metric file implies sampling; pick a
        // default interval rather than silently producing an empty series.
        if obs.sample_interval == 0 && (!obs.trace_path.is_empty() || !obs.metrics_path.is_empty())
        {
            obs.sample_interval = 100;
        }
    }
}

enum Cmd {
    // Boxed: `Args` dwarfs the other variant and `Cmd` is passed around
    // by value out of the parser.
    Run(Box<Args>),
    Worker {
        listen: String,
        chaos_kill: Option<u64>,
        pooled: bool,
        lifeline: bool,
    },
    Attach {
        addr: String,
        serve_http: Option<u16>,
    },
    Serve {
        listen: String,
        options: fireaxe_serve::ServeOptions,
        stop: bool,
    },
    Submit(Box<SubmitArgs>),
    Jobs {
        server: String,
        job: u64,
    },
    Cancel {
        server: String,
        job: u64,
        reason: Option<String>,
    },
}

struct SubmitArgs {
    config: String,
    server: String,
    tenant: String,
    cycles: u64,
    circuit: Option<String>,
    /// `net` (pooled worker processes) or `threads` (in the daemon).
    backend: String,
    obs: ObsFlags,
}

/// Parses one `--quota tenant:jobs:cycles:worker_secs` spec (0 means
/// unlimited for each field; tenant `*` sets the default quota).
fn parse_quota(spec: &str) -> Result<(String, fireaxe_serve::TenantQuota), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [tenant, jobs, cycles, secs] = parts.as_slice() else {
        return Err(format!(
            "bad --quota `{spec}`: want tenant:jobs:cycles:worker_secs"
        ));
    };
    let num = |what: &str, s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|e| format!("bad --quota {what} in `{spec}`: {e}"))
    };
    let jobs = num("jobs", jobs)?;
    let cycles = num("cycles", cycles)?;
    let secs = num("worker_secs", secs)?;
    let unlimited = |v: u64| if v == 0 { u64::MAX } else { v };
    Ok((
        tenant.to_string(),
        fireaxe_serve::TenantQuota {
            max_concurrent: if jobs == 0 {
                u32::MAX
            } else {
                u32::try_from(jobs).map_err(|_| format!("--quota jobs too large in `{spec}`"))?
            },
            cycle_budget: unlimited(cycles),
            worker_seconds: unlimited(secs),
        },
    ))
}

fn parse_u64(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    it.next()
        .ok_or(format!("{flag} needs a number"))?
        .parse()
        .map_err(|e| format!("bad {flag} value: {e}"))
}

/// Parses the command line after the program name.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut it = args.peekable();
    if it.peek().map(String::as_str) == Some("worker") {
        it.next();
        let mut listen = "127.0.0.1:0".to_string();
        let mut chaos_kill = None;
        let mut pooled = false;
        let mut lifeline = false;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--listen" => listen = it.next().ok_or("--listen needs an address")?,
                "--chaos-kill" => chaos_kill = Some(parse_u64(&mut it, "--chaos-kill")?),
                "--pooled" => pooled = true,
                "--lifeline" => lifeline = true,
                "--help" | "-h" => return Err(WORKER_USAGE.into()),
                other => return Err(format!("unknown worker argument `{other}` (try --help)")),
            }
        }
        return Ok(Cmd::Worker {
            listen,
            chaos_kill,
            pooled,
            lifeline,
        });
    }
    if it.peek().map(String::as_str) == Some("serve") {
        it.next();
        let mut listen = DEFAULT_SERVE_ADDR.to_string();
        let mut options = fireaxe_serve::ServeOptions::default();
        let mut stop = false;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--listen" | "--server" => listen = it.next().ok_or("--listen needs an address")?,
                "--pool" => options.pool_size = parse_u64(&mut it, "--pool")? as usize,
                "--cache" => options.cache_capacity = parse_u64(&mut it, "--cache")? as usize,
                "--max-restarts" => {
                    options.max_restarts = u32::try_from(parse_u64(&mut it, "--max-restarts")?)
                        .map_err(|_| "--max-restarts too large".to_string())?;
                }
                "--quota" => {
                    let (tenant, q) = parse_quota(&it.next().ok_or("--quota needs a spec")?)?;
                    if tenant == "*" {
                        options.default_quota = q;
                    } else {
                        options.quotas.insert(tenant, q);
                    }
                }
                "--stop" => stop = true,
                "--help" | "-h" => return Err(SERVE_USAGE.into()),
                other => return Err(format!("unknown serve argument `{other}` (try --help)")),
            }
        }
        return Ok(Cmd::Serve {
            listen,
            options,
            stop,
        });
    }
    if it.peek().map(String::as_str) == Some("submit") {
        it.next();
        let mut config = None;
        let mut server = DEFAULT_SERVE_ADDR.to_string();
        let mut tenant = String::new();
        let mut cycles = 10_000u64;
        let mut circuit = None;
        let mut backend = "net".to_string();
        let mut obs = ObsFlags::default();
        while let Some(arg) = it.next() {
            if obs.take(&arg, &mut it)? {
                continue;
            }
            match arg.as_str() {
                "--server" => server = it.next().ok_or("--server needs an address")?,
                "--tenant" => tenant = it.next().ok_or("--tenant needs a name")?,
                "--cycles" => cycles = parse_u64(&mut it, "--cycles")?,
                "--circuit" => circuit = Some(it.next().ok_or("--circuit needs a path")?),
                "--backend" => backend = it.next().ok_or("--backend needs net|threads")?,
                "--help" | "-h" => return Err(SUBMIT_USAGE.into()),
                other if config.is_none() && !other.starts_with('-') => {
                    config = Some(other.to_string());
                }
                other => return Err(format!("unknown submit argument `{other}` (try --help)")),
            }
        }
        return Ok(Cmd::Submit(Box::new(SubmitArgs {
            config: config.ok_or("missing config path (try --help)")?,
            server,
            tenant,
            cycles,
            circuit,
            backend,
            obs,
        })));
    }
    if it.peek().map(String::as_str) == Some("jobs") {
        it.next();
        let mut server = DEFAULT_SERVE_ADDR.to_string();
        let mut job = 0u64;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--server" => server = it.next().ok_or("--server needs an address")?,
                "--job" => job = parse_u64(&mut it, "--job")?,
                "--help" | "-h" => return Err(JOBS_USAGE.into()),
                other => return Err(format!("unknown jobs argument `{other}` (try --help)")),
            }
        }
        return Ok(Cmd::Jobs { server, job });
    }
    if it.peek().map(String::as_str) == Some("cancel") {
        it.next();
        let mut server = DEFAULT_SERVE_ADDR.to_string();
        let mut job = None;
        let mut reason = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--server" => server = it.next().ok_or("--server needs an address")?,
                "--reason" => reason = Some(it.next().ok_or("--reason needs text")?),
                "--help" | "-h" => return Err(CANCEL_USAGE.into()),
                other if job.is_none() && !other.starts_with('-') => {
                    job = Some(
                        other
                            .parse()
                            .map_err(|e| format!("bad job id `{other}`: {e}"))?,
                    );
                }
                other => return Err(format!("unknown cancel argument `{other}` (try --help)")),
            }
        }
        return Ok(Cmd::Cancel {
            server,
            job: job.ok_or("missing job id (try --help)")?,
            reason,
        });
    }
    if it.peek().map(String::as_str) == Some("attach") {
        it.next();
        let mut addr = None;
        let mut serve_http = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--serve-http" => {
                    let port = parse_u64(&mut it, "--serve-http")?;
                    serve_http = Some(u16::try_from(port).map_err(|_| {
                        format!("--serve-http: {port} is not a TCP port (0..=65535)")
                    })?);
                }
                "--help" | "-h" => return Err(ATTACH_USAGE.into()),
                other if addr.is_none() && !other.starts_with('-') => {
                    addr = Some(other.to_string());
                }
                other => return Err(format!("unknown attach argument `{other}` (try --help)")),
            }
        }
        return Ok(Cmd::Attach {
            addr: addr.ok_or("missing control address (try --help)")?,
            serve_http,
        });
    }

    let mut circuit = None;
    let mut config = None;
    let mut cycles = 10_000u64;
    let mut estimate_only = false;
    let mut backend = None;
    let mut force_net = false;
    let mut workers = None;
    let mut control = None;
    let mut obs = ObsFlags::default();
    let mut run_seen = false;
    while let Some(arg) = it.next() {
        if obs.take(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "run" if !run_seen && config.is_none() => run_seen = true,
            "coordinator" if !run_seen && config.is_none() => {
                run_seen = true;
                force_net = true;
            }
            "--circuit" => circuit = Some(it.next().ok_or("--circuit needs a path")?),
            "--config" => config = Some(it.next().ok_or("--config needs a path")?),
            "--cycles" => cycles = parse_u64(&mut it, "--cycles")?,
            "--backend" => backend = Some(it.next().ok_or("--backend needs des|threads[:n]|net")?),
            "--workers" => {
                let list = it.next().ok_or("--workers needs a comma-separated list")?;
                workers = Some(list.split(',').map(str::to_string).collect());
            }
            "--control" => control = Some(it.next().ok_or("--control needs an address")?),
            "--trace" => obs.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--estimate" => estimate_only = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other if run_seen && config.is_none() && !other.starts_with('-') => {
                config = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Cmd::Run(Box::new(Args {
        circuit,
        config: config.ok_or("missing config path (try --help)")?,
        cycles,
        estimate_only,
        backend,
        force_net,
        workers,
        control,
        obs,
    })))
}

fn write_out(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// Reads and parses the circuit of a run: `--circuit`, else the
/// config's `circuit` field resolved relative to the config file.
fn read_circuit(flag: Option<&str>, config: &str, cfg: &RunConfig) -> Result<Circuit, String> {
    let path = match flag {
        Some(p) => p.to_string(),
        None if !cfg.circuit.is_empty() => Path::new(config)
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(&cfg.circuit)
            .to_string_lossy()
            .into_owned(),
        None => {
            return Err("missing circuit: pass --circuit or set `circuit` in the config".into())
        }
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    fireaxe::ir::parser::parse_circuit(&text).map_err(|e| e.to_string())
}

/// Writes the waveform and the metric series (CSV or JSON by the path's
/// extension) `obs` asks for; `series` names the series in the message.
fn write_observations(
    obs: &ObsConfig,
    vcd: Option<&str>,
    metrics: &fireaxe::obs::MetricsSeries,
    series: &str,
) -> Result<(), String> {
    if !obs.vcd_path.is_empty() {
        write_out(&obs.vcd_path, vcd.unwrap_or_default())?;
        println!("wrote waveform to {}", obs.vcd_path);
    }
    if !obs.metrics_path.is_empty() {
        let doc = if obs.metrics_path.ends_with(".csv") {
            metrics.to_csv()
        } else {
            metrics.to_json()
        };
        write_out(&obs.metrics_path, &doc)?;
        let samples: usize = metrics.nodes.iter().map(|n| n.samples.len()).sum();
        println!(
            "wrote {series} ({samples} node samples) to {}",
            obs.metrics_path
        );
    }
    Ok(())
}

/// The behavior bindings every process in a cluster applies
/// identically: the built-in SoC models as a fallback factory. Workers,
/// the coordinator's passive build, and the single-process backends all
/// resolve extern behaviors through this same hook, which is what makes
/// the cross-process digests comparable in the first place.
fn net_setup(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut registry = BehaviorRegistry::new();
    fireaxe::register_soc_behaviors(&mut registry);
    b.behaviors(registry)
}

/// `fireaxe worker`: bind, advertise the resolved address on stdout,
/// serve one coordinator session, exit. `--chaos-kill N` aborts the
/// whole process (socket dies cold, exactly like a crash) once every
/// owned node has simulated N target cycles. `--pooled` serves jobs
/// forever instead (one per accepted session, reset in between); with
/// `--lifeline` the process additionally exits as soon as stdin hits
/// EOF, which is how daemon-spawned pooled workers die with their
/// daemon — any way the daemon goes down (clean shutdown, SIGTERM,
/// SIGKILL), the stdin pipe it holds closes and every child exits.
fn run_worker(
    listen: &str,
    chaos_kill: Option<u64>,
    pooled: bool,
    lifeline: bool,
) -> Result<(), String> {
    let listener =
        fireaxe_net::NetListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    // The advertise line is machine-read by `SpawnedWorker::launch`;
    // stdout is a pipe there, so flush explicitly.
    println!(
        "{}{}",
        fireaxe_net::spawn::LISTENING_PREFIX,
        listener.local_addr_string()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if lifeline {
        std::thread::spawn(|| {
            use std::io::Read as _;
            let mut sink = [0u8; 64];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(1..) => {}
                    // EOF or error: the spawning daemon is gone.
                    _ => std::process::exit(0),
                }
            }
        });
    }
    let options = fireaxe_net::WorkerOptions {
        chaos_kill,
        chaos_abort: chaos_kill.is_some(),
        chaos_hang: None,
    };
    if pooled {
        fireaxe_net::serve_pooled_with(&listener, &net_setup, &options).map_err(|e| e.to_string())
    } else {
        fireaxe_net::serve_with(&listener, &net_setup, &options).map_err(|e| e.to_string())
    }
}

/// The command line for one daemon-owned pooled worker: like
/// [`worker_command`] but pooled and lifelined, with stdin piped so
/// the child exits when this process dies.
fn pooled_worker_command(exe: &std::path::Path) -> std::process::Command {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("worker")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--pooled")
        .arg("--lifeline")
        .stdin(std::process::Stdio::piped());
    cmd
}

/// `fireaxe serve`: the persistent multi-tenant job server (or, with
/// `stop`, ask a running one to shut down).
fn run_serve(listen: &str, options: fireaxe_serve::ServeOptions, stop: bool) -> Result<(), String> {
    if stop {
        let mut client =
            fireaxe_serve::ServeClient::connect(listen, std::time::Duration::from_secs(10))
                .map_err(|e| e.to_string())?;
        client.shutdown_server().map_err(|e| e.to_string())?;
        println!("asked the daemon at {listen} to shut down");
        return Ok(());
    }
    let listener =
        fireaxe_net::NetListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    println!("job server listening on {}", listener.local_addr_string());
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawner: fireaxe_serve::WorkerSpawner =
        Box::new(move || fireaxe_net::SpawnedWorker::launch(pooled_worker_command(&exe)));
    let server =
        fireaxe_serve::JobServer::start(listener, spawner, std::sync::Arc::new(net_setup), options);
    // Blocks until a client sends `Shutdown` (`fireaxe serve --stop`).
    server.wait();
    println!("job server shut down");
    Ok(())
}

/// `fireaxe submit`: ship a run config to a job-server daemon and wait
/// for its result.
fn run_submit(args: &SubmitArgs) -> Result<(), String> {
    let config_text =
        std::fs::read_to_string(&args.config).map_err(|e| format!("{}: {e}", args.config))?;
    let mut cfg = RunConfig::from_json(&config_text).map_err(|e| e.to_string())?;
    let backend = match args.backend.as_str() {
        "net" => fireaxe_net::BACKEND_NET,
        "threads" => fireaxe_net::BACKEND_THREADS,
        other => {
            return Err(format!(
                "--backend {other}: the job server runs net|threads"
            ))
        }
    };
    args.obs.apply(&mut cfg);
    let obs = cfg.obs.clone().unwrap_or_default();
    if obs.metrics_path.ends_with(".csv") {
        return Err(format!(
            "metrics_path `{}`: a job server returns the metric series as JSON; \
             name a .json file",
            obs.metrics_path
        ));
    }
    let settings = cfg.wire_settings().map_err(|e| e.to_string())?;

    let circuit = read_circuit(args.circuit.as_deref(), &args.config, &cfg)?;
    let spec = cfg.partition_spec().map_err(|e| e.to_string())?;

    let mut client =
        fireaxe_serve::ServeClient::connect(&args.server, std::time::Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
    let outcome = client
        .submit_and_wait(fireaxe_serve::SubmitSpec {
            tenant: args.tenant.clone(),
            budget: args.cycles,
            backend,
            tape: fireaxe::ir::circuit_to_tape(&circuit),
            spec,
            settings,
        })
        .map_err(|e| e.to_string())?;

    println!(
        "job {}: {} after {} target cycles (admission {} µs, cache {})",
        outcome.job,
        job_state_name(outcome.outcome),
        outcome.cycles,
        outcome.admission_micros,
        if outcome.cache_hit { "hit" } else { "miss" }
    );
    if !outcome.error.is_empty() {
        println!("  {}", outcome.error);
    }
    if !obs.vcd_path.is_empty() && !outcome.vcd.is_empty() {
        write_out(&obs.vcd_path, &outcome.vcd)?;
        println!("wrote waveform to {}", obs.vcd_path);
    }
    if !obs.metrics_path.is_empty() && !outcome.series_json.is_empty() {
        write_out(&obs.metrics_path, &outcome.series_json)?;
        println!("wrote metric series to {}", obs.metrics_path);
    }
    if outcome.outcome == fireaxe_net::JOB_FAILED {
        return Err(format!("job {} failed: {}", outcome.job, outcome.error));
    }
    Ok(())
}

fn job_state_name(state: u8) -> &'static str {
    match state {
        fireaxe_net::JOB_QUEUED => "queued",
        fireaxe_net::JOB_RUNNING => "running",
        fireaxe_net::JOB_DONE => "done",
        fireaxe_net::JOB_EVICTED => "evicted",
        fireaxe_net::JOB_FAILED => "failed",
        _ => "unknown",
    }
}

fn print_status(jobs: &[fireaxe_net::JobInfo], stats: &fireaxe_net::ServeStats) {
    for j in jobs {
        println!(
            "job {:>4}  {:8} tenant={} backend={} budget={} cycles={} workers={} cache={}",
            j.job,
            job_state_name(j.state),
            if j.tenant.is_empty() { "-" } else { &j.tenant },
            if j.backend == fireaxe_net::BACKEND_THREADS {
                "threads"
            } else {
                "net"
            },
            j.budget,
            j.cycle,
            j.workers,
            if j.cache_hit { "hit" } else { "miss" }
        );
    }
    println!(
        "cache: {} hit(s), {} miss(es), {} resident, {} evicted; pool: {} idle, {} busy",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_entries,
        stats.cache_evictions,
        stats.pool_idle,
        stats.pool_busy
    );
}

/// `fireaxe jobs`: print the daemon's job table and counters.
fn run_jobs(server: &str, job: u64) -> Result<(), String> {
    let mut client =
        fireaxe_serve::ServeClient::connect(server, std::time::Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
    let (jobs, stats) = client.status(job).map_err(|e| e.to_string())?;
    print_status(&jobs, &stats);
    Ok(())
}

/// `fireaxe cancel`: cancel or operator-evict a job.
fn run_cancel(server: &str, job: u64, reason: Option<&str>) -> Result<(), String> {
    let mut client =
        fireaxe_serve::ServeClient::connect(server, std::time::Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
    let (jobs, stats) = match reason {
        Some(r) => client.evict(job, r).map_err(|e| e.to_string())?,
        None => client.cancel(job).map_err(|e| e.to_string())?,
    };
    print_status(&jobs, &stats);
    Ok(())
}

/// `fireaxe attach`: connect the live cockpit to a running
/// coordinator's control listener.
fn run_attach(addr: &str, serve: Option<u16>) -> Result<(), String> {
    let mut client =
        fireaxe::attach::AttachClient::connect(addr, std::time::Duration::from_secs(10))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    use std::io::Write as _;
    writeln!(
        out,
        "attached: {} node(s), {} watched signal(s), sample interval {}",
        client.nodes.len(),
        client.signals.len(),
        client.sample_interval
    )
    .map_err(|e| e.to_string())?;
    match serve {
        Some(port) => fireaxe::attach::serve_http(&mut client, port, &mut out),
        None => fireaxe::attach::run_repl(&mut client, std::io::stdin().lock(), &mut out),
    }
}

/// Prints the partition report and the compiler's quick rate estimate.
fn print_design_report(
    design: &fireaxe::ripper::PartitionedDesign,
    platform: Platform,
    clock_mhz: f64,
) -> Result<(), String> {
    println!("partitions: {}", design.partitions.len());
    for p in &design.partitions {
        for t in &p.threads {
            let est = fireaxe::fpga::estimate(&t.circuit);
            println!(
                "  {:24} {:>8} kLUT  (fit on {}: {})",
                t.name,
                est.luts / 1000,
                platform.fpga().name,
                fireaxe::fpga::fit_estimate(est, &platform.fpga())
            );
        }
    }
    println!(
        "boundary: {} bits over {} links; {} crossings/cycle",
        design.report.total_boundary_width(),
        design.links.len(),
        design.report.crossings_per_cycle
    );
    for note in &design.report.notes {
        println!("  note: {note}");
    }
    let est =
        estimate_target_mhz(design, platform.transport(), clock_mhz).map_err(|e| e.to_string())?;
    println!("estimated rate: {est:.3} MHz");
    Ok(())
}

/// The command line for one self-hosted worker subprocess. Respawned
/// replacements use the same spelling — deliberately without any
/// `--chaos-kill` the original may have carried, so a chaos campaign
/// kills each worker at most once per spawn.
fn worker_command(exe: &std::path::Path) -> std::process::Command {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("worker").arg("--listen").arg("127.0.0.1:0");
    cmd
}

/// `--backend net`: run the design's partitions on worker processes,
/// each hosting a contiguous run of them, self-spawning one
/// `fireaxe worker` subprocess per core (at most one per partition) when
/// the config names no addresses.
fn run_net(cfg: &RunConfig, circuit: Circuit, args: &Args) -> Result<(), String> {
    let settings = cfg.wire_settings().map_err(|e| e.to_string())?;
    let platform = cfg.platform().map_err(|e| e.to_string())?;
    let obs = cfg.obs.clone().unwrap_or_default();
    let spec = cfg.partition_spec().map_err(|e| e.to_string())?;
    let design = compile(&circuit, &spec).map_err(|e| e.to_string())?;
    print_design_report(&design, platform, cfg.clock_mhz)?;
    if args.estimate_only {
        return Ok(());
    }

    let mut net = cfg.net.clone().unwrap_or_default();
    if let Some(w) = &args.workers {
        net.workers = w.clone();
    }
    if let Some(c) = &args.control {
        net.control = c.clone();
    }

    // The cockpit listener comes up before the workers so an operator
    // can attach the moment the addresses print.
    let control = if net.control.is_empty() {
        None
    } else {
        let listener = fireaxe_net::NetListener::bind(&net.control)
            .map_err(|e| format!("bind control listener {}: {e}", net.control))?;
        println!(
            "control plane listening on {} (fireaxe attach {0})",
            listener.local_addr_string()
        );
        Some(listener)
    };

    // FireRipper runs once, here; the workers build their partitions
    // from the prepared payloads. The reported time covers preparing,
    // placing and running the job, not spawning its workers.
    let started = std::time::Instant::now();
    let prepared = fireaxe_net::prepare_job(&circuit, &spec, &settings, &net_setup)
        .map_err(|e| e.to_string())?;
    let prepare_time = started.elapsed();

    // Named addresses mean externally launched `fireaxe worker`
    // processes (1 to one per partition); an empty list self-hosts the
    // cluster on localhost, one worker per core, at most one per
    // partition.
    let n = prepared.n_workers();
    let (addrs, spawned) = if net.workers.is_empty() {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut spawned = Vec::with_capacity(n);
        for _ in 0..n {
            spawned.push(
                fireaxe_net::SpawnedWorker::launch(worker_command(&exe))
                    .map_err(|e| format!("spawning worker: {e}"))?,
            );
        }
        let addrs: Vec<String> = spawned.iter().map(|w| w.addr.clone()).collect();
        println!(
            "spawned {n} local worker process(es) on {}",
            addrs.join(", ")
        );
        (addrs, spawned)
    } else {
        (net.workers.clone(), Vec::new())
    };

    // Failover needs both a checkpoint to rewind to and the ability to
    // relaunch the dead partition's process — only self-spawned workers
    // give us the latter. The respawn closure swaps the replacement into
    // the shared pool so the old child is reaped and the new one is
    // supervised (killed on drop, waited on after the run).
    let pool = std::sync::Arc::new(std::sync::Mutex::new(spawned));
    let recovery = if !pool.lock().unwrap().is_empty()
        && cfg.checkpoint_interval > 0
        && net.max_restarts > 0
    {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let pool = std::sync::Arc::clone(&pool);
        fireaxe_net::RecoveryOptions {
            max_restarts: net.max_restarts,
            restart_backoff: std::time::Duration::from_millis(net.restart_backoff_ms),
            respawn: Some(Box::new(move |i| {
                let w = fireaxe_net::SpawnedWorker::launch(worker_command(&exe)).map_err(|e| {
                    SimError::Config {
                        message: format!("respawning worker {i}: {e}"),
                    }
                })?;
                let addr = w.addr.clone();
                pool.lock().unwrap()[i] = w;
                Ok(addr)
            })),
        }
    } else {
        fireaxe_net::RecoveryOptions::none()
    };

    let started = std::time::Instant::now();
    let placed = fireaxe_net::place_cluster(&prepared, &addrs, net.connect_timeout_ms)
        .map_err(|e| e.to_string())?;
    let report = fireaxe_net::execute_placed(
        &prepared,
        placed,
        args.cycles,
        recovery,
        control,
        fireaxe_net::Teardown::Shutdown,
    )
    .map_err(|e| e.to_string())?;
    let secs = (prepare_time + started.elapsed()).as_secs_f64();
    println!(
        "simulated {} target cycles across {} worker process(es) in {:.3} s: {:.0} cycles/s",
        report.metrics.target_cycles,
        addrs.len(),
        secs,
        report.metrics.target_cycles as f64 / secs.max(f64::EPSILON),
    );
    print!("{}", report.metrics);
    for r in &report.recoveries {
        println!(
            "recovered worker {} (partitions {:?}, restart {}): detected at cycle {}, rewound \
             to checkpoint cycle {}, back in {} ms",
            r.worker, r.partitions, r.restart, r.detected_cycle, r.rewind_cycle, r.recovery_ms
        );
    }
    let spawned = std::mem::take(&mut *pool.lock().unwrap());
    for w in spawned {
        if !w.wait().map_err(|e| format!("reaping worker: {e}"))? {
            return Err("a worker process exited with failure after the run".into());
        }
    }

    if !obs.trace_path.is_empty() {
        write_out(&obs.trace_path, &report.chrome_trace)?;
        println!(
            "wrote merged Chrome trace (coordinator + {} worker tracks) to {}",
            addrs.len(),
            obs.trace_path
        );
    }
    write_observations(
        &obs,
        report.vcd.as_deref(),
        &report.series,
        "merged metric series",
    )
}

fn run(args: Args) -> Result<(), String> {
    let config_text =
        std::fs::read_to_string(&args.config).map_err(|e| format!("{}: {e}", args.config))?;
    let mut cfg = RunConfig::from_json(&config_text).map_err(|e| e.to_string())?;
    if let Some(b) = &args.backend {
        cfg.backend = b.clone();
    }
    if args.force_net {
        if args.backend.as_deref().is_some_and(|b| b != "net") {
            return Err("`fireaxe coordinator` implies --backend net".into());
        }
        cfg.backend = "net".into();
    }
    args.obs.apply(&mut cfg);

    let circuit = read_circuit(args.circuit.as_deref(), &args.config, &cfg)?;

    // One parser decides the backend for the flag and the config field
    // alike; the multi-process path forks off before the in-process
    // flow is built.
    if matches!(
        cfg.execution_backend().map_err(|e| e.to_string())?,
        Backend::Net
    ) {
        return run_net(&cfg, circuit, &args);
    }

    let platform = cfg.platform().map_err(|e| e.to_string())?;
    let obs = cfg.obs.clone().unwrap_or_default();
    let flow = cfg.to_flow(circuit).map_err(|e| e.to_string())?;

    // Arm the event tracer before anything is compiled so FireRipper's
    // passes, build-time and run-time spans all land in the Chrome trace.
    if !obs.trace_path.is_empty() {
        fireaxe::obs::trace::set_enabled(true);
    }

    let design = flow.compile().map_err(|e| e.to_string())?;
    print_design_report(&design, platform, cfg.clock_mhz)?;
    if args.estimate_only {
        return Ok(());
    }

    let (_design, mut sim) = flow.build().map_err(|e| e.to_string())?;
    // `recovering` so configs with `checkpoint_interval` set survive
    // injected link outages by rolling back; without checkpoints it is
    // exactly `run_target_cycles`.
    let metrics = sim
        .run_target_cycles_recovering(args.cycles)
        .map_err(|e| e.to_string())?;
    println!(
        "simulated {} target cycles in {:.3} ms of virtual time: {:.3} MHz",
        metrics.target_cycles,
        metrics.time_ps as f64 / 1e9,
        metrics.target_mhz()
    );
    if sim.rollbacks_taken() > 0 {
        println!(
            "recovered from link faults via {} checkpoint rollback(s)",
            sim.rollbacks_taken()
        );
    }
    print!("{metrics}");

    let report = sim.obs_report();
    if !obs.trace_path.is_empty() {
        fireaxe::obs::trace::set_enabled(false);
        let events = fireaxe::obs::trace::take_events();
        write_out(&obs.trace_path, &fireaxe::obs::to_chrome_json(&events))?;
        println!("wrote {} trace events to {}", events.len(), obs.trace_path);
    }
    write_observations(
        &obs,
        report.vcd.as_deref(),
        &report.metrics,
        "metric series",
    )
}

fn main() -> ExitCode {
    let outcome = match parse_args(std::env::args().skip(1)) {
        Ok(Cmd::Worker {
            listen,
            chaos_kill,
            pooled,
            lifeline,
        }) => run_worker(&listen, chaos_kill, pooled, lifeline),
        Ok(Cmd::Attach { addr, serve_http }) => run_attach(&addr, serve_http),
        Ok(Cmd::Serve {
            listen,
            options,
            stop,
        }) => run_serve(&listen, options, stop),
        Ok(Cmd::Submit(args)) => run_submit(&args),
        Ok(Cmd::Jobs { server, job }) => run_jobs(&server, job),
        Ok(Cmd::Cancel {
            server,
            job,
            reason,
        }) => run_cancel(&server, job, reason.as_deref()),
        Ok(Cmd::Run(args)) => run(*args),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fireaxe: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, run_submit, Cmd};

    fn parse(argv: &[&str]) -> Result<Cmd, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn the_removed_batch_cycles_flag_is_an_unknown_argument() {
        let argv = ["coordinator", "demo/run.json", "--batch-cycles", "8"];
        match parse_args(argv.into_iter().map(String::from)) {
            Err(e) => assert!(e.contains("unknown argument `--batch-cycles`"), "{e}"),
            Ok(_) => panic!("--batch-cycles must be refused"),
        }
    }

    #[test]
    fn the_removed_engine_flag_is_an_unknown_argument() {
        match parse(&["run", "demo/run.json", "--engine", "reference"]) {
            Err(e) => assert!(e.contains("unknown argument `--engine`"), "{e}"),
            Ok(_) => panic!("--engine must be refused"),
        }
    }

    #[test]
    fn serve_without_flags_takes_the_server_defaults() {
        let Ok(Cmd::Serve { options, .. }) = parse(&["serve"]) else {
            panic!("`serve` must parse");
        };
        let defaults = fireaxe_serve::ServeOptions::default();
        assert_eq!(
            (options.pool_size, options.cache_capacity),
            (defaults.pool_size, defaults.cache_capacity)
        );
    }

    #[test]
    fn submit_refuses_a_csv_metrics_path_before_it_connects() {
        let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../demo/run.json");
        // Nothing listens on port 9 of this host: a connect attempt
        // would fail with another error.
        let argv = [
            "submit",
            config,
            "--server",
            "127.0.0.1:9",
            "--metrics",
            "out.csv",
        ];
        let Ok(Cmd::Submit(args)) = parse(&argv) else {
            panic!("`submit` must parse");
        };
        let err = run_submit(&args).expect_err("a .csv metrics path must be refused");
        assert!(err.contains("metrics_path"), "{err}");
    }
}
