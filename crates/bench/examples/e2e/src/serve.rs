//! The job-server rung: an in-process `JobServer` with pooled
//! `serve_pooled` worker threads on `unix:` sockets, one closed-loop
//! client.
//!
//! Readiness is a bound listener and completion is a join — nothing here
//! sleeps. Pooled workers only leave their accept loop on a session torn
//! down with `Teardown::Shutdown`, so [`Daemon::stop`] retires them with
//! one last one-cycle job placed through the public coordinator seam.

use crate::inputs::Design;
use crate::layers::{prepare, s, sim_setup, Ctx, Res};
use crate::measure::Usage;
use fireaxe::ir::circuit_to_tape;
use fireaxe::ir::parser::parse_circuit;
use fireaxe_net::{
    execute_placed, place_cluster, serve_pooled, NetListener, RecoveryOptions, SpawnedWorker,
    Teardown, WireSettings, BACKEND_NET, JOB_DONE,
};
use fireaxe_serve::{JobServer, ServeClient, ServeOptions, SubmitSpec, WorkerSpawner};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DIAL: Duration = Duration::from_secs(10);

/// A design as the job server receives it: tape bytes + spec + settings.
#[derive(Clone)]
pub struct JobSpec {
    /// The design the submission was encoded from.
    pub design: Design,
    tape: Vec<u8>,
    /// Requested target cycles.
    pub budget: u64,
}

impl JobSpec {
    /// Encodes `design`'s text into a submission of `budget` cycles. Jobs
    /// ask for one state sample at the budget cycle: a result the client
    /// can check, at the cost of a single digest.
    pub fn new(cx: &Ctx, design: &Design, budget: u64) -> Res<Self> {
        let circuit = parse_circuit(&design.text).map_err(s)?;
        let (tape, _) = cx
            .tr
            .timed("ir.tape.encode", &design.name, || circuit_to_tape(&circuit));
        Ok(JobSpec {
            design: design.clone(),
            tape,
            budget,
        })
    }

    /// The wire settings of every job: defaults plus the end-of-run sample.
    pub fn settings(&self) -> WireSettings {
        WireSettings {
            sample_interval: self.budget,
            ..WireSettings::default()
        }
    }
}

/// One completed job as the client saw it. Times are reference-clock
/// times (`trace.rs`), calibrated just before the job.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Connect → `JobResult`, seconds.
    pub latency_s: f64,
    /// Connect + submit → `JobAccepted`, seconds: the client-side cost
    /// before the server starts on the job.
    pub client_s: f64,
    /// Server-reported submit → placed, µs.
    pub admission_us: f64,
    /// User + system CPU time of the whole process over the job, µs.
    pub cpu_us: f64,
    /// Whether admission hit the daemon's tape cache.
    pub cache_hit: bool,
    /// Target cycles simulated.
    pub cycles: u64,
    /// Target-visible results (link tokens, sampled digests).
    pub results: Vec<(String, u64)>,
}

/// `(cycle, state_digest)` rows of a series JSON document, keyed like
/// `layers::series_rows` keys an in-memory series.
fn rows_from_series_json(json: &str, out: &mut Vec<(String, u64)>) {
    for (ni, node) in json.split("\"node\": ").skip(1).enumerate() {
        for sample in node.split("\"cycle\": ").skip(1) {
            let num = |text: &str| -> Option<u64> {
                let end = text.find(|c: char| !c.is_ascii_digit())?;
                text[..end].parse().ok()
            };
            let digest = sample.split("\"state_digest\": ").nth(1).and_then(&num);
            if let (Some(cycle), Some(digest)) = (num(sample), digest) {
                out.push((format!("node{ni}@{cycle}.digest"), digest));
            }
        }
    }
}

/// `target_cycles` and per-link token totals of a metrics JSON document.
fn links_from_metrics_json(json: &str, out: &mut Vec<(String, u64)>) {
    let field = |name: &str| json.split(name).nth(1);
    if let Some(v) = field("\"target_cycles\": ")
        .and_then(|rest| rest.split([',', '}']).next()?.trim().parse().ok())
    {
        out.push(("target_cycles".to_string(), v));
    }
    if let Some(list) = field("\"link_tokens\": [").and_then(|rest| rest.split(']').next()) {
        for (li, tok) in list.split(',').filter(|t| !t.trim().is_empty()).enumerate() {
            if let Ok(v) = tok.trim().parse() {
                out.push((format!("link{li}.tokens"), v));
            }
        }
    }
}

/// A pooled worker thread and the address it serves on.
type PooledWorker = (String, JoinHandle<fireaxe::sim::Result<()>>);

/// A running daemon plus the pooled worker threads it spawned.
pub struct Daemon {
    server: JobServer,
    /// Address clients dial.
    pub addr: String,
    workers: Arc<Mutex<Vec<PooledWorker>>>,
}

impl Daemon {
    /// Starts a daemon with default options; pooled workers are threads
    /// running `serve_pooled` on listeners bound before the pool hands
    /// their address out.
    pub fn start(cx: &Ctx) -> Res<Self> {
        let listener = NetListener::bind(&cx.unix_addr()).map_err(s)?;
        let addr = listener.local_addr_string();
        let workers = Arc::new(Mutex::new(Vec::new()));
        let spawned = Arc::clone(&workers);
        let prefix = format!("{}-w", cx.unix_addr().trim_end_matches(".sock"));
        let seq = AtomicU32::new(0);
        let spawner: WorkerSpawner = Box::new(move || {
            let n = seq.fetch_add(1, Ordering::Relaxed);
            let listener = NetListener::bind(&format!("{prefix}{n}.sock"))?;
            let addr = listener.local_addr_string();
            let handle = std::thread::spawn(move || serve_pooled(&listener, &sim_setup));
            spawned
                .lock()
                .expect("pooled-worker list lock")
                .push((addr.clone(), handle));
            Ok(SpawnedWorker::external(addr))
        });
        let server = JobServer::start(
            listener,
            spawner,
            Arc::new(sim_setup),
            ServeOptions::default(),
        );
        Ok(Daemon {
            server,
            addr,
            workers,
        })
    }

    /// One closed-loop job: connect, submit, wait for the result.
    pub fn submit(&self, cx: &Ctx, job: &JobSpec) -> Res<JobSample> {
        let tag = job.design.name.as_str();
        cx.tr.calibrate();
        let (u0, t0) = (Usage::now(), Instant::now());
        let (accepted, client_s) = cx.tr.timed("serve.client.submit", tag, || {
            let mut client = ServeClient::connect(&self.addr, DIAL)?;
            client.submit(SubmitSpec {
                tenant: "e2e".to_string(),
                budget: job.budget,
                backend: BACKEND_NET,
                tape: job.tape.clone(),
                spec: job.design.spec.clone().expect("served designs are cut"),
                settings: job.settings(),
            })?;
            Ok::<_, fireaxe::sim::SimError>(client)
        });
        let mut client = accepted.map_err(s)?;
        let (out, _) = cx.tr.timed("serve.job", tag, || client.wait_result());
        let out = out.map_err(s)?;
        let latency_s = t0.elapsed().as_secs_f64() * cx.tr.scale();
        let usage = Usage::now().since(&u0, cx.tr.scale());
        if out.outcome != JOB_DONE {
            return Err(format!(
                "job {} ended {}: {}",
                out.job, out.outcome, out.error
            ));
        }
        let mut results = Vec::new();
        links_from_metrics_json(&out.metrics_json, &mut results);
        rows_from_series_json(&out.series_json, &mut results);
        Ok(JobSample {
            latency_s,
            client_s,
            admission_us: out.admission_micros as f64 * cx.tr.scale(),
            cpu_us: usage.cpu_us,
            cache_hit: out.cache_hit,
            cycles: out.cycles,
            results,
        })
    }

    /// Shuts the daemon down, then retires and joins every pooled worker
    /// thread with a one-cycle `Teardown::Shutdown` job of `job`'s design
    /// (whose partition count matches the fleets the pool grew by).
    pub fn stop(mut self, cx: &Ctx, job: &JobSpec) -> Res<()> {
        self.server.shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().expect("pooled-worker list lock"));
        if workers.is_empty() {
            return Ok(());
        }
        let circuit = parse_circuit(&job.design.text).map_err(s)?;
        let prepared = prepare(cx, &job.design, &circuit, &job.settings())?;
        let n = prepared.n_workers();
        if !workers.len().is_multiple_of(n) {
            return Err(format!(
                "{} pooled workers cannot be retired {n} at a time",
                workers.len()
            ));
        }
        let (addrs, handles): (Vec<_>, Vec<_>) = workers.into_iter().unzip();
        for fleet in addrs.chunks(n) {
            let placed = place_cluster(&prepared, fleet, 10_000).map_err(s)?;
            execute_placed(
                &prepared,
                placed,
                1,
                RecoveryOptions::none(),
                None,
                Teardown::Shutdown,
            )
            .map_err(s)?;
        }
        for h in handles {
            h.join()
                .map_err(|_| "pooled worker thread panicked")?
                .map_err(s)?;
        }
        Ok(())
    }
}
