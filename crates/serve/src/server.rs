//! The job server: accept loop, per-connection protocol handler, and
//! the submission → admission → placement → execution pipeline.
//!
//! One daemon owns four pieces of shared state — the tape cache
//! ([`TapeCache`]), the quota ledger ([`QuotaLedger`]), the pooled
//! worker fleet ([`WorkerPool`]), and the job table ([`JobTable`]) —
//! and serves many concurrent client connections, each on its own
//! thread. A connection that submits a job runs it inline (the
//! `JobAccepted` id goes out first, so other connections can query
//! and cancel it while it runs); N parallel clients therefore get N
//! concurrently executing jobs, all scheduling partitions onto the
//! same worker pool and all hitting the same compiled-design cache.
//!
//! The same pipeline serves both backends: `BACKEND_NET` leases
//! pooled workers and drives [`execute_placed`] with
//! [`Teardown::ResetToIdle`] (survivors go back on the shelf), while
//! `BACKEND_THREADS` runs the prepared design in-process via
//! [`execute_threads`] — same admission, same cache, same quota
//! accounting, same result wire format.

use crate::cache::TapeCache;
use crate::job::JobTable;
use crate::pool::{WorkerPool, WorkerSpawner};
use crate::quota::{QuotaLedger, TenantQuota};
use fireaxe_net::codec::PROTOCOL_MAGIC;
use fireaxe_net::{
    codec, execute_placed, execute_threads, place_cluster, prepare_job_from_tape, Msg, NetListener,
    NetRunReport, NetStream, RecoveryOptions, ServeStats, Teardown, WireSettings, BACKEND_THREADS,
    JOB_DONE, JOB_EVICTED, JOB_FAILED, JOB_RUNNING, PROTOCOL_VERSION,
};
use fireaxe_ripper::PartitionSpec;
use fireaxe_sim::{Result, SimBuilder, SimError, SimMetrics};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's simulation-setup hook (behavior registration etc.),
/// shared by every job. Same shape as
/// [`SimSetup`](fireaxe_net::SimSetup) plus `Send` so worker threads
/// can share it.
pub type ServeSetup = dyn for<'a> Fn(SimBuilder<'a>) -> SimBuilder<'a> + Send + Sync;

/// Daemon configuration.
pub struct ServeOptions {
    /// Worker-pool cap (max pooled worker processes alive at once).
    pub pool_size: usize,
    /// Tape-cache capacity (prepared designs held resident).
    pub cache_capacity: usize,
    /// Worker dial timeout during placement, ms.
    pub connect_timeout_ms: u64,
    /// Per-worker respawn budget for mid-job failover (active only
    /// when the submission enables checkpointing).
    pub max_restarts: u32,
    /// Quota applied to tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub quotas: HashMap<String, TenantQuota>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            pool_size: 8,
            cache_capacity: 8,
            connect_timeout_ms: fireaxe_net::DEFAULT_CONNECT_TIMEOUT_MS,
            max_restarts: fireaxe_net::DEFAULT_MAX_RESTARTS,
            default_quota: TenantQuota::default(),
            quotas: HashMap::new(),
        }
    }
}

struct Shared {
    cache: TapeCache,
    quotas: QuotaLedger,
    pool: Arc<WorkerPool>,
    jobs: JobTable,
    setup: Arc<ServeSetup>,
    connect_timeout_ms: u64,
    max_restarts: u32,
    shutting_down: AtomicBool,
    addr: String,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let c = self.cache.stats();
        let (idle, busy) = self.pool.counts();
        ServeStats {
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_entries: c.entries,
            cache_evictions: c.evictions,
            pool_idle: idle,
            pool_busy: busy,
        }
    }
}

/// A running `fireaxe serve` daemon. Dropping it (or calling
/// [`shutdown`](JobServer::shutdown)) stops the accept loop, fails
/// pending placements, and kills-and-reaps every pooled worker
/// exactly once.
pub struct JobServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl JobServer {
    /// Starts the daemon on `listener`. `spawner` produces pooled
    /// worker processes on demand; `setup` is applied to every
    /// simulation build (threads jobs and the compile-side passive
    /// metadata pass alike).
    #[must_use]
    pub fn start(
        listener: NetListener,
        spawner: WorkerSpawner,
        setup: Arc<ServeSetup>,
        options: ServeOptions,
    ) -> Self {
        let addr = listener.local_addr_string();
        let shared = Arc::new(Shared {
            cache: TapeCache::new(options.cache_capacity),
            quotas: QuotaLedger::new(options.default_quota, options.quotas),
            pool: Arc::new(WorkerPool::new(options.pool_size, spawner)),
            jobs: JobTable::default(),
            setup,
            connect_timeout_ms: options.connect_timeout_ms,
            max_restarts: options.max_restarts,
            shutting_down: AtomicBool::new(false),
            addr,
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        JobServer {
            shared,
            accept: Some(accept),
        }
    }

    /// The address clients should dial.
    #[must_use]
    pub fn addr(&self) -> String {
        self.shared.addr.clone()
    }

    /// Blocks until a client asks the daemon to shut down
    /// ([`Msg::Shutdown`], e.g. `fireaxe serve --stop`), then joins
    /// every connection thread — the daemon main loop.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn list lock"));
        for h in conns {
            let _ = h.join();
        }
    }

    /// Stops accepting, tears the pool down (every pooled child
    /// killed and reaped exactly once), and joins every connection
    /// thread. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        begin_shutdown(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn list lock"));
        for h in conns {
            let _ = h.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flips the shutdown flag (once), fails the pool, and pokes the
/// accept loop awake with a throwaway connection.
fn begin_shutdown(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.pool.shutdown();
    let _ = NetStream::connect(&shared.addr, Duration::from_millis(500));
}

/// Stack of every connection thread. A connection decodes, validates
/// and compiles the circuit tapes its clients submit, and each of those
/// passes recurses once per expression level: a tape nested to the
/// codec's `MAX_DEPTH` cap needs under 1 MiB optimised and 4–6 MiB
/// unoptimised for the whole of `prepare_job_from_tape`, where a thread
/// gets 2 MiB by default. The pages are reserved, not committed, until
/// used.
pub const CONN_STACK_BYTES: usize = 32 << 20;

/// Spawns a connection thread with a [`CONN_STACK_BYTES`] stack — the
/// one constructor the accept loop uses.
///
/// # Errors
///
/// The OS refused to create the thread.
pub fn spawn_conn_thread<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    std::thread::Builder::new()
        .name("serve-conn".into())
        .stack_size(CONN_STACK_BYTES)
        .spawn(f)
}

fn accept_loop(listener: &NetListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let conn_shared = Arc::clone(shared);
        let Ok(handle) = spawn_conn_thread(move || {
            let _ = handle_conn(stream, &conn_shared);
        }) else {
            // No thread, no connection: the client sees it close.
            continue;
        };
        let mut conns = shared.conns.lock().expect("conn list lock");
        // Reap connections that already hung up: an exited thread keeps
        // its stack until joined, and a daemon outlives many clients.
        for done in conns.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        conns.push(handle);
    }
}

fn handle_conn(mut stream: NetStream, shared: &Arc<Shared>) -> io::Result<()> {
    loop {
        let msg = match codec::read_msg(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Msg::Attach { magic, version } => {
                if magic != PROTOCOL_MAGIC || version != PROTOCOL_VERSION {
                    return Ok(());
                }
                codec::write_msg(
                    &mut stream,
                    &Msg::AttachAck {
                        nodes: Vec::new(),
                        signals: Vec::new(),
                        sample_interval: 0,
                    },
                )?;
            }
            Msg::SubmitJob {
                tenant,
                budget,
                backend,
                tape,
                spec,
                settings,
            } => {
                let job = shared.jobs.create(&tenant, backend, budget);
                codec::write_msg(&mut stream, &Msg::JobAccepted { job })?;
                let result = run_job(
                    shared, job, &tenant, budget, backend, &tape, &spec, &settings,
                );
                codec::write_msg(&mut stream, &result)?;
            }
            Msg::JobStatus { job } => {
                codec::write_msg(
                    &mut stream,
                    &Msg::JobStatusReply {
                        jobs: shared.jobs.snapshot(job),
                        stats: shared.stats(),
                    },
                )?;
            }
            Msg::CancelJob { job } => {
                cancel_job(shared, job, "cancelled by client");
                codec::write_msg(
                    &mut stream,
                    &Msg::JobStatusReply {
                        jobs: shared.jobs.snapshot(job),
                        stats: shared.stats(),
                    },
                )?;
            }
            Msg::EvictJob { job, reason } => {
                cancel_job(shared, job, &reason);
                codec::write_msg(
                    &mut stream,
                    &Msg::JobStatusReply {
                        jobs: shared.jobs.snapshot(job),
                        stats: shared.stats(),
                    },
                )?;
            }
            Msg::Detach => return Ok(()),
            Msg::Shutdown => {
                begin_shutdown(shared);
                return Ok(());
            }
            // Anything else is a protocol violation from this client;
            // drop the connection rather than the daemon.
            _ => return Ok(()),
        }
    }
}

/// Marks `job` for eviction and, when it is running on pooled
/// workers, kills its leased slots so the executor observes the death
/// immediately. The respawn hook refuses to revive a cancelled job,
/// so failover cannot resurrect it.
fn cancel_job(shared: &Shared, job: u64, reason: &str) {
    let slots = shared.jobs.update(job, |j| {
        if j.cancel.is_none() {
            j.cancel = Some(reason.to_string());
        }
        if j.state == JOB_RUNNING {
            j.slots.clone()
        } else {
            Vec::new()
        }
    });
    if let Some(slots) = slots {
        if !slots.is_empty() {
            shared.pool.kill_slots(&slots);
        }
    }
}

/// Renders the folded [`SimMetrics`] as a small JSON document (the
/// wire `metrics_json` field).
fn metrics_to_json(m: &SimMetrics) -> String {
    let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"target_cycles\": {}, \"time_ps\": {}, \"link_tokens\": [{}], \"host_cycles\": [{}]}}",
        m.target_cycles,
        m.time_ps,
        join(&m.link_tokens),
        join(&m.host_cycles)
    )
}

fn failed_result(job: u64, cache_hit: bool, admission_micros: u64, err: &SimError) -> Msg {
    Msg::JobResult {
        job,
        outcome: JOB_FAILED,
        error: err.to_string(),
        cycles: 0,
        cache_hit,
        admission_micros,
        metrics_json: String::new(),
        series_json: String::new(),
        vcd: String::new(),
    }
}

/// The whole submission pipeline for one job; always returns the
/// terminal [`Msg::JobResult`] and leaves the job table in the
/// matching terminal state.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_job(
    shared: &Arc<Shared>,
    job: u64,
    tenant: &str,
    budget: u64,
    backend: u8,
    tape: &[u8],
    spec: &PartitionSpec,
    settings: &WireSettings,
) -> Msg {
    let t0 = Instant::now();

    let admission = match shared.quotas.admit(tenant, budget) {
        Ok(a) => a,
        Err(e) => {
            shared.jobs.update(job, |j| j.state = JOB_FAILED);
            return failed_result(job, false, 0, &e);
        }
    };

    // Admission: resolve the design through the tape cache. The
    // prepare closure wraps the shared setup hook into the borrow the
    // coordinator API expects.
    let key = TapeCache::submission_key(tape, spec, settings);
    let hook: &fireaxe_net::SimSetup = &*shared.setup;
    let prepared = shared
        .cache
        .get_or_prepare(key, || prepare_job_from_tape(tape, spec, settings, hook));
    let (prepared, cache_hit) = match prepared {
        Ok(p) => p,
        Err(e) => {
            shared.quotas.finish(tenant, 0, 0);
            shared.jobs.update(job, |j| j.state = JOB_FAILED);
            return failed_result(job, false, 0, &e);
        }
    };
    shared.jobs.update(job, |j| {
        j.cache_hit = cache_hit;
        j.budget = admission.allowed_budget;
    });

    // Placement + execution, per backend.
    let outcome: Result<NetRunReport>;
    let admission_micros;
    // Workers charged for the job's wall time: the fleet it leased.
    let n_workers_equiv;
    let t_exec;
    if backend == BACKEND_THREADS {
        admission_micros = t0.elapsed().as_micros() as u64;
        n_workers_equiv = 1u64;
        shared.jobs.update(job, |j| j.state = JOB_RUNNING);
        t_exec = Instant::now();
        outcome = execute_threads(&prepared, admission.allowed_budget, hook);
    } else {
        let lease = match shared.pool.acquire(prepared.n_workers()) {
            Ok(l) => l,
            Err(e) => {
                shared.quotas.finish(tenant, 0, 0);
                shared.jobs.update(job, |j| j.state = JOB_FAILED);
                return failed_result(job, cache_hit, 0, &e);
            }
        };
        n_workers_equiv = lease.addrs.len() as u64;
        shared.jobs.update(job, |j| {
            j.state = JOB_RUNNING;
            j.workers = lease.addrs.len() as u32;
            j.slots = lease.slots.clone();
        });
        let placed = place_cluster(&prepared, &lease.addrs, shared.connect_timeout_ms);
        admission_micros = t0.elapsed().as_micros() as u64;
        t_exec = Instant::now();
        match placed {
            Err(e) => {
                shared.pool.discard(lease);
                shared.quotas.finish(tenant, 0, 0);
                shared.jobs.update(job, |j| j.state = JOB_FAILED);
                return failed_result(job, cache_hit, admission_micros, &e);
            }
            Ok(placed) => {
                // Failover: respawn through the pool, slot-in-place,
                // unless the job has been cancelled meanwhile (an
                // evicted job must stay dead).
                let recovery = if settings.checkpoint_interval > 0 && shared.max_restarts > 0 {
                    let pool = Arc::clone(&shared.pool);
                    let respawn_shared = Arc::clone(shared);
                    let slots = lease.slots.clone();
                    RecoveryOptions {
                        max_restarts: shared.max_restarts,
                        restart_backoff: Duration::from_millis(100),
                        respawn: Some(Box::new(move |w: usize| {
                            let cancelled = respawn_shared
                                .jobs
                                .update(job, |j| j.cancel.clone())
                                .flatten();
                            if let Some(reason) = cancelled {
                                return Err(SimError::Config {
                                    message: format!("job {job} evicted: {reason}"),
                                });
                            }
                            pool.replace(slots[w])
                        })),
                    }
                } else {
                    RecoveryOptions::none()
                };
                let run = execute_placed(
                    &prepared,
                    placed,
                    admission.allowed_budget,
                    recovery,
                    None,
                    Teardown::ResetToIdle,
                );
                match &run {
                    Ok(_) => shared.pool.release(lease),
                    Err(_) => shared.pool.discard(lease),
                }
                outcome = run;
            }
        }
    }

    let wall_micros = t_exec.elapsed().as_micros() as u64;
    let cancel_reason = shared.jobs.update(job, |j| j.cancel.clone()).flatten();

    match outcome {
        Ok(report) => {
            let cycles = report.metrics.target_cycles;
            shared
                .quotas
                .finish(tenant, cycles, n_workers_equiv.saturating_mul(wall_micros));
            let (state, error) = if admission.clamped {
                let evicted = SimError::JobEvicted {
                    job,
                    tenant: tenant.to_string(),
                    reason: format!(
                        "cycle quota exhausted: requested {budget}, granted {}",
                        admission.allowed_budget
                    ),
                    report: Box::new(report.metrics.clone()),
                };
                (JOB_EVICTED, evicted.to_string())
            } else {
                (JOB_DONE, String::new())
            };
            shared.jobs.update(job, |j| {
                j.state = state;
                j.cycles = cycles;
            });
            Msg::JobResult {
                job,
                outcome: state,
                error,
                cycles,
                cache_hit,
                admission_micros,
                metrics_json: metrics_to_json(&report.metrics),
                series_json: report.series.to_json(),
                vcd: report.vcd.unwrap_or_default(),
            }
        }
        Err(e) => {
            shared
                .quotas
                .finish(tenant, 0, n_workers_equiv.saturating_mul(wall_micros));
            if let Some(reason) = cancel_reason {
                shared.jobs.update(job, |j| j.state = JOB_EVICTED);
                Msg::JobResult {
                    job,
                    outcome: JOB_EVICTED,
                    error: format!("job {job} (tenant `{tenant}`) evicted: {reason}"),
                    cycles: 0,
                    cache_hit,
                    admission_micros,
                    metrics_json: String::new(),
                    series_json: String::new(),
                    vcd: String::new(),
                }
            } else {
                shared.jobs.update(job, |j| j.state = JOB_FAILED);
                failed_result(job, cache_hit, admission_micros, &e)
            }
        }
    }
}
