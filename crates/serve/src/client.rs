//! A blocking client for the job server: submit designs, wait for
//! results, poll the job table, cancel.

use fireaxe_net::codec::{self, PROTOCOL_MAGIC};
use fireaxe_net::{JobInfo, Msg, NetStream, ServeStats, WireSettings, PROTOCOL_VERSION};
use fireaxe_ripper::PartitionSpec;
use fireaxe_sim::{Result, SimError};
use std::io;
use std::time::Duration;

fn io_err(what: &str, e: &io::Error) -> SimError {
    SimError::Config {
        message: format!("job-server client: {what}: {e}"),
    }
}

fn proto_err(what: &str, got: &Msg) -> SimError {
    SimError::Config {
        message: format!("job-server client: expected {what}, got {got:?}"),
    }
}

/// One submission, ready to put on the wire.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Tenant name for quota accounting (empty = the default tenant).
    pub tenant: String,
    /// Requested target-cycle budget.
    pub budget: u64,
    /// [`BACKEND_NET`](fireaxe_net::BACKEND_NET) or
    /// [`BACKEND_THREADS`](fireaxe_net::BACKEND_THREADS).
    pub backend: u8,
    /// The circuit as a binary tape (`fireaxe_ir::circuit_to_tape`).
    pub tape: Vec<u8>,
    /// Partition spec.
    pub spec: PartitionSpec,
    /// Run settings.
    pub settings: WireSettings,
}

/// A job's terminal result, decoded from [`Msg::JobResult`].
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// [`JOB_DONE`](fireaxe_net::JOB_DONE),
    /// [`JOB_EVICTED`](fireaxe_net::JOB_EVICTED), or
    /// [`JOB_FAILED`](fireaxe_net::JOB_FAILED).
    pub outcome: u8,
    /// Rendered error (empty for a clean completion).
    pub error: String,
    /// Target cycles actually simulated.
    pub cycles: u64,
    /// Whether admission hit the server's tape cache.
    pub cache_hit: bool,
    /// Submit-to-placement-complete latency, µs.
    pub admission_micros: u64,
    /// Folded `SimMetrics` as JSON.
    pub metrics_json: String,
    /// Sampled `MetricsSeries` (with state digests) as JSON — the
    /// parity-bearing payload.
    pub series_json: String,
    /// Rendered VCD document (empty when capture was off).
    pub vcd: String,
}

/// A connected job-server session.
pub struct ServeClient {
    stream: NetStream,
}

impl ServeClient {
    /// Dials `addr` and runs the attach handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, or a server that rejects the protocol
    /// version.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self> {
        let mut stream = NetStream::connect(addr, timeout).map_err(|e| io_err("connect", &e))?;
        codec::write_msg(
            &mut stream,
            &Msg::Attach {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| io_err("attach", &e))?;
        match Self::read(&mut stream, "attach ack")? {
            Msg::AttachAck { .. } => Ok(ServeClient { stream }),
            other => Err(proto_err("AttachAck", &other)),
        }
    }

    fn read(stream: &mut NetStream, what: &str) -> Result<Msg> {
        match codec::read_msg(stream) {
            Ok(Some(m)) => Ok(m),
            Ok(None) => Err(SimError::Config {
                message: format!("job-server client: server closed while awaiting {what}"),
            }),
            Err(e) => Err(io_err(what, &e)),
        }
    }

    /// Submits a job and returns its server-assigned id. The job runs
    /// on this connection; follow with
    /// [`wait_result`](ServeClient::wait_result) (other connections
    /// can query or cancel it meanwhile).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<u64> {
        codec::write_msg(
            &mut self.stream,
            &Msg::SubmitJob {
                tenant: spec.tenant,
                budget: spec.budget,
                backend: spec.backend,
                tape: spec.tape,
                spec: spec.spec,
                settings: spec.settings,
            },
        )
        .map_err(|e| io_err("submit", &e))?;
        match Self::read(&mut self.stream, "job acceptance")? {
            Msg::JobAccepted { job } => Ok(job),
            other => Err(proto_err("JobAccepted", &other)),
        }
    }

    /// Blocks until the job submitted on this connection reports its
    /// terminal result.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn wait_result(&mut self) -> Result<JobOutcome> {
        match Self::read(&mut self.stream, "job result")? {
            Msg::JobResult {
                job,
                outcome,
                error,
                cycles,
                cache_hit,
                admission_micros,
                metrics_json,
                series_json,
                vcd,
            } => Ok(JobOutcome {
                job,
                outcome,
                error,
                cycles,
                cache_hit,
                admission_micros,
                metrics_json,
                series_json,
                vcd,
            }),
            other => Err(proto_err("JobResult", &other)),
        }
    }

    /// [`submit`](ServeClient::submit) then
    /// [`wait_result`](ServeClient::wait_result).
    ///
    /// # Errors
    ///
    /// As for the two halves.
    pub fn submit_and_wait(&mut self, spec: SubmitSpec) -> Result<JobOutcome> {
        self.submit(spec)?;
        self.wait_result()
    }

    /// The job table (`job == 0`: every job) plus server-wide cache
    /// and pool statistics.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn status(&mut self, job: u64) -> Result<(Vec<JobInfo>, ServeStats)> {
        codec::write_msg(&mut self.stream, &Msg::JobStatus { job })
            .map_err(|e| io_err("status", &e))?;
        match Self::read(&mut self.stream, "status reply")? {
            Msg::JobStatusReply { jobs, stats } => Ok((jobs, stats)),
            other => Err(proto_err("JobStatusReply", &other)),
        }
    }

    /// Cancels `job` (yours or anyone's — the server does not
    /// authenticate; quotas key on the submitted tenant string).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn cancel(&mut self, job: u64) -> Result<(Vec<JobInfo>, ServeStats)> {
        codec::write_msg(&mut self.stream, &Msg::CancelJob { job })
            .map_err(|e| io_err("cancel", &e))?;
        match Self::read(&mut self.stream, "cancel reply")? {
            Msg::JobStatusReply { jobs, stats } => Ok((jobs, stats)),
            other => Err(proto_err("JobStatusReply", &other)),
        }
    }

    /// Evicts `job` with an operator-supplied reason (the
    /// quota-enforcement verb).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn evict(&mut self, job: u64, reason: &str) -> Result<(Vec<JobInfo>, ServeStats)> {
        codec::write_msg(
            &mut self.stream,
            &Msg::EvictJob {
                job,
                reason: reason.to_string(),
            },
        )
        .map_err(|e| io_err("evict", &e))?;
        match Self::read(&mut self.stream, "evict reply")? {
            Msg::JobStatusReply { jobs, stats } => Ok((jobs, stats)),
            other => Err(proto_err("JobStatusReply", &other)),
        }
    }

    /// Asks the daemon to shut down (accept loop stops, pooled
    /// workers are killed and reaped).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown_server(&mut self) -> Result<()> {
        codec::write_msg(&mut self.stream, &Msg::Shutdown).map_err(|e| io_err("shutdown", &e))
    }
}
