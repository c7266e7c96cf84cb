//! # fireaxe-net — the distributed multi-process backend
//!
//! Runs a partitioned simulation as real OS processes connected over
//! real sockets (`Backend::Net`): worker processes, each hosting a
//! contiguous run of partitions (one per core by default, at most one
//! per partition), plus a coordinator that relays cross-worker token
//! traffic. By the
//! LI-BDN argument the in-process backends rely on, target-visible
//! state depends only on token values in per-channel order — so a
//! cluster of processes exchanging go-back-N framed tokens over TCP or
//! Unix-domain sockets produces bit-identical `(cycle, state_digest)`
//! sequences and VCD waveforms to the single-process DES golden model.
//!
//! * [`codec`] — the versioned, length-prefixed binary wire protocol;
//! * [`payload`] — the partition payloads a `Topology` ships: one per
//!   hosted partition of the coordinator's FireRipper output;
//! * [`stream`] — TCP / Unix-domain byte streams behind one type;
//! * [`flow`] — credit-based token flow control mirroring the LI-BDN
//!   channel FSMs;
//! * [`worker`] — the service loop of a worker's partitions
//!   ([`worker::serve`]);
//! * [`coordinator`] — bring-up, relay, teardown, and report folding
//!   ([`coordinator::run_cluster`]);
//! * [`spawn`] — subprocess worker management for self-hosted clusters;
//! * [`proxy`] — a fault-injecting relay for exercising the reliability
//!   protocol over real sockets in tests.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod coordinator;
pub mod flow;
pub mod payload;
pub mod proxy;
pub mod spawn;
pub mod stream;
pub mod worker;

pub use codec::{
    design_digest, partition_digest, set_digest, JobInfo, Msg, NodeInfo, ServeStats, Topology,
    WireReport, WireSettings, BACKEND_NET, BACKEND_THREADS, DEFAULT_IO_TIMEOUT_MS, JOB_DONE,
    JOB_EVICTED, JOB_FAILED, JOB_QUEUED, JOB_RUNNING, PROTOCOL_VERSION,
};
pub use coordinator::{
    execute_placed, execute_threads, place_cluster, prepare_job, prepare_job_from_tape,
    run_cluster, run_cluster_controlled, run_cluster_with, NetRunReport, PlacedCluster,
    PreparedJob, RecoveryOptions, RespawnFn, Teardown, DEFAULT_CONNECT_TIMEOUT_MS,
    DEFAULT_MAX_RESTARTS, DEFAULT_RESTART_BACKOFF_MS,
};
pub use fireaxe_obs::RecoveryEvent;
pub use flow::{RxLink, TxLink, INITIAL_CREDITS};
pub use payload::{decode_partition_payload, encode_partition_payload};
pub use proxy::{FaultProxy, ProxyPlan};
pub use spawn::SpawnedWorker;
pub use stream::{NetListener, NetStream};
pub use worker::{
    build_partition, build_partitions, restore_checkpoint, serve, serve_pooled, serve_pooled_with,
    serve_with, session_checkpoint, SimSetup, WorkerOptions, BUILD_CACHE_CAPACITY,
};
