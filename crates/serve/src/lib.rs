//! # fireaxe-serve — fireaxe as a service
//!
//! A persistent, multi-tenant simulation job server. One daemon
//! (`fireaxe serve`) accepts many concurrent submissions over the wire
//! protocol's job control plane, schedules their partitions across a
//! pooled fleet of reusable worker processes, and caches compiled
//! designs keyed by their canonical tape bytes so repeat submissions
//! skip the partition compile entirely.
//!
//! The layering mirrors the coordinator decomposition in
//! `fireaxe_net::coordinator`:
//!
//! * [`cache`] — digest-keyed single-flight LRU of
//!   [`PreparedJob`](fireaxe_net::PreparedJob)s (admission);
//! * [`pool`] — the reusable worker fleet with exactly-once
//!   kill-and-reap (placement capacity);
//! * [`quota`] — per-tenant concurrency / cycle / worker-second
//!   ceilings with typed rejection and clamp-then-evict semantics;
//! * [`job`] — the queryable job table;
//! * [`server`] — the accept loop and the submission pipeline gluing
//!   the above to `place_cluster` / `execute_placed` /
//!   `execute_threads`;
//! * [`client`] — the blocking client used by `fireaxe submit`,
//!   `fireaxe jobs`, and `fireaxe cancel`.
//!
//! Parity is load-bearing: a server job runs the *same* prepared
//! design through the *same* executors as a one-shot
//! [`run_cluster`](fireaxe_net::run_cluster), so its sampled series
//! (state digests included) and VCD are byte-identical to a solo run
//! of the same design — cache hits and worker reuse change wall-clock
//! latency, never results.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod pool;
pub mod quota;
pub mod server;

pub use cache::{CacheStats, TapeCache};
pub use client::{JobOutcome, ServeClient, SubmitSpec};
pub use job::{JobRecord, JobTable};
pub use pool::{Lease, WorkerPool, WorkerSpawner};
pub use quota::{Admission, QuotaLedger, TenantQuota};
pub use server::{JobServer, ServeOptions, ServeSetup};
