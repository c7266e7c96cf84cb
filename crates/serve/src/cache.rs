//! The digest-keyed tape cache: compile once per distinct submission,
//! serve every repeat from the shelf.
//!
//! A submission's design identity is the canonical byte encoding of its
//! `(tape, spec, settings)` triple — the binary tape is canonical
//! (equal circuits encode to equal bytes, see `fireaxe_ir::tape`), and
//! the spec/settings ride through the same wire encoders the cluster
//! handshake uses, so two clients submitting the same design always
//! collide on the same key. The cached value is the whole
//! [`PreparedJob`]: the partition compile, the passive metadata build,
//! the digest each worker's `Ready` must match, and the partition
//! payload streamed to each placed worker.
//!
//! The cache is *single-flight*: when two tenants race a cold key, one
//! compiles and the other waits on it, then counts as a hit — it did
//! skip the compile, which is what the counter means. Counters
//! (hits/misses/evictions) are exact under concurrency, surfaced in
//! [`ServeStats`](fireaxe_net::ServeStats) and as `fireaxe-obs` counter
//! samples (`serve.cache_hits` / `serve.cache_misses` /
//! `serve.cache_evictions`).

use fireaxe_net::codec::encode_msg;
use fireaxe_net::{Msg, PreparedJob, WireSettings};
use fireaxe_obs::obs_counter;
use fireaxe_ripper::PartitionSpec;
use fireaxe_sim::Result;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::{Arc, Condvar, Mutex};

/// One resident prepared design.
struct Entry {
    key: u64,
    job: Arc<PreparedJob>,
    /// Logical LRU clock value at last use.
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    /// Keys a preparer is currently compiling; waiters sleep on the
    /// condvar until the key leaves this set.
    pending: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Exact cache counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Submissions served from a resident entry (including waits on an
    /// in-flight compile of the same key).
    pub hits: u64,
    /// Submissions that had to compile.
    pub misses: u64,
    /// Entries pushed out by the LRU bound.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: u32,
}

/// Bounded single-flight LRU cache of [`PreparedJob`]s.
pub struct TapeCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl TapeCache {
    /// An empty cache holding at most `capacity` prepared designs
    /// (`capacity == 0` is treated as 1 — a cache that can hold
    /// nothing would turn every submission into a miss that still
    /// pays the bookkeeping).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TapeCache {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The cache key of one submission: a hash over the canonical wire
    /// encoding of the design-identity triple. Encoding through the
    /// same message codec the handshake uses means key equality is
    /// exactly "the cluster would build the same design".
    #[must_use]
    pub fn submission_key(tape: &[u8], spec: &PartitionSpec, settings: &WireSettings) -> u64 {
        let canon = Msg::SubmitJob {
            tenant: String::new(),
            budget: 0,
            backend: 0,
            tape: tape.to_vec(),
            spec: spec.clone(),
            settings: settings.clone(),
        };
        let mut h = DefaultHasher::new();
        h.write(&encode_msg(&canon));
        h.finish()
    }

    /// Looks `key` up, running `prepare` (outside the lock) exactly
    /// once per cold key no matter how many submitters race it.
    /// Returns the prepared job and whether this call was a hit.
    ///
    /// # Errors
    ///
    /// Whatever `prepare` returns; a failed preparation leaves no
    /// entry and releases any waiters to retry (the next caller
    /// becomes the preparer).
    pub fn get_or_prepare(
        &self,
        key: u64,
        prepare: impl FnOnce() -> Result<PreparedJob>,
    ) -> Result<(Arc<PreparedJob>, bool)> {
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            if inner.entries.iter().any(|e| e.key == key) {
                inner.tick += 1;
                let tick = inner.tick;
                let e = inner
                    .entries
                    .iter_mut()
                    .find(|e| e.key == key)
                    .expect("found above");
                e.last_used = tick;
                let job = Arc::clone(&e.job);
                inner.hits += 1;
                obs_counter!("serve.cache_hits", 0, inner.hits);
                return Ok((job, true));
            }
            if inner.pending.contains(&key) {
                inner = self.ready.wait(inner).expect("cache lock");
                continue;
            }
            break;
        }
        // Cold and unclaimed: this caller compiles.
        inner.pending.push(key);
        inner.misses += 1;
        obs_counter!("serve.cache_misses", 0, inner.misses);
        drop(inner);

        let prepared = prepare();

        let mut inner = self.inner.lock().expect("cache lock");
        inner.pending.retain(|&k| k != key);
        let outcome = match prepared {
            Ok(job) => {
                let job = Arc::new(job);
                inner.tick += 1;
                let tick = inner.tick;
                inner.entries.push(Entry {
                    key,
                    job: Arc::clone(&job),
                    last_used: tick,
                });
                while inner.entries.len() > self.capacity {
                    let victim = inner
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("len > capacity >= 1");
                    inner.entries.remove(victim);
                    inner.evictions += 1;
                    obs_counter!("serve.cache_evictions", 0, inner.evictions);
                }
                Ok((job, false))
            }
            Err(e) => Err(e),
        };
        drop(inner);
        self.ready.notify_all();
        outcome
    }

    /// Current counters, exact (taken under the cache lock).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_sim::SimError;

    /// A tiny circuit and a key for it; `prepare` goes through the real
    /// `prepare_job_from_tape` so the cached value is a genuine
    /// `PreparedJob`.
    fn fixture() -> (Vec<u8>, PartitionSpec, WireSettings) {
        let circuit = fireaxe_ir::parser::parse_circuit(
            "circuit tiny :\n  top tiny\n  module tiny :\n    input in : UInt<8>\n    output out : UInt<8>\n    reg r : UInt<8>, init 0\n    r <= in\n    out <= r\n",
        )
        .expect("parse");
        let tape = fireaxe_ir::circuit_to_tape(&circuit);
        (
            tape,
            PartitionSpec::fast(Vec::new()),
            WireSettings::default(),
        )
    }

    fn setup(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
        b
    }

    #[test]
    fn second_lookup_hits_and_counts() {
        let (tape, spec, settings) = fixture();
        let key = TapeCache::submission_key(&tape, &spec, &settings);
        let cache = TapeCache::new(4);
        let (a, hit_a) = cache
            .get_or_prepare(key, || {
                fireaxe_net::prepare_job_from_tape(&tape, &spec, &settings, &setup)
            })
            .expect("first prepare");
        assert!(!hit_a);
        let (b, hit_b) = cache
            .get_or_prepare(key, || panic!("second lookup must not compile"))
            .expect("second lookup");
        assert!(hit_b);
        assert_eq!(a.design_digest(), b.design_digest());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn lru_bound_evicts_the_stalest_key() {
        let (tape, spec, settings) = fixture();
        let cache = TapeCache::new(2);
        let prep = |t: &[u8]| fireaxe_net::prepare_job_from_tape(t, &spec, &settings, &setup);
        // Three distinct keys through a 2-entry cache: key 0 (the
        // stalest) must fall out.
        let keys: Vec<u64> = (0..3u8)
            .map(|salt| {
                let mut h = DefaultHasher::new();
                h.write(&[salt]);
                h.write(&TapeCache::submission_key(&tape, &spec, &settings).to_le_bytes());
                h.finish()
            })
            .collect();
        for &k in &keys {
            cache.get_or_prepare(k, || prep(&tape)).expect("prepare");
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.entries), (3, 1, 2));
        // Key 0 is gone: looking it up again must compile.
        let (_, hit) = cache
            .get_or_prepare(keys[0], || prep(&tape))
            .expect("re-prepare");
        assert!(!hit, "evicted key served as a hit");
        // Keys 1 and 2 survived... key 1 was just evicted by key 0's
        // re-entry; key 2 (most recent before that) must still hit.
        let (_, hit) = cache
            .get_or_prepare(keys[2], || panic!("resident key must not compile"))
            .expect("lookup");
        assert!(hit);
    }

    #[test]
    fn racing_submitters_compile_once() {
        let (tape, spec, settings) = fixture();
        let key = TapeCache::submission_key(&tape, &spec, &settings);
        let cache = std::sync::Arc::new(TapeCache::new(4));
        let compiles = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = std::sync::Arc::clone(&cache);
            let compiles = std::sync::Arc::clone(&compiles);
            let (tape, spec, settings) = (tape.clone(), spec.clone(), settings.clone());
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_prepare(key, || {
                        compiles.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        fireaxe_net::prepare_job_from_tape(&tape, &spec, &settings, &setup)
                    })
                    .map(|(_, hit)| hit)
            }));
        }
        let hits = handles
            .into_iter()
            .map(|h| h.join().expect("thread").expect("prepare"))
            .filter(|&hit| hit)
            .count();
        assert_eq!(compiles.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(hits, 7, "everyone but the single preparer is a hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (7, 1));
    }

    #[test]
    fn failed_prepare_leaves_no_entry_and_releases_waiters() {
        let cache = TapeCache::new(4);
        let outcome = cache.get_or_prepare(42, || {
            Err(SimError::Config {
                message: "boom".into(),
            })
        });
        let err = match outcome {
            Err(e) => e,
            Ok(_) => panic!("prepare must fail"),
        };
        assert!(err.to_string().contains("boom"));
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (1, 0));
        // The key is not stuck pending: the next caller becomes the
        // preparer rather than deadlocking.
        let (tape, spec, settings) = fixture();
        let (_, hit) = cache
            .get_or_prepare(42, || {
                fireaxe_net::prepare_job_from_tape(&tape, &spec, &settings, &setup)
            })
            .expect("retry");
        assert!(!hit);
    }
}
