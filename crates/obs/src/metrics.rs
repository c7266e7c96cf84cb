//! Time-resolved metric series.
//!
//! The simulation engine samples every node each `sample_interval`
//! target cycles (see `SimBuilder::observe` in `fireaxe-sim`) and, on
//! the DES backend, every link at the same global cadence. The result
//! is a [`MetricsSeries`]: one sample row per `(node, cycle)` and
//! `(link, cycle)`, exportable as JSON or CSV for plotting FMR, stall
//! attribution, settle-loop behavior and reliability activity over
//! model time.
//!
//! Samples carry both host-dependent columns (host cycles, stalls —
//! these legitimately differ between backends and runs) and
//! deterministic target-state columns (`cycle`, `state_digest`) that
//! must be identical across backends for the same workload; the trace
//! parity tests compare the latter.

fireaxe_ir::wire_struct! {
    /// One per-node sample at a target-cycle boundary.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct NodeSample {
        /// Target cycle at which the sample was taken.
        pub cycle: u64,
        /// Host time, nanoseconds since the tracer epoch (0 when tracing
        /// never enabled).
        pub host_ns: u64,
        /// Virtual time, picoseconds (0 under the threaded backend).
        pub time_ps: u64,
        /// Host cycles consumed so far.
        pub host_cycles: u64,
        /// Tokens pushed into the node's input queues so far.
        pub tokens_enqueued: u64,
        /// Tokens popped from the node's output queues so far.
        pub tokens_dequeued: u64,
        /// Host cycles stalled waiting for an input token so far.
        pub input_stall_host_cycles: u64,
        /// Host cycles stalled with inputs available but no progress
        /// (output backpressure or fireFSM wait) so far.
        pub output_stall_host_cycles: u64,
        /// Tokens currently queued across the node's input channels
        /// (LI-BDN queues plus staging).
        pub queue_occupancy: u64,
        /// Cumulative combinational settle passes of the node's target.
        pub settle_passes: u64,
        /// Cumulative definitions executed by settle passes.
        pub defs_run: u64,
        /// Cumulative definitions skipped by the dirty-set scheduler.
        pub defs_skipped: u64,
        /// FNV-1a digest of the node's output-port values at this cycle —
        /// deterministic target state, identical across backends.
        pub state_digest: u64,
    }
}

impl NodeSample {
    /// FPGA-to-Model cycle Ratio at this sample (cumulative).
    pub fn fmr(&self) -> f64 {
        if self.cycle == 0 {
            return f64::INFINITY;
        }
        self.host_cycles as f64 / self.cycle as f64
    }

    /// Fraction of definitions the dirty-set scheduler skipped, in
    /// `[0, 1]` (0 when nothing ran yet).
    pub fn dirty_skip_rate(&self) -> f64 {
        let total = self.defs_run + self.defs_skipped;
        if total == 0 {
            return 0.0;
        }
        self.defs_skipped as f64 / total as f64
    }
}

/// All samples of one node, in cycle order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSeries {
    /// Node (partition thread) name.
    pub node: String,
    /// Samples in ascending cycle order.
    pub samples: Vec<NodeSample>,
}

/// One per-link sample at a global target-cycle boundary (DES backend
/// only; the threaded backend reports end-of-run totals instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSample {
    /// Global target cycle (minimum across nodes) at sample time.
    pub cycle: u64,
    /// Virtual time, picoseconds.
    pub time_ps: u64,
    /// Fresh tokens committed to the wire so far.
    pub tokens: u64,
    /// Physical frame transmissions (including retransmits) so far.
    pub sent_frames: u64,
    /// Retransmissions so far.
    pub retransmits: u64,
    /// Frames rejected for CRC mismatch so far.
    pub crc_failures: u64,
    /// Duplicate frames dropped by the receiver so far.
    pub duplicates_dropped: u64,
    /// Cumulative send-to-delivery latency, picoseconds (an ACK-latency
    /// proxy: the cumulative time tokens spent on the wire).
    pub delivery_delay_ps: u64,
    /// Tokens still queued for delivery on the wire right now.
    pub in_flight: u64,
}

/// All samples of one link, in cycle order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSeries {
    /// Link index (see `PartitionedDesign::links`).
    pub link: usize,
    /// Samples in ascending cycle order.
    pub samples: Vec<LinkSample>,
}

/// One automatic failover performed by a distributed run's coordinator:
/// a worker died, the survivors were rewound to the last complete
/// cluster checkpoint, the worker was respawned with its partitions,
/// and the run resumed. Recorded per event so recovery latency and restart churn
/// are first-class observables next to the metric series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The dead worker's index in the fleet.
    pub worker: usize,
    /// The partitions it hosted, ascending: all were rebuilt.
    pub partitions: Vec<usize>,
    /// The recovery epoch the cluster entered (monotonic per run).
    pub epoch: u32,
    /// The cluster progress floor when the death was detected.
    pub detected_cycle: u64,
    /// The checkpoint cycle the cluster rewound to.
    pub rewind_cycle: u64,
    /// Which restart of this worker this was (1-based).
    pub restart: u32,
    /// Wall-clock from detection to cluster resume, milliseconds.
    pub recovery_ms: u64,
}

/// A complete sampled run: per-node and per-link time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSeries {
    /// Sampling cadence in target cycles.
    pub sample_interval: u64,
    /// One series per node.
    pub nodes: Vec<NodeSeries>,
    /// One series per link (empty under the threaded backend).
    pub links: Vec<LinkSeries>,
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

impl MetricsSeries {
    /// Renders the series as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"sample_interval\": {},\n",
            self.sample_interval
        ));
        s.push_str("  \"nodes\": [\n");
        for (ni, n) in self.nodes.iter().enumerate() {
            s.push_str("    {\"node\": \"");
            crate::chrome::escape(&n.node, &mut s);
            s.push_str("\", \"samples\": [\n");
            for (si, p) in n.samples.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"cycle\": {}, \"host_ns\": {}, \"time_ps\": {}, \
                     \"host_cycles\": {}, \"fmr\": ",
                    p.cycle, p.host_ns, p.time_ps, p.host_cycles
                ));
                push_f64(&mut s, p.fmr());
                s.push_str(&format!(
                    ", \"tokens_enqueued\": {}, \"tokens_dequeued\": {}, \
                     \"input_stall_host_cycles\": {}, \"output_stall_host_cycles\": {}, \
                     \"queue_occupancy\": {}, \"settle_passes\": {}, \"defs_run\": {}, \
                     \"defs_skipped\": {}, \"dirty_skip_rate\": ",
                    p.tokens_enqueued,
                    p.tokens_dequeued,
                    p.input_stall_host_cycles,
                    p.output_stall_host_cycles,
                    p.queue_occupancy,
                    p.settle_passes,
                    p.defs_run,
                    p.defs_skipped,
                ));
                push_f64(&mut s, p.dirty_skip_rate());
                s.push_str(&format!(", \"state_digest\": {}}}", p.state_digest));
                s.push_str(if si + 1 < n.samples.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            s.push_str("    ]}");
            s.push_str(if ni + 1 < self.nodes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"links\": [\n");
        for (li, l) in self.links.iter().enumerate() {
            s.push_str(&format!("    {{\"link\": {}, \"samples\": [\n", l.link));
            for (si, p) in l.samples.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"cycle\": {}, \"time_ps\": {}, \"tokens\": {}, \
                     \"sent_frames\": {}, \"retransmits\": {}, \"crc_failures\": {}, \
                     \"duplicates_dropped\": {}, \"delivery_delay_ps\": {}, \
                     \"in_flight\": {}}}",
                    p.cycle,
                    p.time_ps,
                    p.tokens,
                    p.sent_frames,
                    p.retransmits,
                    p.crc_failures,
                    p.duplicates_dropped,
                    p.delivery_delay_ps,
                    p.in_flight,
                ));
                s.push_str(if si + 1 < l.samples.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            s.push_str("    ]}");
            s.push_str(if li + 1 < self.links.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Folds another process's series into this one.
    ///
    /// Node series are matched by node name (a distributed run's workers
    /// each sample only the nodes they own, so names are disjoint in
    /// practice; on a match the sample rows concatenate), link series by
    /// link index. Samples are re-sorted by cycle so merged series stay
    /// in ascending cycle order regardless of arrival order. The sample
    /// interval is taken from whichever side first has one set.
    pub fn merge(&mut self, other: MetricsSeries) {
        if self.sample_interval == 0 {
            self.sample_interval = other.sample_interval;
        }
        for n in other.nodes {
            match self.nodes.iter_mut().find(|m| m.node == n.node) {
                Some(mine) => mine.samples.extend(n.samples),
                None => self.nodes.push(n),
            }
        }
        for l in other.links {
            match self.links.iter_mut().find(|m| m.link == l.link) {
                Some(mine) => mine.samples.extend(l.samples),
                None => self.links.push(l),
            }
        }
        for n in &mut self.nodes {
            n.samples.sort_by_key(|p| p.cycle);
        }
        self.nodes.sort_by(|a, b| a.node.cmp(&b.node));
        for l in &mut self.links {
            l.samples.sort_by_key(|p| p.cycle);
        }
        self.links.sort_by_key(|l| l.link);
    }

    /// Renders the series as CSV: one table with a `kind` column
    /// (`node`/`link`), suitable for spreadsheet import.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "kind,name,cycle,host_ns,time_ps,host_cycles,fmr,tokens_enqueued,\
             tokens_dequeued,input_stall_host_cycles,output_stall_host_cycles,\
             queue_occupancy,settle_passes,defs_run,defs_skipped,dirty_skip_rate,\
             state_digest,tokens,sent_frames,retransmits,crc_failures,\
             duplicates_dropped,delivery_delay_ps,in_flight\n",
        );
        for n in &self.nodes {
            for p in &n.samples {
                s.push_str(&format!(
                    "node,{},{},{},{},{},{:.4},{},{},{},{},{},{},{},{},{:.4},{},,,,,,,\n",
                    n.node,
                    p.cycle,
                    p.host_ns,
                    p.time_ps,
                    p.host_cycles,
                    p.fmr(),
                    p.tokens_enqueued,
                    p.tokens_dequeued,
                    p.input_stall_host_cycles,
                    p.output_stall_host_cycles,
                    p.queue_occupancy,
                    p.settle_passes,
                    p.defs_run,
                    p.defs_skipped,
                    p.dirty_skip_rate(),
                    p.state_digest,
                ));
            }
        }
        for l in &self.links {
            for p in &l.samples {
                s.push_str(&format!(
                    "link,link{},{},,{},,,,,,,,,,,,{},{},{},{},{},{},{}\n",
                    l.link,
                    p.cycle,
                    p.time_ps,
                    p.tokens,
                    p.sent_frames,
                    p.retransmits,
                    p.crc_failures,
                    p.duplicates_dropped,
                    p.delivery_delay_ps,
                    p.in_flight,
                ));
            }
        }
        s
    }
}

/// Incremental FNV-1a-64 hasher for target-state digests: cheap,
/// dependency-free, and stable across platforms and backends.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> MetricsSeries {
        MetricsSeries {
            sample_interval: 10,
            nodes: vec![NodeSeries {
                node: "tile".into(),
                samples: vec![NodeSample {
                    cycle: 10,
                    host_cycles: 25,
                    defs_run: 30,
                    defs_skipped: 10,
                    state_digest: 42,
                    ..Default::default()
                }],
            }],
            links: vec![LinkSeries {
                link: 0,
                samples: vec![LinkSample {
                    cycle: 10,
                    tokens: 20,
                    sent_frames: 22,
                    retransmits: 2,
                    ..Default::default()
                }],
            }],
        }
    }

    #[test]
    fn fmr_and_skip_rate() {
        let p = &series().nodes[0].samples[0];
        assert_eq!(p.fmr(), 2.5);
        assert_eq!(p.dirty_skip_rate(), 0.25);
        assert_eq!(NodeSample::default().fmr(), f64::INFINITY);
        assert_eq!(NodeSample::default().dirty_skip_rate(), 0.0);
    }

    #[test]
    fn json_and_csv_contain_the_data() {
        let m = series();
        let json = m.to_json();
        assert!(json.contains("\"sample_interval\": 10"));
        assert!(json.contains("\"node\": \"tile\""));
        assert!(json.contains("\"state_digest\": 42"));
        assert!(json.contains("\"retransmits\": 2"));
        let csv = m.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("node,tile,10"));
        assert!(csv.lines().nth(2).unwrap().starts_with("link,link0,10"));
    }

    #[test]
    fn merge_aligns_by_name_and_sorts_by_cycle() {
        let mut a = series();
        let mut other = series();
        other.nodes[0].samples[0].cycle = 5;
        other.links[0].samples[0].cycle = 5;
        other.nodes.push(NodeSeries {
            node: "router".into(),
            samples: vec![NodeSample {
                cycle: 10,
                ..Default::default()
            }],
        });
        other.links.push(LinkSeries {
            link: 3,
            samples: vec![],
        });
        a.merge(other);
        assert_eq!(a.sample_interval, 10);
        assert_eq!(a.nodes.len(), 2);
        assert_eq!(a.nodes[0].node, "router");
        let tile = &a.nodes[1];
        assert_eq!(tile.node, "tile");
        assert_eq!(
            tile.samples.iter().map(|p| p.cycle).collect::<Vec<_>>(),
            vec![5, 10]
        );
        assert_eq!(a.links.len(), 2);
        assert_eq!(a.links[0].samples[0].cycle, 5);
        assert_eq!(a.links[1].link, 3);

        let mut empty = MetricsSeries::default();
        empty.merge(series());
        assert_eq!(empty.sample_interval, 10);
    }

    #[test]
    fn fnv_digest_is_order_sensitive_and_stable() {
        let mut a = Fnv1a::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv1a::default();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }
}
