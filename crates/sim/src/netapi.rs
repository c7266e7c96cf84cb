//! What an out-of-process backend builds from: one partition of a
//! compiled cut plus the cut-wide tables.
//!
//! The distributed backend (`fireaxe-net`, [`crate::engine::Backend::Net`])
//! runs each partition's nodes in a separate OS process. A worker builds
//! the partitions it hosts from their [`PartitionCut`]s
//! ([`SimBuilder::for_partitions`](crate::SimBuilder::for_partitions))
//! and services them through [`DistributedSim`]'s per-node and per-link
//! methods, which address nodes by their flat index in the whole cut.

use crate::engine::DistributedSim;
use crate::error::{Result, SimError};
use fireaxe_ir::Bits;
use fireaxe_obs::VcdSignal;
use fireaxe_ripper::{LinkSpec, PartitionArtifact, PartitionedDesign};

fireaxe_ir::wire_struct! {
    /// One partition of a compiled cut plus the cut-wide tables every
    /// process indexes by: what a net worker builds from, one per partition
    /// it hosts (see
    /// [`SimBuilder::for_partitions`](crate::SimBuilder::for_partitions)).
    /// The other partitions' nodes appear by name and partition only.
    #[derive(Debug, Clone)]
    pub struct PartitionCut {
        /// The partition this process builds.
        pub partition: usize,
        /// Its threads: circuits, LI-BDN specs, environment channels.
        pub artifact: PartitionArtifact,
        /// Every node of the cut in flat order: `(name, partition)`.
        pub nodes: Vec<(String, usize)>,
        /// The cut's link table, in flat node indices.
        pub links: Vec<LinkSpec>,
        /// The global VCD signal table (empty when waveforms are off).
        pub vcd_signals: Vec<VcdSignal>,
        /// `(link, token)`: the fast-mode seed of every seeded link into this
        /// partition whose producer lives in another one. A build of several
        /// partitions uses only the seeds whose producer lies outside the
        /// set; it samples the others from the producer it built.
        pub seeds: Vec<(usize, Bits)>,
    }
}

impl PartitionCut {
    /// Cuts partition `partition` out of `sim`, a whole-design build of
    /// `design` (the coordinator's passive build).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn of(design: &PartitionedDesign, sim: &DistributedSim, partition: usize) -> Self {
        let owner = |node: usize| sim.node_table[node].1;
        PartitionCut {
            partition,
            artifact: design.partitions[partition].clone(),
            nodes: sim.node_table.clone(),
            links: design.links.clone(),
            vcd_signals: sim.vcd_signals.clone(),
            seeds: sim
                .seeds
                .iter()
                .filter(|(l, _)| {
                    let s = &design.links[*l];
                    owner(s.to_node) == partition && owner(s.from_node) != partition
                })
                .cloned()
                .collect(),
        }
    }

    /// The first cut of a set, whose cut-wide tables the set shares, and
    /// the cut's partition count, after checking that the set is
    /// non-empty, names each partition once and only partitions of the
    /// cut, and that every cut carries the same node, link and VCD
    /// signal tables (they were cut from one design) with a node table
    /// in flat order (see [`PartitionCut::partition_count`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the first violation.
    pub fn check_set(cuts: &[PartitionCut]) -> Result<(&PartitionCut, usize)> {
        let bad = |message: String| SimError::Config { message };
        let first = cuts
            .first()
            .ok_or_else(|| bad("a partition build needs at least one partition".into()))?;
        for (i, c) in cuts.iter().enumerate() {
            if cuts[..i].iter().any(|d| d.partition == c.partition) {
                return Err(bad(format!("partition {} is given twice", c.partition)));
            }
            for (table, same) in [
                ("node", c.nodes == first.nodes),
                ("link", c.links == first.links),
                ("VCD signal", c.vcd_signals == first.vcd_signals),
            ] {
                if !same {
                    return Err(bad(format!(
                        "partitions {} and {} come from different cuts: their {table} tables differ",
                        first.partition, c.partition
                    )));
                }
            }
        }
        let n_partitions = first.partition_count()?;
        if let Some(c) = cuts.iter().find(|c| c.partition >= n_partitions) {
            return Err(bad(format!(
                "partition {} is out of range for a {n_partitions}-partition cut",
                c.partition
            )));
        }
        Ok((first, n_partitions))
    }

    /// The number of partitions of the cut, after checking that the node
    /// table lists them in flat order: partition 0's nodes first, each
    /// partition's nodes in one run, no partition skipped (every
    /// partition has a thread). The count is thus at most the table's
    /// length, whatever indices a decoded table carries.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the first node out of order.
    pub fn partition_count(&self) -> Result<usize> {
        let mut count = 0;
        for (name, p) in &self.nodes {
            if *p == count {
                count += 1;
            } else if count == 0 || *p != count - 1 {
                return Err(SimError::Config {
                    message: format!(
                        "partition {} cut rejected: its node table lists node `{name}` at \
                         partition {p} after {count} partition(s)",
                        self.partition
                    ),
                });
            }
        }
        Ok(count)
    }

    /// Flat index of this partition's first node, after checking that
    /// the node table lists exactly its threads, in order, in one run.
    pub(crate) fn first_node(&self) -> Result<usize> {
        let bad = |why: String| SimError::Config {
            message: format!("partition {} cut rejected: {why}", self.partition),
        };
        let first = self
            .nodes
            .iter()
            .position(|(_, p)| *p == self.partition)
            .ok_or_else(|| bad("the node table lists none of its nodes".into()))?;
        let listed = self.nodes.iter().filter(|(_, p)| *p == self.partition);
        let threads = &self.artifact.threads;
        if listed.clone().count() != threads.len()
            || self.nodes[first..]
                .iter()
                .zip(threads)
                .any(|((name, p), t)| *p != self.partition || *name != t.name)
        {
            return Err(bad(format!(
                "the node table does not list its {} thread(s) in order",
                threads.len()
            )));
        }
        Ok(first)
    }
}
