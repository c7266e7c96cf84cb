//! Low-level engine access for out-of-process backends.
//!
//! The distributed backend (`fireaxe-net`, [`crate::engine::Backend::Net`])
//! runs each partition's nodes in a separate OS process. Its worker loop
//! is the same per-node service loop the in-process backends use — stage
//! link tokens, [`NodeRt::ingest_and_step`](crate::engine), drain
//! environment outputs — but link endpoints live on sockets instead of
//! in-memory channels, so the engine needs structured access to node
//! runtimes rather than owning the whole scheduling loop.
//!
//! [`NetAccess`] is that surface: a deliberately narrow view over a
//! [`DistributedSim`] exposing exactly what an external engine needs —
//! per-node servicing (which keeps the shared observation point, so
//! metric samples and VCD changes land at identical target-cycle
//! boundaries as DES/Threads), per-link token staging/popping, counters,
//! observability extraction, and stall forensics. Everything else stays
//! crate-private.

use crate::engine::{DistributedSim, LinkCounters, NodeCounters, NodeRt};
use crate::error::{Result, SimError, StallReport};
use fireaxe_ir::Bits;
use fireaxe_libdn::TargetModel;
use fireaxe_obs::{NodeSample, VcdSignal};
use fireaxe_ripper::{LinkSpec, PartitionArtifact, PartitionedDesign};
use fireaxe_transport::reliable::RetryPolicy;

/// One node's recorded VCD change: `(target cycle, signal index, value)`.
/// Signal indices refer to the cut's VCD signal table
/// ([`PartitionCut::vcd_signals`]), which every process of a cut shares.
pub type VcdChange = (u64, u32, Bits);

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

/// Narrow mutable view over a [`DistributedSim`] for external engines.
///
/// Nodes are addressed by their flat index in the whole cut, also on a
/// partition build; only a node built in this process may be serviced,
/// inspected or poked (the others panic, like an out-of-range index).
pub struct NetAccess<'a> {
    sim: &'a mut DistributedSim,
}

impl DistributedSim {
    /// Opens the external-engine access surface (see [`NetAccess`]).
    pub fn net_access(&mut self) -> NetAccess<'_> {
        // An external engine moves tokens and state behind the event
        // loop's back.
        self.wake_all();
        NetAccess { sim: self }
    }
}

impl NetAccess<'_> {
    /// Index into the built nodes of flat node `node`.
    fn local(&self, node: usize) -> usize {
        self.sim.slot[node].unwrap_or_else(|| panic!("node {node} is not built in this process"))
    }

    fn rt(&self, node: usize) -> &NodeRt {
        &self.sim.nodes[self.local(node)]
    }

    fn rt_mut(&mut self, node: usize) -> &mut NodeRt {
        let i = self.local(node);
        &mut self.sim.nodes[i]
    }

    /// Number of nodes (partition threads) of the whole cut, in flat
    /// order.
    pub fn node_count(&self) -> usize {
        self.sim.node_table.len()
    }

    /// The partitions built in this process, ascending.
    pub fn built_partitions(&self) -> Vec<usize> {
        let mut parts: Vec<usize> = self.sim.nodes.iter().map(|n| n.partition).collect();
        parts.dedup(); // built in partition order
        parts
    }

    /// A node's name.
    pub fn node_name(&self, node: usize) -> &str {
        &self.sim.node_table[node].0
    }

    /// The partition a node belongs to (FAME-5 partitions contribute
    /// several nodes).
    pub fn node_partition(&self, node: usize) -> usize {
        self.sim.node_table[node].1
    }

    /// A built node's wrapped target model (its elaborated port tables,
    /// signals, state).
    pub fn node_model(&self, node: usize) -> &dyn TargetModel {
        self.rt(node).libdn.model()
    }

    /// A node's completed target cycles.
    pub fn node_target_cycle(&self, node: usize) -> u64 {
        self.rt(node).libdn.target_cycle()
    }

    /// The inter-partition link table, in link-index order.
    pub fn link_specs(&self) -> Vec<LinkSpec> {
        self.sim.links.iter().map(|l| l.spec.clone()).collect()
    }

    /// The armed retransmission policy, if the reliability layer is on.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.sim.reliability.as_ref().map(|r| r.policy)
    }

    /// Resets engine-global run accumulators for build reuse; see
    /// [`DistributedSim::reset_run_accumulators`].
    pub fn reset_run_accumulators(&mut self) {
        self.sim.reset_run_accumulators();
    }

    /// Deepens every node's LI-BDN queues to at least `capacity` host
    /// slots (runahead, exactly like the threaded backend) and returns
    /// the previous capacities for [`NetAccess::restore_capacities`].
    pub fn deepen_capacities(&mut self, capacity: usize) -> Vec<usize> {
        self.sim
            .nodes
            .iter_mut()
            .map(|n| {
                let cap = n.libdn.capacity();
                n.libdn.set_capacity(cap.max(capacity));
                cap
            })
            .collect()
    }

    /// Restores queue capacities saved by [`NetAccess::deepen_capacities`].
    pub fn restore_capacities(&mut self, saved: Vec<usize>) {
        for (node, cap) in self.sim.nodes.iter_mut().zip(saved) {
            node.libdn.set_capacity(cap);
        }
    }

    /// Captures this worker's partition as a portable byte blob (see
    /// [`DistributedSim::snapshot_partition_bytes`]). Capture at a
    /// cluster barrier so the flow marks taken next to it refer to the
    /// same global quiescent point.
    ///
    /// # Errors
    ///
    /// Propagates [`DistributedSim::snapshot_partition_bytes`] failures.
    pub fn snapshot_partition_bytes(&self, partition: usize) -> Result<Vec<u8>> {
        self.sim.snapshot_partition_bytes(partition)
    }

    /// Restores this worker's partition from a portable blob and returns
    /// the restored target cycle (see
    /// [`DistributedSim::restore_partition_bytes`]). The socket protocol
    /// state (`TxLink`/`RxLink` in `fireaxe-net`) lives outside the
    /// engine and **must** be resynced from marks captured at the same
    /// barrier: restoring channel state alone rewinds `chan_enqueued`
    /// underneath the credit bookkeeping, and every token re-consumed
    /// during replay then returns zero credits — stranding window slots
    /// until the sender wedges at `can_send() == false`.
    ///
    /// # Errors
    ///
    /// Propagates [`DistributedSim::restore_partition_bytes`] failures.
    pub fn restore_partition_bytes(&mut self, partition: usize, bytes: &[u8]) -> Result<u64> {
        self.sim.restore_partition_bytes(partition, bytes)
    }

    /// Stages a delivered link token at the consuming node (it enters
    /// the LI-BDN input queue on the node's next service pass).
    pub fn stage_link_token(&mut self, link: usize, payload: Bits) {
        let LinkSpec {
            to_node, to_chan, ..
        } = self.sim.links[link].spec;
        self.rt_mut(to_node).staged[to_chan].push_back(payload);
    }

    /// Backend-independent service half for one node: stage → env top-up
    /// → one host step, with the shared observation point at the tail
    /// (see `NodeRt::ingest_and_step`). Returns `true` on any progress.
    ///
    /// # Errors
    ///
    /// Propagates LI-BDN failures.
    pub fn ingest_and_step(&mut self, node: usize, budget: u64) -> Result<bool> {
        self.rt_mut(node).ingest_and_step(Some(budget))
    }

    /// Drains a node's environment output channels into its bridge.
    pub fn drain_env_outputs(&mut self, node: usize) -> bool {
        self.rt_mut(node).drain_env_outputs()
    }

    /// Pops the next fresh token the producing node has fired on `link`,
    /// counting it as dequeued/committed exactly like the in-process
    /// backends do.
    pub fn pop_link_output(&mut self, link: usize) -> Option<Bits> {
        let LinkSpec {
            from_node,
            from_chan,
            ..
        } = self.sim.links[link].spec;
        let from = self.rt_mut(from_node);
        let token = from.libdn.pop_output(from_chan)?;
        from.counters.tokens_dequeued += 1;
        self.sim.links[link].tokens += 1;
        Some(token)
    }

    /// Tokens a node has accepted into one input channel's LI-BDN queue
    /// so far — the consumption point credit-based flow control returns
    /// credits at.
    pub fn chan_enqueued(&self, node: usize, chan: usize) -> u64 {
        self.rt(node).chan_enqueued[chan]
    }

    /// Snapshot of one node's execution counters.
    pub fn node_counters(&self, node: usize) -> NodeCounters {
        self.rt(node).counters_snapshot()
    }

    /// Mutable reliability/traffic counters of one link (the external
    /// engine folds its live protocol totals in here, mirroring the
    /// threaded backend's reconciliation).
    pub fn link_counters_mut(&mut self, link: usize) -> &mut LinkCounters {
        &mut self.sim.links[link].counters
    }

    /// Fresh tokens committed to one link so far.
    pub fn link_tokens(&self, link: usize) -> u64 {
        self.sim.links[link].tokens
    }

    /// Structured stall forensics over this process's local view.
    pub fn stall_report(&self) -> StallReport {
        self.sim.stall_report()
    }

    /// Metric sampling cadence in target cycles (0 = off).
    pub fn obs_interval(&self) -> u64 {
        self.sim.obs_interval
    }

    /// Resolves a node name to its flat index (control-plane addressing).
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.sim.node_table.iter().position(|(n, _)| n == name)
    }

    /// Reads any watchable signal of one node by hierarchical path —
    /// the control plane's `Peek`, answered at the worker's pause fence
    /// so the value is cycle-exact.
    pub fn peek_node(&self, node: usize, path: &str) -> Option<Bits> {
        self.node_model(node).peek_path(path)
    }

    /// Stages a cockpit poke on one node: the named top-level input
    /// port is driven with `value` at the node's next target-cycle
    /// advance (see `LiBdn::poke_input_next_cycle` for why deferring to
    /// the tick makes live pokes deterministic). Errors are the
    /// field-named `IrError` values, ready to relay in a `PokeAck`.
    ///
    /// # Errors
    ///
    /// [`SimError::Ir`] wrapping `UnknownSignal`, `NotPokeable`, or
    /// `PokeWidth`.
    pub fn poke_node(&mut self, node: usize, path: &str, value: u64) -> Result<()> {
        self.rt_mut(node)
            .libdn
            .poke_input_next_cycle(path, value)
            .map_err(SimError::from)
    }

    /// On-demand FNV-1a digest of one node's output-port values (the
    /// same digest metric samples carry).
    pub fn node_state_digest(&self, node: usize) -> u64 {
        self.sim.node_state_digest(self.local(node))
    }

    /// Clones the tail of one node's metric samples starting at `from`,
    /// *without* draining — streaming ships tails while the end-of-run
    /// report still drains everything, so report parity is untouched.
    pub fn node_samples_since(&self, node: usize, from: usize) -> Vec<NodeSample> {
        self.sim.node_samples_since(self.local(node), from)
    }

    /// Clones the tail of one node's VCD changes starting at `from`,
    /// without draining.
    pub fn node_vcd_changes_since(&self, node: usize, from: usize) -> Vec<VcdChange> {
        self.sim.node_wave_changes_since(self.local(node), from)
    }

    /// Takes (drains) one node's collected metric samples.
    pub fn take_node_samples(&mut self, node: usize) -> Vec<NodeSample> {
        std::mem::take(&mut self.rt_mut(node).obs.samples)
    }

    /// Takes (drains) one node's collected VCD changes.
    pub fn take_node_vcd_changes(&mut self, node: usize) -> Vec<VcdChange> {
        std::mem::take(&mut self.rt_mut(node).obs.changes)
    }

    /// Validates a link index against the design, as a typed error.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending index.
    pub fn check_link(&self, link: usize) -> Result<()> {
        if link >= self.sim.links.len() {
            return Err(SimError::Config {
                message: format!(
                    "link index {link} out of range ({} links)",
                    self.sim.links.len()
                ),
            });
        }
        Ok(())
    }
}
