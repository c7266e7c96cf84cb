//! Cycle-boundary control hooks for the live cockpit.
//!
//! The in-process backends ([`Backend::Des`](crate::engine::Backend) and
//! [`Backend::Threads`](crate::engine::Backend)) are attachable by
//! *segmenting*: drive [`DistributedSim::run_target_cycles`] to a cycle
//! boundary, then peek, poke, and pull observability tails through the
//! methods here — the segment boundary is the same deterministic
//! target-cycle sampling point the shared observation point uses, so
//! everything read here is cycle-exact and bit-identical to what the
//! distributed backend's control plane reports at its pause fence.
//!
//! Signal addressing follows the `obs.signals` convention already used
//! by the observation spec: `node:path` names signal `path` inside node
//! `node`; a bare `path` resolves only if exactly one node exposes it.
//! Nodes are numbered by their flat index in the whole cut; on a
//! partition build a node another process builds panics when read.
//!
//! Pokes go through [`fireaxe_libdn::LiBdn::poke_input_next_cycle`], so a poke staged
//! with the simulation at target cycle `C` takes effect at the cycle
//! `C+1` tick — the property that makes a paused-and-poked run
//! bit-identical to an unattached run staging the same poke at the
//! same cycle.

use crate::engine::DistributedSim;
use crate::error::{Result, SimError};
use crate::obs::state_digest;
use fireaxe_ir::Bits;
use fireaxe_obs::{NodeSample, VcdSignal};

/// One node's recorded VCD change: `(target cycle, signal index, value)`.
/// Signal indices refer to the cut's VCD signal table
/// ([`DistributedSim::vcd_signal_table`]), which every process of a cut
/// shares.
pub type VcdChange = (u64, u32, Bits);

impl DistributedSim {
    /// Resolves a node name to its flat index.
    pub fn node_index_by_name(&self, name: &str) -> Option<usize> {
        self.node_table.iter().position(|(n, _)| n == name)
    }

    /// Splits a `node:path` signal address into `(node index, path)`.
    /// A bare path (no `:`) resolves iff exactly one node exposes it.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the unknown node, and
    /// [`SimError::Ir`] ([`fireaxe_ir::IrError::UnknownSignal`]) when a
    /// bare path matches zero or several nodes.
    pub fn resolve_signal(&self, addr: &str) -> Result<(usize, String)> {
        if let Some((node_name, path)) = addr.split_once(':') {
            let ni = self
                .node_index_by_name(node_name)
                .ok_or_else(|| SimError::Config {
                    message: format!("no node named `{node_name}` (in `{addr}`)"),
                })?;
            return Ok((ni, path.to_string()));
        }
        let mut hits = (0..self.node_count()).filter(|&n| {
            self.slot[n].is_some_and(|i| self.nodes[i].libdn.model().peek_path(addr).is_some())
        });
        match (hits.next(), hits.next()) {
            (Some(ni), None) => Ok((ni, addr.to_string())),
            _ => Err(SimError::Ir(fireaxe_ir::IrError::UnknownSignal {
                path: addr.to_string(),
            })),
        }
    }

    /// Reads any watchable signal by `node:path` address.
    ///
    /// # Errors
    ///
    /// Address resolution failures (see
    /// [`DistributedSim::resolve_signal`]) and
    /// [`fireaxe_ir::IrError::UnknownSignal`] when the node exists but
    /// exposes no such signal.
    pub fn peek_signal(&self, addr: &str) -> Result<Bits> {
        let (ni, path) = self.resolve_signal(addr)?;
        self.target(ni)
            .peek_path(&path)
            .ok_or(SimError::Ir(fireaxe_ir::IrError::UnknownSignal {
                path: addr.to_string(),
            }))
    }

    /// Stages a cockpit poke by `node:path` address: the named top-level
    /// input port is driven with `value` for exactly the next
    /// target-cycle advance of that node (see
    /// [`fireaxe_libdn::LiBdn::poke_input_next_cycle`] for the determinism
    /// argument).
    ///
    /// # Errors
    ///
    /// Address resolution failures, plus the field-named
    /// [`fireaxe_ir::IrError`] poke errors relayed as [`SimError::Ir`].
    pub fn poke_signal(&mut self, addr: &str, value: u64) -> Result<()> {
        let (ni, path) = self.resolve_signal(addr)?;
        self.poke_node(ni, &path, value)
    }

    /// [`DistributedSim::poke_signal`] of the resolved address: drives
    /// top-level input port `path` of node `node` with `value` for
    /// exactly its next target-cycle advance.
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

    /// FNV-1a digest of one node's output-port values — the same
    /// deterministic per-cycle digest metric samples carry, computable
    /// on demand at a segment boundary.
    pub fn node_state_digest(&self, node: usize) -> u64 {
        state_digest(self.target(node))
    }

    /// The global VCD signal table (empty when waveform capture is off).
    pub fn vcd_signal_table(&self) -> &[VcdSignal] {
        &self.vcd_signals
    }

    /// Clones the tail of one node's recorded VCD changes starting at
    /// index `from`, *without* draining — the end-of-run report still
    /// sees every change. Streaming consumers track their own cursor
    /// and advance it by the returned length.
    pub fn node_wave_changes_since(&self, node: usize, from: usize) -> Vec<VcdChange> {
        let changes = &self.rt(node).obs.changes;
        changes[from.min(changes.len())..].to_vec()
    }

    /// Clones the tail of one node's metric samples starting at index
    /// `from`, without draining.
    pub fn node_samples_since(&self, node: usize, from: usize) -> Vec<NodeSample> {
        let samples = &self.rt(node).obs.samples;
        samples[from.min(samples.len())..].to_vec()
    }

    /// Takes (drains) one node's collected metric samples.
    pub fn take_node_samples(&mut self, node: usize) -> Vec<NodeSample> {
        std::mem::take(&mut self.rt_mut(node).obs.samples)
    }

    /// Takes (drains) one node's collected VCD changes.
    pub fn take_node_vcd_changes(&mut self, node: usize) -> Vec<VcdChange> {
        std::mem::take(&mut self.rt_mut(node).obs.changes)
    }
}
