//! The LI-BDN wrapper: host-decoupled execution of a target design.
//!
//! Reproduces Fig. 1 of the FireAxe paper. The target design interfaces
//! with latency-insensitive channel queues holding tokens. Each output
//! channel has a single-bit FSM that fires (enqueues a token) once every
//! *combinationally connected* input channel holds a valid token; the
//! `fireFSM` advances the target a cycle once all input channels hold a
//! token and all output channels have fired, dequeuing the inputs and
//! resetting the output FSMs.
//!
//! This protocol is what makes simulation *host-decoupled*: the target
//! observes a perfectly synchronous world no matter how token arrival
//! times jitter on the host — the property that keeps partitioned
//! exact-mode simulations cycle-identical to monolithic ones.

use crate::channel::ChannelSpec;
use crate::error::{LibdnError, Result};
use crate::target::TargetModel;
use fireaxe_ir::{Bits, Dec, DecResult, Wire};
use std::collections::VecDeque;

/// Default token queue capacity, matching FireSim's shallow channel
/// depths.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 4;

fireaxe_ir::wire_struct! {
    /// An output channel together with the input channels it combinationally
    /// depends on.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct OutputChannelSpec {
        /// The channel itself.
        pub channel: ChannelSpec,
        /// Indices (into the LI-BDN's input channel list) of combinationally
        /// connected input channels. Empty for *source* channels, which can
        /// fire unconditionally — the paper's deadlock-freedom seed.
        pub deps: Vec<usize>,
    }
}

fireaxe_ir::wire_struct! {
    /// Static description of an LI-BDN: its channels and their dependencies.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LiBdnSpec {
        /// Name (used in reports).
        pub name: String,
        /// Input channels.
        pub inputs: Vec<ChannelSpec>,
        /// Output channels with dependency sets.
        pub outputs: Vec<OutputChannelSpec>,
    }
}

impl LiBdnSpec {
    /// Validates dependency indices.
    ///
    /// # Errors
    ///
    /// Returns [`LibdnError::BadDependency`] for out-of-range indices.
    pub fn validate(&self) -> Result<()> {
        for o in &self.outputs {
            for &d in &o.deps {
                if d >= self.inputs.len() {
                    return Err(LibdnError::BadDependency {
                        libdn: self.name.clone(),
                        output: o.channel.name.clone(),
                        dep: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// Sum of input channel widths, in bits (the partition boundary width
    /// in the inbound direction).
    pub fn input_width(&self) -> u64 {
        self.inputs.iter().map(|c| u64::from(c.width().get())).sum()
    }

    /// Sum of output channel widths, in bits.
    pub fn output_width(&self) -> u64 {
        self.outputs
            .iter()
            .map(|o| u64::from(o.channel.width().get()))
            .sum()
    }
}

/// Where one channel port lives: the model's handle for it (see
/// [`TargetModel::input_handle`]) and its bit offset inside the token.
/// The port's name and width stay in the [`ChannelSpec`], index for
/// index.
#[derive(Debug, Clone, Copy)]
struct PortField {
    handle: Option<usize>,
    offset: u32,
}

/// Resolves every port of `channel` once, through `handle_of`.
fn resolve_fields(
    channel: &ChannelSpec,
    handle_of: impl Fn(&str) -> Option<usize>,
) -> Vec<PortField> {
    let mut offset = 0u32;
    channel
        .ports
        .iter()
        .map(|(port, w)| {
            let field = PortField {
                handle: handle_of(port),
                offset,
            };
            offset += w.get();
            field
        })
        .collect()
}

/// A running LI-BDN: spec + target model + queue/FSM state.
#[derive(Debug)]
pub struct LiBdn {
    spec: LiBdnSpec,
    model: Box<dyn TargetModel>,
    /// Token layout of every input channel, resolved at construction.
    in_fields: Vec<Vec<PortField>>,
    /// Token layout of every output channel, resolved at construction.
    out_fields: Vec<Vec<PortField>>,
    in_queues: Vec<VecDeque<Bits>>,
    out_queues: Vec<VecDeque<Bits>>,
    fired: Vec<bool>,
    capacity: usize,
    target_cycle: u64,
    host_cycles: u64,
    /// Pending cockpit pokes: input-port overrides applied at the next
    /// fireFSM advance only (see [`LiBdn::poke_input_next_cycle`]).
    poke_overrides: Vec<(String, Bits)>,
}

impl LiBdn {
    /// Wraps `model` with the channel structure in `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`LiBdnSpec::validate`] failures.
    pub fn new(spec: LiBdnSpec, model: Box<dyn TargetModel>) -> Result<Self> {
        spec.validate()?;
        let n_in = spec.inputs.len();
        let n_out = spec.outputs.len();
        let in_fields = spec
            .inputs
            .iter()
            .map(|c| resolve_fields(c, |port| model.input_handle(port)))
            .collect();
        let out_fields = spec
            .outputs
            .iter()
            .map(|o| resolve_fields(&o.channel, |port| model.output_handle(port)))
            .collect();
        let mut bdn = LiBdn {
            spec,
            model,
            in_fields,
            out_fields,
            in_queues: vec![VecDeque::new(); n_in],
            out_queues: vec![VecDeque::new(); n_out],
            fired: vec![false; n_out],
            capacity: DEFAULT_CHANNEL_CAPACITY,
            target_cycle: 0,
            host_cycles: 0,
            poke_overrides: Vec::new(),
        };
        bdn.model.reset();
        Ok(bdn)
    }

    /// The static spec.
    pub fn spec(&self) -> &LiBdnSpec {
        &self.spec
    }

    /// The wrapped target model.
    pub fn model(&self) -> &dyn TargetModel {
        self.model.as_ref()
    }

    /// Stages a cockpit poke: drives input port `port` with `value` for
    /// exactly the next target-cycle advance, *after* the token-driven
    /// values. Deferring to the tick (instead of poking the model now)
    /// is what makes live pokes deterministic: a poke staged while the
    /// node sits at target cycle `C` affects the state registered at
    /// cycle `C+1` and nothing else, regardless of how many of the
    /// cycle's output FSMs had already fired when the poke arrived —
    /// so an attached run and an unattached run staging the same poke
    /// at the same cycle stay bit-identical.
    ///
    /// Pending overrides are transient (consumed by the next tick) and
    /// deliberately excluded from snapshots.
    ///
    /// # Errors
    ///
    /// [`fireaxe_ir::IrError::UnknownSignal`] when `port` names nothing
    /// in the model, [`fireaxe_ir::IrError::NotPokeable`] when it names
    /// a signal that is not a top-level input port, and
    /// [`fireaxe_ir::IrError::PokeWidth`] when `value` does not fit.
    pub fn poke_input_next_cycle(
        &mut self,
        port: &str,
        value: u64,
    ) -> std::result::Result<(), fireaxe_ir::IrError> {
        let Some((_, w)) = self
            .model
            .input_ports()
            .into_iter()
            .find(|(n, _)| n == port)
        else {
            return Err(if self.model.peek_path(port).is_some() {
                fireaxe_ir::IrError::NotPokeable {
                    path: port.to_string(),
                }
            } else {
                fireaxe_ir::IrError::UnknownSignal {
                    path: port.to_string(),
                }
            });
        };
        let width = w.get();
        let value_bits = 64 - value.leading_zeros();
        if width < 64 && value_bits > width {
            return Err(fireaxe_ir::IrError::PokeWidth {
                path: port.to_string(),
                width,
                value_bits,
            });
        }
        // Last write to the same port wins within one cycle.
        self.poke_overrides.retain(|(p, _)| p != port);
        self.poke_overrides
            .push((port.to_string(), Bits::from_u64(value, w)));
        Ok(())
    }

    /// Completed target cycles.
    pub fn target_cycle(&self) -> u64 {
        self.target_cycle
    }

    /// Host cycles spent (calls to [`LiBdn::host_step`]).
    pub fn host_cycles(&self) -> u64 {
        self.host_cycles
    }

    /// Sets the token queue capacity (default
    /// [`DEFAULT_CHANNEL_CAPACITY`]).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    /// Current token queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if input channel `chan` can accept a token.
    pub fn can_accept(&self, chan: usize) -> bool {
        self.in_queues
            .get(chan)
            .is_some_and(|q| q.len() < self.capacity)
    }

    /// Enqueues a token on input channel `chan`.
    ///
    /// # Errors
    ///
    /// Returns [`LibdnError::ChannelFull`] when the queue is at capacity
    /// and [`LibdnError::NoSuchChannel`] for bad indices.
    pub fn push_input(&mut self, chan: usize, token: Bits) -> Result<()> {
        let Some(q) = self.in_queues.get_mut(chan) else {
            return Err(LibdnError::NoSuchChannel {
                libdn: self.spec.name.clone(),
                channel: chan,
            });
        };
        if q.len() >= self.capacity {
            return Err(LibdnError::ChannelFull {
                libdn: self.spec.name.clone(),
                channel: self.spec.inputs[chan].name.clone(),
            });
        }
        q.push_back(token);
        Ok(())
    }

    /// Dequeues a token from output channel `chan`, if one is ready.
    pub fn pop_output(&mut self, chan: usize) -> Option<Bits> {
        self.out_queues.get_mut(chan)?.pop_front()
    }

    /// Peeks output channel `chan` without consuming.
    pub fn peek_output(&self, chan: usize) -> Option<&Bits> {
        self.out_queues.get(chan)?.front()
    }

    /// Number of tokens queued on input channel `chan`.
    pub fn input_pending(&self, chan: usize) -> usize {
        self.in_queues.get(chan).map_or(0, |q| q.len())
    }

    /// Tokens queued across all input channels.
    pub fn inputs_queued(&self) -> usize {
        self.in_queues.iter().map(VecDeque::len).sum()
    }

    /// Returns `true` when no output channel holds a fired token that
    /// has not been popped yet.
    pub fn outputs_drained(&self) -> bool {
        self.out_queues.iter().all(VecDeque::is_empty)
    }

    /// Computes the *current* value of an output channel without firing —
    /// used to fabricate fast-mode seed tokens from reset state.
    ///
    /// # Errors
    ///
    /// Returns [`LibdnError::NoSuchChannel`] for a bad index and
    /// propagates model evaluation failures.
    pub fn sample_output(&mut self, chan: usize) -> Result<Bits> {
        self.model.eval()?;
        if chan >= self.spec.outputs.len() {
            return Err(LibdnError::NoSuchChannel {
                libdn: self.spec.name.clone(),
                channel: chan,
            });
        }
        Ok(self.pack_output(chan))
    }

    /// Whether output channel `o`'s FSM can fire right now: not fired
    /// yet this target cycle, queue space, and every combinationally
    /// connected input channel holding a token.
    fn can_fire(&self, o: usize) -> bool {
        !self.fired[o]
            && self.out_queues[o].len() < self.capacity
            && self.spec.outputs[o]
                .deps
                .iter()
                .all(|&d| !self.in_queues[d].is_empty())
    }

    /// One host cycle: run every output-channel FSM, then the fireFSM.
    ///
    /// Which FSMs fire is decided from queue state alone, before the
    /// model is touched; queue heads cannot change inside a host step,
    /// so the head tokens are poked once and the model settles once for
    /// every channel that fires (ports an output does not depend on may
    /// be stale, which is harmless by the dependency analysis). A host
    /// cycle on which nothing can fire does not touch the model at all.
    ///
    /// Returns `true` when the LI-BDN made progress this host cycle (an
    /// output fired or the target advanced).
    ///
    /// # Errors
    ///
    /// Propagates model evaluation failures.
    pub fn host_step(&mut self) -> Result<bool> {
        self.host_cycles += 1;
        let n_out = self.spec.outputs.len();
        let firing = (0..n_out).any(|o| self.can_fire(o));
        // fireFSM: all inputs present and all outputs fired (counting
        // the ones firing this very host cycle) -> advance.
        let advance = self.in_queues.iter().all(|q| !q.is_empty())
            && (0..n_out).all(|o| self.fired[o] || self.can_fire(o));
        if !firing && !advance {
            return Ok(false);
        }

        self.poke_available_inputs();
        if firing {
            self.model.eval()?;
            for o in 0..n_out {
                if self.can_fire(o) {
                    let token = self.pack_output(o);
                    self.out_queues[o].push_back(token);
                    self.fired[o] = true;
                }
            }
        }
        if advance {
            // Cockpit pokes land here, after the token values and only
            // at the tick: the registered state clocked this advance
            // sees the override, while the cycle's already-fired output
            // tokens do not — so the effect is identical no matter how
            // far output FSMs had run ahead when the poke was staged.
            let overridden = !self.poke_overrides.is_empty();
            for (port, v) in self.poke_overrides.drain(..) {
                self.model.poke(&port, v);
            }
            if overridden || !firing {
                self.model.eval()?;
            }
            self.model.tick();
            for q in &mut self.in_queues {
                q.pop_front();
            }
            self.fired.fill(false);
            self.target_cycle += 1;
        }
        Ok(true)
    }

    /// Accounts one host cycle on which, by the caller's knowledge of
    /// the queues, nothing can fire: [`LiBdn::host_step`] without the
    /// scan. The DES engine charges a node waiting on a token in flight
    /// this way instead of servicing it.
    pub fn idle_host_step(&mut self) {
        debug_assert!(!self.can_progress(), "idle host step on a live LI-BDN");
        self.host_cycles += 1;
    }

    /// Returns `true` if the LI-BDN could make progress right now (some
    /// output can fire or the fireFSM condition holds) — used for deadlock
    /// detection across a network of LI-BDNs.
    pub fn can_progress(&self) -> bool {
        (0..self.spec.outputs.len()).any(|o| self.can_fire(o))
            || (self.in_queues.iter().all(|q| !q.is_empty()) && self.fired.iter().all(|&f| f))
    }

    /// Returns `true` if the LI-BDN is starved: at least one input
    /// channel holds no token, so the fireFSM (and any output FSM
    /// depending on that channel) cannot run. Used by the engine to
    /// attribute host cycles to input-wait stalls.
    pub fn waiting_on_input(&self) -> bool {
        self.in_queues.iter().any(|q| q.is_empty())
    }

    /// One-line stall report for deadlock diagnostics.
    pub fn stall_report(&self) -> String {
        let ins: Vec<String> = self
            .spec
            .inputs
            .iter()
            .zip(&self.in_queues)
            .map(|(c, q)| format!("{}={}", c.name, q.len()))
            .collect();
        let outs: Vec<String> = self
            .spec
            .outputs
            .iter()
            .zip(&self.fired)
            .map(|(o, f)| format!("{}{}", o.channel.name, if *f { "*" } else { "" }))
            .collect();
        format!(
            "{} @cycle {}: in[{}] out[{}]",
            self.spec.name,
            self.target_cycle,
            ins.join(", "),
            outs.join(", ")
        )
    }

    /// Per-input-channel occupancy, `(channel name, queued tokens)` —
    /// structured stall forensics for the engine's `StallReport`.
    pub fn input_levels(&self) -> Vec<(String, usize)> {
        self.spec
            .inputs
            .iter()
            .zip(&self.in_queues)
            .map(|(c, q)| (c.name.clone(), q.len()))
            .collect()
    }

    /// Per-output-channel fired flags, `(channel name, fired this target
    /// cycle)` — structured stall forensics.
    pub fn output_fired(&self) -> Vec<(String, bool)> {
        self.spec
            .outputs
            .iter()
            .zip(&self.fired)
            .map(|(o, f)| (o.channel.name.clone(), *f))
            .collect()
    }

    /// Captures queue/FSM state plus the wrapped model's state as a byte
    /// blob: channel queues, output FSMs, cycle counters and the model's
    /// own blob. Rollback rewinds to it in process, and the distributed
    /// backend ships it in cluster checkpoints.
    ///
    /// Returns `None` when the model cannot be snapshotted (see
    /// [`TargetModel::snapshot_bytes`]).
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        let mut b = Vec::new();
        self.target_cycle.put(&mut b);
        self.host_cycles.put(&mut b);
        self.in_queues.put(&mut b);
        self.out_queues.put(&mut b);
        self.fired.put(&mut b);
        self.model.snapshot_bytes()?.put(&mut b);
        Some(b)
    }

    /// Restores state captured by [`LiBdn::snapshot_bytes`]. Returns
    /// `false` when the blob does not decode, does not fit this LI-BDN's
    /// channel shape, or the model rejects its sub-blob — queue/FSM
    /// state is left untouched in every rejection case.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> bool {
        type Queues = Vec<VecDeque<Bits>>;
        let mut d = Dec::new(bytes);
        let decoded = (|| -> DecResult<_> {
            let v = (
                d.get::<u64>()?,
                d.get::<u64>()?,
                d.get::<Queues>()?,
                d.get::<Queues>()?,
                d.get::<Vec<bool>>()?,
                d.bytes()?,
            );
            d.finish()?;
            Ok(v)
        })();
        let Ok((target_cycle, host_cycles, in_queues, out_queues, fired, model)) = decoded else {
            return false;
        };
        if in_queues.len() != self.in_queues.len()
            || out_queues.len() != self.out_queues.len()
            || fired.len() != self.fired.len()
            || !self.model.restore_bytes(model)
        {
            return false;
        }
        self.in_queues = in_queues;
        self.out_queues = out_queues;
        self.fired = fired;
        self.target_cycle = target_cycle;
        self.host_cycles = host_cycles;
        true
    }

    /// Drives the model's inputs from the head token of every input
    /// channel that holds one, field by field through the resolved
    /// layout.
    fn poke_available_inputs(&mut self) {
        let channels = self.spec.inputs.iter().zip(&self.in_fields);
        for ((chan, fields), q) in channels.zip(&self.in_queues) {
            if let Some(token) = q.front() {
                for ((port, w), f) in chan.ports.iter().zip(fields) {
                    self.model.poke_field(f.handle, port, token, f.offset, *w);
                }
            }
        }
    }

    /// Packs output channel `o`'s token from the model's settled output
    /// ports.
    fn pack_output(&self, o: usize) -> Bits {
        let chan = &self.spec.outputs[o].channel;
        let mut token = Bits::zero(chan.width());
        for ((port, w), f) in chan.ports.iter().zip(&self.out_fields[o]) {
            self.model
                .peek_into(f.handle, port, &mut token, f.offset, *w);
        }
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::InterpreterTarget;
    use fireaxe_ir::build::{ModuleBuilder, Sig};
    use fireaxe_ir::{Circuit, Width};

    /// reg-out module: y = r; r <- a (no comb path a->y).
    fn reg_stage() -> Circuit {
        let mut mb = ModuleBuilder::new("S");
        let a = mb.input("a", 8);
        let y = mb.output("y", 8);
        let r = mb.reg("r", 8, 0);
        mb.connect_sig(&r, &a);
        mb.connect_sig(&y, &r);
        Circuit::from_modules("S", vec![mb.finish()], "S")
    }

    /// comb module: y = a + 1 (comb path a->y).
    fn comb_stage() -> Circuit {
        let mut mb = ModuleBuilder::new("C");
        let a = mb.input("a", 8);
        let y = mb.output("y", 8);
        mb.connect_sig(&y, &a.add(&Sig::lit(1, 8)));
        Circuit::from_modules("C", vec![mb.finish()], "C")
    }

    fn chan(name: &str, port: &str, w: u32) -> ChannelSpec {
        ChannelSpec::new(name, vec![(port.to_string(), Width::new(w))])
    }

    fn make_bdn(circuit: &Circuit, deps: Vec<usize>) -> LiBdn {
        let spec = LiBdnSpec {
            name: circuit.name.clone(),
            inputs: vec![chan("in_a", "a", 8)],
            outputs: vec![OutputChannelSpec {
                channel: chan("out_y", "y", 8),
                deps,
            }],
        };
        LiBdn::new(spec, Box::new(InterpreterTarget::new(circuit).unwrap())).unwrap()
    }

    #[test]
    fn source_output_fires_without_inputs() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        assert!(bdn.host_step().unwrap());
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 0); // reset value
                                                            // But the target cannot advance without an input token.
        assert_eq!(bdn.target_cycle(), 0);
    }

    #[test]
    fn sink_output_waits_for_dependency() {
        let mut bdn = make_bdn(&comb_stage(), vec![0]);
        assert!(!bdn.host_step().unwrap());
        assert!(bdn.peek_output(0).is_none());
        bdn.push_input(0, Bits::from_u64(41, 8)).unwrap();
        bdn.host_step().unwrap();
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 42);
    }

    #[test]
    fn fire_fsm_advances_target() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        bdn.push_input(0, Bits::from_u64(9, 8)).unwrap();
        // Host step 1: output fires (value 0) and fireFSM advances
        // (input present + output fired in the same host cycle).
        let mut advanced = false;
        for _ in 0..3 {
            advanced |= bdn.host_step().unwrap() && bdn.target_cycle() == 1;
            if bdn.target_cycle() == 1 {
                break;
            }
        }
        assert!(advanced);
        // Next cycle's output token carries the registered 9.
        bdn.push_input(0, Bits::from_u64(0, 8)).unwrap();
        while bdn.target_cycle() < 2 {
            bdn.host_step().unwrap();
        }
        bdn.pop_output(0).unwrap(); // token for cycle 0
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 9);
    }

    #[test]
    fn staged_poke_applies_at_next_tick_only() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        bdn.poke_input_next_cycle("a", 0x55).unwrap();
        bdn.push_input(0, Bits::from_u64(9, 8)).unwrap();
        while bdn.target_cycle() < 1 {
            bdn.host_step().unwrap();
        }
        // The advance to cycle 1 registered the override, not the token.
        bdn.push_input(0, Bits::from_u64(0, 8)).unwrap();
        while bdn.target_cycle() < 2 {
            bdn.host_step().unwrap();
        }
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 0); // cycle 0: reset
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 0x55); // cycle 1: poked
                                                               // Override is consumed: cycle 2 registers the token value again.
        bdn.push_input(0, Bits::from_u64(7, 8)).unwrap();
        while bdn.target_cycle() < 3 {
            bdn.host_step().unwrap();
        }
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 0);
    }

    #[test]
    fn staged_poke_error_paths() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        assert!(matches!(
            bdn.poke_input_next_cycle("nope", 1),
            Err(fireaxe_ir::IrError::UnknownSignal { .. })
        ));
        assert!(matches!(
            bdn.poke_input_next_cycle("y", 1),
            Err(fireaxe_ir::IrError::NotPokeable { .. })
        ));
        assert!(matches!(
            bdn.poke_input_next_cycle("a", 0x1FF),
            Err(fireaxe_ir::IrError::PokeWidth {
                width: 8,
                value_bits: 9,
                ..
            })
        ));
        // Errors stage nothing; a valid poke still works afterwards.
        bdn.poke_input_next_cycle("a", 0xFF).unwrap();
    }

    #[test]
    fn channel_capacity_enforced() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        bdn.set_capacity(2);
        bdn.push_input(0, Bits::from_u64(1, 8)).unwrap();
        bdn.push_input(0, Bits::from_u64(2, 8)).unwrap();
        assert!(!bdn.can_accept(0));
        assert!(matches!(
            bdn.push_input(0, Bits::from_u64(3, 8)),
            Err(LibdnError::ChannelFull { .. })
        ));
    }

    #[test]
    fn output_backpressure_stalls_target() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        bdn.set_capacity(2);
        // Fill output queue without ever draining it.
        for v in 0..4 {
            bdn.push_input(0, Bits::from_u64(v, 8)).unwrap();
            for _ in 0..4 {
                bdn.host_step().unwrap();
            }
        }
        // Only capacity-many target cycles can complete beyond queue space.
        assert!(bdn.target_cycle() <= 3);
    }

    #[test]
    fn host_decoupling_is_timing_independent() {
        // Feeding tokens with different host-side delays must produce the
        // same target-visible sequence.
        let run = |delays: &[usize]| -> Vec<u64> {
            let mut bdn = make_bdn(&reg_stage(), vec![]);
            let inputs = [3u64, 1, 4, 1, 5, 9, 2, 6];
            let mut outs = Vec::new();
            let mut fed = 0;
            let mut wait = delays[0];
            for _ in 0..200 {
                if fed < inputs.len() {
                    if wait == 0 && bdn.can_accept(0) {
                        bdn.push_input(0, Bits::from_u64(inputs[fed], 8)).unwrap();
                        fed += 1;
                        if fed < inputs.len() {
                            wait = delays[fed % delays.len()];
                        }
                    } else {
                        wait = wait.saturating_sub(1);
                    }
                }
                bdn.host_step().unwrap();
                while let Some(t) = bdn.pop_output(0) {
                    outs.push(t.to_u64());
                }
            }
            outs.truncate(inputs.len());
            outs
        };
        let fast = run(&[0]);
        let slow = run(&[0, 3, 1, 7]);
        assert_eq!(fast, slow);
        assert_eq!(fast[0], 0); // reset value first
        assert_eq!(&fast[1..4], &[3, 1, 4]); // registered inputs follow
    }

    /// Stateful extern model for the extern-bearing partition below:
    /// `y` is combinational in `x` and the state, `s` publishes the
    /// state, the state steps on `x` every tick.
    #[derive(Debug, Default)]
    struct XorAcc {
        state: u64,
    }

    impl fireaxe_ir::ExternBehavior for XorAcc {
        fn reset(&mut self) {
            self.state = 0;
        }
        fn source_outputs(&mut self, out: &mut fireaxe_ir::PortWriter<'_>) {
            out.set_u64("s", self.state);
        }
        fn comb_outputs(
            &mut self,
            inputs: &std::collections::BTreeMap<String, Bits>,
            out: &mut fireaxe_ir::PortWriter<'_>,
        ) {
            out.set_u64(
                "y",
                inputs["x"].to_u64().rotate_left(3) ^ self.state ^ 0x9E37,
            );
        }
        fn tick(&mut self, inputs: &std::collections::BTreeMap<String, Bits>) {
            self.state = self
                .state
                .wrapping_mul(3)
                .wrapping_add(inputs["x"].to_u64());
        }
    }

    /// A partition with an extern instance on its boundary: input `a`
    /// feeds the model combinationally (`y`), input `b` a register
    /// (`z`), and the model's state is a source output (`s`). Three
    /// output channels with three different dependency sets, so the
    /// order tokens arrive in decides on which host steps the model
    /// settles — and how often.
    fn extern_partition() -> LiBdn {
        use fireaxe_ir::{CombPath, ExternInfo, Module, Port, ResourceHints};
        let mut dev = Module::new("Dev");
        dev.ports.push(Port::input("x", 16));
        dev.ports.push(Port::output("y", 16));
        dev.ports.push(Port::output("s", 16));
        dev.extern_info = Some(ExternInfo {
            behavior: "xoracc".into(),
            comb_paths: vec![CombPath {
                input: "x".into(),
                output: "y".into(),
            }],
            resources: ResourceHints::default(),
        });
        let mut top = ModuleBuilder::new("P");
        let a = top.input("a", 16);
        let b = top.input("b", 8);
        let y = top.output("y", 16);
        let s = top.output("s", 16);
        let z = top.output("z", 8);
        top.inst("d", "Dev");
        top.connect_inst("d", "x", &a);
        top.connect_sig(&y, &top.inst_port("d", "y"));
        top.connect_sig(&s, &top.inst_port("d", "s"));
        let r = top.reg("r", 8, 7);
        top.connect_sig(&r, &r.add(&b));
        top.connect_sig(&z, &r);
        let circuit = Circuit::from_modules("P", vec![top.finish(), dev], "P");
        let mut interp = fireaxe_ir::Interpreter::new(&circuit).unwrap();
        interp
            .bind_behavior("d", Box::new(XorAcc::default()))
            .unwrap();
        interp.reset();
        let out = |name: &str, port: &str, w: u32, deps: Vec<usize>| OutputChannelSpec {
            channel: chan(name, port, w),
            deps,
        };
        let spec = LiBdnSpec {
            name: "P".into(),
            inputs: vec![chan("in_a", "a", 16), chan("in_b", "b", 8)],
            outputs: vec![
                out("out_y", "y", 16, vec![0]),
                out("out_s", "s", 16, vec![]),
                out("out_z", "z", 8, vec![]),
            ],
        };
        LiBdn::new(spec, Box::new(InterpreterTarget::from_interpreter(interp))).unwrap()
    }

    #[test]
    fn host_decoupling_is_timing_independent_with_extern_models() {
        // Each input channel gets its own arrival jitter; the three
        // output streams (and the model's final state, through `s`) must
        // not notice — although the number of settle passes, and with it
        // the number of `comb_outputs` calls, differs run to run.
        let run = |delays_a: &[usize], delays_b: &[usize]| -> (Vec<Vec<u64>>, u64) {
            let mut bdn = extern_partition();
            let stimulus = |c: usize| [(c as u64 * 0x1F3) & 0xFFFF, (c as u64 * 5 + 1) & 0xFF];
            let cycles = 24;
            let delays = [delays_a, delays_b];
            let mut fed = [0usize; 2];
            let mut wait = [delays_a[0], delays_b[0]];
            let mut outs = vec![Vec::new(); 3];
            for _ in 0..600 {
                for ch in 0..2 {
                    if fed[ch] == cycles {
                        continue;
                    }
                    if wait[ch] == 0 && bdn.can_accept(ch) {
                        let width = if ch == 0 { 16 } else { 8 };
                        bdn.push_input(ch, Bits::from_u64(stimulus(fed[ch])[ch], width))
                            .unwrap();
                        fed[ch] += 1;
                        wait[ch] = delays[ch][fed[ch] % delays[ch].len()];
                    } else {
                        wait[ch] = wait[ch].saturating_sub(1);
                    }
                }
                bdn.host_step().unwrap();
                for (o, seen) in outs.iter_mut().enumerate() {
                    while let Some(t) = bdn.pop_output(o) {
                        seen.push(t.to_u64());
                    }
                }
            }
            assert_eq!(bdn.target_cycle(), cycles as u64);
            let settles = bdn.model().exec_stats().unwrap().settle_passes;
            (outs, settles)
        };
        let (lockstep, settles_lockstep) = run(&[0], &[0]);
        let (a_late, settles_a_late) = run(&[5, 0, 9, 2], &[0]);
        let (b_late, _) = run(&[0, 1], &[7, 3, 0, 0, 11]);
        let (both, _) = run(&[2, 6, 0], &[1, 0, 4, 8]);
        assert_eq!(lockstep, a_late);
        assert_eq!(lockstep, b_late);
        assert_eq!(lockstep, both);
        assert_eq!(lockstep[1][0], 0, "reset state first");
        assert_ne!(lockstep[1][5], 0, "the model's state moves");
        assert_ne!(
            settles_lockstep, settles_a_late,
            "the jitter must actually change how often the model settles"
        );
    }

    /// A target that implements only the seven required methods, as an
    /// out-of-tree model (the e2e harness's pass-through probe) does:
    /// `y = a + 1` combinationally, `q` registers `a`, `pad` is ignored.
    #[derive(Debug, Default)]
    struct NameOnly {
        a: u64,
        q: u64,
    }

    impl TargetModel for NameOnly {
        fn reset(&mut self) {
            *self = NameOnly::default();
        }
        fn poke(&mut self, port: &str, value: Bits) {
            match port {
                "a" => self.a = value.to_u64(),
                "pad" => assert_eq!(value, Bits::ones(4)),
                other => panic!("no port `{other}`"),
            }
        }
        fn eval(&mut self) -> Result<()> {
            Ok(())
        }
        fn peek(&self, port: &str) -> Bits {
            match port {
                "y" => Bits::from_u64(self.a + 1, 8),
                "q" => Bits::from_u64(self.q, 8),
                other => panic!("no port `{other}`"),
            }
        }
        fn tick(&mut self) {
            self.q = self.a;
        }
        fn input_ports(&self) -> Vec<(String, Width)> {
            vec![("pad".into(), Width::new(4)), ("a".into(), Width::new(8))]
        }
        fn output_ports(&self) -> Vec<(String, Width)> {
            vec![("y".into(), Width::new(8)), ("q".into(), Width::new(8))]
        }
    }

    #[test]
    fn name_only_model_runs_through_the_provided_methods() {
        // `a` sits at offset 4 behind a pad field; both outputs share
        // one channel, `q` at offset 8.
        let ports = |ports: &[(&str, u32)]| {
            ports
                .iter()
                .map(|(n, w)| (n.to_string(), Width::new(*w)))
                .collect()
        };
        let spec = LiBdnSpec {
            name: "N".into(),
            inputs: vec![ChannelSpec::new("in", ports(&[("pad", 4), ("a", 8)]))],
            outputs: vec![OutputChannelSpec {
                channel: ChannelSpec::new("out", ports(&[("y", 8), ("q", 8)])),
                deps: vec![0],
            }],
        };
        let mut bdn = LiBdn::new(spec, Box::new(NameOnly::default())).unwrap();
        let mut tokens = Vec::new();
        for a in [5u64, 9, 200] {
            bdn.push_input(0, Bits::from_u64(a << 4 | 0xF, 12)).unwrap();
            assert!(bdn.host_step().unwrap());
            tokens.push(bdn.pop_output(0).unwrap().to_u64());
        }
        assert_eq!(bdn.target_cycle(), 3);
        assert_eq!(tokens, vec![6, 10 | 5 << 8, 201 | 9 << 8]);
        assert_eq!(bdn.sample_output(0).unwrap().to_u64(), 201 | 200 << 8);
    }

    #[test]
    fn bad_dependency_rejected() {
        let spec = LiBdnSpec {
            name: "B".into(),
            inputs: vec![],
            outputs: vec![OutputChannelSpec {
                channel: chan("o", "y", 8),
                deps: vec![0],
            }],
        };
        assert!(matches!(
            LiBdn::new(
                spec,
                Box::new(InterpreterTarget::new(&reg_stage()).unwrap())
            ),
            Err(LibdnError::BadDependency { .. })
        ));
    }

    #[test]
    fn sample_output_reflects_reset_state() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        // Reset value of the register is 0; sampling must not fire.
        assert_eq!(bdn.sample_output(0).unwrap().to_u64(), 0);
        assert!(bdn.peek_output(0).is_none(), "sampling is not firing");
        assert_eq!(bdn.target_cycle(), 0);
    }

    #[test]
    fn input_pending_counts_tokens() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        assert_eq!(bdn.input_pending(0), 0);
        bdn.push_input(0, Bits::from_u64(1, 8)).unwrap();
        bdn.push_input(0, Bits::from_u64(2, 8)).unwrap();
        assert_eq!(bdn.input_pending(0), 2);
        assert_eq!(bdn.input_pending(99), 0);
    }

    #[test]
    fn host_cycles_count_steps() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        for _ in 0..7 {
            bdn.host_step().unwrap();
        }
        assert_eq!(bdn.host_cycles(), 7);
    }

    #[test]
    fn snapshot_round_trip_preserves_queues_and_target() {
        let mut bdn = make_bdn(&reg_stage(), vec![]);
        bdn.push_input(0, Bits::from_u64(9, 8)).unwrap();
        while bdn.target_cycle() < 1 {
            bdn.host_step().unwrap();
        }
        bdn.push_input(0, Bits::from_u64(5, 8)).unwrap();
        let snap = bdn.snapshot_bytes().unwrap();

        // Diverge, then roll back.
        while bdn.target_cycle() < 2 {
            bdn.host_step().unwrap();
        }
        assert!(bdn.restore_bytes(&snap));
        assert_eq!(bdn.target_cycle(), 1);
        assert_eq!(bdn.input_pending(0), 1, "queued token restored");
        // Replay: the same outputs emerge (reset value, then 9).
        while bdn.target_cycle() < 2 {
            bdn.host_step().unwrap();
        }
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 0);
        assert_eq!(bdn.pop_output(0).unwrap().to_u64(), 9);
    }

    #[test]
    fn structured_stall_accessors() {
        let mut bdn = make_bdn(&comb_stage(), vec![0]);
        assert_eq!(bdn.input_levels(), vec![("in_a".to_string(), 0)]);
        assert_eq!(bdn.output_fired(), vec![("out_y".to_string(), false)]);
        bdn.push_input(0, Bits::from_u64(1, 8)).unwrap();
        bdn.host_step().unwrap();
        assert_eq!(bdn.input_levels(), vec![("in_a".to_string(), 0)]);
    }

    #[test]
    fn boundary_widths_reported() {
        let bdn = make_bdn(&reg_stage(), vec![]);
        assert_eq!(bdn.spec().input_width(), 8);
        assert_eq!(bdn.spec().output_width(), 8);
    }
}
