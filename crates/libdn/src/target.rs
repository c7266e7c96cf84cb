//! Target-design models hosted inside an LI-BDN.
//!
//! The LI-BDN wrapper doesn't care what computes the target's cycle
//! semantics — on real FireAxe it is FAME-1-transformed RTL on the FPGA
//! fabric; here it is anything implementing [`TargetModel`]. Two
//! implementations are provided: [`InterpreterTarget`] (full RTL
//! interpretation via `fireaxe-ir`) and [`BehavioralTarget`] (a
//! coarse-grained model implementing [`CycleModel`], used for
//! BOOM-tile-sized components whose RTL we do not model).

use crate::error::{LibdnError, Result};
use fireaxe_ir::{Bits, Circuit, Interpreter, Width};
use std::collections::BTreeMap;

/// A cycle-accurate model of a target design with named ports.
///
/// Contract per target cycle (enforced by the LI-BDN wrapper):
/// 1. inputs are poked (possibly several times as tokens arrive);
/// 2. [`TargetModel::eval`] settles combinational logic;
/// 3. outputs are peeked;
/// 4. [`TargetModel::tick`] latches state exactly once.
///
/// Steps 1–3 may repeat within a target cycle (once per host step on
/// which an output channel fires), so `eval` must be a pure function of
/// the poked inputs and the state latched by the last `tick`.
///
/// The seven required methods address ports by name. The LI-BDN itself
/// goes through the provided [`TargetModel::poke_field`] /
/// [`TargetModel::peek_into`] pair with handles it resolves once at
/// construction; a model that implements only the required methods gets
/// `None` handles and by-name calls, a model that can do better (the
/// RTL interpreter resolves a port to a value slot) overrides the four
/// handle methods.
pub trait TargetModel: std::fmt::Debug + Send {
    /// Returns to the post-reset state.
    fn reset(&mut self);

    /// Drives an input port.
    fn poke(&mut self, port: &str, value: Bits);

    /// Settles combinational logic for the currently poked inputs.
    ///
    /// # Errors
    ///
    /// Implementations may fail (e.g. unbound extern behaviors).
    fn eval(&mut self) -> Result<()>;

    /// Reads an output port (valid after [`TargetModel::eval`]).
    fn peek(&self, port: &str) -> Bits;

    /// Advances one target cycle.
    fn tick(&mut self);

    /// Input port names and widths.
    fn input_ports(&self) -> Vec<(String, Width)>;

    /// Output port names and widths.
    fn output_ports(&self) -> Vec<(String, Width)>;

    /// Resolves input `port` to a handle [`TargetModel::poke_field`]
    /// accepts in place of the name; `None` (the default) keeps the port
    /// addressed by name.
    fn input_handle(&self, _port: &str) -> Option<usize> {
        None
    }

    /// Resolves output `port` to a handle [`TargetModel::peek_into`]
    /// accepts in place of the name; `None` (the default) keeps the port
    /// addressed by name.
    fn output_handle(&self, _port: &str) -> Option<usize> {
        None
    }

    /// Drives input `port` with the `width`-bit field of `token` that
    /// starts at bit `offset` (bits past the token's width read as
    /// zero). `handle` is what [`TargetModel::input_handle`] returned for
    /// `port`; the default ignores it and pokes by name.
    fn poke_field(
        &mut self,
        _handle: Option<usize>,
        port: &str,
        token: &Bits,
        offset: u32,
        width: Width,
    ) {
        let mut value = Bits::zero(width);
        value.assign_field(token, offset);
        self.poke(port, value);
    }

    /// ORs output `port`, resized to `width`, into `token` at bit
    /// `offset` (valid after [`TargetModel::eval`]). `handle` is what
    /// [`TargetModel::output_handle`] returned for `port`; the default
    /// ignores it and peeks by name.
    fn peek_into(
        &self,
        _handle: Option<usize>,
        port: &str,
        token: &mut Bits,
        offset: u32,
        width: Width,
    ) {
        token.or_field(offset, &self.peek(port), width);
    }

    /// Reads one entry of an internal memory by hierarchical path, when
    /// the model exposes memories (RTL-interpreted targets do).
    fn peek_mem(&self, _path: &str, _index: usize) -> Option<Bits> {
        None
    }

    /// Captures the model's architectural state as a byte blob (see
    /// `fireaxe_ir::state`): what a rollback rewinds to and what a
    /// cluster checkpoint ships across a process boundary. `None` (the
    /// default) marks the model non-checkpointable — behavioral models
    /// hold arbitrary private state.
    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`TargetModel::snapshot_bytes`];
    /// returns `false` (leaving the model untouched) when the blob does
    /// not decode as this model's state or does not fit.
    fn restore_bytes(&mut self, _bytes: &[u8]) -> bool {
        false
    }

    /// Hierarchical paths of every signal the model can expose for
    /// waveform watching, sorted. RTL-interpreted targets expose every
    /// elaborated signal; the default exposes the output ports.
    fn signal_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.output_ports().into_iter().map(|(n, _)| n).collect();
        v.sort();
        v
    }

    /// Reads any watchable signal by hierarchical path, or `None` when
    /// the path names no signal. The default resolves output ports only.
    fn peek_path(&self, path: &str) -> Option<Bits> {
        self.output_ports()
            .iter()
            .any(|(n, _)| n == path)
            .then(|| self.peek(path))
    }

    /// Drives a signal by path with typed errors — the injection half of
    /// the live cockpit (`peek_path` is the inspection half). Only
    /// top-level input ports are drivable (anything else is overwritten
    /// by the next settle pass), and the errors are field-named
    /// [`fireaxe_ir::IrError`] values so the control plane can relay
    /// them to an attached client verbatim. The default resolves the
    /// model's declared input ports.
    ///
    /// # Errors
    ///
    /// [`fireaxe_ir::IrError::UnknownSignal`] for a path that resolves to
    /// nothing, [`fireaxe_ir::IrError::NotPokeable`] for one that is not
    /// an input port, [`fireaxe_ir::IrError::PokeWidth`] for a value
    /// wider than the port.
    fn poke_path(
        &mut self,
        path: &str,
        value: u64,
    ) -> std::result::Result<(), fireaxe_ir::IrError> {
        let Some((_, w)) = self.input_ports().into_iter().find(|(n, _)| n == path) else {
            return Err(fireaxe_ir::IrError::UnknownSignal {
                path: path.to_string(),
            });
        };
        let width = w.get();
        let value_bits = 64 - value.leading_zeros();
        if width < 64 && value_bits > width {
            return Err(fireaxe_ir::IrError::PokeWidth {
                path: path.to_string(),
                width,
                value_bits,
            });
        }
        self.poke(path, Bits::from_u64(value, w));
        Ok(())
    }

    /// Cumulative settle-loop statistics (settle passes, definitions
    /// run/skipped), when the model is interpreter-backed; `None` for
    /// behavioral models.
    fn exec_stats(&self) -> Option<fireaxe_ir::ExecStats> {
        None
    }
}

/// [`TargetModel`] backed by the RTL interpreter.
#[derive(Debug)]
pub struct InterpreterTarget {
    interp: Interpreter,
}

impl InterpreterTarget {
    /// Elaborates `circuit` into an interpreter-backed target.
    ///
    /// # Errors
    ///
    /// Propagates elaboration/validation failures.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        Ok(InterpreterTarget {
            interp: Interpreter::new(circuit)?,
        })
    }

    /// Wraps an existing interpreter (e.g. with behaviors already bound).
    pub fn from_interpreter(interp: Interpreter) -> Self {
        InterpreterTarget { interp }
    }

    /// Access to the wrapped interpreter (for peeking internal signals).
    pub fn interpreter(&self) -> &Interpreter {
        &self.interp
    }
}

impl TargetModel for InterpreterTarget {
    fn reset(&mut self) {
        self.interp.reset();
    }

    fn poke(&mut self, port: &str, value: Bits) {
        self.interp.poke(port, value);
    }

    fn eval(&mut self) -> Result<()> {
        self.interp.eval()?;
        Ok(())
    }

    fn peek(&self, port: &str) -> Bits {
        self.interp.peek(port).clone()
    }

    fn tick(&mut self) {
        self.interp.tick();
    }

    fn input_ports(&self) -> Vec<(String, Width)> {
        self.interp.input_ports()
    }

    fn output_ports(&self) -> Vec<(String, Width)> {
        self.interp.output_ports()
    }

    fn input_handle(&self, port: &str) -> Option<usize> {
        self.interp.input_handle(port)
    }

    fn output_handle(&self, port: &str) -> Option<usize> {
        self.interp.signal_handle(port)
    }

    fn poke_field(
        &mut self,
        handle: Option<usize>,
        port: &str,
        token: &Bits,
        offset: u32,
        width: Width,
    ) {
        // An unresolved port panics by name, exactly as a by-name poke
        // of a port the circuit does not have always did.
        let handle = handle.unwrap_or_else(|| panic!("no top input port `{port}`"));
        self.interp.poke_field(handle, token, offset, width);
    }

    fn peek_into(
        &self,
        handle: Option<usize>,
        port: &str,
        token: &mut Bits,
        offset: u32,
        width: Width,
    ) {
        let handle = handle.unwrap_or_else(|| panic!("no signal at path `{port}`"));
        token.or_field(offset, self.interp.peek_handle(handle), width);
    }

    fn peek_mem(&self, path: &str, index: usize) -> Option<Bits> {
        self.interp.peek_mem(path, index).cloned()
    }

    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.interp.snapshot_bytes()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> bool {
        self.interp.restore_snapshot_bytes(bytes)
    }

    fn signal_paths(&self) -> Vec<String> {
        self.interp.signal_paths()
    }

    fn peek_path(&self, path: &str) -> Option<Bits> {
        self.interp.peek_opt(path).cloned()
    }

    fn poke_path(
        &mut self,
        path: &str,
        value: u64,
    ) -> std::result::Result<(), fireaxe_ir::IrError> {
        self.interp.poke_u64(path, value)
    }

    fn exec_stats(&self) -> Option<fireaxe_ir::ExecStats> {
        Some(self.interp.exec_stats())
    }
}

/// A coarse-grained cycle model: the behavioural analogue of a
/// FAME-1-transformed module.
///
/// Implementors provide Mealy-machine semantics through a single method
/// pair; [`BehavioralTarget`] adapts them to [`TargetModel`].
pub trait CycleModel: std::fmt::Debug + Send {
    /// Returns to the post-reset state.
    fn reset(&mut self);

    /// Computes output values from current state and settled inputs.
    fn outputs(&mut self, inputs: &BTreeMap<String, Bits>) -> BTreeMap<String, Bits>;

    /// Advances one target cycle with the settled inputs.
    fn tick(&mut self, inputs: &BTreeMap<String, Bits>);

    /// Declared input ports.
    fn input_ports(&self) -> Vec<(String, Width)>;

    /// Declared output ports.
    fn output_ports(&self) -> Vec<(String, Width)>;
}

/// Adapts a [`CycleModel`] to the [`TargetModel`] protocol.
#[derive(Debug)]
pub struct BehavioralTarget<M: CycleModel> {
    model: M,
    inputs: BTreeMap<String, Bits>,
    outputs: BTreeMap<String, Bits>,
}

impl<M: CycleModel> BehavioralTarget<M> {
    /// Wraps a cycle model; inputs start at zero.
    pub fn new(model: M) -> Self {
        let inputs = model
            .input_ports()
            .into_iter()
            .map(|(n, w)| (n, Bits::zero(w)))
            .collect();
        BehavioralTarget {
            model,
            inputs,
            outputs: BTreeMap::new(),
        }
    }

    /// Access to the wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: CycleModel> TargetModel for BehavioralTarget<M> {
    fn reset(&mut self) {
        self.model.reset();
        for v in self.inputs.values_mut() {
            *v = Bits::zero(v.width());
        }
        self.outputs.clear();
    }

    fn poke(&mut self, port: &str, value: Bits) {
        if let Some(slot) = self.inputs.get_mut(port) {
            let w = slot.width();
            *slot = value.resize(w);
        }
    }

    fn eval(&mut self) -> Result<()> {
        self.outputs = self.model.outputs(&self.inputs);
        Ok(())
    }

    fn peek(&self, port: &str) -> Bits {
        self.outputs
            .get(port)
            .cloned()
            .unwrap_or_else(|| Bits::zero(0))
    }

    fn tick(&mut self) {
        self.model.tick(&self.inputs);
    }

    fn input_ports(&self) -> Vec<(String, Width)> {
        self.model.input_ports()
    }

    fn output_ports(&self) -> Vec<(String, Width)> {
        self.model.output_ports()
    }
}

impl From<fireaxe_ir::IrError> for LibdnError {
    fn from(e: fireaxe_ir::IrError) -> Self {
        LibdnError::Model {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::build::{ModuleBuilder, Sig};

    fn counter() -> Circuit {
        let mut mb = ModuleBuilder::new("C");
        let en = mb.input("en", 1);
        let out = mb.output("out", 8);
        let r = mb.reg("r", 8, 0);
        mb.connect_sig(&r, &en.mux(&r.add(&Sig::lit(1, 8)), &r));
        mb.connect_sig(&out, &r);
        Circuit::from_modules("C", vec![mb.finish()], "C")
    }

    #[test]
    fn interpreter_target_cycles() {
        let mut t = InterpreterTarget::new(&counter()).unwrap();
        t.reset();
        t.poke("en", Bits::from_u64(1, 1));
        for _ in 0..3 {
            t.eval().unwrap();
            t.tick();
        }
        t.eval().unwrap();
        assert_eq!(t.peek("out").to_u64(), 3);
        assert_eq!(t.input_ports()[0].0, "en");
    }

    #[derive(Debug, Default)]
    struct Echoer {
        last: u64,
    }

    impl CycleModel for Echoer {
        fn reset(&mut self) {
            self.last = 0;
        }
        fn outputs(&mut self, inputs: &BTreeMap<String, Bits>) -> BTreeMap<String, Bits> {
            let mut m = BTreeMap::new();
            m.insert("now".into(), inputs["x"].clone());
            m.insert("prev".into(), Bits::from_u64(self.last, 8));
            m
        }
        fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
            self.last = inputs["x"].to_u64();
        }
        fn input_ports(&self) -> Vec<(String, Width)> {
            vec![("x".into(), Width::new(8))]
        }
        fn output_ports(&self) -> Vec<(String, Width)> {
            vec![
                ("now".into(), Width::new(8)),
                ("prev".into(), Width::new(8)),
            ]
        }
    }

    #[test]
    fn behavioral_target_protocol() {
        let mut t = BehavioralTarget::new(Echoer::default());
        t.reset();
        t.poke("x", Bits::from_u64(7, 8));
        t.eval().unwrap();
        assert_eq!(t.peek("now").to_u64(), 7);
        assert_eq!(t.peek("prev").to_u64(), 0);
        t.tick();
        t.poke("x", Bits::from_u64(9, 8));
        t.eval().unwrap();
        assert_eq!(t.peek("prev").to_u64(), 7);
    }

    #[test]
    fn interpreter_target_snapshot_round_trip() {
        let mut t = InterpreterTarget::new(&counter()).unwrap();
        t.reset();
        t.poke("en", Bits::from_u64(1, 1));
        for _ in 0..4 {
            t.eval().unwrap();
            t.tick();
        }
        let snap = t.snapshot_bytes().unwrap();
        for _ in 0..6 {
            t.eval().unwrap();
            t.tick();
        }
        t.eval().unwrap();
        assert_eq!(t.peek("out").to_u64(), 10);
        assert!(t.restore_bytes(&snap));
        t.eval().unwrap();
        assert_eq!(t.peek("out").to_u64(), 4);
        // A foreign snapshot is rejected without touching state.
        let before = t.snapshot_bytes();
        assert!(!t.restore_bytes(&17u32.to_be_bytes()));
        assert_eq!(t.snapshot_bytes(), before);
    }

    #[test]
    fn behavioral_target_has_no_snapshot() {
        let t = BehavioralTarget::new(Echoer::default());
        assert!(t.snapshot_bytes().is_none());
    }

    #[test]
    fn behavioral_target_ignores_unknown_poke() {
        let mut t = BehavioralTarget::new(Echoer::default());
        t.poke("nonexistent", Bits::from_u64(1, 1));
        t.poke("x", Bits::from_u64(3, 8));
        t.eval().unwrap();
        assert_eq!(t.peek("now").to_u64(), 3);
    }
}
