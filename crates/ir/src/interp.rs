//! Circuit elaboration and cycle-accurate interpretation.
//!
//! The interpreter is FireAxe-rs's *source of truth*: monolithic
//! interpretation of a circuit defines the reference cycle counts and port
//! traces that exact-mode partitioned simulation must reproduce bit for
//! bit (paper §VI-C, Table II).
//!
//! Elaboration flattens the module hierarchy into a slot-addressed netlist,
//! topologically sorts the combinational definitions, and then each target
//! cycle is: drive inputs → settle combinational logic in schedule order →
//! latch registers and memory writes.
//!
//! Extern behavioral modules participate through the [`ExternBehavior`]
//! trait: their register-driven (*source*) outputs are published at the
//! start of the cycle and their combinational (*sink*) outputs are computed
//! in schedule order once the declared combinational inputs have settled.

use crate::ast::*;
use crate::bits::{Bits, Width};
use crate::error::{IrError, Result};
use crate::exec::{ExecEngine, Tape};
use crate::lower::Lowered;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Where a [`PortWriter`] stores the values written through it: the
/// reference and compiled engines write value slots in place, the
/// bit-sliced engine scatters into lane planes.
pub(crate) trait PortSink {
    /// Stores `value` (truncated or zero-extended to the slot's width).
    fn put_u64(&mut self, slot: usize, value: u64);
    /// Stores `value` resized to the slot's width.
    fn put(&mut self, slot: usize, value: &Bits);
}

/// The output side of the [`ExternBehavior`] ABI: a model writes its
/// output ports by name through this, straight into the interpreter's
/// value slots.
///
/// A writer is bound to one instance's slot table (its source outputs for
/// [`ExternBehavior::source_outputs`], its sink outputs for
/// [`ExternBehavior::comb_outputs`]), resolved once at elaboration, so a
/// write is a scan over a handful of short names and an in-place store:
/// no map, no `String`, no `Bits` is allocated per call. Values are
/// resized to the port's declared width. Writes to a name the table does
/// not hold are ignored (a model may offer more than the module
/// declares), and a port the model does not write keeps its value.
pub struct PortWriter<'a> {
    ports: &'a [(String, usize)],
    sink: &'a mut dyn PortSink,
}

impl<'a> PortWriter<'a> {
    pub(crate) fn new(ports: &'a [(String, usize)], sink: &'a mut dyn PortSink) -> Self {
        PortWriter { ports, sink }
    }

    /// Drives output `port` from the low 64 bits of `value`.
    pub fn set_u64(&mut self, port: &str, value: u64) {
        if let Some(slot) = port_slot(self.ports, port) {
            self.sink.put_u64(slot, value);
        }
    }

    /// Drives output `port` with `value`.
    pub fn set(&mut self, port: &str, value: &Bits) {
        if let Some(slot) = port_slot(self.ports, port) {
            self.sink.put(slot, value);
        }
    }
}

/// The slot `port` is bound to in a `(name, slot)` table: a scan, the
/// tables being a handful of short names.
fn port_slot(ports: &[(String, usize)], port: &str) -> Option<usize> {
    ports.iter().find(|(n, _)| n == port).map(|(_, s)| *s)
}

impl std::fmt::Debug for PortWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.ports.iter().map(|(n, _)| n))
            .finish()
    }
}

/// [`PortSink`] over the canonical value slots. `on_write(slot, changed)`
/// runs for every store, `changed` telling whether the value differs
/// from what the slot held — the compiled engine's dirty propagation.
struct SlotSink<'a, F: FnMut(usize, bool)> {
    slots: &'a mut [Bits],
    on_write: F,
}

impl<F: FnMut(usize, bool)> PortSink for SlotSink<'_, F> {
    fn put_u64(&mut self, slot: usize, value: u64) {
        let s = &mut self.slots[slot];
        let changed = !s.eq_u64(value);
        if changed {
            s.set_from_u64(value);
        }
        (self.on_write)(slot, changed);
    }

    fn put(&mut self, slot: usize, value: &Bits) {
        let s = &mut self.slots[slot];
        let changed = !s.eq_resized(value);
        if changed {
            s.assign_resized(value);
        }
        (self.on_write)(slot, changed);
    }
}

/// A free-standing set of named output ports, for driving an
/// [`ExternBehavior`] outside an interpreter: unit tests and harnesses
/// that want to look at what a model writes.
///
/// ```
/// use fireaxe_ir::PortTable;
/// let mut ports = PortTable::new([("valid", 1), ("bits", 8)]);
/// ports.writer().set_u64("bits", 0x1FF);
/// assert_eq!(ports.get("bits").to_u64(), 0xFF);
/// assert_eq!(ports.get("valid").to_u64(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortTable {
    ports: Vec<(String, usize)>,
    values: PortValues,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PortValues(Vec<Bits>);

impl PortSink for PortValues {
    fn put_u64(&mut self, slot: usize, value: u64) {
        self.0[slot].set_from_u64(value);
    }

    fn put(&mut self, slot: usize, value: &Bits) {
        self.0[slot].assign_resized(value);
    }
}

impl PortTable {
    /// A table of `(name, width)` ports, all zero.
    pub fn new<'a>(ports: impl IntoIterator<Item = (&'a str, u32)>) -> Self {
        let (ports, values) = ports
            .into_iter()
            .enumerate()
            .map(|(i, (name, width))| ((name.to_string(), i), Bits::zero(width)))
            .unzip();
        PortTable {
            ports,
            values: PortValues(values),
        }
    }

    /// A writer over every port of the table.
    pub fn writer(&mut self) -> PortWriter<'_> {
        PortWriter::new(&self.ports, &mut self.values)
    }

    /// Current value of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such port.
    pub fn get(&self, port: &str) -> &Bits {
        let i =
            port_slot(&self.ports, port).unwrap_or_else(|| panic!("no port `{port}` in the table"));
        &self.values.0[i]
    }
}

/// Cycle-level model bound to an extern behavioral module instance.
pub trait ExternBehavior: std::fmt::Debug + Send {
    /// Returns the model to its post-reset state.
    fn reset(&mut self);

    /// Writes the outputs that depend only on internal state
    /// (register-driven *source* outputs); called once per target cycle,
    /// after [`ExternBehavior::tick`] (and after reset), to publish the
    /// new cycle's values. `out` holds the instance's source outputs.
    fn source_outputs(&mut self, out: &mut PortWriter<'_>);

    /// Writes the combinationally derived (*sink*) outputs for the given
    /// input values; `out` holds the instance's sink outputs. The default
    /// writes nothing, for models whose module declares no combinational
    /// path.
    ///
    /// **Contract:** this must be a pure function of the model's state
    /// and of the inputs named in the module's declared combinational
    /// paths. It must not change state `tick` or a later call can see,
    /// and it must not read any other input: those may still hold the
    /// previous settle's values when it runs. How many times it is called
    /// per target cycle is not part of the model — a partitioned run
    /// settles once per host step on which something fires, which depends
    /// on host-side token timing, and the engines are free to call it
    /// again or not at all when its inputs did not change. Two calls with
    /// equal inputs must write equal outputs and leave the following
    /// `tick` unchanged.
    fn comb_outputs(&mut self, _inputs: &BTreeMap<String, Bits>, _out: &mut PortWriter<'_>) {}

    /// Advances internal state by one target cycle using the final settled
    /// input values.
    fn tick(&mut self, inputs: &BTreeMap<String, Bits>);

    /// Captures the model's private state as a byte blob (see
    /// [`crate::codec`]): what a rollback rewinds to, and what a cluster
    /// checkpoint ships to the coordinator so a respawned worker can
    /// resume mid-run.
    ///
    /// `None` (the default) marks the model non-checkpointable, which
    /// disables [`Interpreter::snapshot_bytes`] for any design containing
    /// it. A model declares its state once, with one
    /// [`crate::state_fields!`] invocation that implements both methods.
    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`ExternBehavior::snapshot_bytes`];
    /// returns `false` (leaving the model untouched) when the blob does
    /// not decode as this model's state.
    fn restore_bytes(&mut self, _bytes: &[u8]) -> bool {
        false
    }
}

/// A compiled expression over value slots.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Lit(Bits),
    Slot(usize),
    Unary(UnOp, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    Mux(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    Cat(Vec<CExpr>),
    Extract(Box<CExpr>, u32, u32),
    Resize(Box<CExpr>, Width),
    Shl(Box<CExpr>, u32),
    Shr(Box<CExpr>, u32),
}

impl CExpr {
    pub(crate) fn eval(&self, slots: &[Bits]) -> Bits {
        match self {
            CExpr::Lit(b) => b.clone(),
            CExpr::Slot(i) => slots[*i].clone(),
            CExpr::Unary(op, a) => {
                let v = a.eval(slots);
                match op {
                    UnOp::Not => v.not(),
                    UnOp::OrReduce => v.reduce_or(),
                    UnOp::AndReduce => v.reduce_and(),
                    UnOp::XorReduce => v.reduce_xor(),
                }
            }
            CExpr::Binary(op, a, b) => {
                let va = a.eval(slots);
                let vb = b.eval(slots);
                use std::cmp::Ordering::*;
                match op {
                    BinOp::Add => va.add(&vb),
                    BinOp::Sub => va.sub(&vb),
                    BinOp::Mul => va.mul(&vb),
                    BinOp::Div => va.udiv(&vb),
                    BinOp::Rem => va.urem(&vb),
                    BinOp::And => va.and(&vb),
                    BinOp::Or => va.or(&vb),
                    BinOp::Xor => va.xor(&vb),
                    BinOp::Eq => (va.ucmp(&vb) == Equal).into(),
                    BinOp::Neq => (va.ucmp(&vb) != Equal).into(),
                    BinOp::Lt => (va.ucmp(&vb) == Less).into(),
                    BinOp::Leq => (va.ucmp(&vb) != Greater).into(),
                    BinOp::Gt => (va.ucmp(&vb) == Greater).into(),
                    BinOp::Geq => (va.ucmp(&vb) != Less).into(),
                }
            }
            CExpr::Mux(c, t, f) => {
                if c.eval(slots).is_zero() {
                    f.eval(slots)
                } else {
                    t.eval(slots)
                }
            }
            CExpr::Cat(parts) => {
                let mut acc: Option<Bits> = None;
                for p in parts {
                    let v = p.eval(slots);
                    acc = Some(match acc {
                        None => v,
                        Some(hi) => hi.cat(&v),
                    });
                }
                acc.unwrap_or_default()
            }
            CExpr::Extract(a, hi, lo) => a.eval(slots).extract(*hi, *lo),
            CExpr::Resize(a, w) => a.eval(slots).resize(*w),
            CExpr::Shl(a, n) => a.eval(slots).shl(*n),
            CExpr::Shr(a, n) => a.eval(slots).shr(*n),
        }
    }

    pub(crate) fn reads(&self, out: &mut Vec<usize>) {
        match self {
            CExpr::Lit(_) => {}
            CExpr::Slot(i) => out.push(*i),
            CExpr::Unary(_, a)
            | CExpr::Extract(a, _, _)
            | CExpr::Resize(a, _)
            | CExpr::Shl(a, _)
            | CExpr::Shr(a, _) => a.reads(out),
            CExpr::Binary(_, a, b) => {
                a.reads(out);
                b.reads(out);
            }
            CExpr::Mux(c, a, b) => {
                c.reads(out);
                a.reads(out);
                b.reads(out);
            }
            CExpr::Cat(parts) => {
                for p in parts {
                    p.reads(out);
                }
            }
        }
    }
}

#[derive(Debug)]
pub(crate) enum DefKind {
    Expr(CExpr),
    MemRead { mem: usize, addr: CExpr },
    ExternComb { ext: usize },
}

#[derive(Debug)]
pub(crate) struct Def {
    pub(crate) kind: DefKind,
    pub(crate) writes: Vec<usize>,
    pub(crate) reads: Vec<usize>,
}

#[derive(Debug)]
pub(crate) struct RegState {
    pub(crate) slot: usize,
    pub(crate) init: Bits,
    pub(crate) next: Option<CExpr>,
}

#[derive(Debug)]
pub(crate) struct MemState {
    pub(crate) width: Width,
    pub(crate) data: Vec<Bits>,
    pub(crate) writes: Vec<(CExpr, CExpr, CExpr)>, // (addr, data, en)
}

#[derive(Debug)]
pub(crate) struct ExternInst {
    pub(crate) path: String,
    pub(crate) behavior_key: String,
    /// Input ports sorted by name so the zip against `inputs_buf` (a
    /// `BTreeMap`, iterated in key order) lines up entry for entry.
    pub(crate) input_slots: Vec<(String, usize)>,
    pub(crate) source_output_slots: Vec<(String, usize)>,
    pub(crate) sink_output_slots: Vec<(String, usize)>,
    pub(crate) model: Option<Box<dyn ExternBehavior>>,
    /// Persistent input map handed to the behavioral model; refreshed in
    /// place each call so no per-cycle map construction is needed.
    pub(crate) inputs_buf: BTreeMap<String, Bits>,
}

impl ExternInst {
    /// The error a settle returns when this instance has no model.
    pub(crate) fn unbound(&self) -> IrError {
        IrError::ExternWithoutBehavior {
            module: self.path.clone(),
            behavior: self.behavior_key.clone(),
        }
    }
}

/// Refreshes `e.inputs_buf` from the current slot values without
/// allocating: `input_slots` is name-sorted, matching the map's iteration
/// order, so a single zip updates every entry in place.
pub(crate) fn sync_extern_inputs(slots: &[Bits], e: &mut ExternInst) {
    for ((_, si), (_, buf)) in e.input_slots.iter().zip(e.inputs_buf.iter_mut()) {
        buf.clone_from(&slots[*si]);
    }
}

/// Publishes every bound extern model's register-driven source outputs
/// into their slots (start-of-cycle values).
pub(crate) fn publish_sources(slots: &mut [Bits], externs: &mut [ExternInst]) {
    let mut sink = SlotSink {
        slots,
        on_write: |_, _| {},
    };
    for e in externs {
        if let Some(model) = &mut e.model {
            model.source_outputs(&mut PortWriter::new(&e.source_output_slots, &mut sink));
        }
    }
}

/// Runs one extern combinational settle: syncs inputs and lets the model
/// write its sink outputs in place. `on_write(slot, changed)` is invoked
/// for every sink output the model wrote, with `changed` reporting
/// whether the stored value differs from what the slot held — the
/// compiled engine uses this for dirty propagation.
pub(crate) fn run_extern_comb(
    slots: &mut [Bits],
    e: &mut ExternInst,
    on_write: impl FnMut(usize, bool),
) -> Result<()> {
    sync_extern_inputs(slots, e);
    let Some(model) = e.model.as_mut() else {
        return Err(e.unbound());
    };
    let mut sink = SlotSink { slots, on_write };
    model.comb_outputs(
        &e.inputs_buf,
        &mut PortWriter::new(&e.sink_output_slots, &mut sink),
    );
    Ok(())
}

/// Writes an interpreter state blob: cycle counter, every value slot,
/// every memory's contents and each extern model's own byte blob. This
/// and [`Interpreter::decode_state`] are the format's one layout;
/// [`Interpreter::snapshot_bytes`] and
/// [`crate::slice::SlicedInterpreter::snapshot_lane`] both go through it,
/// so a lane's blob is a scalar interpreter's blob.
///
/// `None` when an extern is unbound or its model declares no state.
pub(crate) fn encode_state<'a, S: std::borrow::Borrow<Bits>>(
    cycle: u64,
    slots: impl ExactSizeIterator<Item = S>,
    mems: impl ExactSizeIterator<Item = &'a Vec<Bits>>,
    externs: impl ExactSizeIterator<Item = &'a Option<Box<dyn ExternBehavior>>>,
) -> Option<Vec<u8>> {
    use crate::codec::Wire;
    let mut b = Vec::new();
    cycle.put(&mut b);
    (slots.len() as u32).put(&mut b);
    for s in slots {
        s.borrow().put(&mut b);
    }
    (mems.len() as u32).put(&mut b);
    for m in mems {
        m.put(&mut b);
    }
    (externs.len() as u32).put(&mut b);
    for e in externs {
        e.as_ref()?.snapshot_bytes()?.put(&mut b);
    }
    Some(b)
}

/// A decoded interpreter state blob, already checked against the
/// netlist it is about to be restored into.
pub(crate) struct DecodedState<'a> {
    pub(crate) cycle: u64,
    pub(crate) slots: Vec<Bits>,
    pub(crate) mems: Vec<Vec<Bits>>,
    pub(crate) externs: Vec<&'a [u8]>,
}

/// A flattened, schedule-ordered netlist with live state: the interpreter.
#[derive(Debug)]
pub struct Interpreter {
    pub(crate) slots: Vec<Bits>,
    slot_names: HashMap<String, usize>,
    mem_names: HashMap<String, usize>,
    pub(crate) defs: Vec<Def>,
    pub(crate) schedule: Vec<usize>,
    pub(crate) regs: Vec<RegState>,
    pub(crate) mems: Vec<MemState>,
    pub(crate) externs: Vec<ExternInst>,
    /// The externs with a combinational settle, in schedule order.
    pub(crate) comb_externs: Vec<u32>,
    pub(crate) top_inputs: Vec<(String, usize)>,
    pub(crate) top_outputs: Vec<(String, usize)>,
    /// Per slot: its index in `top_inputs` (inputs are the only pokeable
    /// kind), or `None`.
    input_index: Vec<Option<u32>>,
    /// Per top input: the input poked right after it last time (at first
    /// the next one declared). A harness that pokes the same ports in the
    /// same order every cycle finds each one here without hashing its
    /// name.
    poke_next: Vec<u32>,
    /// The top input poked last.
    last_poke: usize,
    pub(crate) cycle: u64,
    engine: ExecEngine,
    tape: Option<Tape>,
    /// Per slot: the slot holding its value whenever it is observed (a
    /// folded port-connection copy's view, see `crate::lower`), the slot
    /// itself for the rest and without a tape. The compiled tape never
    /// writes a folded copy's own slot, so every read from outside the
    /// engines goes through this table.
    pub(crate) view: Vec<u32>,
    pub(crate) stats: crate::exec::ExecStats,
}

impl Interpreter {
    /// Elaborates `circuit` into an executable netlist on the compiled
    /// instruction tape. [`Interpreter::with_engine`] and
    /// [`Interpreter::set_engine`] pick the tree-walking reference
    /// instead.
    ///
    /// # Errors
    ///
    /// Propagates validation errors and returns [`IrError::CombCycle`]
    /// if the flattened combinational definitions cannot be scheduled.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        Self::with_engine(circuit, ExecEngine::Compiled)
    }

    /// Elaborates `circuit` and selects the execution engine explicitly.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::new`].
    pub fn with_engine(circuit: &Circuit, engine: ExecEngine) -> Result<Self> {
        let mut interp = Self::elaborate(circuit, engine)?;
        let mut prog = Lowered::new(&interp);
        let view = std::mem::take(&mut prog.view);
        let tape = Tape::build(&interp, prog);
        interp.view = view;
        interp.tape = Some(tape);
        Ok(interp)
    }

    /// Elaborates, schedules and resets `circuit`, without a compiled
    /// tape (for the sliced front end's template, which never runs one).
    pub(crate) fn elaborate(circuit: &Circuit, engine: ExecEngine) -> Result<Self> {
        crate::typecheck::validate(circuit)?;
        let mut b = Builder {
            circuit,
            interp: Interpreter {
                slots: Vec::new(),
                slot_names: HashMap::new(),
                mem_names: HashMap::new(),
                defs: Vec::new(),
                schedule: Vec::new(),
                regs: Vec::new(),
                mems: Vec::new(),
                externs: Vec::new(),
                comb_externs: Vec::new(),
                top_inputs: Vec::new(),
                top_outputs: Vec::new(),
                input_index: Vec::new(),
                poke_next: Vec::new(),
                last_poke: 0,
                cycle: 0,
                engine,
                tape: None,
                view: Vec::new(),
                stats: crate::exec::ExecStats::default(),
            },
        };
        b.elaborate("", &circuit.top)?;
        let mut interp = b.interp;
        let top = circuit.top_module();
        interp.input_index = vec![None; interp.slots.len()];
        for p in &top.ports {
            let slot = interp.slot_names[&p.name];
            match p.direction {
                Direction::Input => {
                    interp.input_index[slot] = Some(interp.top_inputs.len() as u32);
                    interp.top_inputs.push((p.name.clone(), slot));
                }
                Direction::Output => interp.top_outputs.push((p.name.clone(), slot)),
            }
        }
        let n_inputs = interp.top_inputs.len();
        interp.poke_next = (0..n_inputs).map(|k| ((k + 1) % n_inputs) as u32).collect();
        interp.last_poke = n_inputs.saturating_sub(1);
        interp.schedule = schedule_defs(&interp.defs, interp.slots.len())?;
        interp.view = (0..interp.slots.len() as u32).collect();
        interp.comb_externs = (interp.schedule.iter())
            .filter_map(|&di| match interp.defs[di].kind {
                DefKind::ExternComb { ext } => Some(ext as u32),
                _ => None,
            })
            .collect();
        interp.reset();
        Ok(interp)
    }

    /// The execution engine currently in use.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Switches execution engine at a cycle boundary. All engines share
    /// the same architectural state, so the trace is unaffected.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        // The reference engine reads every slot straight: give each copy
        // its view's value.
        for s in 0..self.slots.len() {
            let v = self.view[s] as usize;
            if v != s {
                let x = self.slots[v].to_u64();
                self.slots[s].set_from_u64(x);
            }
        }
        self.engine = engine;
        self.invalidate_tape();
    }

    /// Marks all compiled-engine bookkeeping stale after an out-of-band
    /// architectural state change (reset, snapshot restore, rebinding).
    fn invalidate_tape(&mut self) {
        if let Some(t) = &mut self.tape {
            t.force_all = true;
        }
    }

    /// Binds a behavioral model to the extern instance at hierarchical
    /// `path` (instance names joined with `.`; empty string when the top
    /// module itself is extern).
    ///
    /// # Errors
    ///
    /// Returns an error if no extern instance exists at that path.
    pub fn bind_behavior(&mut self, path: &str, model: Box<dyn ExternBehavior>) -> Result<()> {
        let ext = self
            .externs
            .iter_mut()
            .find(|e| e.path == path)
            .ok_or_else(|| IrError::Malformed {
                message: format!("no extern instance at path `{path}`"),
            })?;
        ext.model = Some(model);
        self.invalidate_tape();
        Ok(())
    }

    /// Hierarchical paths of extern instances still awaiting a model.
    pub fn unbound_externs(&self) -> Vec<String> {
        self.externs
            .iter()
            .filter(|e| e.model.is_none())
            .map(|e| e.path.clone())
            .collect()
    }

    /// Every extern instance as `(path, behavior key, model bound)` —
    /// used by harnesses that bind models from a registry.
    pub fn extern_instances(&self) -> Vec<(String, String, bool)> {
        self.externs
            .iter()
            .map(|e| (e.path.clone(), e.behavior_key.clone(), e.model.is_some()))
            .collect()
    }

    /// Resets registers, memories and behaviors; cycle count returns to 0.
    pub fn reset(&mut self) {
        for r in &self.regs {
            self.slots[r.slot] = r.init.clone();
        }
        for m in &mut self.mems {
            for d in &mut m.data {
                *d = Bits::zero(m.width);
            }
        }
        for e in &mut self.externs {
            if let Some(m) = &mut e.model {
                m.reset();
            }
        }
        self.cycle = 0;
        self.invalidate_tape();
        self.publish_extern_sources();
    }

    /// Drives the top-level input port `name`.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist (programming error in the harness).
    pub fn poke(&mut self, name: &str, value: Bits) {
        let slot = self.input_slot(name);
        self.slots[slot].assign_resized(&value);
    }

    /// Drives the top-level input port `name` from a `u64`. Unlike
    /// [`Interpreter::poke`] this never allocates, which keeps all-narrow
    /// harness loops allocation-free. This is the poke surface the live
    /// cockpit's wire `Poke` lands on, so bad paths and oversized values
    /// are typed errors rather than panics — the control plane relays
    /// them back to the attached client in `PokeAck`.
    ///
    /// # Errors
    ///
    /// - [`IrError::UnknownSignal`] when `name` resolves to nothing.
    /// - [`IrError::NotPokeable`] when it names a signal that is not a
    ///   top-level input port (anything else is overwritten by the next
    ///   settle pass, so the poke would be silently lost).
    /// - [`IrError::PokeWidth`] when `value` does not fit the port.
    pub fn poke_u64(&mut self, name: &str, value: u64) -> Result<()> {
        let slot = self.try_input_slot(name)?;
        let width = self.slots[slot].width().get();
        let value_bits = 64 - value.leading_zeros();
        if width < 64 && value_bits > width {
            return Err(IrError::PokeWidth {
                path: name.to_string(),
                width,
                value_bits,
            });
        }
        self.slots[slot].set_from_u64(value);
        Ok(())
    }

    /// [`Interpreter::try_input_slot`] for pokes that panic on a bad
    /// name.
    pub(crate) fn input_slot(&mut self, name: &str) -> usize {
        self.try_input_slot(name)
            .unwrap_or_else(|_| panic!("no top input port `{name}`"))
    }

    /// Resolves the input port a poke names, trying the port that
    /// followed the last one poked before the name index. Distinguishes a
    /// path that exists but is not drivable from one that resolves to
    /// nothing.
    pub(crate) fn try_input_slot(&mut self, name: &str) -> Result<usize> {
        let k = match self.poke_next.get(self.last_poke).map(|&k| k as usize) {
            Some(k) if self.top_inputs[k].0 == name => k,
            _ => {
                let slot = self.input_handle(name).ok_or_else(|| {
                    let path = name.to_string();
                    if self.slot_names.contains_key(name) {
                        IrError::NotPokeable { path }
                    } else {
                        IrError::UnknownSignal { path }
                    }
                })?;
                let k = self.input_index[slot].expect("an input handle is a top input");
                self.poke_next[self.last_poke] = k;
                k as usize
            }
        };
        self.last_poke = k;
        Ok(self.top_inputs[k].1)
    }

    /// Resolves top-level input port `name` to a handle for
    /// [`Interpreter::poke_field`], or `None` when it names no input
    /// port. Handles stay valid for the interpreter's lifetime; callers
    /// that drive the same ports every cycle (the LI-BDN wrapper)
    /// resolve once and skip the name lookup.
    pub fn input_handle(&self, name: &str) -> Option<usize> {
        let slot = *self.slot_names.get(name)?;
        self.input_index[slot].map(|_| slot)
    }

    /// Resolves any signal path to a handle for
    /// [`Interpreter::peek_handle`], or `None` when it names no signal.
    pub fn signal_handle(&self, path: &str) -> Option<usize> {
        self.slot_names.get(path).copied()
    }

    /// Drives the input port behind `handle` (from
    /// [`Interpreter::input_handle`]) with the `width`-bit field of
    /// `token` starting at bit `offset`; bits past `token`'s width read
    /// as zero. In place and allocation-free when `width` is the port's
    /// own width, which is how channel layouts are built.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not an input-port handle of this
    /// interpreter.
    pub fn poke_field(&mut self, handle: usize, token: &Bits, offset: u32, width: Width) {
        assert!(
            matches!(self.input_index.get(handle), Some(Some(_))),
            "handle {handle} is not a top input port"
        );
        let slot = &mut self.slots[handle];
        if slot.width() == width {
            slot.assign_field(token, offset);
        } else {
            let mut field = Bits::zero(width);
            field.assign_field(token, offset);
            slot.assign_resized(&field);
        }
    }

    /// Reads the signal behind `handle` (from
    /// [`Interpreter::signal_handle`]).
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not a signal handle of this interpreter.
    pub fn peek_handle(&self, handle: usize) -> &Bits {
        self.observe(handle)
    }

    /// The value of slot `s`, read through its view.
    #[inline]
    fn observe(&self, s: usize) -> &Bits {
        &self.slots[self.view[s] as usize]
    }

    /// Reads any signal by hierarchical path (top ports use their bare
    /// name).
    ///
    /// # Panics
    ///
    /// Panics if the path does not name a signal.
    pub fn peek(&self, path: &str) -> &Bits {
        let slot = *self
            .slot_names
            .get(path)
            .unwrap_or_else(|| panic!("no signal at path `{path}`"));
        self.observe(slot)
    }

    /// Reads any signal by hierarchical path, or `None` when the path
    /// does not name a signal (the non-panicking [`Interpreter::peek`],
    /// for harnesses resolving user-supplied watch lists).
    pub fn peek_opt(&self, path: &str) -> Option<&Bits> {
        self.slot_names.get(path).map(|&slot| self.observe(slot))
    }

    /// Cumulative settle-loop statistics since elaboration (settle
    /// passes, definitions run, definitions skipped by dirty-set
    /// scheduling) — the raw material for the observability layer's
    /// settle-iteration and dirty-skip-rate time series.
    pub fn exec_stats(&self) -> crate::exec::ExecStats {
        self.stats
    }

    /// The compiled tape's size: programs the settle sweep visits,
    /// port-connection copies the lowering folded into their views,
    /// word-packed instructions and latches. Fixed at elaboration.
    pub fn tape_shape(&self) -> crate::exec::TapeShape {
        self.tape.as_ref().expect("compiled tape present").shape()
    }

    /// Reads one entry of a memory by hierarchical path (e.g.
    /// `"mem.store"`) and index. Returns `None` if no such memory or the
    /// index is out of range.
    pub fn peek_mem(&self, path: &str, index: usize) -> Option<&Bits> {
        let mi = *self.mem_names.get(path)?;
        self.mems[mi].data.get(index)
    }

    /// Settles all combinational logic for the current input values.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ExternWithoutBehavior`] if an extern instance
    /// with a combinational settle has no bound model, before any
    /// definition runs.
    pub fn eval(&mut self) -> Result<()> {
        self.check_bound()?;
        match self.engine {
            ExecEngine::Reference => {
                for i in 0..self.schedule.len() {
                    let di = self.schedule[i];
                    self.run_def(di)?;
                }
                self.stats.settle_passes += 1;
                self.stats.defs_run += self.schedule.len() as u64;
                Ok(())
            }
            ExecEngine::Compiled => {
                let mut tape = self.tape.take().expect("compiled tape present");
                let r = tape.eval(self);
                self.tape = Some(tape);
                r
            }
        }
    }

    /// The error for the first extern in schedule order whose settle has
    /// no model, so a settle runs whole or not at all: no slot is left
    /// half settled, and no copy disagrees with its source (see
    /// `crate::exec`).
    pub(crate) fn check_bound(&self) -> Result<()> {
        let mut order = self.comb_externs.iter().map(|&e| &self.externs[e as usize]);
        match order.find(|e| e.model.is_none()) {
            Some(e) => Err(e.unbound()),
            None => Ok(()),
        }
    }

    pub(crate) fn run_def(&mut self, di: usize) -> Result<()> {
        let Self {
            defs,
            slots,
            mems,
            externs,
            ..
        } = self;
        let def = &defs[di];
        match &def.kind {
            DefKind::Expr(e) => {
                slots[def.writes[0]] = e.eval(slots);
            }
            DefKind::MemRead { mem, addr } => {
                let a = addr.eval(slots).to_u64() as usize;
                let m = &mems[*mem];
                slots[def.writes[0]] = m
                    .data
                    .get(a)
                    .cloned()
                    .unwrap_or_else(|| Bits::zero(m.width));
            }
            DefKind::ExternComb { ext } => {
                run_extern_comb(slots, &mut externs[*ext], |_, _| {})?;
            }
        }
        Ok(())
    }

    fn publish_extern_sources(&mut self) {
        publish_sources(&mut self.slots, &mut self.externs);
    }

    /// Latches registers, applies memory writes, ticks behaviors, and
    /// publishes the next cycle's extern source outputs. Must be preceded
    /// by [`Interpreter::eval`].
    pub fn tick(&mut self) {
        match self.engine {
            ExecEngine::Reference => self.tick_reference(),
            ExecEngine::Compiled => {
                let mut tape = self.tape.take().expect("compiled tape present");
                tape.tick(self);
                self.tape = Some(tape);
            }
        }
    }

    fn tick_reference(&mut self) {
        let Self {
            slots,
            mems,
            regs,
            externs,
            cycle,
            ..
        } = self;
        // Compute all register next-values before writing any of them.
        let mut next: Vec<(usize, Bits)> = Vec::new();
        for r in regs.iter() {
            if let Some(e) = &r.next {
                let w = slots[r.slot].width();
                next.push((r.slot, e.eval(slots).resize(w)));
            }
        }
        // Memory writes also read pre-edge values.
        let mut mem_writes: Vec<(usize, usize, Bits)> = Vec::new();
        for (mi, m) in mems.iter().enumerate() {
            for (addr, data, en) in &m.writes {
                if !en.eval(slots).is_zero() {
                    let a = addr.eval(slots).to_u64() as usize;
                    if a < m.data.len() {
                        mem_writes.push((mi, a, data.eval(slots).resize(m.width)));
                    }
                }
            }
        }
        for e in externs.iter_mut() {
            sync_extern_inputs(slots, e);
            if let Some(model) = &mut e.model {
                model.tick(&e.inputs_buf);
            }
        }
        for (slot, v) in next {
            slots[slot] = v;
        }
        for (mi, a, v) in mem_writes {
            mems[mi].data[a] = v;
        }
        publish_sources(slots, externs);
        *cycle += 1;
    }

    /// One full target cycle: settle then latch.
    ///
    /// # Errors
    ///
    /// See [`Interpreter::eval`].
    pub fn step(&mut self) -> Result<()> {
        self.eval()?;
        self.tick();
        Ok(())
    }

    /// Number of completed target cycles since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Captures the full architectural state as a byte blob: slots,
    /// memories, cycle counter and each extern behavioral model's own
    /// blob. It is what a rollback rewinds to and, being plain bytes,
    /// what a cluster checkpoint sends across a process boundary.
    ///
    /// Returns `None` when any extern instance is unbound or its model
    /// does not implement [`ExternBehavior::snapshot_bytes`].
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        encode_state(
            self.cycle,
            (0..self.slots.len()).map(|s| self.observe(s)),
            self.mems.iter().map(|m| &m.data),
            self.externs.iter().map(|e| &e.model),
        )
    }

    /// Whether `got` could be this netlist's slot values: one per slot,
    /// each as wide as the value the slot holds now. Only a node whose
    /// width varies at run time (width-mismatched mux arms, see
    /// `crate::lower`) may differ, which is worked out only when some
    /// width does.
    fn slot_widths_fit(&self, got: &[Bits]) -> bool {
        let differs = |(a, b): (&Bits, &Bits)| a.width() != b.width();
        if got.len() != self.slots.len() {
            return false;
        }
        if !got.iter().zip(&self.slots).any(differs) {
            return true;
        }
        let exact = Lowered::settled(self).exact;
        let pairs = got.iter().zip(&self.slots);
        !pairs.zip(exact).any(|(pair, exact)| exact && differs(pair))
    }

    /// Decodes a state blob against this netlist: slot, memory and extern
    /// counts, every slot's width, every memory's depth and word width
    /// must match, every copy must equal its view, and no byte may be
    /// left over.
    pub(crate) fn decode_state<'a>(&self, bytes: &'a [u8]) -> Option<DecodedState<'a>> {
        let mut d = crate::codec::Dec::new(bytes);
        let cycle = d.get().ok()?;
        let slots: Vec<Bits> = d.get().ok()?;
        if !self.slot_widths_fit(&slots) {
            return None;
        }
        let viewed = |(s, &v): (usize, &u32)| v as usize == s || slots[s] == slots[v as usize];
        if !self.view.iter().enumerate().all(viewed) {
            return None;
        }
        if d.get::<u32>().ok()? as usize != self.mems.len() {
            return None;
        }
        let mut mems = Vec::with_capacity(self.mems.len());
        for m in &self.mems {
            let data: Vec<Bits> = d.get().ok()?;
            if data.len() != m.data.len() || data.iter().any(|w| w.width() != m.width) {
                return None;
            }
            mems.push(data);
        }
        if d.get::<u32>().ok()? as usize != self.externs.len() {
            return None;
        }
        let externs = (0..self.externs.len())
            .map(|_| d.bytes().ok())
            .collect::<Option<Vec<_>>>()?;
        d.finish().ok()?;
        Some(DecodedState {
            cycle,
            slots,
            mems,
            externs,
        })
    }

    /// Restores state captured by [`Interpreter::snapshot_bytes`].
    /// Returns `false`, leaving the interpreter untouched, when the blob
    /// does not decode, its shape does not match this netlist, or a
    /// port-connection copy in it disagrees with its source (no settle
    /// leaves one so). An extern model rejecting its sub-blob after that
    /// can leave architectural state partially restored; that cannot
    /// happen for blobs taken from the same design.
    pub fn restore_snapshot_bytes(&mut self, bytes: &[u8]) -> bool {
        let Some(state) = self.decode_state(bytes) else {
            return false;
        };
        self.slots = state.slots;
        for (m, data) in self.mems.iter_mut().zip(state.mems) {
            m.data = data;
        }
        self.cycle = state.cycle;
        self.invalidate_tape();
        self.externs
            .iter_mut()
            .zip(state.externs)
            .all(|(e, b)| e.model.as_mut().is_some_and(|model| model.restore_bytes(b)))
    }

    /// Hierarchical paths of every elaborated signal, sorted. Stable for
    /// a given circuit, so two interpreters over the same design can be
    /// compared signal by signal (the differential engine tests do).
    pub fn signal_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.slot_names.keys().cloned().collect();
        v.sort();
        v
    }

    /// Hierarchical paths of every elaborated memory, sorted.
    pub fn mem_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mem_names.keys().cloned().collect();
        v.sort();
        v
    }

    /// Depth (number of entries) of the memory at `path`, if any.
    pub fn mem_depth(&self, path: &str) -> Option<usize> {
        self.mem_names.get(path).map(|&mi| self.mems[mi].data.len())
    }

    /// Names and widths of the top-level input ports.
    pub fn input_ports(&self) -> Vec<(String, Width)> {
        self.top_inputs
            .iter()
            .map(|(n, s)| (n.clone(), self.slots[*s].width()))
            .collect()
    }

    /// Names and widths of the top-level output ports.
    pub fn output_ports(&self) -> Vec<(String, Width)> {
        self.top_outputs
            .iter()
            .map(|(n, s)| (n.clone(), self.slots[*s].width()))
            .collect()
    }

    /// FNV-1a digest of the top-level output-port values (width then
    /// words per port, in declaration order) — the same formula the
    /// observability layer uses for cross-backend state comparison, so a
    /// sliced lane and a sequential run can be compared with one `u64`.
    pub fn state_digest(&self) -> u64 {
        let mut h = crate::slice::Fnv1a::default();
        for (_, s) in &self.top_outputs {
            let v = self.observe(*s);
            h.write_u64(u64::from(v.width().get()));
            for w in v.as_words() {
                h.write_u64(*w);
            }
        }
        h.finish()
    }

    /// Slot index of a hierarchical signal path, if any.
    pub(crate) fn slot_index(&self, path: &str) -> Option<usize> {
        self.slot_names.get(path).copied()
    }

    /// Splits the netlist into simultaneously borrowable pieces: mutable
    /// live state (slots, extern instances) alongside the immutable
    /// structure. The bit-sliced engine drives per-lane fallback
    /// evaluation through this without fighting the borrow checker.
    pub(crate) fn parts_mut(&mut self) -> InterpParts<'_> {
        InterpParts {
            slots: &mut self.slots,
            externs: &mut self.externs,
            defs: &self.defs,
            regs: &self.regs,
            mems: &self.mems,
        }
    }

    /// Memory index of a hierarchical memory path, if any.
    pub(crate) fn mem_index(&self, path: &str) -> Option<usize> {
        self.mem_names.get(path).copied()
    }

    /// Hierarchical path of a slot — [`Interpreter::slot_index`]
    /// reversed by linear search, for reports.
    pub(crate) fn slot_path(&self, slot: usize) -> Option<&str> {
        let (path, _) = self.slot_names.iter().find(|(_, &s)| s == slot)?;
        Some(path)
    }

    /// Hierarchical path of a memory, as [`Interpreter::slot_path`].
    pub(crate) fn mem_path(&self, mem: usize) -> Option<&str> {
        let (path, _) = self.mem_names.iter().find(|(_, &m)| m == mem)?;
        Some(path)
    }
}

/// Disjoint mutable/immutable views into an [`Interpreter`], produced by
/// [`Interpreter::parts_mut`].
pub(crate) struct InterpParts<'a> {
    pub(crate) slots: &'a mut Vec<Bits>,
    pub(crate) externs: &'a mut Vec<ExternInst>,
    pub(crate) defs: &'a Vec<Def>,
    pub(crate) regs: &'a Vec<RegState>,
    pub(crate) mems: &'a Vec<MemState>,
}

struct Builder<'a> {
    circuit: &'a Circuit,
    interp: Interpreter,
}

impl<'a> Builder<'a> {
    fn key(path: &str, name: &str) -> String {
        if path.is_empty() {
            name.to_string()
        } else {
            format!("{path}.{name}")
        }
    }

    fn alloc(&mut self, path: &str, name: &str, width: Width) -> usize {
        let key = Self::key(path, name);
        let id = self.interp.slots.len();
        self.interp.slots.push(Bits::zero(width));
        self.interp.slot_names.insert(key, id);
        id
    }

    fn slot(&self, path: &str, name: &str) -> usize {
        self.interp.slot_names[&Self::key(path, name)]
    }

    fn elaborate(&mut self, path: &str, module_name: &str) -> Result<()> {
        let module = self
            .circuit
            .module(module_name)
            .ok_or_else(|| IrError::Malformed {
                message: format!("module `{module_name}` not found"),
            })?
            .clone();

        // Allocate slots for ports.
        for p in &module.ports {
            self.alloc(path, &p.name, p.width);
        }

        if let Some(info) = &module.extern_info {
            let comb_outs: HashSet<&str> = info
                .comb_paths
                .iter()
                .map(|cp| cp.output.as_str())
                .collect();
            let mut ext = ExternInst {
                path: path.to_string(),
                behavior_key: info.behavior.clone(),
                input_slots: Vec::new(),
                source_output_slots: Vec::new(),
                sink_output_slots: Vec::new(),
                model: None,
                inputs_buf: BTreeMap::new(),
            };
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for p in &module.ports {
                let slot = self.slot(path, &p.name);
                match p.direction {
                    Direction::Input => {
                        ext.input_slots.push((p.name.clone(), slot));
                        if info.comb_paths.iter().any(|cp| cp.input == p.name) {
                            reads.push(slot);
                        }
                    }
                    Direction::Output => {
                        if comb_outs.contains(p.name.as_str()) {
                            ext.sink_output_slots.push((p.name.clone(), slot));
                            writes.push(slot);
                        } else {
                            ext.source_output_slots.push((p.name.clone(), slot));
                        }
                    }
                }
            }
            // Name-sort the inputs and seed the persistent input buffer so
            // per-cycle refreshes are a straight zip with no lookups.
            ext.input_slots.sort_by(|a, b| a.0.cmp(&b.0));
            ext.inputs_buf = ext
                .input_slots
                .iter()
                .map(|(n, s)| (n.clone(), Bits::zero(self.interp.slots[*s].width())))
                .collect();
            let ext_id = self.interp.externs.len();
            self.interp.externs.push(ext);
            if !writes.is_empty() {
                self.interp.defs.push(Def {
                    kind: DefKind::ExternComb { ext: ext_id },
                    writes,
                    reads,
                });
            }
            return Ok(());
        }

        // First pass: declare local slots, recurse into instances.
        let mut local_mems: HashMap<String, usize> = HashMap::new();
        for stmt in &module.body {
            match stmt {
                Stmt::Wire { name, width } => {
                    self.alloc(path, name, *width);
                }
                Stmt::Node { name, expr } => {
                    let w = crate::typecheck::infer_width(self.circuit, &module, expr)?;
                    self.alloc(path, name, w);
                }
                Stmt::Reg { name, width, init } => {
                    let slot = self.alloc(path, name, *width);
                    self.interp.regs.push(RegState {
                        slot,
                        init: init.clone(),
                        next: None,
                    });
                }
                Stmt::Mem { name, width, depth } => {
                    let id = self.interp.mems.len();
                    self.interp.mems.push(MemState {
                        width: *width,
                        data: vec![Bits::zero(*width); *depth as usize],
                        writes: Vec::new(),
                    });
                    local_mems.insert(Self::key(path, name), id);
                    self.interp.mem_names.insert(Self::key(path, name), id);
                }
                Stmt::MemRead { name, mem, .. } => {
                    let mem_mod = match module.find_def(mem) {
                        Some(Stmt::Mem { width, .. }) => *width,
                        _ => unreachable!("validated"),
                    };
                    self.alloc(path, name, mem_mod);
                }
                Stmt::Inst { name, module: m } => {
                    let child_path = Self::key(path, name);
                    self.elaborate(&child_path, m)?;
                }
                Stmt::MemWrite { .. } | Stmt::Connect { .. } => {}
            }
        }

        // Second pass: compile defining statements.
        for stmt in &module.body {
            match stmt {
                Stmt::Node { name, expr } => {
                    let c = self.compile(path, &module, expr)?;
                    let slot = self.slot(path, name);
                    self.push_expr_def(slot, c);
                }
                Stmt::MemRead { name, mem, addr } => {
                    let mem_id = local_mems[&Self::key(path, mem)];
                    let addr_c = self.compile(path, &module, addr)?;
                    let slot = self.slot(path, name);
                    let mut reads = Vec::new();
                    addr_c.reads(&mut reads);
                    self.interp.defs.push(Def {
                        kind: DefKind::MemRead {
                            mem: mem_id,
                            addr: addr_c,
                        },
                        writes: vec![slot],
                        reads,
                    });
                }
                Stmt::MemWrite {
                    mem,
                    addr,
                    data,
                    en,
                } => {
                    let mem_id = local_mems[&Self::key(path, mem)];
                    let a = self.compile(path, &module, addr)?;
                    let d = self.compile(path, &module, data)?;
                    let e = self.compile(path, &module, en)?;
                    self.interp.mems[mem_id].writes.push((a, d, e));
                }
                Stmt::Connect { lhs, rhs } => {
                    let sink_slot = match &lhs.instance {
                        Some(inst) => self.slot(&Self::key(path, inst), &lhs.name),
                        None => self.slot(path, &lhs.name),
                    };
                    let w = self.interp.slots[sink_slot].width();
                    let c = CExpr::Resize(Box::new(self.compile(path, &module, rhs)?), w);
                    // A connect to a register sets its next value.
                    let is_reg = lhs.is_local()
                        && matches!(module.find_def(&lhs.name), Some(Stmt::Reg { .. }));
                    if is_reg {
                        let r = self
                            .interp
                            .regs
                            .iter_mut()
                            .find(|r| r.slot == sink_slot)
                            .expect("register slot exists");
                        r.next = Some(c);
                    } else {
                        self.push_expr_def(sink_slot, c);
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn push_expr_def(&mut self, slot: usize, c: CExpr) {
        let mut reads = Vec::new();
        c.reads(&mut reads);
        self.interp.defs.push(Def {
            kind: DefKind::Expr(c),
            writes: vec![slot],
            reads,
        });
    }

    #[allow(clippy::only_used_in_recursion)]
    fn compile(&self, path: &str, module: &Module, expr: &Expr) -> Result<CExpr> {
        Ok(match expr {
            Expr::Lit(b) => CExpr::Lit(b.clone()),
            Expr::Ref(r) => {
                let slot = match &r.instance {
                    Some(inst) => self.slot(&Self::key(path, inst), &r.name),
                    None => self.slot(path, &r.name),
                };
                CExpr::Slot(slot)
            }
            Expr::Unary(op, a) => CExpr::Unary(*op, Box::new(self.compile(path, module, a)?)),
            Expr::Binary(op, a, b) => CExpr::Binary(
                *op,
                Box::new(self.compile(path, module, a)?),
                Box::new(self.compile(path, module, b)?),
            ),
            Expr::Mux(c, t, f) => CExpr::Mux(
                Box::new(self.compile(path, module, c)?),
                Box::new(self.compile(path, module, t)?),
                Box::new(self.compile(path, module, f)?),
            ),
            Expr::Cat(parts) => CExpr::Cat(
                parts
                    .iter()
                    .map(|p| self.compile(path, module, p))
                    .collect::<Result<_>>()?,
            ),
            Expr::Extract(a, hi, lo) => {
                CExpr::Extract(Box::new(self.compile(path, module, a)?), *hi, *lo)
            }
            Expr::Resize(a, w) => CExpr::Resize(Box::new(self.compile(path, module, a)?), *w),
            Expr::Shl(a, n) => CExpr::Shl(Box::new(self.compile(path, module, a)?), *n),
            Expr::Shr(a, n) => CExpr::Shr(Box::new(self.compile(path, module, a)?), *n),
        })
    }
}

/// Kahn topological sort of defs by slot read/write dependencies.
fn schedule_defs(defs: &[Def], n_slots: usize) -> Result<Vec<usize>> {
    let mut writer_of: Vec<Option<usize>> = vec![None; n_slots];
    for (di, d) in defs.iter().enumerate() {
        for &w in &d.writes {
            writer_of[w] = Some(di);
        }
    }
    let mut indegree = vec![0usize; defs.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
    for (di, d) in defs.iter().enumerate() {
        let mut preds = HashSet::new();
        for &r in &d.reads {
            if let Some(p) = writer_of[r] {
                if p != di {
                    preds.insert(p);
                }
            }
        }
        indegree[di] = preds.len();
        for p in preds {
            dependents[p].push(di);
        }
    }
    let mut queue: VecDeque<usize> = indegree
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut order = Vec::with_capacity(defs.len());
    while let Some(di) = queue.pop_front() {
        order.push(di);
        for &dep in &dependents[di] {
            indegree[dep] -= 1;
            if indegree[dep] == 0 {
                queue.push_back(dep);
            }
        }
    }
    if order.len() != defs.len() {
        let stuck: Vec<String> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0)
            .map(|(i, _)| format!("def#{i}"))
            .collect();
        return Err(IrError::CombCycle { cycle: stuck });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ModuleBuilder, Sig};

    fn counter_circuit() -> Circuit {
        let mut mb = ModuleBuilder::new("Counter");
        let en = mb.input("en", 1);
        let out = mb.output("out", 8);
        let count = mb.reg("count", 8, 0);
        mb.connect_sig(&count, &en.mux(&count.add(&Sig::lit(1, 8)), &count));
        mb.connect_sig(&out, &count);
        Circuit::from_modules("Counter", vec![mb.finish()], "Counter")
    }

    #[test]
    fn counter_counts() {
        let mut sim = Interpreter::new(&counter_circuit()).unwrap();
        sim.poke("en", Bits::from_u64(1, 1));
        for _ in 0..5 {
            sim.step().unwrap();
        }
        sim.eval().unwrap();
        assert_eq!(sim.peek("out").to_u64(), 5);
        sim.poke("en", Bits::from_u64(0, 1));
        for _ in 0..3 {
            sim.step().unwrap();
        }
        sim.eval().unwrap();
        assert_eq!(sim.peek("out").to_u64(), 5);
        assert_eq!(sim.cycle(), 8);
    }

    #[test]
    fn reset_restores_init() {
        let mut sim = Interpreter::new(&counter_circuit()).unwrap();
        sim.poke("en", Bits::from_u64(1, 1));
        for _ in 0..4 {
            sim.step().unwrap();
        }
        sim.reset();
        sim.eval().unwrap();
        assert_eq!(sim.peek("out").to_u64(), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn hierarchy_flattens() {
        // Top wires two cascaded incrementers: out = in + 2 (combinational).
        let mut inc = ModuleBuilder::new("Inc");
        let a = inc.input("a", 8);
        let y = inc.output("y", 8);
        inc.connect_sig(&y, &a.add(&Sig::lit(1, 8)));
        let inc = inc.finish();

        let mut top = ModuleBuilder::new("Top");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("u0", "Inc");
        top.inst("u1", "Inc");
        top.connect_inst("u0", "a", &i);
        let u0y = top.inst_port("u0", "y");
        top.connect_inst("u1", "a", &u0y);
        let u1y = top.inst_port("u1", "y");
        top.connect_sig(&o, &u1y);
        let c = Circuit::from_modules("Top", vec![top.finish(), inc], "Top");

        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("i", Bits::from_u64(40, 8));
        sim.eval().unwrap();
        assert_eq!(sim.peek("o").to_u64(), 42);
        // Internal signals visible by path.
        assert_eq!(sim.peek("u0.y").to_u64(), 41);
    }

    #[test]
    fn memory_read_write() {
        let mut mb = ModuleBuilder::new("RegFile");
        let waddr = mb.input("waddr", 4);
        let wdata = mb.input("wdata", 8);
        let wen = mb.input("wen", 1);
        let raddr = mb.input("raddr", 4);
        let rdata = mb.output("rdata", 8);
        let mem = mb.mem("mem", 8, 16);
        mb.mem_write(&mem, &waddr, &wdata, &wen);
        let rd = mb.mem_read("rd", &mem, &raddr);
        mb.connect_sig(&rdata, &rd);
        let c = Circuit::from_modules("RegFile", vec![mb.finish()], "RegFile");

        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("waddr", Bits::from_u64(3, 4));
        sim.poke("wdata", Bits::from_u64(0xAB, 8));
        sim.poke("wen", Bits::from_u64(1, 1));
        sim.step().unwrap(); // write happens at the edge
        sim.poke("wen", Bits::from_u64(0, 1));
        sim.poke("raddr", Bits::from_u64(3, 4));
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").to_u64(), 0xAB);
        sim.poke("raddr", Bits::from_u64(4, 4));
        sim.eval().unwrap();
        assert_eq!(sim.peek("rdata").to_u64(), 0);
    }

    /// A 2-entry extern FIFO-ish model used to test behavior binding.
    #[derive(Debug, Default)]
    struct Doubler {
        state: u64,
    }

    impl ExternBehavior for Doubler {
        fn reset(&mut self) {
            self.state = 0;
        }
        fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
            out.set_u64("acc", self.state);
        }
        fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>, out: &mut PortWriter<'_>) {
            out.set_u64("twice", inputs["x"].to_u64() * 2);
        }
        fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
            self.state = self.state.wrapping_add(inputs["x"].to_u64());
        }
    }

    fn extern_circuit() -> Circuit {
        let mut e = Module::new("Doubler");
        e.ports.push(Port::input("x", 16));
        e.ports.push(Port::output("twice", 16));
        e.ports.push(Port::output("acc", 16));
        e.extern_info = Some(ExternInfo {
            behavior: "doubler".into(),
            comb_paths: vec![CombPath {
                input: "x".into(),
                output: "twice".into(),
            }],
            resources: ResourceHints::default(),
        });

        let mut top = ModuleBuilder::new("Top");
        let i = top.input("i", 16);
        let t = top.output("t", 16);
        let a = top.output("a", 16);
        top.inst("d", "Doubler");
        top.connect_inst("d", "x", &i);
        let dt = top.inst_port("d", "twice");
        let da = top.inst_port("d", "acc");
        top.connect_sig(&t, &dt);
        top.connect_sig(&a, &da);
        Circuit::from_modules("Top", vec![top.finish(), e], "Top")
    }

    #[test]
    fn extern_behavior_runs() {
        let mut sim = Interpreter::new(&extern_circuit()).unwrap();
        assert_eq!(sim.unbound_externs(), vec!["d".to_string()]);
        sim.bind_behavior("d", Box::new(Doubler::default()))
            .unwrap();
        sim.reset();
        sim.poke("i", Bits::from_u64(21, 16));
        sim.eval().unwrap();
        assert_eq!(sim.peek("t").to_u64(), 42);
        assert_eq!(sim.peek("a").to_u64(), 0);
        sim.tick();
        sim.poke("i", Bits::from_u64(1, 16));
        sim.eval().unwrap();
        assert_eq!(sim.peek("t").to_u64(), 2);
        assert_eq!(sim.peek("a").to_u64(), 21); // accumulated last cycle
    }

    #[test]
    fn unbound_extern_eval_errors() {
        let mut sim = Interpreter::new(&extern_circuit()).unwrap();
        assert!(matches!(
            sim.eval(),
            Err(IrError::ExternWithoutBehavior { .. })
        ));
    }

    #[test]
    fn peek_mem_reads_memory_state() {
        let mut mb = ModuleBuilder::new("M");
        let waddr = mb.input("waddr", 3);
        let wdata = mb.input("wdata", 8);
        let wen = mb.input("wen", 1);
        let out = mb.output("out", 8);
        let mem = mb.mem("store", 8, 8);
        mb.mem_write(&mem, &waddr, &wdata, &wen);
        let rd = mb.mem_read("rd", &mem, &waddr);
        mb.connect_sig(&out, &rd);
        let c = Circuit::from_modules("M", vec![mb.finish()], "M");
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("waddr", Bits::from_u64(5, 3));
        sim.poke("wdata", Bits::from_u64(0x5A, 8));
        sim.poke("wen", Bits::from_u64(1, 1));
        sim.step().unwrap();
        assert_eq!(sim.peek_mem("store", 5).unwrap().to_u64(), 0x5A);
        assert_eq!(sim.peek_mem("store", 0).unwrap().to_u64(), 0);
        assert!(sim.peek_mem("store", 99).is_none());
        assert!(sim.peek_mem("nothere", 0).is_none());
    }

    #[test]
    fn arithmetic_ops_through_circuits() {
        // A little ALU: covers div/rem/shifts/cat/extract/reductions in a
        // real elaborated circuit rather than on bare Bits.
        let mut mb = ModuleBuilder::new("Alu");
        let a = mb.input("a", 16);
        let b = mb.input("b", 16);
        let q = mb.output("q", 16);
        let r = mb.output("r", 16);
        let sh = mb.output("sh", 16);
        let cat_lo = mb.output("cat_lo", 8);
        let parity = mb.output("parity", 1);
        mb.connect_sig(&q, &Sig::from_expr(fireaxe_ir_div(&a, &b)));
        mb.connect_sig(&r, &Sig::from_expr(fireaxe_ir_rem(&a, &b)));
        mb.connect_sig(&sh, &a.shl(3).or(&b.shr(2)));
        mb.connect_sig(&cat_lo, &a.bits(3, 0).cat(&b.bits(3, 0)));
        mb.connect_sig(
            &parity,
            &Sig::from_expr(Expr::Unary(UnOp::XorReduce, Box::new(a.expr().clone()))),
        );
        fn fireaxe_ir_div(a: &Sig, b: &Sig) -> Expr {
            Expr::Binary(
                BinOp::Div,
                Box::new(a.expr().clone()),
                Box::new(b.expr().clone()),
            )
        }
        fn fireaxe_ir_rem(a: &Sig, b: &Sig) -> Expr {
            Expr::Binary(
                BinOp::Rem,
                Box::new(a.expr().clone()),
                Box::new(b.expr().clone()),
            )
        }
        let c = Circuit::from_modules("Alu", vec![mb.finish()], "Alu");
        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("a", Bits::from_u64(0b1010_1100, 16));
        sim.poke("b", Bits::from_u64(5, 16));
        sim.eval().unwrap();
        assert_eq!(sim.peek("q").to_u64(), 0b1010_1100 / 5);
        assert_eq!(sim.peek("r").to_u64(), 0b1010_1100 % 5);
        assert_eq!(
            sim.peek("sh").to_u64(),
            ((0b1010_1100u64 << 3) | (5 >> 2)) & 0xFFFF
        );
        assert_eq!(sim.peek("cat_lo").to_u64(), (0b1100 << 4) | 0b0101);
        assert_eq!(
            sim.peek("parity").to_u64(),
            (0b1010_1100u64.count_ones() % 2) as u64
        );
        // Division by zero reads as zero (documented determinism).
        sim.poke("b", Bits::from_u64(0, 16));
        sim.eval().unwrap();
        assert_eq!(sim.peek("q").to_u64(), 0);
        assert_eq!(sim.peek("r").to_u64(), 0);
    }

    #[test]
    fn snapshot_restores_slots_mems_and_cycle() {
        let mut mb = ModuleBuilder::new("SnapM");
        let waddr = mb.input("waddr", 3);
        let wdata = mb.input("wdata", 8);
        let wen = mb.input("wen", 1);
        let out = mb.output("out", 8);
        let count = mb.reg("count", 8, 0);
        mb.connect_sig(&count, &count.add(&Sig::lit(1, 8)));
        let mem = mb.mem("store", 8, 8);
        mb.mem_write(&mem, &waddr, &wdata, &wen);
        let rd = mb.mem_read("rd", &mem, &waddr);
        mb.connect_sig(&out, &rd.add(&count));
        let c = Circuit::from_modules("SnapM", vec![mb.finish()], "SnapM");

        let mut sim = Interpreter::new(&c).unwrap();
        sim.poke("waddr", Bits::from_u64(2, 3));
        sim.poke("wdata", Bits::from_u64(0x11, 8));
        sim.poke("wen", Bits::from_u64(1, 1));
        for _ in 0..3 {
            sim.step().unwrap();
        }
        let snap = sim.snapshot_bytes().unwrap();

        // Diverge: different writes, more cycles.
        sim.poke("wdata", Bits::from_u64(0xEE, 8));
        for _ in 0..5 {
            sim.step().unwrap();
        }
        sim.eval().unwrap();
        let diverged = sim.peek("out").clone();

        // Roll back and replay the original inputs: identical state.
        assert!(sim.restore_snapshot_bytes(&snap));
        assert_eq!(sim.cycle(), 3);
        sim.poke("wdata", Bits::from_u64(0x11, 8));
        sim.eval().unwrap();
        assert_eq!(sim.peek_mem("store", 2).unwrap().to_u64(), 0x11);
        assert_ne!(sim.peek("out"), &diverged);
        assert_eq!(sim.peek("out").to_u64(), 0x11 + 3);
    }

    /// No settle leaves a folded copy different from its view, so a blob
    /// holding one is refused, as a width mismatch is, on either engine
    /// and by the sliced front end's `restore_lane`, and the interpreter
    /// or lane keeps its state.
    #[test]
    fn restore_refuses_a_copy_that_disagrees_with_its_view() {
        let mut mb = ModuleBuilder::new("Top");
        let x = mb.input("x", 8);
        let mid = mb.node("mid", &x.xor(&Sig::lit(1, 8)));
        let y = mb.output("y", 8);
        mb.connect_sig(&y, &mid);
        let circuit = Circuit::from_modules("Top", vec![mb.finish()], "Top");
        let mut blobs = None;
        for engine in [ExecEngine::Compiled, ExecEngine::Reference] {
            let mut sim = Interpreter::with_engine(&circuit, engine).unwrap();
            sim.poke("x", Bits::from_u64(4, 8));
            sim.step().unwrap();
            sim.eval().unwrap();
            let good = sim.snapshot_bytes().unwrap();
            let y_slot = sim.slot_index("y").unwrap();
            assert_ne!(sim.view[y_slot] as usize, y_slot, "y is a folded copy");
            let mut slots: Vec<Bits> = (0..sim.slots.len())
                .map(|s| sim.observe(s).clone())
                .collect();
            slots[y_slot] = Bits::from_u64(9, 8);
            let bad = encode_state(
                sim.cycle,
                slots.iter(),
                sim.mems.iter().map(|m| &m.data),
                sim.externs.iter().map(|e| &e.model),
            )
            .unwrap();
            assert!(!sim.restore_snapshot_bytes(&bad), "{engine:?}");
            assert_eq!(sim.snapshot_bytes().unwrap(), good, "{engine:?}");
            assert_eq!(sim.peek("y").to_u64(), 5, "{engine:?}");
            blobs = Some((good, bad));
        }
        // A folded copy shares its view's planes in a lane.
        let (good, bad) = blobs.unwrap();
        let mut lanes = crate::slice::SlicedInterpreter::new(&circuit, 3).unwrap();
        for lane in 0..3 {
            lanes.poke_u64(lane, "x", 4).unwrap();
        }
        lanes.step().unwrap();
        lanes.eval().unwrap();
        assert_eq!(lanes.snapshot_lane(1).unwrap(), good);
        assert!(!lanes.restore_lane(1, &bad));
        assert_eq!(lanes.snapshot_lane(1).unwrap(), good);
        assert_eq!(lanes.peek_u64(1, "y"), 5);
    }

    #[test]
    fn snapshot_unsupported_with_externs() {
        let mut sim = Interpreter::new(&extern_circuit()).unwrap();
        sim.bind_behavior("d", Box::new(Doubler::default()))
            .unwrap();
        assert!(sim.snapshot_bytes().is_none());
    }

    #[test]
    fn flattened_comb_cycle_detected() {
        // Two passthrough instances wired into a loop; each module alone is
        // acyclic so only elaboration sees the cycle.
        let mut pass = ModuleBuilder::new("Pass");
        let a = pass.input("a", 1);
        let y = pass.output("y", 1);
        pass.connect_sig(&y, &a);
        let pass = pass.finish();

        let mut top = ModuleBuilder::new("Top");
        let o = top.output("o", 1);
        top.inst("u0", "Pass");
        top.inst("u1", "Pass");
        let u0y = top.inst_port("u0", "y");
        let u1y = top.inst_port("u1", "y");
        top.connect_inst("u1", "a", &u0y);
        top.connect_inst("u0", "a", &u1y);
        top.connect_sig(&o, &u0y);
        let c = Circuit::from_modules("Top", vec![top.finish(), pass], "Top");
        assert!(matches!(
            Interpreter::new(&c),
            Err(IrError::CombCycle { .. })
        ));
    }
}
