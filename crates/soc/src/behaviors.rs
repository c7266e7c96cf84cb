//! Cycle-level behavioral models bound to extern modules.
//!
//! Structural SoC components whose full RTL we do not model (BOOM
//! frontends/backends, tiles, the SoC subsystem) are extern modules in
//! the IR; at simulation time the engine binds them to the
//! [`fireaxe_ir::ExternBehavior`] implementations here. Behavior *keys*
//! are self-describing strings of the form `name?k=v&k=v`, so a circuit
//! carries its own model configuration; [`make_behavior`] is the factory
//! the umbrella crate registers for every key prefix.
//!
//! All models are deterministic: traffic patterns come from a small LCG
//! seeded by configuration, never from wall-clock or global RNG state.

use fireaxe_ir::{state_fields, Bits, Dec, DecResult, ExternBehavior, PortWriter, Wire};
use std::collections::{BTreeMap, VecDeque};

/// Parses `name?k=v&k=v` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorKey {
    /// The model name (before `?`).
    pub name: String,
    /// Key/value parameters.
    pub params: BTreeMap<String, u64>,
}

impl BehaviorKey {
    /// Parses a key string. Unparseable parameter values are ignored.
    pub fn parse(key: &str) -> Self {
        let (name, rest) = key.split_once('?').unwrap_or((key, ""));
        let mut params = BTreeMap::new();
        for kv in rest.split('&').filter(|s| !s.is_empty()) {
            if let Some((k, v)) = kv.split_once('=') {
                if let Ok(v) = v.parse::<u64>() {
                    params.insert(k.to_string(), v);
                }
            }
        }
        BehaviorKey {
            name: name.to_string(),
            params,
        }
    }

    /// Parameter lookup with default.
    pub fn get(&self, k: &str, default: u64) -> u64 {
        self.params.get(k).copied().unwrap_or(default)
    }
}

/// Constructs the behavioral model for a behavior key, if the key names a
/// model this crate provides.
pub fn make_behavior(key: &str, path: &str) -> Option<Box<dyn ExternBehavior>> {
    let mut k = BehaviorKey::parse(key);
    // `id_from_path=1` keys recover the instance id from trailing digits
    // of the instance path (e.g. "tile7" -> 7), so duplicate modules can
    // share one module definition (required by FAME-5).
    if k.get("id_from_path", 0) == 1 && !k.params.contains_key("id") {
        if let Some(id) = trailing_digits(path) {
            k.params.insert("id".into(), id);
        }
    }
    match k.name.as_str() {
        "boom_frontend" => Some(Box::new(FrontendModel::new(&k))),
        "boom_backend" => Some(Box::new(BackendModel::new(&k))),
        "boom_lsu" => Some(Box::new(LsuModel::new(&k))),
        "boom_memsys" => Some(Box::new(MemSysModel::new(&k))),
        "boom_tile" | "inorder_tile" => Some(Box::new(TileModel::new(&k))),
        "soc_subsystem" => Some(Box::new(SubsystemModel::new(&k))),
        "xbar" => Some(Box::new(XbarModel::new(&k))),
        _ => None,
    }
}

/// Parses the trailing decimal digits of the last path segment.
fn trailing_digits(path: &str) -> Option<u64> {
    let seg = path.rsplit('.').next().unwrap_or(path);
    let digits: String = seg
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().ok()
}

fn get_u64(inputs: &BTreeMap<String, Bits>, port: &str) -> u64 {
    inputs.get(port).map(|b| b.to_u64()).unwrap_or(0)
}

/// Small deterministic LCG for traffic patterns.
#[derive(Debug, Clone)]
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

impl Wire for Lcg {
    const MIN: usize = 8;
    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
    }
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        d.get().map(Lcg)
    }
}

/// Frontend: streams fetch packets; stalls briefly after redirects.
#[derive(Debug, Clone)]
pub struct FrontendModel {
    packet_id: u64,
    stall: u64,
    fetch_width: u64,
}

impl FrontendModel {
    fn new(k: &BehaviorKey) -> Self {
        FrontendModel {
            packet_id: 0,
            stall: 0,
            fetch_width: k.get("issue", 3),
        }
    }
}

impl ExternBehavior for FrontendModel {
    state_fields!(packet_id, stall, fetch_width);

    fn reset(&mut self) {
        self.packet_id = 0;
        self.stall = 0;
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("fetch_packet_valid", u64::from(self.stall == 0));
        out.set_u64("fetch_packet_bits", self.packet_id * self.fetch_width);
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        if get_u64(inputs, "redirect_valid") == 1 {
            self.stall = 3; // refetch penalty
        } else if self.stall > 0 {
            self.stall -= 1;
        } else if get_u64(inputs, "fetch_packet_ready") == 1 {
            self.packet_id += 1;
        }
    }
}

/// Backend: consumes fetch packets, retires up to `issue` µops per cycle,
/// generates deterministic redirects and LSU traffic, counts commits.
#[derive(Debug, Clone)]
pub struct BackendModel {
    issue: u64,
    rob: u64,
    occupancy: u64,
    commits: u64,
    boot_insts: u64,
    lcg: Lcg,
    redirect_now: bool,
    lsu_outstanding: u64,
}

impl BackendModel {
    fn new(k: &BehaviorKey) -> Self {
        BackendModel {
            issue: k.get("issue", 3),
            rob: k.get("rob", 96),
            occupancy: 0,
            commits: 0,
            boot_insts: k.get("boot", 100_000),
            lcg: Lcg::new(
                (k.get("issue", 3) * 31 + k.get("rob", 96))
                    .wrapping_add(k.get("seed", 0).wrapping_mul(0x9E37_79B9)),
            ),
            redirect_now: false,
            lsu_outstanding: 0,
        }
    }
}

impl ExternBehavior for BackendModel {
    state_fields!(
        issue,
        rob,
        occupancy,
        commits,
        boot_insts,
        lcg,
        redirect_now,
        lsu_outstanding
    );

    fn reset(&mut self) {
        self.occupancy = 0;
        self.commits = 0;
        self.redirect_now = false;
        self.lsu_outstanding = 0;
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("redirect_valid", u64::from(self.redirect_now));
        out.set_u64("redirect_bits", self.commits);
        out.set_u64(
            "lsu_issue_valid",
            u64::from(self.lsu_outstanding == 0 && self.occupancy > self.rob / 4),
        );
        out.set_u64("lsu_issue_bits", self.commits);
        out.set_u64("commits", self.commits);
        out.set_u64("booted", u64::from(self.commits >= self.boot_insts));
    }

    fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>, out: &mut PortWriter<'_>) {
        // Declared comb path: ready = valid && ROB space (cross-module
        // combinational coupling across the partition boundary).
        let valid = get_u64(inputs, "fetch_packet_valid") == 1;
        out.set_u64(
            "fetch_packet_ready",
            u64::from(valid && self.occupancy + 2 * self.issue <= self.rob),
        );
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        let accepted = get_u64(inputs, "fetch_packet_valid") == 1
            && self.occupancy + 2 * self.issue <= self.rob;
        if accepted {
            self.occupancy += 2 * self.issue;
        }
        // Retire up to issue width; memory stalls gate retirement.
        let can_retire = if self.lsu_outstanding > 0 {
            self.issue / 2
        } else {
            self.issue
        };
        let retired = can_retire.min(self.occupancy);
        self.occupancy -= retired;
        self.commits += retired;
        // Deterministic mispredict every ~64 packets.
        self.redirect_now = accepted && self.lcg.next().is_multiple_of(64);
        if get_u64(inputs, "lsu_done_valid") == 1 && self.lsu_outstanding > 0 {
            self.lsu_outstanding -= 1;
        } else if self.occupancy > self.rob / 4 && self.lsu_outstanding == 0 {
            self.lsu_outstanding = 1;
        }
    }
}

/// LSU: turns issue requests into dmem traffic and completes them when
/// responses return.
#[derive(Debug, Clone)]
pub struct LsuModel {
    pending: VecDeque<u64>,
    done_now: Option<u64>,
}

impl LsuModel {
    fn new(_k: &BehaviorKey) -> Self {
        LsuModel {
            pending: VecDeque::new(),
            done_now: None,
        }
    }
}

impl ExternBehavior for LsuModel {
    state_fields!(pending, done_now);

    fn reset(&mut self) {
        self.pending.clear();
        self.done_now = None;
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("dmem_req_valid", u64::from(!self.pending.is_empty()));
        out.set_u64("dmem_req_bits", self.pending.front().copied().unwrap_or(0));
        out.set_u64("lsu_done_valid", u64::from(self.done_now.is_some()));
        out.set_u64("lsu_done_bits", self.done_now.unwrap_or(0));
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.done_now = None;
        if get_u64(inputs, "lsu_issue_valid") == 1 {
            self.pending.push_back(get_u64(inputs, "lsu_issue_bits"));
        }
        if get_u64(inputs, "dmem_resp_valid") == 1 {
            self.done_now = Some(get_u64(inputs, "dmem_resp_bits"));
            self.pending.pop_front();
        }
    }
}

/// Memory subsystem: fixed-latency responder.
#[derive(Debug, Clone)]
pub struct MemSysModel {
    latency: u64,
    in_flight: VecDeque<(u64, u64)>, // (ready_at, tag)
    now: u64,
    resp_now: Option<u64>,
}

impl MemSysModel {
    fn new(k: &BehaviorKey) -> Self {
        MemSysModel {
            latency: k.get("latency", 20),
            in_flight: VecDeque::new(),
            now: 0,
            resp_now: None,
        }
    }
}

impl ExternBehavior for MemSysModel {
    state_fields!(latency, in_flight, now, resp_now);

    fn reset(&mut self) {
        self.in_flight.clear();
        self.now = 0;
        self.resp_now = None;
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("dmem_resp_valid", u64::from(self.resp_now.is_some()));
        out.set_u64("dmem_resp_bits", self.resp_now.unwrap_or(0));
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.now += 1;
        self.resp_now = None;
        if get_u64(inputs, "dmem_req_valid") == 1 {
            self.in_flight
                .push_back((self.now + self.latency, get_u64(inputs, "dmem_req_bits")));
        }
        if let Some(&(at, tag)) = self.in_flight.front() {
            if at <= self.now {
                self.resp_now = Some(tag);
                self.in_flight.pop_front();
            }
        }
    }
}

fireaxe_ir::wire_struct! {
    /// Flit layout used by tiles, the NoC and the subsystem: `{valid(1),
    /// dest(6), src(6), kind(2), payload(P)}` packed LSB-first as
    /// `payload | kind | src | dest | valid`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FlitLayout {
        /// Payload width in bits.
        pub payload_bits: u32,
    }
}

/// Flit `kind` values.
pub mod flit_kind {
    /// Request from a tile to the subsystem.
    pub const REQ: u64 = 1;
    /// Response from the subsystem to a tile.
    pub const RESP: u64 = 2;
    /// Trap report (the §V-A supervisor-binary-interface trap).
    pub const TRAP: u64 = 3;
}

impl FlitLayout {
    /// Total flit width.
    ///
    /// # Panics
    ///
    /// Payloads are limited to 48 bits so a flit packs into a `u64`;
    /// wider boundaries come from tile trace ports, not wider flits.
    pub fn width(&self) -> u32 {
        assert!(self.payload_bits <= 48, "flit payload limited to 48 bits");
        self.payload_bits + 15
    }

    /// Packs a flit.
    pub fn pack(&self, dest: u64, src: u64, kind: u64, payload: u64) -> u64 {
        let p = self.payload_bits;
        (payload & ((1u64 << p.min(63)) - 1))
            | ((kind & 0x3) << p)
            | ((src & 0x3F) << (p + 2))
            | ((dest & 0x3F) << (p + 8))
            | (1u64 << (p + 14))
    }

    /// Unpacks `(valid, dest, src, kind, payload)`.
    pub fn unpack(&self, v: u64) -> (bool, u64, u64, u64, u64) {
        let p = self.payload_bits;
        (
            (v >> (p + 14)) & 1 == 1,
            (v >> (p + 8)) & 0x3F,
            (v >> (p + 2)) & 0x3F,
            (v >> p) & 0x3,
            v & ((1u64 << p.min(63)) - 1),
        )
    }
}

/// A core tile on the NoC: generates request flits toward the subsystem,
/// consumes responses, models forward progress, and optionally manifests
/// the §V-A RTL bug.
///
/// Ports: `tx_valid/tx_ready/tx_bits` (out), `rx_valid/rx_bits` (in,
/// always accepted), `trap` (out, sticky).
#[derive(Debug, Clone)]
pub struct TileModel {
    id: u64,
    subsystem: u64,
    period: u64,
    cycle: u64,
    responses: u64,
    requests_sent: u64,
    pending_tx: VecDeque<u64>,
    layout: FlitLayout,
    /// Out-of-order tiles with the `bug=1` parameter trap after this many
    /// serviced responses under the heavy workload (paper §V-A: the BOOM
    /// bug that only manifests with larger binaries).
    bug_threshold: Option<u64>,
    trapped: bool,
    lcg: Lcg,
}

impl TileModel {
    fn new(k: &BehaviorKey) -> Self {
        let heavy = k.get("heavy", 0) == 1;
        let buggy = k.get("bug", 0) == 1;
        TileModel {
            id: k.get("id", 0),
            subsystem: k.get("subsystem", 63),
            period: k.get("period", 8).max(1),
            cycle: 0,
            responses: 0,
            requests_sent: 0,
            pending_tx: VecDeque::new(),
            layout: FlitLayout {
                payload_bits: k.get("payload", 32) as u32,
            },
            bug_threshold: if buggy && heavy {
                Some(k.get("bug_after", 1000))
            } else {
                None
            },
            trapped: false,
            // `seed` (default 0: unchanged streams) decorrelates
            // otherwise-identical tiles across batch-of-seeds lanes.
            lcg: Lcg::new(
                (k.get("id", 0) + 1).wrapping_add(k.get("seed", 0).wrapping_mul(0x9E37_79B9)),
            ),
        }
    }

    /// Responses this tile has received (its progress metric).
    pub fn responses(&self) -> u64 {
        self.responses
    }
}

impl ExternBehavior for TileModel {
    state_fields!(
        id,
        subsystem,
        period,
        cycle,
        responses,
        requests_sent,
        pending_tx,
        layout,
        bug_threshold,
        trapped,
        lcg
    );

    fn reset(&mut self) {
        self.cycle = 0;
        self.responses = 0;
        self.requests_sent = 0;
        self.pending_tx.clear();
        self.trapped = false;
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("tx_bits", self.pending_tx.front().copied().unwrap_or(0));
        out.set_u64("trap", u64::from(self.trapped));
        out.set_u64("progress", self.responses);
    }

    fn comb_outputs(&mut self, inputs: &BTreeMap<String, Bits>, out: &mut PortWriter<'_>) {
        // Declared comb path: valid is credit-gated on the incoming ready
        // (note: the trap-report flit still goes out after the bug fires).
        let valid = !self.pending_tx.is_empty() && get_u64(inputs, "tx_ready") == 1;
        out.set_u64("tx_valid", u64::from(valid));
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.cycle += 1;
        if get_u64(inputs, "tx_ready") == 1 && !self.pending_tx.is_empty() {
            self.pending_tx.pop_front();
        }
        if !self.trapped {
            // Generate a request every `period` cycles with jitter.
            if self.cycle % self.period == self.lcg.next() % self.period {
                let payload = self.requests_sent;
                self.pending_tx.push_back(self.layout.pack(
                    self.subsystem,
                    self.id,
                    flit_kind::REQ,
                    payload,
                ));
                self.requests_sent += 1;
            }
            if get_u64(inputs, "rx_valid") == 1 {
                let (v, dest, _src, kind, _p) = self.layout.unpack(get_u64(inputs, "rx_bits"));
                if v && dest == self.id && kind == flit_kind::RESP {
                    self.responses += 1;
                    if let Some(t) = self.bug_threshold {
                        if self.responses >= t {
                            // The bug manifests: report the SBI trap to
                            // the subsystem and stop making progress.
                            self.trapped = true;
                            self.pending_tx.clear();
                            self.pending_tx.push_back(self.layout.pack(
                                self.subsystem,
                                self.id,
                                flit_kind::TRAP,
                                self.responses,
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// The SoC subsystem (memory controller + I/O): answers tile requests
/// after a fixed service latency.
#[derive(Debug, Clone)]
pub struct SubsystemModel {
    latency: u64,
    now: u64,
    queue: VecDeque<(u64, u64, u64)>, // (ready_at, tile, payload)
    pending_tx: VecDeque<u64>,
    serviced: u64,
    traps: u64,
    layout: FlitLayout,
    id: u64,
}

impl SubsystemModel {
    fn new(k: &BehaviorKey) -> Self {
        SubsystemModel {
            latency: k.get("latency", 12),
            now: 0,
            queue: VecDeque::new(),
            pending_tx: VecDeque::new(),
            serviced: 0,
            traps: 0,
            layout: FlitLayout {
                payload_bits: k.get("payload", 32) as u32,
            },
            id: k.get("id", 63),
        }
    }
}

impl ExternBehavior for SubsystemModel {
    state_fields!(latency, now, queue, pending_tx, serviced, traps, layout, id);

    fn reset(&mut self) {
        self.now = 0;
        self.queue.clear();
        self.pending_tx.clear();
        self.serviced = 0;
        self.traps = 0;
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        out.set_u64("tx_valid", u64::from(!self.pending_tx.is_empty()));
        out.set_u64("tx_bits", self.pending_tx.front().copied().unwrap_or(0));
        out.set_u64("serviced", self.serviced);
        out.set_u64("traps", self.traps);
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.now += 1;
        // Complete the handshake for the flit advertised *this* cycle
        // before queueing newly finished work.
        if get_u64(inputs, "tx_ready") == 1 && !self.pending_tx.is_empty() {
            self.pending_tx.pop_front();
        }
        if get_u64(inputs, "rx_valid") == 1 {
            let (v, dest, src, kind, payload) = self.layout.unpack(get_u64(inputs, "rx_bits"));
            if v && dest == self.id && kind == flit_kind::REQ {
                self.queue
                    .push_back((self.now + self.latency, src, payload));
            } else if v && dest == self.id && kind == flit_kind::TRAP {
                self.traps += 1;
            }
        }
        while let Some(&(at, tile, payload)) = self.queue.front() {
            if at > self.now {
                break;
            }
            self.queue.pop_front();
            self.pending_tx
                .push_back(self.layout.pack(tile, self.id, flit_kind::RESP, payload));
            self.serviced += 1;
        }
    }
}

/// Behavioral crossbar: routes flits between `nodes` ports with a fixed
/// internal latency; one delivery per output port per cycle, FIFO per
/// destination. Used by the Fig. 11/12 sweep SoCs where the bus topology
/// is a crossbar.
#[derive(Debug, Clone)]
pub struct XbarModel {
    nodes: usize,
    latency: u64,
    now: u64,
    layout: FlitLayout,
    queues: Vec<VecDeque<(u64, u64)>>, // per destination: (ready_at, flit)
    rx_now: Vec<Option<u64>>,
    /// Per-node port names, built once: configuration, not state.
    ports: Vec<XbarPorts>,
}

/// The five port names of one crossbar node.
#[derive(Debug, Clone)]
struct XbarPorts {
    tx_ready: String,
    tx_valid: String,
    tx_bits: String,
    rx_valid: String,
    rx_bits: String,
}

impl XbarModel {
    fn new(k: &BehaviorKey) -> Self {
        let nodes = k.get("nodes", 2) as usize;
        XbarModel {
            nodes,
            latency: k.get("latency", 2),
            now: 0,
            layout: FlitLayout {
                payload_bits: k.get("payload", 32) as u32,
            },
            queues: vec![VecDeque::new(); nodes],
            rx_now: vec![None; nodes],
            ports: (0..nodes)
                .map(|i| XbarPorts {
                    tx_ready: format!("node{i}_tx_ready"),
                    tx_valid: format!("node{i}_tx_valid"),
                    tx_bits: format!("node{i}_tx_bits"),
                    rx_valid: format!("node{i}_rx_valid"),
                    rx_bits: format!("node{i}_rx_bits"),
                })
                .collect(),
        }
    }
}

impl ExternBehavior for XbarModel {
    state_fields!(nodes, latency, now, layout, queues, rx_now);

    fn reset(&mut self) {
        self.now = 0;
        for q in &mut self.queues {
            q.clear();
        }
        self.rx_now = vec![None; self.nodes];
    }

    fn source_outputs(&mut self, out: &mut PortWriter<'_>) {
        for (p, rx) in self.ports.iter().zip(&self.rx_now) {
            // Accept while the destination queues are shallow.
            out.set_u64(&p.tx_ready, 1);
            out.set_u64(&p.rx_valid, u64::from(rx.is_some()));
            out.set_u64(&p.rx_bits, rx.unwrap_or(0));
        }
    }

    fn tick(&mut self, inputs: &BTreeMap<String, Bits>) {
        self.now += 1;
        for p in &self.ports {
            if get_u64(inputs, &p.tx_valid) == 1 {
                let flit = get_u64(inputs, &p.tx_bits);
                let (v, dest, _, _, _) = self.layout.unpack(flit);
                if v && (dest as usize) < self.nodes {
                    self.queues[dest as usize].push_back((self.now + self.latency, flit));
                }
            }
        }
        for i in 0..self.nodes {
            self.rx_now[i] = None;
            if let Some(&(at, flit)) = self.queues[i].front() {
                if at <= self.now {
                    self.rx_now[i] = Some(flit);
                    self.queues[i].pop_front();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_ir::{Direction, Module, PortTable};

    fn b1(v: bool) -> Bits {
        Bits::from_u64(u64::from(v), 1)
    }

    /// Every extern module the crate's generators emit — between them
    /// every model [`make_behavior`] can build, each with the port list
    /// and combinational paths it is bound under.
    fn generated_extern_modules() -> Vec<Module> {
        let ring = |tile_kind| {
            crate::ring_soc(&crate::RingSocConfig {
                tiles: 2,
                tile_kind,
                ..Default::default()
            })
            .circuit
        };
        let circuits = [
            ring(crate::TileKind::Boom(crate::BoomConfig::large())),
            ring(crate::TileKind::InOrder),
            crate::xbar_soc(&crate::XbarSocConfig {
                tiles: 3,
                ..Default::default()
            })
            .circuit,
            crate::boom::core_circuit(&crate::BoomConfig::large()),
        ];
        let mut modules: Vec<Module> = Vec::new();
        for m in circuits.iter().flat_map(|c| &c.modules) {
            let Some(info) = &m.extern_info else { continue };
            let known =
                |k: &Module| k.extern_info.as_ref().map(|i| &i.behavior) == Some(&info.behavior);
            if !modules.iter().any(known) {
                modules.push(m.clone());
            }
        }
        let names: std::collections::BTreeSet<String> = modules
            .iter()
            .map(|m| BehaviorKey::parse(&m.extern_info.as_ref().unwrap().behavior).name)
            .collect();
        assert_eq!(names.len(), 8, "a model lost its generator: {names:?}");
        modules
    }

    fn model_of(m: &Module) -> Box<dyn ExternBehavior> {
        let key = &m.extern_info.as_ref().unwrap().behavior;
        make_behavior(key, "tile1").unwrap_or_else(|| panic!("no model for {key}"))
    }

    /// A port table over every output of `m`.
    fn outputs_of(m: &Module) -> PortTable {
        PortTable::new(
            m.ports_in(Direction::Output)
                .map(|p| (p.name.as_str(), p.width.get())),
        )
    }

    /// What `model` publishes right now on the given source ports.
    fn sources(model: &mut dyn ExternBehavior, ports: &[(&str, u32)]) -> PortTable {
        let mut table = PortTable::new(ports.iter().copied());
        model.source_outputs(&mut table.writer());
        table
    }

    #[test]
    fn key_parsing() {
        let k = BehaviorKey::parse("boom_tile?id=3&period=8&bug=1");
        assert_eq!(k.name, "boom_tile");
        assert_eq!(k.get("id", 0), 3);
        assert_eq!(k.get("missing", 7), 7);
        let bare = BehaviorKey::parse("soc_subsystem");
        assert_eq!(bare.name, "soc_subsystem");
    }

    #[test]
    fn factory_covers_all_models() {
        for key in [
            "boom_frontend?issue=3",
            "boom_backend?issue=3&rob=96",
            "boom_lsu",
            "boom_memsys",
            "boom_tile?id=1",
            "inorder_tile?id=2",
            "soc_subsystem",
        ] {
            assert!(make_behavior(key, "p").is_some(), "no model for {key}");
        }
        assert!(make_behavior("unknown_thing", "p").is_none());
    }

    #[test]
    fn flit_pack_unpack_roundtrip() {
        let l = FlitLayout { payload_bits: 32 };
        let f = l.pack(24, 3, flit_kind::REQ, 0xDEADBEEF);
        let (v, dest, src, kind, payload) = l.unpack(f);
        assert!(v);
        assert_eq!(dest, 24);
        assert_eq!(src, 3);
        assert_eq!(kind, flit_kind::REQ);
        assert_eq!(payload, 0xDEADBEEF);
        assert!(!l.unpack(0).0);
    }

    #[test]
    fn tile_requests_and_counts_responses() {
        let mut t = TileModel::new(&BehaviorKey::parse("boom_tile?id=2&period=1&subsystem=9"));
        t.reset();
        let mut inputs: BTreeMap<String, Bits> = BTreeMap::new();
        inputs.insert("tx_ready".into(), b1(true));
        inputs.insert("rx_valid".into(), b1(false));
        inputs.insert("rx_bits".into(), Bits::zero(47));
        for _ in 0..20 {
            t.tick(&inputs);
        }
        assert!(t.requests_sent > 5);
        // Feed a response.
        let l = FlitLayout { payload_bits: 32 };
        inputs.insert("rx_valid".into(), b1(true));
        inputs.insert(
            "rx_bits".into(),
            Bits::from_u64(l.pack(2, 9, flit_kind::RESP, 0), 47),
        );
        t.tick(&inputs);
        assert_eq!(t.responses(), 1);
        // Responses addressed elsewhere are ignored.
        inputs.insert(
            "rx_bits".into(),
            Bits::from_u64(l.pack(5, 9, flit_kind::RESP, 0), 47),
        );
        t.tick(&inputs);
        assert_eq!(t.responses(), 1);
    }

    #[test]
    fn buggy_tile_traps_only_under_heavy_workload() {
        let run = |key: &str| {
            let mut t = TileModel::new(&BehaviorKey::parse(key));
            t.reset();
            let l = FlitLayout { payload_bits: 32 };
            let mut inputs: BTreeMap<String, Bits> = BTreeMap::new();
            inputs.insert("tx_ready".into(), b1(true));
            inputs.insert("rx_valid".into(), b1(true));
            inputs.insert(
                "rx_bits".into(),
                Bits::from_u64(l.pack(0, 9, flit_kind::RESP, 0), 47),
            );
            for _ in 0..50 {
                t.tick(&inputs);
            }
            sources(&mut t, &[("trap", 1)]).get("trap").to_u64() == 1
        };
        assert!(run("boom_tile?id=0&bug=1&heavy=1&bug_after=10"));
        assert!(!run("boom_tile?id=0&bug=1&heavy=0&bug_after=10")); // small binaries
        assert!(!run("inorder_tile?id=0&bug=0&heavy=1&bug_after=10")); // in-order swap
    }

    #[test]
    fn subsystem_answers_after_latency() {
        let mut s = SubsystemModel::new(&BehaviorKey::parse("soc_subsystem?latency=5&id=9"));
        s.reset();
        let l = FlitLayout { payload_bits: 32 };
        let mut inputs: BTreeMap<String, Bits> = BTreeMap::new();
        inputs.insert("tx_ready".into(), b1(true));
        inputs.insert("rx_valid".into(), b1(true));
        inputs.insert(
            "rx_bits".into(),
            Bits::from_u64(l.pack(9, 4, flit_kind::REQ, 77), 47),
        );
        s.tick(&inputs);
        inputs.insert("rx_valid".into(), b1(false));
        let mut first_valid_at = None;
        for i in 1..20 {
            let out = sources(&mut s, &[("tx_valid", 1), ("tx_bits", 47)]);
            if out.get("tx_valid").to_u64() == 1 && first_valid_at.is_none() {
                first_valid_at = Some(i);
                let (_, dest, src, kind, payload) = l.unpack(out.get("tx_bits").to_u64());
                assert_eq!((dest, src, kind, payload), (4, 9, flit_kind::RESP, 77));
            }
            s.tick(&inputs);
        }
        assert_eq!(first_valid_at, Some(6));
    }

    #[test]
    fn backend_commit_rate_scales_with_issue_width() {
        let run = |issue: u64| {
            let mut fe_ready = BTreeMap::new();
            fe_ready.insert("fetch_packet_valid".into(), b1(true));
            fe_ready.insert("lsu_done_valid".into(), b1(true));
            let mut b = BackendModel::new(&BehaviorKey::parse(&format!(
                "boom_backend?issue={issue}&rob=216"
            )));
            b.reset();
            for _ in 0..200 {
                b.tick(&fe_ready);
            }
            b.commits
        };
        assert!(run(6) > run(3));
    }

    #[test]
    fn byte_snapshots_round_trip_every_model() {
        let l = FlitLayout { payload_bits: 32 };
        let mut inputs: BTreeMap<String, Bits> = BTreeMap::new();
        inputs.insert("tx_ready".into(), b1(true));
        inputs.insert("rx_valid".into(), b1(true));
        inputs.insert(
            "rx_bits".into(),
            Bits::from_u64(l.pack(1, 9, flit_kind::RESP, 5), 47),
        );
        inputs.insert("fetch_packet_valid".into(), b1(true));
        inputs.insert("lsu_done_valid".into(), b1(true));
        inputs.insert("redirect_valid".into(), b1(true));
        inputs.insert("req_valid".into(), b1(true));
        inputs.insert("req_addr".into(), Bits::from_u64(0x40, 32));

        for module in generated_extern_modules() {
            let key = &module.extern_info.as_ref().unwrap().behavior;
            let mut warm = model_of(&module);
            warm.reset();
            for _ in 0..17 {
                warm.source_outputs(&mut outputs_of(&module).writer());
                warm.tick(&inputs);
            }
            let blob = warm
                .snapshot_bytes()
                .unwrap_or_else(|| panic!("{key}: model is not byte-portable"));

            let mut restored = model_of(&module);
            restored.reset();
            assert!(restored.restore_bytes(&blob), "{key}: restore rejected");
            assert_eq!(
                restored.snapshot_bytes().as_deref(),
                Some(&blob[..]),
                "{key}: re-snapshot differs"
            );
            // Restored model must replay identically to the original.
            for step in 0..17 {
                let (mut a, mut b) = (outputs_of(&module), outputs_of(&module));
                warm.source_outputs(&mut a.writer());
                restored.source_outputs(&mut b.writer());
                assert_eq!(a, b, "{key}: outputs diverge at step {step}");
                warm.tick(&inputs);
                restored.tick(&inputs);
            }

            // Garbage and truncated blobs must be rejected without effect.
            let mut fresh = model_of(&module);
            fresh.reset();
            let before = fresh.snapshot_bytes();
            assert!(!fresh.restore_bytes(&blob[..blob.len() - 1]), "{key}");
            assert!(!fresh.restore_bytes(b"\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"));
            assert_eq!(fresh.snapshot_bytes(), before, "{key}: reject mutated");
        }
    }

    /// The contract `ExternBehavior::comb_outputs` documents, checked on
    /// every model: it is a pure function of state and inputs. An engine
    /// may settle any number of times per target cycle — the LI-BDN
    /// settles once per host step on which something fires — so a second
    /// call with equal inputs must write the same outputs and must not
    /// be visible to the `tick` that follows.
    #[test]
    fn comb_outputs_is_pure_on_every_model() {
        for module in generated_extern_modules() {
            let key = &module.extern_info.as_ref().unwrap().behavior;
            let mut once = model_of(&module);
            let mut twice = model_of(&module);
            once.reset();
            twice.reset();
            let mut lcg = Lcg::new(0xC0FFEE);
            for cycle in 0..300 {
                let inputs: BTreeMap<String, Bits> = module
                    .ports_in(Direction::Input)
                    .map(|p| (p.name.clone(), Bits::from_u64(lcg.next() >> 3, p.width)))
                    .collect();
                let (mut a, mut b) = (outputs_of(&module), outputs_of(&module));
                once.source_outputs(&mut a.writer());
                twice.source_outputs(&mut b.writer());
                once.comb_outputs(&inputs, &mut a.writer());
                twice.comb_outputs(&inputs, &mut b.writer());
                let first = b.clone();
                twice.comb_outputs(&inputs, &mut b.writer());
                assert_eq!(
                    b, first,
                    "{key}: second settle wrote differently at {cycle}"
                );
                assert_eq!(a, b, "{key}: outputs diverge at cycle {cycle}");
                once.tick(&inputs);
                twice.tick(&inputs);
                assert_eq!(
                    once.snapshot_bytes(),
                    twice.snapshot_bytes(),
                    "{key}: an extra settle changed the tick at cycle {cycle}"
                );
            }
        }
    }
}
