//! Manager-style run configuration.
//!
//! FireSim drives simulations from declarative config files
//! (`config_runtime.yaml` etc.); this module provides the equivalent for
//! FireAxe-rs: a JSON-serializable [`RunConfig`] describing the
//! partitioning, platform, clocks, and execution backend of a run,
//! convertible into a [`FireAxe`] flow. Configs are plain JSON so they
//! can be generated, checked in, and diffed like the paper's artifact
//! scripts. (De)serialization is hand-rolled over [`crate::json`] since
//! the workspace builds offline.

use crate::flow::{FireAxe, Platform};
use crate::json::{self, Value};
use fireaxe_ir::Circuit;
use fireaxe_ripper::{ChannelPolicy, PartitionGroup, PartitionMode, PartitionSpec, Selection};
use fireaxe_sim::{Backend, ObsSpec};
use fireaxe_transport::fault::FaultSpec;
use fireaxe_transport::reliable::RetryPolicy;
use std::collections::BTreeMap;

/// One partition group in a config file.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupConfig {
    /// Group name.
    pub name: String,
    /// Explicit instance paths (mutually exclusive with `router_indices`).
    pub instances: Vec<String>,
    /// NoC-partition-mode router indices (requires `routers` at the top
    /// level).
    pub router_indices: Vec<usize>,
    /// FAME-5 multi-threading.
    pub fame5: bool,
}

/// Deterministic fault-injection campaign (the `"fault"` object).
///
/// Rates are per-mille per physical transmission attempt; `down` lists
/// half-open `[start, end)` windows in per-link attempt-index space
/// (`end: null` means the link never comes back). Setting `fault` arms
/// the link reliability protocol even if `"reliability"` is omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master seed for the whole campaign.
    pub seed: u64,
    /// Token-drop probability, ‰ per attempt.
    pub drop_per_mille: u16,
    /// Bit-flip corruption probability, ‰ per attempt.
    pub corrupt_per_mille: u16,
    /// Duplication probability, ‰ per attempt.
    pub duplicate_per_mille: u16,
    /// Transient-stall probability, ‰ per attempt.
    pub stall_per_mille: u16,
    /// Maximum stall length in retry-timeout quanta.
    pub max_stall_quanta: u32,
    /// Hard link-down windows `[start, end)` in attempt indices.
    pub down: Vec<(u64, u64)>,
    /// Restrict `down` windows to one link (`None` = every link).
    pub down_link: Option<usize>,
}

/// Observability knobs (the `"obs"` object): event tracing, metric
/// sampling, and waveform capture for a run.
///
/// Output paths are written by the `fireaxe` binary relative to the
/// working directory; the library surface only converts these knobs into
/// a [`fireaxe_sim::ObsSpec`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Chrome `trace_event` JSON output path (empty = no trace capture).
    pub trace_path: String,
    /// VCD waveform output path (empty = no waveform capture).
    pub vcd_path: String,
    /// Metric time-series output path; a `.csv` suffix selects CSV,
    /// anything else JSON (empty = series not written to a file).
    pub metrics_path: String,
    /// Signals to watch for the VCD: `"node:path"` pins a signal to one
    /// node, a bare path watches every node exposing it (empty = every
    /// node's output ports).
    pub signals: Vec<String>,
    /// Target cycles between metric samples (0 disables sampling).
    pub sample_interval: u64,
}

/// Distributed backend knobs (the `"net"` object): where the worker
/// processes listen and how patient the coordinator is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Worker addresses, 1 to one per partition: `host:port` for TCP or
    /// `unix:/path` for Unix-domain sockets. Worker `w` hosts the
    /// contiguous run of partitions `fireaxe_sim::placement` assigns it.
    /// Empty means the `fireaxe` binary self-spawns one worker per core
    /// (at most one per partition) on localhost.
    pub workers: Vec<String>,
    /// Bring-up patience per worker (connect + handshake), milliseconds.
    pub connect_timeout_ms: u64,
    /// Run-phase silence tolerated before `NetTimeout`, milliseconds.
    pub io_timeout_ms: u64,
    /// Times a dead worker may be respawned before the run degrades to
    /// `PartitionLost` (0 disables failover; recovery also requires a
    /// nonzero top-level `checkpoint_interval` and a self-spawned
    /// cluster, since only those workers can be relaunched).
    pub max_restarts: u32,
    /// Base delay before the first respawn attempt, milliseconds
    /// (doubles per consecutive attempt, capped at 16x).
    pub restart_backoff_ms: u64,
    /// Control-plane listen address for live cockpit clients
    /// (`host:port` or `unix:/path`; empty = no control listener).
    /// `fireaxe attach <addr>` connects here to peek/poke/pause a
    /// running cluster.
    pub control: String,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: Vec::new(),
            connect_timeout_ms: 10_000,
            io_timeout_ms: 10_000,
            max_restarts: 2,
            restart_backoff_ms: 50,
            control: String::new(),
        }
    }
}

/// Link reliability protocol knobs (the `"reliability"` object).
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityConfig {
    /// Retransmissions allowed per frame before `LinkDown`.
    pub max_retries: u32,
    /// Base retransmit timeout in sender host cycles (doubles per
    /// consecutive timeout).
    pub timeout_cycles: u64,
}

/// A complete run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Path to the textual-IR circuit, resolved relative to the config
    /// file's directory by the `fireaxe` binary (empty = caller supplies
    /// the circuit some other way, e.g. `--circuit`).
    pub circuit: String,
    /// `"exact"` or `"fast"`.
    pub mode: String,
    /// `"onprem-qsfp"`, `"cloud-f1"`, or `"host-managed"`.
    pub platform: String,
    /// Execution backend: `"des"` (deterministic discrete-event golden
    /// model, the default), `"threads"` / `"threads:<n>"` (partitions on
    /// one OS worker thread per available core, or on `n` workers; never
    /// more workers than partitions), or `"net"` (one OS process per
    /// partition over sockets). Parsed by
    /// [`Backend::from_str`][std::str::FromStr] — the same spelling the
    /// `--backend` CLI flag accepts.
    pub backend: String,
    /// Per-partition interpreter engine: `"compiled"` (word-packed
    /// tape, the default), `"reference"` (tree-walking golden model) or
    /// `"sliced"` (bit-sliced 64-lane tape). Parsed by
    /// [`ExecEngine::from_str`][std::str::FromStr] — the same spelling
    /// the `FIREAXE_ENGINE` environment variable and the `--engine` CLI
    /// flag accept.
    pub engine: String,
    /// Worker thread cap for the `"threads"` backend; `0` means one
    /// worker per available core. Either way a run uses at most one
    /// worker per partition.
    pub threads: usize,
    /// Bitstream frequency in MHz for all partitions.
    pub clock_mhz: f64,
    /// Per-partition clock overrides: `[partition index, MHz]` pairs.
    pub partition_clocks: Vec<(usize, f64)>,
    /// Router paths for NoC-partition-mode groups, in index order.
    pub routers: Vec<String>,
    /// Partition groups.
    pub groups: Vec<GroupConfig>,
    /// Enforce FPGA fit/topology checks before running.
    pub check_fit: bool,
    /// Fault-injection campaign (None = clean wires).
    pub fault: Option<FaultConfig>,
    /// Reliability protocol override (None = protocol defaults when
    /// `fault` is set, raw lossless links otherwise).
    pub reliability: Option<ReliabilityConfig>,
    /// Snapshot the simulation every N target cycles for rollback
    /// recovery (0 disables checkpointing).
    pub checkpoint_interval: u64,
    /// Rollback budget for recoverable `LinkDown` escalations.
    pub max_rollbacks: u32,
    /// Observability knobs (None = nothing observed).
    pub obs: Option<ObsConfig>,
    /// Distributed backend knobs (None = defaults when `backend` is
    /// `"net"`, ignored otherwise).
    pub net: Option<NetConfig>,
}

fn default_clock() -> f64 {
    30.0
}

/// Errors from config parsing/validation.
#[derive(Debug)]
pub enum ConfigError {
    /// JSON syntax or schema problem.
    Parse(String),
    /// Semantically invalid field value.
    Invalid {
        /// Offending field.
        field: &'static str,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Invalid { field, message } => {
                write!(f, "invalid config field `{field}`: {message}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

fn schema_err(field: &'static str, message: impl Into<String>) -> ConfigError {
    ConfigError::Invalid {
        field,
        message: message.into(),
    }
}

fn get_str(
    obj: &BTreeMap<String, Value>,
    field: &'static str,
) -> Result<Option<String>, ConfigError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| schema_err(field, "expected a string")),
    }
}

fn require_str(obj: &BTreeMap<String, Value>, field: &'static str) -> Result<String, ConfigError> {
    get_str(obj, field)?.ok_or_else(|| schema_err(field, "missing required field"))
}

fn get_usize(
    obj: &BTreeMap<String, Value>,
    field: &'static str,
) -> Result<Option<usize>, ConfigError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| schema_err(field, "expected a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(schema_err(field, "expected a non-negative integer"));
            }
            Ok(Some(n as usize))
        }
    }
}

fn get_u64(obj: &BTreeMap<String, Value>, field: &'static str) -> Result<Option<u64>, ConfigError> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| schema_err(field, "expected a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(schema_err(field, "expected a non-negative integer"));
            }
            Ok(Some(n as u64))
        }
    }
}

fn get_per_mille(obj: &BTreeMap<String, Value>, field: &'static str) -> Result<u16, ConfigError> {
    let v = get_u64(obj, field)?.unwrap_or(0);
    u16::try_from(v)
        .ok()
        .filter(|&p| p <= 1000)
        .ok_or_else(|| schema_err(field, format!("{v}‰ is not a per-mille rate (0..=1000)")))
}

impl FaultConfig {
    fn from_value(v: &Value) -> Result<Self, ConfigError> {
        let obj = v
            .as_object()
            .ok_or_else(|| schema_err("fault", "expected an object"))?;
        let mut down = Vec::new();
        if let Some(arr) = obj.get("down") {
            for pair in arr
                .as_array()
                .ok_or_else(|| schema_err("down", "expected an array of [start, end] pairs"))?
            {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| schema_err("down", "expected [start, end] pairs"))?;
                let start = pair[0]
                    .as_f64()
                    .filter(|n| *n >= 0.0)
                    .ok_or_else(|| schema_err("down", "start must be a non-negative number"))?;
                // `null` end = the window never closes (permanent outage).
                let end = match &pair[1] {
                    Value::Null => u64::MAX,
                    v => v
                        .as_f64()
                        .filter(|n| *n >= 0.0)
                        .ok_or_else(|| schema_err("down", "end must be a number or null"))?
                        as u64,
                };
                down.push((start as u64, end));
            }
        }
        Ok(FaultConfig {
            seed: get_u64(obj, "seed")?.unwrap_or(0),
            drop_per_mille: get_per_mille(obj, "drop_per_mille")?,
            corrupt_per_mille: get_per_mille(obj, "corrupt_per_mille")?,
            duplicate_per_mille: get_per_mille(obj, "duplicate_per_mille")?,
            stall_per_mille: get_per_mille(obj, "stall_per_mille")?,
            max_stall_quanta: get_u64(obj, "max_stall_quanta")?.unwrap_or(1) as u32,
            down,
            down_link: get_usize(obj, "down_link")?,
        })
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("seed".to_string(), Value::Number(self.seed as f64));
        let mille = [
            ("drop_per_mille", self.drop_per_mille),
            ("corrupt_per_mille", self.corrupt_per_mille),
            ("duplicate_per_mille", self.duplicate_per_mille),
            ("stall_per_mille", self.stall_per_mille),
        ];
        for (k, v) in mille {
            if v != 0 {
                m.insert(k.to_string(), Value::Number(f64::from(v)));
            }
        }
        if self.max_stall_quanta != 1 {
            m.insert(
                "max_stall_quanta".to_string(),
                Value::Number(f64::from(self.max_stall_quanta)),
            );
        }
        if !self.down.is_empty() {
            m.insert(
                "down".to_string(),
                Value::Array(
                    self.down
                        .iter()
                        .map(|&(s, e)| {
                            let end = if e == u64::MAX {
                                Value::Null
                            } else {
                                Value::Number(e as f64)
                            };
                            Value::Array(vec![Value::Number(s as f64), end])
                        })
                        .collect(),
                ),
            );
        }
        if let Some(link) = self.down_link {
            m.insert("down_link".to_string(), Value::Number(link as f64));
        }
        Value::Object(m)
    }
}

impl NetConfig {
    fn from_value(v: &Value) -> Result<Self, ConfigError> {
        let obj = v
            .as_object()
            .ok_or_else(|| schema_err("net", "expected an object"))?;
        if obj.contains_key("batch_cycles") {
            return Err(schema_err(
                "net.batch_cycles",
                "removed: a link's frames ship when its credit window is spent \
                 or when its worker goes quiescent; drop the key",
            ));
        }
        let mut workers = Vec::new();
        if let Some(arr) = obj.get("workers") {
            for item in arr
                .as_array()
                .ok_or_else(|| schema_err("workers", "expected an array of addresses"))?
            {
                workers.push(
                    item.as_str()
                        .ok_or_else(|| schema_err("workers", "expected an array of addresses"))?
                        .to_string(),
                );
            }
        }
        let defaults = NetConfig::default();
        Ok(NetConfig {
            workers,
            connect_timeout_ms: get_u64(obj, "connect_timeout_ms")?
                .unwrap_or(defaults.connect_timeout_ms),
            io_timeout_ms: get_u64(obj, "io_timeout_ms")?.unwrap_or(defaults.io_timeout_ms),
            max_restarts: match get_u64(obj, "max_restarts")? {
                Some(n) => u32::try_from(n).map_err(|_| {
                    schema_err("max_restarts", format!("{n} exceeds the u32 range"))
                })?,
                None => defaults.max_restarts,
            },
            restart_backoff_ms: get_u64(obj, "restart_backoff_ms")?
                .unwrap_or(defaults.restart_backoff_ms),
            control: get_str(obj, "control")?.unwrap_or_default(),
        })
    }

    fn to_value(&self) -> Value {
        let defaults = NetConfig::default();
        let mut m = BTreeMap::new();
        if !self.workers.is_empty() {
            m.insert(
                "workers".to_string(),
                Value::Array(
                    self.workers
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            );
        }
        if self.connect_timeout_ms != defaults.connect_timeout_ms {
            m.insert(
                "connect_timeout_ms".to_string(),
                Value::Number(self.connect_timeout_ms as f64),
            );
        }
        if self.io_timeout_ms != defaults.io_timeout_ms {
            m.insert(
                "io_timeout_ms".to_string(),
                Value::Number(self.io_timeout_ms as f64),
            );
        }
        if self.max_restarts != defaults.max_restarts {
            m.insert(
                "max_restarts".to_string(),
                Value::Number(f64::from(self.max_restarts)),
            );
        }
        if self.restart_backoff_ms != defaults.restart_backoff_ms {
            m.insert(
                "restart_backoff_ms".to_string(),
                Value::Number(self.restart_backoff_ms as f64),
            );
        }
        if !self.control.is_empty() {
            m.insert("control".to_string(), Value::String(self.control.clone()));
        }
        Value::Object(m)
    }
}

impl ReliabilityConfig {
    fn from_value(v: &Value) -> Result<Self, ConfigError> {
        let obj = v
            .as_object()
            .ok_or_else(|| schema_err("reliability", "expected an object"))?;
        let defaults = RetryPolicy::default();
        Ok(ReliabilityConfig {
            max_retries: get_u64(obj, "max_retries")?.unwrap_or(u64::from(defaults.max_retries))
                as u32,
            timeout_cycles: get_u64(obj, "timeout_cycles")?.unwrap_or(defaults.timeout_cycles),
        })
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert(
            "max_retries".to_string(),
            Value::Number(f64::from(self.max_retries)),
        );
        m.insert(
            "timeout_cycles".to_string(),
            Value::Number(self.timeout_cycles as f64),
        );
        Value::Object(m)
    }
}

impl ObsConfig {
    fn from_value(v: &Value) -> Result<Self, ConfigError> {
        let obj = v
            .as_object()
            .ok_or_else(|| schema_err("obs", "expected an object"))?;
        let mut signals = Vec::new();
        if let Some(arr) = obj.get("signals") {
            for item in arr
                .as_array()
                .ok_or_else(|| schema_err("signals", "expected an array of strings"))?
            {
                signals.push(
                    item.as_str()
                        .ok_or_else(|| schema_err("signals", "expected an array of strings"))?
                        .to_string(),
                );
            }
        }
        Ok(ObsConfig {
            trace_path: get_str(obj, "trace_path")?.unwrap_or_default(),
            vcd_path: get_str(obj, "vcd_path")?.unwrap_or_default(),
            metrics_path: get_str(obj, "metrics_path")?.unwrap_or_default(),
            signals,
            sample_interval: get_u64(obj, "sample_interval")?.unwrap_or(0),
        })
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        let paths = [
            ("trace_path", &self.trace_path),
            ("vcd_path", &self.vcd_path),
            ("metrics_path", &self.metrics_path),
        ];
        for (k, v) in paths {
            if !v.is_empty() {
                m.insert(k.to_string(), Value::String(v.clone()));
            }
        }
        if !self.signals.is_empty() {
            m.insert(
                "signals".to_string(),
                Value::Array(
                    self.signals
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            );
        }
        if self.sample_interval != 0 {
            m.insert(
                "sample_interval".to_string(),
                Value::Number(self.sample_interval as f64),
            );
        }
        Value::Object(m)
    }
}

impl GroupConfig {
    fn from_value(v: &Value) -> Result<Self, ConfigError> {
        let obj = v
            .as_object()
            .ok_or_else(|| schema_err("groups", "each group must be an object"))?;
        let mut instances = Vec::new();
        if let Some(arr) = obj.get("instances") {
            for item in arr
                .as_array()
                .ok_or_else(|| schema_err("instances", "expected an array of strings"))?
            {
                instances.push(
                    item.as_str()
                        .ok_or_else(|| schema_err("instances", "expected an array of strings"))?
                        .to_string(),
                );
            }
        }
        let mut router_indices = Vec::new();
        if let Some(arr) = obj.get("router_indices") {
            for item in arr
                .as_array()
                .ok_or_else(|| schema_err("router_indices", "expected an array of integers"))?
            {
                let n = item
                    .as_f64()
                    .ok_or_else(|| schema_err("router_indices", "expected an array of integers"))?;
                router_indices.push(n as usize);
            }
        }
        Ok(GroupConfig {
            name: require_str(obj, "name")?,
            instances,
            router_indices,
            fame5: obj.get("fame5").and_then(Value::as_bool).unwrap_or(false),
        })
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), Value::String(self.name.clone()));
        if !self.instances.is_empty() {
            m.insert(
                "instances".to_string(),
                Value::Array(
                    self.instances
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            );
        }
        if !self.router_indices.is_empty() {
            m.insert(
                "router_indices".to_string(),
                Value::Array(
                    self.router_indices
                        .iter()
                        .map(|&i| Value::Number(i as f64))
                        .collect(),
                ),
            );
        }
        m.insert("fame5".to_string(), Value::Bool(self.fame5));
        Value::Object(m)
    }
}

impl RunConfig {
    /// Parses a JSON config.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] on malformed JSON and
    /// [`ConfigError::Invalid`] on schema violations.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        let root = json::parse(text).map_err(|e| ConfigError::Parse(e.to_string()))?;
        let obj = root
            .as_object()
            .ok_or_else(|| ConfigError::Parse("top-level value must be an object".into()))?;

        let mut partition_clocks = Vec::new();
        if let Some(arr) = obj.get("partition_clocks") {
            for pair in arr
                .as_array()
                .ok_or_else(|| schema_err("partition_clocks", "expected an array of pairs"))?
            {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| schema_err("partition_clocks", "expected [index, mhz] pairs"))?;
                let idx = pair[0]
                    .as_f64()
                    .ok_or_else(|| schema_err("partition_clocks", "index must be a number"))?;
                let mhz = pair[1]
                    .as_f64()
                    .ok_or_else(|| schema_err("partition_clocks", "mhz must be a number"))?;
                partition_clocks.push((idx as usize, mhz));
            }
        }

        let mut routers = Vec::new();
        if let Some(arr) = obj.get("routers") {
            for item in arr
                .as_array()
                .ok_or_else(|| schema_err("routers", "expected an array of strings"))?
            {
                routers.push(
                    item.as_str()
                        .ok_or_else(|| schema_err("routers", "expected an array of strings"))?
                        .to_string(),
                );
            }
        }

        let groups = obj
            .get("groups")
            .ok_or_else(|| schema_err("groups", "missing required field"))?
            .as_array()
            .ok_or_else(|| schema_err("groups", "expected an array"))?
            .iter()
            .map(GroupConfig::from_value)
            .collect::<Result<Vec<_>, _>>()?;

        Ok(RunConfig {
            circuit: get_str(obj, "circuit")?.unwrap_or_default(),
            mode: require_str(obj, "mode")?,
            platform: require_str(obj, "platform")?,
            backend: get_str(obj, "backend")?.unwrap_or_else(|| "des".to_string()),
            engine: get_str(obj, "engine")?.unwrap_or_else(|| "compiled".to_string()),
            threads: get_usize(obj, "threads")?.unwrap_or(0),
            clock_mhz: obj
                .get("clock_mhz")
                .and_then(Value::as_f64)
                .unwrap_or_else(default_clock),
            partition_clocks,
            routers,
            groups,
            check_fit: obj
                .get("check_fit")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            fault: obj.get("fault").map(FaultConfig::from_value).transpose()?,
            reliability: obj
                .get("reliability")
                .map(ReliabilityConfig::from_value)
                .transpose()?,
            checkpoint_interval: get_u64(obj, "checkpoint_interval")?.unwrap_or(0),
            max_rollbacks: match get_u64(obj, "max_rollbacks")? {
                Some(n) => u32::try_from(n).map_err(|_| {
                    schema_err("max_rollbacks", format!("{n} exceeds the u32 range"))
                })?,
                None => 8,
            },
            obs: obj.get("obs").map(ObsConfig::from_value).transpose()?,
            net: obj.get("net").map(NetConfig::from_value).transpose()?,
        })
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        if !self.circuit.is_empty() {
            m.insert("circuit".to_string(), Value::String(self.circuit.clone()));
        }
        m.insert("mode".to_string(), Value::String(self.mode.clone()));
        m.insert("platform".to_string(), Value::String(self.platform.clone()));
        if self.backend != "des" {
            m.insert("backend".to_string(), Value::String(self.backend.clone()));
        }
        if self.engine != "compiled" {
            m.insert("engine".to_string(), Value::String(self.engine.clone()));
        }
        if self.threads != 0 {
            m.insert("threads".to_string(), Value::Number(self.threads as f64));
        }
        m.insert("clock_mhz".to_string(), Value::Number(self.clock_mhz));
        if !self.partition_clocks.is_empty() {
            m.insert(
                "partition_clocks".to_string(),
                Value::Array(
                    self.partition_clocks
                        .iter()
                        .map(|&(i, mhz)| {
                            Value::Array(vec![Value::Number(i as f64), Value::Number(mhz)])
                        })
                        .collect(),
                ),
            );
        }
        if !self.routers.is_empty() {
            m.insert(
                "routers".to_string(),
                Value::Array(
                    self.routers
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            );
        }
        m.insert(
            "groups".to_string(),
            Value::Array(self.groups.iter().map(GroupConfig::to_value).collect()),
        );
        m.insert("check_fit".to_string(), Value::Bool(self.check_fit));
        if let Some(fault) = &self.fault {
            m.insert("fault".to_string(), fault.to_value());
        }
        if let Some(rel) = &self.reliability {
            m.insert("reliability".to_string(), rel.to_value());
        }
        if self.checkpoint_interval != 0 {
            m.insert(
                "checkpoint_interval".to_string(),
                Value::Number(self.checkpoint_interval as f64),
            );
        }
        if self.max_rollbacks != 8 {
            m.insert(
                "max_rollbacks".to_string(),
                Value::Number(f64::from(self.max_rollbacks)),
            );
        }
        if let Some(obs) = &self.obs {
            m.insert("obs".to_string(), obs.to_value());
        }
        if let Some(net) = &self.net {
            m.insert("net".to_string(), net.to_value());
        }
        Value::Object(m).to_pretty()
    }

    /// Resolves the partition mode.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for unknown mode strings.
    pub fn partition_mode(&self) -> Result<PartitionMode, ConfigError> {
        match self.mode.as_str() {
            "exact" => Ok(PartitionMode::Exact),
            "fast" => Ok(PartitionMode::Fast),
            other => Err(ConfigError::Invalid {
                field: "mode",
                message: format!("`{other}` (expected `exact` or `fast`)"),
            }),
        }
    }

    /// Resolves the platform.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for unknown platform strings.
    pub fn platform(&self) -> Result<Platform, ConfigError> {
        match self.platform.as_str() {
            "onprem-qsfp" => Ok(Platform::OnPremQsfp),
            "cloud-f1" => Ok(Platform::CloudF1),
            "host-managed" => Ok(Platform::HostManaged),
            other => Err(ConfigError::Invalid {
                field: "platform",
                message: format!(
                    "`{other}` (expected `onprem-qsfp`, `cloud-f1`, or `host-managed`)"
                ),
            }),
        }
    }

    /// Resolves the execution backend through [`Backend`]'s `FromStr`
    /// (the single parser the CLI flag also uses). The legacy separate
    /// `"threads"` count field still applies when the backend string
    /// itself doesn't carry one.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for unknown backend strings.
    pub fn execution_backend(&self) -> Result<Backend, ConfigError> {
        let backend: Backend = self
            .backend
            .parse()
            .map_err(|e: String| schema_err("backend", e))?;
        Ok(match backend {
            Backend::Threads(0) if self.threads != 0 => Backend::Threads(self.threads),
            other => other,
        })
    }

    /// Resolves the interpreter execution engine through
    /// [`ExecEngine::from_str`][std::str::FromStr] (the single parser
    /// shared with `FIREAXE_ENGINE` and the `--engine` CLI flag).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for unknown engine names.
    pub fn execution_engine(&self) -> Result<fireaxe_ir::ExecEngine, ConfigError> {
        self.engine
            .parse()
            .map_err(|e: fireaxe_ir::IrError| schema_err("engine", e.to_string()))
    }

    /// Resolves and validates the fault-injection campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] when the rates sum past 1000‰ or
    /// a down window is empty.
    pub fn fault_spec(&self) -> Result<Option<FaultSpec>, ConfigError> {
        let Some(f) = &self.fault else {
            return Ok(None);
        };
        let spec = FaultSpec {
            seed: f.seed,
            drop_per_mille: f.drop_per_mille,
            corrupt_per_mille: f.corrupt_per_mille,
            duplicate_per_mille: f.duplicate_per_mille,
            stall_per_mille: f.stall_per_mille,
            max_stall_quanta: f.max_stall_quanta,
            down: f.down.clone(),
            down_link: f.down_link,
        };
        spec.validate()
            .map_err(|e| schema_err("fault", e.to_string()))?;
        Ok(Some(spec))
    }

    /// Resolves and validates the reliability protocol knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for a zero retransmit timeout.
    pub fn retry_policy(&self) -> Result<Option<RetryPolicy>, ConfigError> {
        let Some(r) = &self.reliability else {
            return Ok(None);
        };
        let policy = RetryPolicy {
            max_retries: r.max_retries,
            timeout_cycles: r.timeout_cycles,
        };
        policy
            .validate()
            .map_err(|e| schema_err("reliability", e.to_string()))?;
        Ok(Some(policy))
    }

    /// Resolves and validates the observability knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] when a metric output is requested
    /// without a sampling interval.
    pub fn obs_spec(&self) -> Result<Option<ObsSpec>, ConfigError> {
        let Some(o) = &self.obs else {
            return Ok(None);
        };
        if !o.metrics_path.is_empty() && o.sample_interval == 0 {
            return Err(schema_err(
                "obs",
                "metrics_path requires sample_interval > 0",
            ));
        }
        if !o.signals.is_empty() && o.vcd_path.is_empty() {
            return Err(schema_err("obs", "signals requires vcd_path"));
        }
        let spec = ObsSpec {
            sample_interval: o.sample_interval,
            vcd: !o.vcd_path.is_empty(),
            signals: o.signals.clone(),
        };
        Ok(spec.is_active().then_some(spec))
    }

    /// Builds the [`PartitionSpec`] this config describes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for ill-formed groups.
    pub fn partition_spec(&self) -> Result<PartitionSpec, ConfigError> {
        let mut groups = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            let selection = match (g.instances.is_empty(), g.router_indices.is_empty()) {
                (false, true) => Selection::Instances(g.instances.clone()),
                (true, false) => {
                    if self.routers.is_empty() {
                        return Err(ConfigError::Invalid {
                            field: "routers",
                            message: format!(
                                "group `{}` uses router_indices but no routers are listed",
                                g.name
                            ),
                        });
                    }
                    Selection::NocRouters {
                        routers: self.routers.clone(),
                        indices: g.router_indices.clone(),
                    }
                }
                _ => {
                    return Err(ConfigError::Invalid {
                        field: "groups",
                        message: format!(
                            "group `{}` must set exactly one of instances/router_indices",
                            g.name
                        ),
                    })
                }
            };
            groups.push(PartitionGroup {
                name: g.name.clone(),
                selection,
                fame5: g.fame5,
            });
        }
        Ok(PartitionSpec {
            mode: self.partition_mode()?,
            channel_policy: ChannelPolicy::Separated,
            groups,
        })
    }

    /// Instantiates the push-button flow for `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates config validation failures.
    pub fn to_flow(&self, circuit: Circuit) -> Result<FireAxe, ConfigError> {
        let mut fa = FireAxe::new(circuit, self.partition_spec()?)
            .platform(self.platform()?)
            .clock_mhz(self.clock_mhz)
            .backend(self.execution_backend()?)
            .checkpoint_interval(self.checkpoint_interval)
            .max_rollbacks(self.max_rollbacks);
        if let Some(spec) = self.fault_spec()? {
            fa = fa.fault_spec(spec);
        }
        if let Some(policy) = self.retry_policy()? {
            fa = fa.retry_policy(policy);
        }
        if let Some(spec) = self.obs_spec()? {
            fa = fa.observe(spec);
        }
        for (p, mhz) in &self.partition_clocks {
            fa = fa.partition_clock_mhz(*p, *mhz);
        }
        if self.check_fit {
            fa = fa.check_fit();
        }
        Ok(fa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "mode": "fast",
        "platform": "onprem-qsfp",
        "clock_mhz": 30.0,
        "groups": [
            { "name": "tiles", "instances": ["tile0", "tile1"], "fame5": true }
        ]
    }"#;

    #[test]
    fn parses_and_roundtrips() {
        let cfg = RunConfig::from_json(EXAMPLE).unwrap();
        assert_eq!(cfg.partition_mode().unwrap(), PartitionMode::Fast);
        assert_eq!(cfg.platform().unwrap(), Platform::OnPremQsfp);
        assert_eq!(cfg.execution_backend().unwrap(), Backend::Des);
        let spec = cfg.partition_spec().unwrap();
        assert_eq!(spec.groups.len(), 1);
        assert!(spec.groups[0].fame5);
        let back = RunConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn rejects_bad_mode_and_platform() {
        let mut cfg = RunConfig::from_json(EXAMPLE).unwrap();
        cfg.mode = "turbo".into();
        assert!(cfg.partition_mode().is_err());
        cfg.platform = "mainframe".into();
        assert!(cfg.platform().is_err());
        cfg.backend = "warp".into();
        assert!(cfg.execution_backend().is_err());
    }

    #[test]
    fn engine_field_parses_roundtrips_and_rejects() {
        use fireaxe_ir::ExecEngine;
        let cfg = RunConfig::from_json(EXAMPLE).unwrap();
        assert_eq!(cfg.engine, "compiled");
        assert_eq!(cfg.execution_engine().unwrap(), ExecEngine::Compiled);
        // Non-default spellings round-trip through the serializer and
        // share the FIREAXE_ENGINE parser.
        for (spelling, expect) in [
            ("reference", ExecEngine::Reference),
            ("tree", ExecEngine::Reference),
            ("sliced", ExecEngine::Sliced),
            ("slice", ExecEngine::Sliced),
            ("tape", ExecEngine::Compiled),
        ] {
            let mut cfg = RunConfig::from_json(EXAMPLE).unwrap();
            cfg.engine = spelling.to_string();
            assert_eq!(cfg.execution_engine().unwrap(), expect, "{spelling}");
            let back = RunConfig::from_json(&cfg.to_json()).unwrap();
            assert_eq!(back, cfg, "{spelling}");
        }
        let mut cfg = RunConfig::from_json(EXAMPLE).unwrap();
        cfg.engine = "warp".into();
        let err = cfg.execution_engine().unwrap_err();
        assert!(
            err.to_string().contains("unknown execution engine"),
            "{err}"
        );
    }

    #[test]
    fn backend_field_parses_threads() {
        let text = r#"{
            "mode": "exact", "platform": "onprem-qsfp",
            "backend": "threads", "threads": 4,
            "groups": [{ "name": "g", "instances": ["a"] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        assert_eq!(cfg.execution_backend().unwrap(), Backend::Threads(4));
        let back = RunConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn backend_field_shares_the_cli_parser() {
        // Every spelling `--backend` accepts works in the JSON field,
        // because both go through the one `Backend::from_str`.
        let mut cfg = RunConfig::from_json(EXAMPLE).unwrap();
        for (spelling, expect) in [
            ("des", Backend::Des),
            ("threads", Backend::Threads(0)),
            ("threads:3", Backend::Threads(3)),
            ("net", Backend::Net),
        ] {
            cfg.backend = spelling.to_string();
            cfg.threads = 0;
            assert_eq!(cfg.execution_backend().unwrap(), expect, "{spelling}");
        }
        // An inline count wins over the legacy separate field.
        cfg.backend = "threads:2".into();
        cfg.threads = 7;
        assert_eq!(cfg.execution_backend().unwrap(), Backend::Threads(2));
        // Parse errors name the field, like every other config error.
        cfg.backend = "threads:lots".into();
        assert!(matches!(
            cfg.execution_backend(),
            Err(ConfigError::Invalid {
                field: "backend",
                ..
            })
        ));
    }

    #[test]
    fn net_knobs_parse_and_roundtrip() {
        let text = r#"{
            "mode": "exact", "platform": "host-managed",
            "backend": "net",
            "net": {
                "workers": ["127.0.0.1:7001", "unix:/tmp/w1.sock"],
                "connect_timeout_ms": 2500,
                "control": "127.0.0.1:9100"
            },
            "groups": [{ "name": "g", "instances": ["a"] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        assert_eq!(cfg.execution_backend().unwrap(), Backend::Net);
        let net = cfg.net.as_ref().unwrap();
        assert_eq!(net.workers.len(), 2);
        assert_eq!(net.connect_timeout_ms, 2500);
        assert_eq!(net.io_timeout_ms, NetConfig::default().io_timeout_ms);
        assert_eq!(net.control, "127.0.0.1:9100");
        let back = RunConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
        // The control listener defaults off and stays out of the
        // serialized form when unset.
        assert_eq!(NetConfig::default().control, "");

        // Self-spawn shorthand: `"net"` backend with no addresses.
        let cfg = RunConfig::from_json(
            r#"{
                "mode": "exact", "platform": "host-managed", "backend": "net",
                "groups": [{ "name": "g", "instances": ["a"] }]
            }"#,
        )
        .unwrap();
        assert!(cfg.net.is_none());
        assert_eq!(cfg.execution_backend().unwrap(), Backend::Net);
    }

    #[test]
    fn a_removed_net_key_is_refused_by_name() {
        let err = RunConfig::from_json(
            r#"{
                "mode": "exact", "platform": "host-managed", "backend": "net",
                "net": { "batch_cycles": 64 },
                "groups": [{ "name": "g", "instances": ["a"] }]
            }"#,
        )
        .unwrap_err();
        match &err {
            ConfigError::Invalid { field, message } => {
                assert_eq!(*field, "net.batch_cycles");
                assert!(message.starts_with("removed"), "{message}");
            }
            other => panic!("expected a typed field error, got {other:?}"),
        }
        assert!(err.to_string().contains("`net.batch_cycles`"), "{err}");
    }

    #[test]
    fn failover_knobs_parse_validate_and_roundtrip() {
        let text = r#"{
            "mode": "exact", "platform": "host-managed", "backend": "net",
            "checkpoint_interval": 250,
            "net": { "max_restarts": 5, "restart_backoff_ms": 10 },
            "groups": [{ "name": "g", "instances": ["a"] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        assert_eq!(cfg.checkpoint_interval, 250);
        let net = cfg.net.as_ref().unwrap();
        assert_eq!(net.max_restarts, 5);
        assert_eq!(net.restart_backoff_ms, 10);
        let back = RunConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);

        // Omitted knobs fall back to defaults (failover on, 2 restarts).
        let cfg = RunConfig::from_json(
            r#"{
                "mode": "exact", "platform": "host-managed", "backend": "net",
                "net": {},
                "groups": [{ "name": "g", "instances": ["a"] }]
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.net.as_ref().unwrap().max_restarts, 2);
        assert_eq!(cfg.net.as_ref().unwrap().restart_backoff_ms, 50);
        assert_eq!(cfg.checkpoint_interval, 0, "checkpointing defaults off");

        // Range violations are typed errors naming the offending field,
        // not silent `as u32` truncations.
        let err = RunConfig::from_json(
            r#"{
                "mode": "exact", "platform": "host-managed",
                "net": { "max_restarts": 4294967296 },
                "groups": [{ "name": "g", "instances": ["a"] }]
            }"#,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::Invalid {
                    field: "max_restarts",
                    ..
                }
            ),
            "{err}"
        );
        let err = RunConfig::from_json(
            r#"{
                "mode": "exact", "platform": "host-managed",
                "max_rollbacks": 4294967296,
                "groups": [{ "name": "g", "instances": ["a"] }]
            }"#,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::Invalid {
                    field: "max_rollbacks",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_ambiguous_group() {
        let text = r#"{
            "mode": "exact", "platform": "cloud-f1",
            "groups": [{ "name": "g", "instances": ["a"], "router_indices": [0] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        assert!(matches!(
            cfg.partition_spec(),
            Err(ConfigError::Invalid {
                field: "groups",
                ..
            })
        ));
    }

    #[test]
    fn noc_groups_need_router_list() {
        let text = r#"{
            "mode": "exact", "platform": "onprem-qsfp",
            "groups": [{ "name": "g", "router_indices": [0, 1] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        assert!(matches!(
            cfg.partition_spec(),
            Err(ConfigError::Invalid {
                field: "routers",
                ..
            })
        ));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(
            RunConfig::from_json("{ not json"),
            Err(ConfigError::Parse(_))
        ));
        assert!(matches!(
            RunConfig::from_json(r#"{"mode": "exact", "platform": "cloud-f1"}"#),
            Err(ConfigError::Invalid {
                field: "groups",
                ..
            })
        ));
    }

    const FAULTY: &str = r#"{
        "mode": "exact", "platform": "onprem-qsfp",
        "backend": "threads",
        "checkpoint_interval": 8,
        "max_rollbacks": 16,
        "fault": {
            "seed": 99,
            "drop_per_mille": 50,
            "corrupt_per_mille": 25,
            "duplicate_per_mille": 10,
            "stall_per_mille": 5,
            "max_stall_quanta": 3,
            "down": [[10, 30], [100, null]],
            "down_link": 0
        },
        "reliability": { "max_retries": 6, "timeout_cycles": 16 },
        "groups": [{ "name": "t", "instances": ["tile0"] }]
    }"#;

    #[test]
    fn fault_and_reliability_knobs_parse_and_roundtrip() {
        let cfg = RunConfig::from_json(FAULTY).unwrap();
        let spec = cfg.fault_spec().unwrap().unwrap();
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.drop_per_mille, 50);
        assert_eq!(spec.down, vec![(10, 30), (100, u64::MAX)]);
        assert_eq!(spec.down_link, Some(0));
        let policy = cfg.retry_policy().unwrap().unwrap();
        assert_eq!(policy.max_retries, 6);
        assert_eq!(policy.timeout_cycles, 16);
        assert_eq!(cfg.checkpoint_interval, 8);
        assert_eq!(cfg.max_rollbacks, 16);
        let back = RunConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn fault_validation_errors_surface() {
        // Rates that sum past 1000‰ are rejected with the field named.
        let mut cfg = RunConfig::from_json(FAULTY).unwrap();
        cfg.fault.as_mut().unwrap().drop_per_mille = 999;
        assert!(matches!(
            cfg.fault_spec(),
            Err(ConfigError::Invalid { field: "fault", .. })
        ));
        // A single rate past 1000‰ never even parses.
        let bad = FAULTY.replace("\"drop_per_mille\": 50", "\"drop_per_mille\": 1500");
        assert!(matches!(
            RunConfig::from_json(&bad),
            Err(ConfigError::Invalid {
                field: "drop_per_mille",
                ..
            })
        ));
        // Zero retransmit timeout is invalid.
        let mut cfg = RunConfig::from_json(FAULTY).unwrap();
        cfg.reliability.as_mut().unwrap().timeout_cycles = 0;
        assert!(matches!(
            cfg.retry_policy(),
            Err(ConfigError::Invalid {
                field: "reliability",
                ..
            })
        ));
        // Empty down windows are caught by spec validation.
        let mut cfg = RunConfig::from_json(FAULTY).unwrap();
        cfg.fault.as_mut().unwrap().down = vec![(30, 10)];
        assert!(matches!(
            cfg.fault_spec(),
            Err(ConfigError::Invalid { field: "fault", .. })
        ));
    }

    #[test]
    fn obs_knobs_parse_validate_and_roundtrip() {
        let text = r#"{
            "circuit": "soc.fir",
            "mode": "exact", "platform": "onprem-qsfp",
            "obs": {
                "trace_path": "out.trace.json",
                "vcd_path": "out.vcd",
                "metrics_path": "out.csv",
                "signals": ["rest:o", "t_rsp"],
                "sample_interval": 25
            },
            "groups": [{ "name": "t", "instances": ["tile0"] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        assert_eq!(cfg.circuit, "soc.fir");
        let spec = cfg.obs_spec().unwrap().unwrap();
        assert_eq!(spec.sample_interval, 25);
        assert!(spec.vcd);
        assert_eq!(
            spec.signals,
            vec!["rest:o".to_string(), "t_rsp".to_string()]
        );
        let back = RunConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);

        // Metric output without a cadence is a field-named error.
        let mut bad = cfg.clone();
        bad.obs.as_mut().unwrap().sample_interval = 0;
        assert!(matches!(
            bad.obs_spec(),
            Err(ConfigError::Invalid { field: "obs", .. })
        ));
        // A watch list without a waveform destination is meaningless.
        let mut bad = cfg.clone();
        bad.obs.as_mut().unwrap().vcd_path.clear();
        assert!(matches!(
            bad.obs_spec(),
            Err(ConfigError::Invalid { field: "obs", .. })
        ));
        // An inactive spec resolves to None.
        let mut quiet = cfg;
        quiet.obs = Some(ObsConfig::default());
        assert!(quiet.obs_spec().unwrap().is_none());
    }

    #[test]
    fn flow_from_config_survives_faults() {
        use fireaxe_ir::build::ModuleBuilder;
        let mut tile = ModuleBuilder::new("Tile");
        let req = tile.input("req", 8);
        let rsp = tile.output("rsp", 8);
        let r = tile.reg("r", 8, 0);
        tile.connect_sig(&r, &req);
        tile.connect_sig(&rsp, &r);
        let mut top = ModuleBuilder::new("Soc");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("tile0", "Tile");
        top.connect_inst("tile0", "req", &i);
        let rsp = top.inst_port("tile0", "rsp");
        top.connect_sig(&o, &rsp);
        let circuit =
            fireaxe_ir::Circuit::from_modules("Soc", vec![top.finish(), tile.finish()], "Soc");

        let cfg = RunConfig::from_json(FAULTY).unwrap();
        let (design, mut sim) = cfg.to_flow(circuit).unwrap().build().unwrap();
        assert_eq!(design.partitions.len(), 2);
        // The transient [10, 30) outage is ridden out by rollback;
        // the run completes despite the noisy links.
        sim.run_target_cycles_recovering(40).unwrap();
        assert_eq!(sim.target_cycles(), 40);
    }

    #[test]
    fn flow_from_config_runs() {
        use fireaxe_ir::build::ModuleBuilder;
        let mut tile = ModuleBuilder::new("Tile");
        let req = tile.input("req", 8);
        let rsp = tile.output("rsp", 8);
        let r = tile.reg("r", 8, 0);
        tile.connect_sig(&r, &req);
        tile.connect_sig(&rsp, &r);
        let mut top = ModuleBuilder::new("Soc");
        let i = top.input("i", 8);
        let o = top.output("o", 8);
        top.inst("tile0", "Tile");
        top.connect_inst("tile0", "req", &i);
        let rsp = top.inst_port("tile0", "rsp");
        top.connect_sig(&o, &rsp);
        let circuit =
            fireaxe_ir::Circuit::from_modules("Soc", vec![top.finish(), tile.finish()], "Soc");

        let text = r#"{
            "mode": "exact", "platform": "cloud-f1",
            "groups": [{ "name": "t", "instances": ["tile0"] }]
        }"#;
        let cfg = RunConfig::from_json(text).unwrap();
        let (design, mut sim) = cfg.to_flow(circuit).unwrap().build().unwrap();
        assert_eq!(design.partitions.len(), 2);
        sim.run_target_cycles(50).unwrap();
    }
}
