//! Manager-style run configuration.
//!
//! FireSim drives simulations from declarative config files
//! (`config_runtime.yaml` etc.); this module provides the equivalent for
//! FireAxe-rs: a JSON [`RunConfig`] describing the partitioning,
//! platform, clocks, and execution backend of a run, convertible into a
//! [`FireAxe`] flow or into the [`WireSettings`] of a cluster run.
//! Configs are plain JSON so they can be generated, checked in, and
//! diffed like the paper's artifact scripts.
//!
//! Each config object is one `config_struct!` table: its fields are
//! listed once, as `key: Type = default` (no default means required),
//! and the parser, the printer (which leaves out a field equal to its
//! default) and the defaults all come from that list. How a value reads
//! and writes is decided by its type, once per type (`Field`). A wrong
//! type, an integer that the field or a JSON number cannot hold exactly,
//! a missing required field and an unknown key are all errors naming
//! the key. The `fault` and `reliability` objects are the transport's
//! own [`FaultSpec`] and [`RetryPolicy`], defaults included.

use crate::flow::{FireAxe, Platform};
use crate::json::{self, Value};
use fireaxe_ir::Circuit;
use fireaxe_net::WireSettings;
use fireaxe_ripper::{ChannelPolicy, PartitionGroup, PartitionMode, PartitionSpec, Selection};
use fireaxe_sim::{Backend, ObsSpec};
use fireaxe_transport::fault::FaultSpec;
use fireaxe_transport::reliable::RetryPolicy;
use std::collections::BTreeMap;

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
    /// A key no config object has, as a dotted path (`fault.drop`).
    UnknownKey(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Invalid { field, message } => {
                write!(f, "invalid config field `{field}`: {message}")
            }
            ConfigError::UnknownKey(key) => write!(f, "unknown config key `{key}`"),
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

/// Keys a config object once had, refused with what replaced them.
const REMOVED_KEYS: &[(&str, &str)] = &[
    (
        "net.batch_cycles",
        "removed: a link's frames ship when its credit window is spent \
         or when its worker goes quiescent; drop the key",
    ),
    (
        "engine",
        "removed: partitions always run on the compiled tape; drop the key \
         (the reference and sliced engines are library choices, \
         `Interpreter::with_engine`)",
    ),
    (
        "threads",
        "removed: write the worker count into the backend, \
         `\"backend\": \"threads:<n>\"`",
    ),
];

/// The error for `key` in the object found under `at` (empty at the
/// top level).
fn unknown_key(at: &str, key: &str) -> ConfigError {
    let path = if at.is_empty() {
        key.to_string()
    } else {
        format!("{at}.{key}")
    };
    match REMOVED_KEYS.iter().find(|(removed, _)| *removed == path) {
        Some(&(field, message)) => schema_err(field, message),
        None => ConfigError::UnknownKey(path),
    }
}

/// How a field's type reads from and writes to JSON; `key` names the
/// field in errors.
trait Field: Sized {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError>;
    fn write(&self) -> Value;
}

impl Field for String {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| schema_err(key, "expected a string"))
    }
    fn write(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Field for bool {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        v.as_bool()
            .ok_or_else(|| schema_err(key, "expected true or false"))
    }
    fn write(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Field for f64 {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        v.as_f64()
            .ok_or_else(|| schema_err(key, "expected a number"))
    }
    fn write(&self) -> Value {
        Value::Number(*self)
    }
}

/// The largest integer a JSON number (an `f64`) holds exactly.
const MAX_EXACT: u64 = (1 << 53) - 1;

macro_rules! uint_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| schema_err(key, "expected a number"))?;
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(schema_err(key, "expected a non-negative integer"));
                }
                let max = MAX_EXACT.min(<$t>::MAX as u64);
                if n > max as f64 {
                    return Err(schema_err(key, format!("{n} is out of range (0..={max})")));
                }
                Ok(n as $t)
            }
            fn write(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}
uint_field!(u16, u32, u64, usize);

impl<T: Field> Field for Option<T> {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        T::read(v, key).map(Some)
    }
    fn write(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::write)
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        v.as_array()
            .ok_or_else(|| schema_err(key, "expected an array"))?
            .iter()
            .map(|item| T::read(item, key))
            .collect()
    }
    fn write(&self) -> Value {
        Value::Array(self.iter().map(T::write).collect())
    }
}

/// The two items of a `[a, b]` pair.
fn pair<'v>(v: &'v Value, key: &'static str) -> Result<(&'v Value, &'v Value), ConfigError> {
    match v.as_array() {
        Some([a, b]) => Ok((a, b)),
        _ => Err(schema_err(key, "expected [a, b] pairs")),
    }
}

/// A `[partition index, MHz]` clock override.
impl Field for (u32, f64) {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        let (index, mhz) = pair(v, key)?;
        Ok((u32::read(index, key)?, f64::read(mhz, key)?))
    }
    fn write(&self) -> Value {
        Value::Array(vec![self.0.write(), self.1.write()])
    }
}

/// A `[start, end)` link-down window; a `null` end never closes.
impl Field for (u64, u64) {
    fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
        let (start, end) = pair(v, key)?;
        let end = match end {
            Value::Null => u64::MAX,
            end => u64::read(end, key)?,
        };
        Ok((u64::read(start, key)?, end))
    }
    fn write(&self) -> Value {
        let end = match self.1 {
            u64::MAX => Value::Null,
            end => end.write(),
        };
        Value::Array(vec![self.0.write(), end])
    }
}

/// Refuses a fault rate past 1000‰.
fn per_mille(rate: &u16) -> Result<(), String> {
    if *rate > 1000 {
        return Err(format!("{rate}‰ is not a per-mille rate (0..=1000)"));
    }
    Ok(())
}

/// Declares a config object's table once. The struct form defines the
/// struct and its `Default`: a field with `= default` may be left out, a
/// field without one is required (and starts empty in `Default`). The
/// `impl` form lists the fields of a struct defined elsewhere, whose own
/// `Default` gives every default; `=> check` vets a parsed value. Both
/// make the object a [`Field`]: parsing refuses unknown keys, printing
/// leaves out a field equal to its default.
macro_rules! config_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $f:ident: $ty:ty $(= $default:expr)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $f: $ty, )*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $( $f: config_struct!(@default $($default)?), )* }
            }
        }

        config_struct!(@field $name {
            $( $f required(config_struct!(@required $($default)?)) check() ),*
        });
    };
    (impl $name:ident { $( $f:ident $(=> $check:expr)? ),* $(,)? }) => {
        config_struct!(@field $name { $( $f required(false) check($($check)?) ),* });
    };
    (@default) => { Default::default() };
    (@default $default:expr) => { $default };
    (@required) => { true };
    (@required $default:expr) => { false };
    (@field $name:ident {
        $( $f:ident required($required:expr) check($($check:expr)?) ),*
    }) => {
        impl Field for $name {
            fn read(v: &Value, key: &'static str) -> Result<Self, ConfigError> {
                let obj = v
                    .as_object()
                    .ok_or_else(|| schema_err(key, "expected an object"))?;
                let mut out = Self::default();
                for (k, v) in obj {
                    match k.as_str() {
                        $( stringify!($f) => {
                            out.$f = Field::read(v, stringify!($f))?;
                            $( $check(&out.$f).map_err(|m| schema_err(stringify!($f), m))?; )?
                        } )*
                        _ => return Err(unknown_key(key, k)),
                    }
                }
                $( if $required && !obj.contains_key(stringify!($f)) {
                    return Err(schema_err(stringify!($f), "missing required field"));
                } )*
                Ok(out)
            }

            fn write(&self) -> Value {
                let defaults = Self::default();
                let mut m = BTreeMap::new();
                $( if $required || self.$f != defaults.$f {
                    m.insert(stringify!($f).to_string(), self.$f.write());
                } )*
                Value::Object(m)
            }
        }
    };
}

config_struct! {
    /// One partition group in a config file.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GroupConfig {
        /// Group name.
        pub name: String,
        /// Explicit instance paths (mutually exclusive with `router_indices`).
        pub instances: Vec<String> = Vec::new(),
        /// NoC-partition-mode router indices (requires `routers` at the top
        /// level).
        pub router_indices: Vec<usize> = Vec::new(),
        /// FAME-5 multi-threading.
        pub fame5: bool = false,
    }
}

// The `"fault"` object: rates are per-mille per physical transmission
// attempt; `down` lists half-open `[start, end)` windows in per-link
// attempt-index space (`end: null` means the link never comes back).
// Setting `fault` arms the link reliability protocol even if
// `"reliability"` is omitted.
config_struct! {
    impl FaultSpec {
        seed,
        drop_per_mille => per_mille,
        corrupt_per_mille => per_mille,
        duplicate_per_mille => per_mille,
        stall_per_mille => per_mille,
        max_stall_quanta,
        down,
        down_link,
    }
}

config_struct! {
    impl RetryPolicy { max_retries, timeout_cycles }
}

config_struct! {
    /// Observability knobs (the `"obs"` object): event tracing, metric
    /// sampling, and waveform capture for a run.
    ///
    /// Output paths are written by the `fireaxe` binary relative to the
    /// working directory; the library surface only converts these knobs into
    /// a [`fireaxe_sim::ObsSpec`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ObsConfig {
        /// Chrome `trace_event` JSON output path (empty = no trace capture).
        pub trace_path: String = String::new(),
        /// VCD waveform output path (empty = no waveform capture).
        pub vcd_path: String = String::new(),
        /// Metric time-series output path; a `.csv` suffix selects CSV,
        /// anything else JSON (empty = series not written to a file).
        pub metrics_path: String = String::new(),
        /// Signals to watch for the VCD: `"node:path"` pins a signal to one
        /// node, a bare path watches every node exposing it (empty = every
        /// node's output ports).
        pub signals: Vec<String> = Vec::new(),
        /// Target cycles between metric samples (0 disables sampling).
        pub sample_interval: u64 = 0,
    }
}

config_struct! {
    /// Distributed backend knobs (the `"net"` object): where the worker
    /// processes listen and how patient the coordinator is.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NetConfig {
        /// Worker addresses, 1 to one per partition: `host:port` for TCP or
        /// `unix:/path` for Unix-domain sockets. Worker `w` hosts the
        /// contiguous run of partitions `fireaxe_sim::placement` assigns it.
        /// Empty means the `fireaxe` binary self-spawns one worker per core
        /// (at most one per partition) on localhost.
        pub workers: Vec<String> = Vec::new(),
        /// Bring-up patience per worker (connect + handshake), milliseconds.
        pub connect_timeout_ms: u64 = fireaxe_net::DEFAULT_CONNECT_TIMEOUT_MS,
        /// Run-phase silence tolerated before `NetTimeout`, milliseconds.
        pub io_timeout_ms: u64 = fireaxe_net::DEFAULT_IO_TIMEOUT_MS,
        /// Times a dead worker may be respawned before the run degrades to
        /// `PartitionLost` (0 disables failover; recovery also requires a
        /// nonzero top-level `checkpoint_interval` and a self-spawned
        /// cluster, since only those workers can be relaunched).
        pub max_restarts: u32 = fireaxe_net::DEFAULT_MAX_RESTARTS,
        /// Base delay before the first respawn attempt, milliseconds
        /// (doubles per consecutive attempt, capped at 16x).
        pub restart_backoff_ms: u64 = fireaxe_net::DEFAULT_RESTART_BACKOFF_MS,
        /// Control-plane listen address for live cockpit clients
        /// (`host:port` or `unix:/path`; empty = no control listener).
        /// `fireaxe attach <addr>` connects here to peek/poke/pause a
        /// running cluster.
        pub control: String = String::new(),
    }
}

config_struct! {
    /// A complete run configuration. `Default` leaves the required
    /// `mode`, `platform` and `groups` empty.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunConfig {
        /// Path to the textual-IR circuit, resolved relative to the config
        /// file's directory by the `fireaxe` binary (empty = caller supplies
        /// the circuit some other way, e.g. `--circuit`).
        pub circuit: String = String::new(),
        /// `"exact"` or `"fast"`.
        pub mode: String,
        /// `"onprem-qsfp"`, `"cloud-f1"`, or `"host-managed"`: the link
        /// model of the DES backend. A threads or net run has no virtual
        /// clock and ignores it, like `clock_mhz` and `partition_clocks`.
        pub platform: String,
        /// Execution backend: `"des"` (deterministic discrete-event golden
        /// model, the default), `"threads"` / `"threads:<n>"` (partitions on
        /// one OS worker thread per available core, or on `n` workers; never
        /// more workers than partitions), or `"net"` (one OS process per
        /// partition over sockets). Parsed by
        /// [`Backend::from_str`][std::str::FromStr] — the same spelling the
        /// `--backend` CLI flag accepts.
        pub backend: String = "des".to_string(),
        /// Bitstream frequency in MHz for all partitions (DES model only).
        pub clock_mhz: f64 = fireaxe_sim::DEFAULT_CLOCK_MHZ,
        /// Per-partition clock overrides: `[partition index, MHz]` pairs
        /// (DES model only).
        pub partition_clocks: Vec<(u32, f64)> = Vec::new(),
        /// Router paths for NoC-partition-mode groups, in index order.
        pub routers: Vec<String> = Vec::new(),
        /// Partition groups.
        pub groups: Vec<GroupConfig>,
        /// Enforce FPGA fit/topology checks before running.
        pub check_fit: bool = false,
        /// Fault-injection campaign (None = clean wires). Setting it arms
        /// the link reliability protocol even without `reliability`.
        pub fault: Option<FaultSpec> = None,
        /// Reliability protocol override (None = protocol defaults when
        /// `fault` is set, raw lossless links otherwise).
        pub reliability: Option<RetryPolicy> = None,
        /// Snapshot the simulation every N target cycles for rollback
        /// recovery (0 disables checkpointing).
        pub checkpoint_interval: u64 = 0,
        /// Rollback budget for recoverable `LinkDown` escalations.
        pub max_rollbacks: u32 = fireaxe_sim::DEFAULT_MAX_ROLLBACKS,
        /// Observability knobs (None = nothing observed).
        pub obs: Option<ObsConfig> = None,
        /// Distributed backend knobs (None = defaults when `backend` is
        /// `"net"`, ignored otherwise).
        pub net: Option<NetConfig> = None,
    }
}

impl RunConfig {
    /// Parses a JSON config.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Parse`] on malformed JSON,
    /// [`ConfigError::UnknownKey`] on a key no config object has and
    /// [`ConfigError::Invalid`] on other schema violations.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        let root = json::parse(text).map_err(|e| ConfigError::Parse(e.to_string()))?;
        if root.as_object().is_none() {
            return Err(ConfigError::Parse(
                "top-level value must be an object".into(),
            ));
        }
        RunConfig::read(&root, "")
    }

    /// Serializes to pretty JSON, leaving out fields at their defaults.
    pub fn to_json(&self) -> String {
        self.write().to_pretty()
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
    /// (the single parser the CLI flag also uses).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for unknown backend strings.
    pub fn execution_backend(&self) -> Result<Backend, ConfigError> {
        self.backend
            .parse()
            .map_err(|e: String| schema_err("backend", e))
    }

    /// Validates the fault-injection campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] when the rates sum past 1000‰ or
    /// a down window is empty.
    pub fn fault_spec(&self) -> Result<Option<FaultSpec>, ConfigError> {
        if let Some(spec) = &self.fault {
            spec.validate()
                .map_err(|e| schema_err("fault", e.to_string()))?;
        }
        Ok(self.fault.clone())
    }

    /// Validates the reliability protocol knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] for a zero retransmit timeout.
    pub fn retry_policy(&self) -> Result<Option<RetryPolicy>, ConfigError> {
        if let Some(policy) = &self.reliability {
            policy
                .validate()
                .map_err(|e| schema_err("reliability", e.to_string()))?;
        }
        Ok(self.reliability)
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
            fa = fa.partition_clock_mhz(*p as usize, *mhz);
        }
        if self.check_fit {
            fa = fa.check_fit();
        }
        Ok(fa)
    }

    /// The cluster-wide run settings a coordinator ships to every
    /// worker, read from the same fields the in-process backends use.
    /// The DES model's platform and clocks are not among them: a net run
    /// has no virtual clock. The platform is still checked, so a
    /// misspelt one is refused on every path.
    ///
    /// # Errors
    ///
    /// Propagates config validation failures.
    pub fn wire_settings(&self) -> Result<WireSettings, ConfigError> {
        if self.fault.is_some() {
            return Err(ConfigError::Invalid {
                field: "fault",
                message: "a net run does not schedule modeled link faults (real-socket loss \
                          is exercised by the fault proxy in the fireaxe-net tests): drop the \
                          object, or run in-process with backend des|threads"
                    .into(),
            });
        }
        self.platform()?;
        let obs = self.obs_spec()?.unwrap_or_default();
        Ok(WireSettings {
            retry: self.retry_policy()?.unwrap_or_default(),
            sample_interval: obs.sample_interval,
            vcd: obs.vcd,
            signals: obs.signals,
            io_timeout_ms: self
                .net
                .as_ref()
                .map_or(fireaxe_net::DEFAULT_IO_TIMEOUT_MS, |n| n.io_timeout_ms),
            // The same knob Des/Threads honor arms cluster checkpointing
            // here: every worker snapshots at the shared cycle barrier.
            checkpoint_interval: self.checkpoint_interval,
        })
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

    /// The top-level keys a config no longer has, each with a value it
    /// once took and the replacement its refusal names.
    const REMOVED_TOP_KEYS: [(&str, &str, &str); 2] = [
        ("engine", r#""reference""#, "compiled tape"),
        ("threads", "4", "threads:<n>"),
    ];

    #[test]
    fn the_removed_engine_and_threads_keys_are_refused_by_name() {
        for (key, value, replacement) in REMOVED_TOP_KEYS {
            let err =
                RunConfig::from_json(&splice(&format!(r#", "{key}": {value}"#), "")).unwrap_err();
            match &err {
                ConfigError::Invalid { field, message } => {
                    assert_eq!(*field, key);
                    assert!(message.starts_with("removed"), "{message}");
                    assert!(message.contains(replacement), "{message}");
                }
                other => panic!("expected a typed field error, got {other:?}"),
            }
        }
    }

    #[test]
    fn backend_field_parses_threads() {
        let text = r#"{
            "mode": "exact", "platform": "onprem-qsfp",
            "backend": "threads:4",
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
            assert_eq!(cfg.execution_backend().unwrap(), expect, "{spelling}");
        }
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

    #[test]
    fn wire_settings_carry_the_config() {
        let cfg = RunConfig::from_json(
            r#"{
                "mode": "exact", "platform": "cloud-f1", "backend": "net",
                "clock_mhz": 45.0, "partition_clocks": [[1, 20.0]],
                "reliability": { "max_retries": 3, "timeout_cycles": 9 },
                "checkpoint_interval": 64,
                "obs": { "vcd_path": "w.vcd", "signals": ["t:o"], "sample_interval": 10 },
                "net": { "io_timeout_ms": 1234 },
                "groups": [{ "name": "g", "instances": ["a"] }]
            }"#,
        )
        .unwrap();
        let s = cfg.wire_settings().unwrap();
        assert_eq!(s.retry, cfg.retry_policy().unwrap().unwrap());
        assert_eq!(s.checkpoint_interval, 64);
        let obs = cfg.obs_spec().unwrap().unwrap();
        assert_eq!(
            (s.sample_interval, s.vcd, s.signals),
            (obs.sample_interval, obs.vcd, obs.signals)
        );
        assert_eq!(s.io_timeout_ms, 1234);

        // Unset knobs keep the wire defaults.
        let bare = RunConfig::from_json(EXAMPLE)
            .unwrap()
            .wire_settings()
            .unwrap();
        let defaults = WireSettings::default();
        assert_eq!(bare.retry, defaults.retry);
        assert_eq!(bare.io_timeout_ms, defaults.io_timeout_ms);
        assert_eq!(
            (bare.sample_interval, bare.vcd, bare.checkpoint_interval),
            (0, false, 0)
        );

        // No net entry point schedules modeled faults: refused by name.
        let faulty = RunConfig::from_json(&splice(r#", "fault": { "seed": 7 }"#, "")).unwrap();
        assert!(
            matches!(
                faulty.wire_settings(),
                Err(ConfigError::Invalid { field: "fault", .. })
            ),
            "{:?}",
            faulty.wire_settings()
        );
    }

    // ------------------------------------------------------------------
    // Frozen config corpus: every in-repo config, every JSON literal of
    // the tests above, and malformed rows per field. An accepted row
    // freezes a field-by-field dump, a rejected one its error variant
    // and field. `CONFIG_CORPUS_DUMP=<file>` writes the rendered corpus
    // for a diff against `tests/golden/config_corpus.txt`.
    // ------------------------------------------------------------------

    const CORPUS_GOLDEN: &str = include_str!("../../../tests/golden/config_corpus.txt");

    /// A valid config with `top` spliced into the root object and
    /// `group` into its one group (each empty or starting with `, `).
    fn splice(top: &str, group: &str) -> String {
        format!(
            r#"{{ "mode": "exact", "platform": "onprem-qsfp",
                 "groups": [{{ "name": "g", "instances": ["a"]{group} }}]{top} }}"#
        )
    }

    /// `key: value` placed at `at`: the root (`""`), the group
    /// (`"groups"`) or a nested object (`"fault"`, `"net"`, ...).
    fn field_row(at: &str, key: &str, value: &str) -> (String, String) {
        let kv = format!(r#", "{key}": {value}"#);
        let text = match at {
            "" => splice(&kv, ""),
            "groups" => splice("", &kv),
            obj => splice(&format!(r#", "{obj}": {{ "{key}": {value} }}"#), ""),
        };
        let name = if at.is_empty() {
            format!("{key} = {value}")
        } else {
            format!("{at}.{key} = {value}")
        };
        (name, text)
    }

    /// The value kinds of the config fields, each with its malformed
    /// spellings.
    fn bad_values(kind: &str) -> &'static [&'static str] {
        match kind {
            "str" => &["5", "true"],
            "bool" => &[r#""yes""#, "1"],
            "f64" => &[r#""100""#, "true"],
            "u64" => &[r#""5""#, "-1", "2.5", "9007199254740993"],
            "u32" => &[r#""5""#, "-1", "2.5", "4294967296"],
            "mille" => &[r#""5""#, "-1", "2.5", "1001", "65536"],
            "opt_usize" => &[r#""5""#, "-1", "2.5", "9007199254740993", "null"],
            "strs" => &["5", r#""a""#, "[5]"],
            "usizes" => &["5", r#"["0"]"#, "[-1]", "[2.7]"],
            "clocks" => &[
                "5",
                "[5]",
                "[[0]]",
                r#"[["0", 10.0]]"#,
                "[[-1, 10.0]]",
                "[[2.7, 10.0]]",
                r#"[[0, "10"]]"#,
            ],
            "windows" => &[
                "5",
                "[[1]]",
                r#"[["1", 2]]"#,
                "[[-1, 5]]",
                "[[1.5, 5]]",
                "[[1, -5]]",
                "[[1, 2.5]]",
                r#"[[1, "5"]]"#,
                "[[9007199254740993, null]]",
            ],
            "obj" => &["5", r#""x""#, "null", "[]"],
            other => panic!("no kind `{other}`"),
        }
    }

    /// Every config field: where it sits, its key, its kind.
    const FIELDS: &[(&str, &str, &str)] = &[
        ("", "circuit", "str"),
        ("", "mode", "str"),
        ("", "platform", "str"),
        ("", "backend", "str"),
        ("", "clock_mhz", "f64"),
        ("", "partition_clocks", "clocks"),
        ("", "routers", "strs"),
        ("", "check_fit", "bool"),
        ("", "fault", "obj"),
        ("", "reliability", "obj"),
        ("", "checkpoint_interval", "u64"),
        ("", "max_rollbacks", "u32"),
        ("", "obs", "obj"),
        ("", "net", "obj"),
        ("groups", "name", "str"),
        ("groups", "instances", "strs"),
        ("groups", "router_indices", "usizes"),
        ("groups", "fame5", "bool"),
        ("fault", "seed", "u64"),
        ("fault", "drop_per_mille", "mille"),
        ("fault", "corrupt_per_mille", "mille"),
        ("fault", "duplicate_per_mille", "mille"),
        ("fault", "stall_per_mille", "mille"),
        ("fault", "max_stall_quanta", "u32"),
        ("fault", "down", "windows"),
        ("fault", "down_link", "opt_usize"),
        ("reliability", "max_retries", "u32"),
        ("reliability", "timeout_cycles", "u64"),
        ("obs", "trace_path", "str"),
        ("obs", "vcd_path", "str"),
        ("obs", "metrics_path", "str"),
        ("obs", "signals", "strs"),
        ("obs", "sample_interval", "u64"),
        ("net", "workers", "strs"),
        ("net", "connect_timeout_ms", "u64"),
        ("net", "io_timeout_ms", "u64"),
        ("net", "max_restarts", "u32"),
        ("net", "restart_backoff_ms", "u64"),
        ("net", "control", "str"),
    ];

    /// The faulty_noc example's config, with its router list filled in.
    fn faulty_noc_literal() -> String {
        let backend = "threads";
        let router_list = r#""soc.r0", "soc.r1", "soc.r2", "soc.r3""#;
        format!(
            r#"{{
        "mode": "exact",
        "platform": "onprem-qsfp",
        "backend": "{backend}",
        "routers": [{router_list}],
        "groups": [
            {{ "name": "fpga0", "router_indices": [0, 1] }},
            {{ "name": "fpga1", "router_indices": [2, 3] }}
        ],
        "fault": {{
            "seed": 7,
            "drop_per_mille": 100,
            "corrupt_per_mille": 50,
            "duplicate_per_mille": 50,
            "down": [[8, 24]],
            "down_link": 0
        }},
        "reliability": {{ "max_retries": 3, "timeout_cycles": 8 }},
        "checkpoint_interval": 16,
        "max_rollbacks": 16
    }}"#
        )
    }

    fn corpus() -> Vec<(String, String)> {
        let net = |body: &str| {
            format!(
                r#"{{ "mode": "exact", "platform": "host-managed", "backend": "net",
                     {body} "groups": [{{ "name": "g", "instances": ["a"] }}] }}"#
            )
        };
        let mut rows: Vec<(String, String)> = [
            ("demo/run.json", include_str!("../../../demo/run.json")),
            (
                "demo/run_faulty.json",
                include_str!("../../../demo/run_faulty.json"),
            ),
            ("test EXAMPLE", EXAMPLE),
            ("test FAULTY", FAULTY),
            (
                "test threads",
                r#"{
            "mode": "exact", "platform": "onprem-qsfp",
            "backend": "threads:4",
            "groups": [{ "name": "g", "instances": ["a"] }]
        }"#,
            ),
            (
                "test ambiguous group",
                r#"{
            "mode": "exact", "platform": "cloud-f1",
            "groups": [{ "name": "g", "instances": ["a"], "router_indices": [0] }]
        }"#,
            ),
            (
                "test noc group",
                r#"{
            "mode": "exact", "platform": "onprem-qsfp",
            "groups": [{ "name": "g", "router_indices": [0, 1] }]
        }"#,
            ),
            ("test not json", "{ not json"),
            (
                "test no groups",
                r#"{"mode": "exact", "platform": "cloud-f1"}"#,
            ),
            (
                "test obs",
                r#"{
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
        }"#,
            ),
            (
                "test flow",
                r#"{
            "mode": "exact", "platform": "cloud-f1",
            "groups": [{ "name": "t", "instances": ["tile0"] }]
        }"#,
            ),
            ("top-level array", "[]"),
            (
                "every field set",
                r#"{
            "circuit": "c.fir", "mode": "fast", "platform": "cloud-f1",
            "backend": "threads:2",
            "clock_mhz": 45.5, "partition_clocks": [[1, 20.0], [0, 12.5]],
            "routers": ["r0", "r1"],
            "groups": [
                { "name": "a", "router_indices": [1, 0], "fame5": true },
                { "name": "b", "instances": ["x", "y"] }
            ],
            "check_fit": true,
            "fault": {
                "seed": 9007199254740991, "drop_per_mille": 1, "corrupt_per_mille": 2,
                "duplicate_per_mille": 3, "stall_per_mille": 4, "max_stall_quanta": 4294967295,
                "down": [[0, 1], [5, null]], "down_link": 3
            },
            "reliability": { "max_retries": 4294967295, "timeout_cycles": 7 },
            "checkpoint_interval": 12, "max_rollbacks": 4294967295,
            "obs": {
                "trace_path": "t.json", "vcd_path": "w.vcd", "metrics_path": "m.csv",
                "signals": ["s"], "sample_interval": 9
            },
            "net": {
                "workers": ["unix:/w0"], "connect_timeout_ms": 1, "io_timeout_ms": 2,
                "max_restarts": 0, "restart_backoff_ms": 3, "control": "unix:/c"
            }
        }"#,
            ),
            (
                "empty objects",
                r#"{ "mode": "exact", "platform": "onprem-qsfp", "groups": [],
                "fault": {}, "reliability": {}, "obs": {}, "net": {} }"#,
            ),
        ]
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect();
        rows.push(("examples/faulty_noc.rs".into(), faulty_noc_literal()));
        rows.push((
            "test fault drop 1500".into(),
            FAULTY.replace("\"drop_per_mille\": 50", "\"drop_per_mille\": 1500"),
        ));
        for (name, body) in [
            (
                "test net knobs",
                r#""net": { "workers": ["127.0.0.1:7001", "unix:/tmp/w1.sock"],
                    "connect_timeout_ms": 2500, "control": "127.0.0.1:9100" },"#,
            ),
            ("test net self-spawn", ""),
            ("test net batch_cycles", r#""net": { "batch_cycles": 64 },"#),
            (
                "test failover",
                r#""checkpoint_interval": 250,
                    "net": { "max_restarts": 5, "restart_backoff_ms": 10 },"#,
            ),
            ("test failover defaults", r#""net": {},"#),
            (
                "test max_restarts range",
                r#""net": { "max_restarts": 4294967296 },"#,
            ),
            (
                "test max_rollbacks range",
                r#""max_rollbacks": 4294967296,"#,
            ),
        ] {
            rows.push((name.into(), net(body)));
        }
        let group = r#""groups": [{ "name": "g", "instances": ["a"] }]"#;
        for (name, text) in [
            (
                "missing mode",
                format!(r#"{{ "platform": "onprem-qsfp", {group} }}"#),
            ),
            (
                "missing platform",
                format!(r#"{{ "mode": "exact", {group} }}"#),
            ),
            (
                "missing groups",
                r#"{ "mode": "exact", "platform": "onprem-qsfp" }"#.into(),
            ),
            (
                "missing groups.name",
                splice("", "").replace(r#""name": "g", "#, ""),
            ),
        ] {
            rows.push((name.into(), text));
        }
        for &(at, key, kind) in FIELDS {
            for value in bad_values(kind) {
                rows.push(field_row(at, key, value));
            }
        }
        for (key, value, _) in REMOVED_TOP_KEYS {
            rows.push(field_row("", key, value));
        }
        for at in ["", "groups", "fault", "reliability", "obs", "net"] {
            let key = if at.is_empty() {
                "chekpoint_interval"
            } else {
                "bogus"
            };
            rows.push(field_row(at, key, "16"));
        }
        rows
    }

    /// Field-by-field dump of a parsed config. It names fields only, so
    /// it reads any struct with these field names.
    fn dump(c: &RunConfig) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "circuit={:?} mode={:?} platform={:?} backend={:?} \
             clock_mhz={:?} partition_clocks={:?} routers={:?} check_fit={} \
             checkpoint_interval={} max_rollbacks={}\n",
            c.circuit,
            c.mode,
            c.platform,
            c.backend,
            c.clock_mhz,
            c.partition_clocks,
            c.routers,
            c.check_fit,
            c.checkpoint_interval,
            c.max_rollbacks
        );
        for g in &c.groups {
            let _ = writeln!(
                s,
                "group name={:?} instances={:?} router_indices={:?} fame5={}",
                g.name, g.instances, g.router_indices, g.fame5
            );
        }
        if let Some(f) = &c.fault {
            let _ = writeln!(
                s,
                "fault seed={} drop_per_mille={} corrupt_per_mille={} duplicate_per_mille={} \
                 stall_per_mille={} max_stall_quanta={} down={:?} down_link={:?}",
                f.seed,
                f.drop_per_mille,
                f.corrupt_per_mille,
                f.duplicate_per_mille,
                f.stall_per_mille,
                f.max_stall_quanta,
                f.down,
                f.down_link
            );
        }
        if let Some(r) = &c.reliability {
            let _ = writeln!(
                s,
                "reliability max_retries={} timeout_cycles={}",
                r.max_retries, r.timeout_cycles
            );
        }
        if let Some(o) = &c.obs {
            let _ = writeln!(
                s,
                "obs trace_path={:?} vcd_path={:?} metrics_path={:?} signals={:?} \
                 sample_interval={}",
                o.trace_path, o.vcd_path, o.metrics_path, o.signals, o.sample_interval
            );
        }
        if let Some(n) = &c.net {
            let _ = writeln!(
                s,
                "net workers={:?} connect_timeout_ms={} io_timeout_ms={} max_restarts={} \
                 restart_backoff_ms={} control={:?}",
                n.workers,
                n.connect_timeout_ms,
                n.io_timeout_ms,
                n.max_restarts,
                n.restart_backoff_ms,
                n.control
            );
        }
        s
    }

    #[test]
    fn config_corpus_matches_its_frozen_outcomes() {
        let mut text = String::new();
        for (name, json) in corpus() {
            text.push_str(&format!("== {name}\n"));
            match RunConfig::from_json(&json) {
                Ok(cfg) => {
                    let back = RunConfig::from_json(&cfg.to_json())
                        .unwrap_or_else(|e| panic!("`{name}` does not re-parse: {e}"));
                    assert_eq!(back, cfg, "`{name}` does not round-trip");
                    text.push_str(&dump(&cfg));
                }
                Err(ConfigError::Invalid { field, .. }) => {
                    text.push_str(&format!("rejected Invalid field={field}\n"));
                }
                Err(ConfigError::Parse(_)) => text.push_str("rejected Parse\n"),
                Err(ConfigError::UnknownKey(key)) => {
                    text.push_str(&format!("rejected UnknownKey key={key}\n"));
                }
            }
        }
        if let Ok(path) = std::env::var("CONFIG_CORPUS_DUMP") {
            std::fs::write(path, &text).unwrap();
        }
        let frozen: Vec<&str> = CORPUS_GOLDEN.split("== ").skip(1).collect();
        let got: Vec<&str> = text.split("== ").skip(1).collect();
        for (g, f) in got.iter().zip(&frozen) {
            assert_eq!(g, f, "config corpus row moved");
        }
        assert_eq!(got.len(), frozen.len(), "config corpus size moved");
    }
}
