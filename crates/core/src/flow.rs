//! The push-button FireAxe flow.
//!
//! [`FireAxe`] strings the whole stack together the way the paper's
//! manager does: take a monolithic circuit and a partition spec, run
//! FireRipper, check per-partition FPGA fit, pick a platform (transport +
//! clocks), and hand back a running [`DistributedSim`] — with the SoC
//! behavior factory pre-registered so generated designs work out of the
//! box.

use fireaxe_fpga::{fit, FitReport, FpgaSpec};
use fireaxe_ir::Circuit;
use fireaxe_ripper::{compile, PartitionSpec, PartitionedDesign};
use fireaxe_sim::{Backend, BehaviorRegistry, Bridge, DistributedSim, ObsSpec, SimBuilder};
use fireaxe_transport::fault::FaultSpec;
use fireaxe_transport::reliable::RetryPolicy;
use fireaxe_transport::LinkModel;
use std::collections::BTreeMap;

/// Simulation platform: where the FPGAs live (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// On-premises Alveo U250 cluster with QSFP direct-attach cables.
    OnPremQsfp,
    /// AWS EC2 F1 with peer-to-peer PCIe.
    CloudF1,
    /// Any platform, tokens through the host CPUs (slow but universal).
    HostManaged,
}

impl Platform {
    /// The transport model this platform uses.
    pub fn transport(self) -> LinkModel {
        match self {
            Platform::OnPremQsfp => LinkModel::qsfp_aurora(),
            Platform::CloudF1 => LinkModel::peer_pcie(),
            Platform::HostManaged => LinkModel::host_pcie(),
        }
    }

    /// The FPGA populating this platform.
    pub fn fpga(self) -> FpgaSpec {
        match self {
            Platform::OnPremQsfp => FpgaSpec::alveo_u250(),
            Platform::CloudF1 | Platform::HostManaged => FpgaSpec::aws_vu9p(),
        }
    }
}

/// Errors from the push-button flow.
#[derive(Debug)]
pub enum FlowError {
    /// FireRipper failed.
    Ripper(fireaxe_ripper::RipperError),
    /// Engine construction/run failed.
    Sim(fireaxe_sim::SimError),
    /// A partition does not fit (or route) on the platform FPGA.
    DoesNotFit {
        /// Partition name.
        partition: String,
        /// The failing fit report.
        report: FitReport,
    },
    /// The partition link graph cannot be cabled with the platform's
    /// QSFP cages (paper §VIII-C).
    Topology {
        /// The violating partitions.
        violations: Vec<crate::topology::TopologyViolation>,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Ripper(e) => write!(f, "FireRipper: {e}"),
            FlowError::Sim(e) => write!(f, "engine: {e}"),
            FlowError::DoesNotFit { partition, report } => {
                write!(f, "partition `{partition}` fails the FPGA build: {report}")
            }
            FlowError::Topology { violations } => {
                write!(f, "interconnect topology is not cable-able: ")?;
                for v in violations {
                    write!(f, "{v}; ")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<fireaxe_ripper::RipperError> for FlowError {
    fn from(e: fireaxe_ripper::RipperError) -> Self {
        FlowError::Ripper(e)
    }
}

impl From<fireaxe_sim::SimError> for FlowError {
    fn from(e: fireaxe_sim::SimError) -> Self {
        FlowError::Sim(e)
    }
}

/// Builder for a complete FireAxe simulation.
pub struct FireAxe {
    circuit: Circuit,
    spec: PartitionSpec,
    platform: Platform,
    clock_mhz: f64,
    partition_clocks: BTreeMap<usize, f64>,
    bridges: BTreeMap<usize, Box<dyn Bridge>>,
    check_fit: bool,
    extra_behaviors: Option<BehaviorRegistry>,
    backend: Backend,
    fault_spec: Option<FaultSpec>,
    retry_policy: Option<RetryPolicy>,
    checkpoint_interval: u64,
    max_rollbacks: u32,
    obs: ObsSpec,
}

impl std::fmt::Debug for FireAxe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FireAxe")
            .field("circuit", &self.circuit.name)
            .field("platform", &self.platform)
            .finish()
    }
}

impl FireAxe {
    /// Starts a flow for `circuit` partitioned per `spec`.
    pub fn new(circuit: Circuit, spec: PartitionSpec) -> Self {
        FireAxe {
            circuit,
            spec,
            platform: Platform::OnPremQsfp,
            clock_mhz: fireaxe_sim::DEFAULT_CLOCK_MHZ,
            partition_clocks: BTreeMap::new(),
            bridges: BTreeMap::new(),
            check_fit: false,
            extra_behaviors: None,
            backend: Backend::Des,
            fault_spec: None,
            retry_policy: None,
            checkpoint_interval: 0,
            max_rollbacks: fireaxe_sim::DEFAULT_MAX_ROLLBACKS,
            obs: ObsSpec::default(),
        }
    }

    /// Turns on run observation: metric sampling every
    /// `spec.sample_interval` target cycles and/or VCD signal capture
    /// (see [`fireaxe_sim::ObsSpec`] and `DistributedSim::obs_report`).
    pub fn observe(mut self, spec: ObsSpec) -> Self {
        self.obs = spec;
        self
    }

    /// Arms deterministic fault injection on every inter-partition link
    /// (which also turns on the reliability protocol).
    pub fn fault_spec(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = Some(spec);
        self
    }

    /// Overrides the reliability protocol's retry/timeout knobs (also
    /// turns the protocol on, even with a quiet fault spec).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// Snapshot the simulation every `cycles` target cycles so
    /// `DistributedSim::run_target_cycles_recovering` can roll back and
    /// replay through recoverable link outages (0 disables).
    pub fn checkpoint_interval(mut self, cycles: u64) -> Self {
        self.checkpoint_interval = cycles;
        self
    }

    /// Rollback budget for recoverable `LinkDown` escalations.
    pub fn max_rollbacks(mut self, rollbacks: u32) -> Self {
        self.max_rollbacks = rollbacks;
        self
    }

    /// Selects the execution backend for cycle-budgeted runs (default:
    /// the deterministic DES golden model). `Backend::Threads` runs each
    /// partition thread on its own OS thread with bit-identical target
    /// results.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the platform (default: on-premises QSFP).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Bitstream frequency for every partition (default 30 MHz).
    pub fn clock_mhz(mut self, mhz: f64) -> Self {
        self.clock_mhz = mhz;
        self
    }

    /// Per-partition bitstream frequency override.
    pub fn partition_clock_mhz(mut self, partition: usize, mhz: f64) -> Self {
        self.partition_clocks.insert(partition, mhz);
        self
    }

    /// Attaches a bridge to a node (flat index; see
    /// [`PartitionedDesign::node_index`]).
    pub fn bridge(mut self, node: usize, bridge: Box<dyn Bridge>) -> Self {
        self.bridges.insert(node, bridge);
        self
    }

    /// Enforce that every partition passes the FPGA fit/congestion check
    /// before building the simulation.
    pub fn check_fit(mut self) -> Self {
        self.check_fit = true;
        self
    }

    /// Adds user behavior factories on top of the built-in SoC models.
    pub fn behaviors(mut self, registry: BehaviorRegistry) -> Self {
        self.extra_behaviors = Some(registry);
        self
    }

    /// Runs FireRipper only (the "quick feedback" step).
    ///
    /// # Errors
    ///
    /// Propagates compiler failures.
    pub fn compile(&self) -> Result<PartitionedDesign, FlowError> {
        Ok(compile(&self.circuit, &self.spec)?)
    }

    /// Compiles, fit-checks, and builds the running simulation.
    ///
    /// # Errors
    ///
    /// Propagates compiler, fit, and engine failures.
    pub fn build(mut self) -> Result<(PartitionedDesign, DistributedSim), FlowError> {
        let design = compile(&self.circuit, &self.spec)?;
        if self.check_fit {
            let fpga = self.platform.fpga();
            for p in &design.partitions {
                for t in &p.threads {
                    let report = fit(&t.circuit, &fpga);
                    if !report.routable {
                        return Err(FlowError::DoesNotFit {
                            partition: t.name.clone(),
                            report,
                        });
                    }
                }
            }
            // Direct-attach cabling must respect the QSFP cage count;
            // PCIe-based platforms route through the host or switch.
            if self.platform == Platform::OnPremQsfp {
                if let Err(violations) = crate::topology::check_qsfp_topology(&design, &fpga) {
                    return Err(FlowError::Topology { violations });
                }
            }
        }
        let mut registry = self.extra_behaviors.take().unwrap_or_default();
        register_soc_behaviors(&mut registry);
        let mut builder = SimBuilder::new(&design)
            .transport(self.platform.transport())
            .clock_mhz(self.clock_mhz)
            .backend(self.backend)
            .behaviors(registry)
            .checkpoint_interval(self.checkpoint_interval)
            .max_rollbacks(self.max_rollbacks)
            .observe(self.obs.clone());
        if let Some(spec) = self.fault_spec.take() {
            builder = builder.fault_spec(spec);
        }
        if let Some(policy) = self.retry_policy.take() {
            builder = builder.retry_policy(policy);
        }
        for (p, mhz) in &self.partition_clocks {
            builder = builder.partition_clock_mhz(*p, *mhz);
        }
        for (node, bridge) in self.bridges {
            builder = builder.bridge(node, bridge);
        }
        let sim = builder.build()?;
        Ok((design, sim))
    }
}

/// Registers the `fireaxe-soc` behavioral models (tiles, BOOM pipeline
/// halves, subsystem, crossbar) as a fallback factory: any behavior key
/// whose name `fireaxe_soc::make_behavior` recognizes is served by the
/// built-in models; user-registered named factories take precedence.
pub fn register_soc_behaviors(registry: &mut BehaviorRegistry) {
    registry.register_fallback(fireaxe_soc::make_behavior);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireaxe_transport::TransportKind;

    #[test]
    fn platform_transport_mapping() {
        assert_eq!(
            Platform::OnPremQsfp.transport().kind,
            TransportKind::QsfpAurora
        );
        assert_eq!(Platform::CloudF1.transport().kind, TransportKind::PeerPcie);
        assert_eq!(
            Platform::HostManaged.transport().kind,
            TransportKind::HostPcie
        );
        assert_eq!(Platform::OnPremQsfp.fpga().name, "Xilinx Alveo U250");
        assert_eq!(Platform::CloudF1.fpga().name, "AWS F1 VU9P");
    }

    #[test]
    fn flow_errors_display() {
        let e = FlowError::DoesNotFit {
            partition: "big".into(),
            report: fireaxe_fpga::fit_estimate(
                fireaxe_fpga::ResourceEstimate {
                    luts: 9_999_999,
                    ..Default::default()
                },
                &FpgaSpec::alveo_u250(),
            ),
        };
        let msg = e.to_string();
        assert!(msg.contains("big") && msg.contains("does not fit"));
    }

    #[test]
    fn soc_behavior_fallback_resolves_keys() {
        let mut reg = BehaviorRegistry::new();
        register_soc_behaviors(&mut reg);
        // Registered factories are exercised through SimBuilder elsewhere;
        // here just confirm the umbrella fallback handles a tile key.
        assert!(fireaxe_soc::make_behavior("boom_tile?id=3", "tile3").is_some());
        assert!(fireaxe_soc::make_behavior("warp_drive", "x").is_none());
    }
}
