//! Partition specifications: what the user hands FireRipper.
//!
//! A [`PartitionSpec`] names the partitioning mode (paper §III-A), the
//! channel policy (used to demonstrate the Fig. 2a deadlock), and one
//! [`PartitionGroup`] per extracted FPGA. The design's remainder (the
//! "rest of the SoC") implicitly becomes one more partition.

/// Partitioning mode (paper §III-A): the speed/fidelity trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionMode {
    /// Cycle-exact with respect to the unmodified target RTL. Requires
    /// combinational dependency chains of length ≤ 2 across the boundary;
    /// costs two inter-FPGA crossings per target cycle.
    #[default]
    Exact,
    /// Cycle-approximate: boundaries must be latency-insensitive; seed
    /// tokens plus skid-buffer/valid-gating boundary rewrites yield one
    /// crossing per target cycle (≈2× faster).
    Fast,
}

fireaxe_ir::wire_enum!(PartitionMode, "partition mode" { 0 => Exact, 1 => Fast });

impl std::fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionMode::Exact => write!(f, "exact-mode"),
            PartitionMode::Fast => write!(f, "fast-mode"),
        }
    }
}

/// How boundary ports are aggregated into LI-BDN channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelPolicy {
    /// Separate source/sink channels (paper Fig. 2b): deadlock-free.
    #[default]
    Separated,
    /// One channel per direction (paper Fig. 2a): deadlocks whenever the
    /// boundary carries combinational logic. Kept for reproducing the
    /// paper's deadlock discussion; never use in production.
    Monolithic,
}

fireaxe_ir::wire_enum!(ChannelPolicy, "channel policy" { 0 => Separated, 1 => Monolithic });

/// How a group's modules are selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Explicit instance paths (instance names from the top, joined with
    /// `.`): the default fine-grained method.
    Instances(Vec<String>),
    /// NoC-partition-mode (paper §III-B / Fig. 4): the user names router
    /// node indices; FireRipper grows the set by absorbing modules that
    /// are exclusively connected to it (protocol converters, CDCs, tiles).
    NocRouters {
        /// Instance paths of **all** router nodes, in index order.
        routers: Vec<String>,
        /// Indices of the routers to extract into this partition.
        indices: Vec<usize>,
    },
}

fireaxe_ir::wire_enum!(Selection, "selection tag" {
    0 => Instances(paths: Vec<String>),
    1 => NocRouters { routers: Vec<String>, indices: Vec<usize> },
});

/// One extracted partition (one FPGA's worth of target design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionGroup {
    /// Name used for the wrapper module and reports.
    pub name: String,
    /// Module selection.
    pub selection: Selection,
    /// Apply FAME-5 multi-threading to the group's duplicate modules
    /// (paper §VI-B). Requires the group to consist of N independent
    /// instances of one module.
    pub fame5: bool,
}

fireaxe_ir::wire_struct! {
    PartitionGroup { name: String, fame5: bool, selection: Selection }
}

impl PartitionGroup {
    /// An explicit-instance group without FAME-5.
    pub fn instances(name: impl Into<String>, paths: Vec<String>) -> Self {
        PartitionGroup {
            name: name.into(),
            selection: Selection::Instances(paths),
            fame5: false,
        }
    }

    /// Enables FAME-5 threading on this group.
    pub fn with_fame5(mut self) -> Self {
        self.fame5 = true;
        self
    }
}

fireaxe_ir::wire_struct! {
    /// The complete user input to FireRipper.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PartitionSpec {
        /// Partitioning mode.
        pub mode: PartitionMode,
        /// Channel aggregation policy.
        pub channel_policy: ChannelPolicy,
        /// Extracted groups; the remainder is implicit.
        pub groups: Vec<PartitionGroup>,
    }
}

impl PartitionSpec {
    /// Exact-mode spec with separated channels.
    pub fn exact(groups: Vec<PartitionGroup>) -> Self {
        PartitionSpec {
            mode: PartitionMode::Exact,
            channel_policy: ChannelPolicy::Separated,
            groups,
        }
    }

    /// Fast-mode spec.
    pub fn fast(groups: Vec<PartitionGroup>) -> Self {
        PartitionSpec {
            mode: PartitionMode::Fast,
            channel_policy: ChannelPolicy::Separated,
            groups,
        }
    }

    /// Total number of partitions including the remainder.
    pub fn partition_count(&self) -> usize {
        self.groups.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let spec = PartitionSpec::fast(vec![PartitionGroup::instances(
            "tiles",
            vec!["tile0".into(), "tile1".into()],
        )
        .with_fame5()]);
        assert_eq!(spec.mode, PartitionMode::Fast);
        assert_eq!(spec.partition_count(), 2);
        assert!(spec.groups[0].fame5);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PartitionMode::Exact.to_string(), "exact-mode");
        assert_eq!(PartitionMode::Fast.to_string(), "fast-mode");
    }
}
