//! The partition payload a [`Topology`](crate::Topology) carries: one
//! partition of the coordinator's FireRipper output plus the cut-wide
//! tables a worker indexes by — a [`PartitionCut`] as bytes.
//!
//! The coordinator encodes one payload per partition, once per prepared
//! job; a worker decodes only those of the partitions it hosts and
//! elaborates only their threads. The payload is canonical: the same cut
//! encodes to the same bytes, and a pooled worker keys its kept builds
//! by a hash over them.
//!
//! Layout: the magic `FXW2`, then the [`PartitionCut`] in the
//! [`fireaxe_ir::codec`] layouts its types declare — partition index;
//! the artifact's name, threads (each its name, circuit, LI-BDN spec and
//! environment channels) and FAME-5 flag; the node table `(name,
//! partition)`; the link table; the VCD signal table; the fast-mode seeds
//! `(link, token)`. Decoding is total-length-checked like every other
//! decoder that reads socket bytes, and caps a channel's total width at
//! [`MAX_WIDTH`](fireaxe_ir::typecheck::MAX_WIDTH); the thread circuits
//! it returns are *not* validated — callers run
//! [`fireaxe_ir::typecheck::validate`] before elaborating.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use fireaxe_ir::{Dec, Wire};
use fireaxe_sim::PartitionCut;

/// Magic leading every partition payload, bumped on any layout change.
const PAYLOAD_MAGIC: &[u8; 4] = b"FXW2";

/// Encodes one partition of a cut as a `Topology` payload.
pub fn encode_partition_payload(cut: &PartitionCut) -> Vec<u8> {
    let mut b = PAYLOAD_MAGIC.to_vec();
    cut.put(&mut b);
    b
}

/// Decodes a [`encode_partition_payload`] payload.
///
/// # Errors
///
/// Describes a bad magic or the first truncated, garbled or over-wide
/// field (trailing bytes included).
pub fn decode_partition_payload(bytes: &[u8]) -> Result<PartitionCut, String> {
    let mut d = Dec::new(bytes);
    d.magic(PAYLOAD_MAGIC, "partition payload")?;
    let cut = d.get().map_err(|e| format!("partition payload: {e}"))?;
    d.finish().map_err(|e| format!("partition payload: {e}"))?;
    Ok(cut)
}
