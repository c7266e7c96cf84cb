//! The partition payload a [`Topology`](crate::Topology) carries: one
//! partition of the coordinator's FireRipper output plus the cut-wide
//! tables a worker indexes by — a [`PartitionCut`] as bytes.
//!
//! The coordinator encodes one payload per partition, once per prepared
//! job; a worker decodes only those of the partitions it hosts and
//! elaborates only their threads. Each thread circuit travels as a binary tape
//! ([`circuit_to_tape`]), so the payload is canonical: the same cut
//! encodes to the same bytes, and a pooled worker keys its kept builds
//! by a hash over them.
//!
//! Layout, in [`StateEnc`] fields: magic `FXW1`, partition index, name,
//! FAME-5 flag; per thread its name, circuit tape, LI-BDN spec and
//! environment channels; the node table `(name, partition)`; the link
//! table; the VCD signal table; the fast-mode seeds `(link, token)`.
//! Decoding is total-length-checked like every other decoder that reads
//! socket bytes, and caps channel port widths at
//! [`MAX_WIDTH`]; the thread circuits it returns are *not* validated —
//! callers run [`fireaxe_ir::typecheck::validate`] before elaborating.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use fireaxe_ir::typecheck::MAX_WIDTH;
use fireaxe_ir::{circuit_from_tape, circuit_to_tape, StateDec, StateEnc, Width};
use fireaxe_libdn::{ChannelSpec, LiBdnSpec, OutputChannelSpec};
use fireaxe_obs::VcdSignal;
use fireaxe_ripper::{LinkSpec, PartitionArtifact, ThreadArtifact};
use fireaxe_sim::PartitionCut;

/// Magic leading every partition payload (`"FXW1"`), bumped on any
/// layout change.
const PAYLOAD_MAGIC: u32 = 0x4658_5731;

fn put_str(enc: &mut StateEnc, s: &str) {
    enc.bytes(s.as_bytes());
}

fn take_str(dec: &mut StateDec) -> Option<String> {
    String::from_utf8(dec.bytes()?.to_vec()).ok()
}

fn put_channel(enc: &mut StateEnc, c: &ChannelSpec) {
    put_str(enc, &c.name);
    enc.u64(c.ports.len() as u64);
    for (port, width) in &c.ports {
        put_str(enc, port);
        enc.u32(width.get());
    }
}

fn take_channel(dec: &mut StateDec) -> Option<ChannelSpec> {
    let name = take_str(dec)?;
    let n = dec.len(12)?;
    let mut ports = Vec::with_capacity(n);
    let mut total = 0u64;
    for _ in 0..n {
        let port = take_str(dec)?;
        let width = dec.u32()?;
        total += u64::from(width);
        if total > u64::from(MAX_WIDTH) {
            return None;
        }
        ports.push((port, Width::new(width)));
    }
    Some(ChannelSpec { name, ports })
}

fn put_thread(enc: &mut StateEnc, t: &ThreadArtifact) {
    put_str(enc, &t.name);
    enc.bytes(&circuit_to_tape(&t.circuit));
    put_str(enc, &t.libdn.name);
    enc.u64(t.libdn.inputs.len() as u64);
    for c in &t.libdn.inputs {
        put_channel(enc, c);
    }
    enc.u64(t.libdn.outputs.len() as u64);
    for o in &t.libdn.outputs {
        put_channel(enc, &o.channel);
        enc.item(&o.deps);
    }
    enc.item(&t.env_inputs);
    enc.item(&t.env_outputs);
}

/// One thread, or `Err(None)` on a garbled field and `Err(Some(why))` on
/// a circuit tape that does not decode.
fn take_thread(dec: &mut StateDec) -> Result<ThreadArtifact, Option<String>> {
    let name = take_str(dec).ok_or(None)?;
    let tape = dec.bytes().ok_or(None)?;
    let circuit =
        circuit_from_tape(tape).map_err(|e| Some(format!("thread `{name}` circuit: {e}")))?;
    let spec = (|| {
        let name = take_str(dec)?;
        let n = dec.len(16)?;
        let inputs = (0..n)
            .map(|_| take_channel(dec))
            .collect::<Option<Vec<_>>>()?;
        let n = dec.len(24)?;
        let outputs = (0..n)
            .map(|_| {
                Some(OutputChannelSpec {
                    channel: take_channel(dec)?,
                    deps: dec.item()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(LiBdnSpec {
            name,
            inputs,
            outputs,
        })
    })()
    .ok_or(None)?;
    Ok(ThreadArtifact {
        name,
        circuit,
        libdn: spec,
        env_inputs: dec.item().ok_or(None)?,
        env_outputs: dec.item().ok_or(None)?,
    })
}

/// Encodes one partition of a cut as a `Topology` payload.
pub fn encode_partition_payload(cut: &PartitionCut) -> Vec<u8> {
    let mut enc = StateEnc::new();
    enc.u32(PAYLOAD_MAGIC);
    enc.u64(cut.partition as u64);
    put_str(&mut enc, &cut.artifact.name);
    enc.bool(cut.artifact.fame5);
    enc.u64(cut.artifact.threads.len() as u64);
    for t in &cut.artifact.threads {
        put_thread(&mut enc, t);
    }
    enc.u64(cut.nodes.len() as u64);
    for (name, partition) in &cut.nodes {
        put_str(&mut enc, name);
        enc.u64(*partition as u64);
    }
    enc.u64(cut.links.len() as u64);
    for l in &cut.links {
        for v in [l.from_node, l.from_chan, l.to_node, l.to_chan] {
            enc.u64(v as u64);
        }
        enc.u64(l.width);
        enc.bool(l.seeded);
    }
    enc.u64(cut.vcd_signals.len() as u64);
    for s in &cut.vcd_signals {
        put_str(&mut enc, &s.scope);
        put_str(&mut enc, &s.name);
        enc.u32(s.width);
    }
    enc.item(&cut.seeds);
    enc.into_bytes()
}

/// Decodes a [`encode_partition_payload`] payload.
///
/// # Errors
///
/// Describes a bad magic, a thread circuit tape that does not decode, or
/// any other truncated, garbled or over-wide field (trailing bytes
/// included).
pub fn decode_partition_payload(bytes: &[u8]) -> Result<PartitionCut, String> {
    let mut dec = StateDec::new(bytes);
    if dec.u32() != Some(PAYLOAD_MAGIC) {
        return Err("partition payload has a bad magic (expected FXW1)".into());
    }
    let garbled = || "partition payload is truncated or garbled".to_string();
    let partition = dec.item::<usize>().ok_or_else(garbled)?;
    let name = take_str(&mut dec).ok_or_else(garbled)?;
    let fame5 = dec.bool().ok_or_else(garbled)?;
    let n = dec.len(8).ok_or_else(garbled)?;
    let mut threads = Vec::with_capacity(n);
    for _ in 0..n {
        threads.push(take_thread(&mut dec).map_err(|e| e.unwrap_or_else(garbled))?);
    }
    let tables = (|| {
        let n = dec.len(16)?;
        let nodes = (0..n)
            .map(|_| Some((take_str(&mut dec)?, dec.item::<usize>()?)))
            .collect::<Option<Vec<_>>>()?;
        let n = dec.len(41)?;
        let links = (0..n)
            .map(|_| {
                Some(LinkSpec {
                    from_node: dec.item()?,
                    from_chan: dec.item()?,
                    to_node: dec.item()?,
                    to_chan: dec.item()?,
                    width: dec.u64()?,
                    seeded: dec.bool()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let n = dec.len(20)?;
        let vcd_signals = (0..n)
            .map(|_| {
                Some(VcdSignal {
                    scope: take_str(&mut dec)?,
                    name: take_str(&mut dec)?,
                    width: dec.u32()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let seeds = dec.item()?;
        dec.done().then_some((nodes, links, vcd_signals, seeds))
    })();
    let (nodes, links, vcd_signals, seeds) = tables.ok_or_else(garbled)?;
    Ok(PartitionCut {
        partition,
        artifact: PartitionArtifact {
            name,
            threads,
            fame5,
        },
        nodes,
        links,
        vcd_signals,
        seeds,
    })
}
