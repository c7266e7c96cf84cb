//! Latency-insensitive channels and token packing.
//!
//! An LI-BDN channel aggregates a set of target ports into a single token
//! stream (the paper: "concatenates all the input wires of the sink/source
//! ports and attaches an LI-BDN input channel to the aggregated wires").
//! [`ChannelSpec`] describes the aggregation; [`ChannelSpec::pack`] and
//! [`ChannelSpec::unpack`] convert between per-port values and the single
//! token [`Bits`] value that crosses the (simulated) FPGA boundary.

use fireaxe_ir::typecheck::MAX_WIDTH;
use fireaxe_ir::{Bits, Dec, DecResult, Width, Wire};
use std::collections::BTreeMap;

/// Description of one latency-insensitive channel: an ordered list of
/// `(port, width)` pairs whose concatenation forms the token payload.
///
/// Port 0 occupies the least-significant bits of the token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Channel name (unique within its LI-BDN).
    pub name: String,
    /// Aggregated ports in payload order (LSB first).
    pub ports: Vec<(String, Width)>,
}

/// A channel's name, then its ports `(name, width)`; a channel wider in
/// total than [`MAX_WIDTH`] is refused.
impl Wire for ChannelSpec {
    const MIN: usize = 8;
    fn put(&self, b: &mut Vec<u8>) {
        self.name.put(b);
        self.ports.put(b);
    }
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        let c = ChannelSpec {
            name: d.get()?,
            ports: d.get()?,
        };
        let total: u64 = c.ports.iter().map(|(_, w)| u64::from(w.get())).sum();
        if total > u64::from(MAX_WIDTH) {
            return Err(format!("channel `{}` is {total} bits wide", c.name));
        }
        Ok(c)
    }
}

impl ChannelSpec {
    /// Creates a channel over the given ports.
    pub fn new(name: impl Into<String>, ports: Vec<(String, Width)>) -> Self {
        ChannelSpec {
            name: name.into(),
            ports,
        }
    }

    /// Total payload width in bits.
    pub fn width(&self) -> Width {
        Width::new(self.ports.iter().map(|(_, w)| w.get()).sum())
    }

    /// Packs per-port values into a token. Ports missing from `values`
    /// contribute zeros.
    ///
    /// This is the by-name form bridges use on environment channels; the
    /// LI-BDN packs partition-boundary tokens through layouts resolved
    /// once at construction.
    pub fn pack(&self, values: &BTreeMap<String, Bits>) -> Bits {
        let mut token = Bits::zero(self.width());
        let mut offset = 0u32;
        for (port, w) in &self.ports {
            if let Some(v) = values.get(port) {
                token.or_field(offset, v, *w);
            }
            offset += w.get();
        }
        token
    }

    /// Unpacks a token into per-port values.
    ///
    /// Short or long tokens are tolerated: fields past the token's width
    /// read as zero and bits past the channel width are ignored.
    pub fn unpack(&self, token: &Bits) -> BTreeMap<String, Bits> {
        let mut out = BTreeMap::new();
        let mut offset = 0u32;
        for (port, w) in &self.ports {
            let mut v = Bits::zero(*w);
            v.assign_field(token, offset);
            out.insert(port.clone(), v);
            offset += w.get();
        }
        out
    }

    /// Returns `true` if this channel carries the named port.
    pub fn carries(&self, port: &str) -> bool {
        self.ports.iter().any(|(p, _)| p == port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChannelSpec {
        ChannelSpec::new(
            "sink_in",
            vec![
                ("a".to_string(), Width::new(4)),
                ("b".to_string(), Width::new(8)),
                ("c".to_string(), Width::new(1)),
            ],
        )
    }

    #[test]
    fn width_sums_ports() {
        assert_eq!(spec().width().get(), 13);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let s = spec();
        let mut vals = BTreeMap::new();
        vals.insert("a".to_string(), Bits::from_u64(0xA, 4));
        vals.insert("b".to_string(), Bits::from_u64(0x5C, 8));
        vals.insert("c".to_string(), Bits::from_u64(1, 1));
        let token = s.pack(&vals);
        let back = s.unpack(&token);
        assert_eq!(back["a"].to_u64(), 0xA);
        assert_eq!(back["b"].to_u64(), 0x5C);
        assert_eq!(back["c"].to_u64(), 1);
    }

    #[test]
    fn missing_ports_pack_as_zero() {
        let s = spec();
        let token = s.pack(&BTreeMap::new());
        assert!(token.is_zero());
    }

    #[test]
    fn layout_is_lsb_first() {
        let s = spec();
        let mut vals = BTreeMap::new();
        vals.insert("a".to_string(), Bits::from_u64(0xF, 4));
        let token = s.pack(&vals);
        assert_eq!(token.to_u64(), 0xF);
        let mut vals = BTreeMap::new();
        vals.insert("b".to_string(), Bits::from_u64(1, 8));
        let token = s.pack(&vals);
        assert_eq!(token.to_u64(), 1 << 4);
    }

    #[test]
    fn unpack_tolerates_width_mismatch() {
        let s = spec();
        let vals = s.unpack(&Bits::from_u64(u64::MAX, 64));
        assert_eq!(vals["a"].to_u64(), 0xF);
        assert_eq!(vals["b"].to_u64(), 0xFF);
        assert_eq!(vals["c"].to_u64(), 1);
    }

    #[test]
    fn carries_checks_membership() {
        let s = spec();
        assert!(s.carries("b"));
        assert!(!s.carries("z"));
    }
}
