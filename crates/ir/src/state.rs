//! Byte serialization of architectural state: the one captured form.
//!
//! Every capture of simulation state is a byte blob in this encoding,
//! whoever asks for it: an in-process rollback, a lane of the bit-sliced
//! engine rehydrating into a scalar interpreter, a pooled worker
//! rewinding to cycle 0, a cluster checkpoint crossing the wire to the
//! coordinator and coming back into a freshly spawned worker. The module
//! is a tiny big-endian field codec ([`StateEnc`]/[`StateDec`]) plus the
//! [`StateItem`] trait and the [`state_fields!`](crate::state_fields)
//! macro, with which a behavioral model declares its state once, in one
//! line.
//!
//! The format deliberately carries no schema: both ends are the same
//! binary simulating the same design (the net handshake cross-checks the
//! design digest), so field order is the contract. A blob can still
//! arrive garbled off a socket, so decoding is total-length-checked,
//! never reserves more memory than the bytes left could fill, and
//! returns `None` on any shape mismatch, which restore paths surface as a
//! rejected snapshot rather than corrupt state.

use crate::bits::Bits;
use std::collections::VecDeque;

/// Append-only encoder for portable state blobs.
#[derive(Debug, Default)]
pub struct StateEnc {
    buf: Vec<u8>,
}

impl StateEnc {
    /// An empty encoder.
    pub fn new() -> Self {
        StateEnc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed raw byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a [`Bits`] value: explicit width, then little-endian
    /// 64-bit words (the same layout the wire frame codec uses).
    pub fn bits(&mut self, v: &Bits) {
        self.u32(v.width().get());
        for w in v.as_words() {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Appends any [`StateItem`].
    pub fn item<T: StateItem>(&mut self, v: &T) {
        v.put(self);
    }
}

/// Cursor over a portable state blob.
#[derive(Debug)]
pub struct StateDec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateDec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        StateDec { buf, pos: 0 }
    }

    /// Whether every byte has been consumed — restore paths require this
    /// so a trailing-garbage blob is rejected, not silently truncated.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len())?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a `bool`; rejects bytes other than 0/1.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length (validated against the bytes actually remaining,
    /// assuming each element costs at least `min_elem_bytes`).
    pub fn len(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        let need = n.checked_mul(min_elem_bytes.max(1))?;
        (self.pos.checked_add(need)? <= self.buf.len()).then_some(n)
    }

    /// Reads a length-prefixed raw byte slice.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Reads a [`Bits`] value. Rejects implausible widths (> 2^20 bits)
    /// and set bits above the declared width.
    pub fn bits(&mut self) -> Option<Bits> {
        let width = self.u32()?;
        if width > (1 << 20) {
            return None;
        }
        // Taken before anything is reserved for them: a garbled width
        // cannot ask for more words than the blob still holds.
        let n_words = usize::try_from(width.div_ceil(64)).ok()?;
        let raw = self.take(n_words.checked_mul(8)?)?;
        let words: Vec<u64> = raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks of 8")))
            .collect();
        if width % 64 != 0 {
            if let Some(top) = words.last() {
                if *top >> (width % 64) != 0 {
                    return None;
                }
            }
        }
        Some(Bits::from_words(&words, width))
    }

    /// Reads any [`StateItem`].
    pub fn item<T: StateItem>(&mut self) -> Option<T> {
        T::take(self)
    }
}

/// A value with a portable byte encoding — the element vocabulary
/// behavioral-model state is built from.
pub trait StateItem: Sized {
    /// Appends this value to `enc`.
    fn put(&self, enc: &mut StateEnc);
    /// Reads one value from `dec`, or `None` on shape mismatch.
    fn take(dec: &mut StateDec) -> Option<Self>;
}

impl StateItem for u8 {
    fn put(&self, enc: &mut StateEnc) {
        enc.u8(*self);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        dec.u8()
    }
}

impl StateItem for u32 {
    fn put(&self, enc: &mut StateEnc) {
        enc.u32(*self);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        dec.u32()
    }
}

impl StateItem for u64 {
    fn put(&self, enc: &mut StateEnc) {
        enc.u64(*self);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        dec.u64()
    }
}

impl StateItem for usize {
    fn put(&self, enc: &mut StateEnc) {
        enc.u64(*self as u64);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        usize::try_from(dec.u64()?).ok()
    }
}

impl StateItem for bool {
    fn put(&self, enc: &mut StateEnc) {
        enc.bool(*self);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        dec.bool()
    }
}

impl StateItem for Bits {
    fn put(&self, enc: &mut StateEnc) {
        enc.bits(self);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        dec.bits()
    }
}

impl<T: StateItem> StateItem for Option<T> {
    fn put(&self, enc: &mut StateEnc) {
        match self {
            None => enc.bool(false),
            Some(v) => {
                enc.bool(true);
                v.put(enc);
            }
        }
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        Some(if dec.bool()? {
            Some(T::take(dec)?)
        } else {
            None
        })
    }
}

impl<T: StateItem> StateItem for Vec<T> {
    fn put(&self, enc: &mut StateEnc) {
        enc.u64(self.len() as u64);
        for v in self {
            v.put(enc);
        }
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        // A garbled count can pass the one-byte-per-element check and
        // still be many times the blob in `size_of::<T>()` units, so no
        // more memory is reserved than there are bytes left; elements
        // narrower on the wire than in memory grow the vector on push.
        let n = dec.len(1)?;
        let room = (dec.buf.len() - dec.pos) / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(room));
        for _ in 0..n {
            out.push(T::take(dec)?);
        }
        Some(out)
    }
}

impl<T: StateItem> StateItem for VecDeque<T> {
    fn put(&self, enc: &mut StateEnc) {
        enc.u64(self.len() as u64);
        for v in self {
            v.put(enc);
        }
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        Vec::take(dec).map(VecDeque::from)
    }
}

impl<A: StateItem, B: StateItem> StateItem for (A, B) {
    fn put(&self, enc: &mut StateEnc) {
        self.0.put(enc);
        self.1.put(enc);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        Some((A::take(dec)?, B::take(dec)?))
    }
}

impl<A: StateItem, B: StateItem, C: StateItem> StateItem for (A, B, C) {
    fn put(&self, enc: &mut StateEnc) {
        self.0.put(enc);
        self.1.put(enc);
        self.2.put(enc);
    }
    fn take(dec: &mut StateDec) -> Option<Self> {
        Some((A::take(dec)?, B::take(dec)?, C::take(dec)?))
    }
}

/// Implements `snapshot_bytes`/`restore_bytes` over the listed fields of
/// `self`, in declaration order. Restore decodes every field into
/// temporaries first and only assigns once the whole blob (including its
/// end position) has validated, so a rejected blob leaves the model
/// untouched.
///
/// Meant to be invoked inside an `impl ExternBehavior for Model` (or any
/// impl whose trait declares the same two methods).
#[macro_export]
macro_rules! state_fields {
    ($($field:ident),+ $(,)?) => {
        fn snapshot_bytes(&self) -> Option<Vec<u8>> {
            let mut enc = $crate::state::StateEnc::new();
            $( $crate::state::StateItem::put(&self.$field, &mut enc); )+
            Some(enc.into_bytes())
        }

        fn restore_bytes(&mut self, bytes: &[u8]) -> bool {
            let mut dec = $crate::state::StateDec::new(bytes);
            let decoded = (|| {
                Some(($( {
                    // Bind each field's type through a reference so the
                    // closure can infer what to decode.
                    fn infer<T: $crate::state::StateItem>(_: &T, d: &mut $crate::state::StateDec) -> Option<T> {
                        <T as $crate::state::StateItem>::take(d)
                    }
                    infer(&self.$field, &mut dec)?
                } ),+ ,))
            })();
            match decoded {
                Some(($( $field ),+ ,)) if dec.done() => {
                    $( self.$field = $field; )+
                    true
                }
                _ => false,
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = StateEnc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.bool(true);
        e.bool(false);
        e.bytes(b"blob");
        let bytes = e.into_bytes();
        let mut d = StateDec::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX - 3));
        assert_eq!(d.bool(), Some(true));
        assert_eq!(d.bool(), Some(false));
        assert_eq!(d.bytes(), Some(&b"blob"[..]));
        assert!(d.done());
    }

    #[test]
    fn bits_round_trip_and_reject_padding() {
        for width in [0u32, 1, 12, 64, 65, 130] {
            let v = if width == 0 {
                Bits::zero(0u32)
            } else {
                Bits::ones(width)
            };
            let mut e = StateEnc::new();
            e.bits(&v);
            let bytes = e.into_bytes();
            let mut d = StateDec::new(&bytes);
            assert_eq!(d.bits(), Some(v));
            assert!(d.done());
        }
        // Stray bits above the width are rejected.
        let mut e = StateEnc::new();
        e.u32(12);
        e.buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let bytes = e.into_bytes();
        assert_eq!(StateDec::new(&bytes).bits(), None);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u64, Bits)> = vec![(3, Bits::from_u64(5, 8)), (9, Bits::from_u64(1, 8))];
        let q: VecDeque<u64> = VecDeque::from(vec![1, 2, 3]);
        let o: Option<u32> = Some(17);
        let mut e = StateEnc::new();
        e.item(&v);
        e.item(&q);
        e.item(&o);
        e.item(&None::<u64>);
        let bytes = e.into_bytes();
        let mut d = StateDec::new(&bytes);
        assert_eq!(d.item::<Vec<(u64, Bits)>>(), Some(v));
        assert_eq!(d.item::<VecDeque<u64>>(), Some(q));
        assert_eq!(d.item::<Option<u32>>(), Some(o));
        assert_eq!(d.item::<Option<u64>>(), Some(None));
        assert!(d.done());
    }

    #[test]
    fn truncation_and_length_lies_are_rejected() {
        let mut e = StateEnc::new();
        e.item(&vec![1u64, 2, 3]);
        let mut bytes = e.into_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(StateDec::new(&bytes).item::<Vec<u64>>(), None);
        // A length prefix claiming more elements than bytes remain.
        let mut e = StateEnc::new();
        e.u64(1 << 40);
        let bytes = e.into_bytes();
        assert_eq!(StateDec::new(&bytes).item::<Vec<u64>>(), None);
    }

    #[derive(Debug, PartialEq)]
    struct Toy {
        a: u64,
        q: VecDeque<u64>,
        f: bool,
    }

    impl Toy {
        crate::state_fields!(a, q, f);
    }

    #[test]
    fn state_fields_macro_round_trips_and_rejects_garbage() {
        let t = Toy {
            a: 42,
            q: VecDeque::from(vec![7, 8]),
            f: true,
        };
        let bytes = t.snapshot_bytes().unwrap();
        let mut u = Toy {
            a: 0,
            q: VecDeque::new(),
            f: false,
        };
        assert!(u.restore_bytes(&bytes));
        assert_eq!(u, t);
        // Trailing garbage rejected, state untouched.
        let mut longer = bytes.clone();
        longer.push(0);
        let before = Toy {
            a: u.a,
            q: u.q.clone(),
            f: u.f,
        };
        assert!(!u.restore_bytes(&longer));
        assert!(!u.restore_bytes(&bytes[..bytes.len() - 1]));
        assert_eq!(u, before);
    }
}
