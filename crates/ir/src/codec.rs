//! The one byte codec: every binary format in the stack is written with
//! it.
//!
//! Circuit tapes ([`crate::tape`]), portable state blobs, partition
//! payloads, reliability frames and protocol messages are all sequences
//! of fields with a [`Wire`] layout. A type's layout is declared once,
//! next to the type: [`wire_struct!`](crate::wire_struct) lists a
//! struct's fields in wire order, [`wire_enum!`](crate::wire_enum) maps
//! an enum's variants to tag bytes, and
//! [`state_fields!`](crate::state_fields) turns a behavioral model's
//! fields into its snapshot blob. The conventions, shared by every
//! format:
//!
//! * integers are big-endian; `usize` travels as `u64`, `f64` as its
//!   bits, and a `bool` is one byte that must be 0 or 1;
//! * a string, byte string or collection is a `u32` count, then its
//!   elements; strings must be UTF-8;
//! * an `Option` is a `bool`, then the value when it is set;
//! * [`Bits`] is a `u32` width of at most 2^20 bits, then its
//!   little-endian 64-bit words, with no bit set above the width. Zero
//!   widths are accepted unless the cursor refuses them
//!   ([`Dec::refuse_zero_width`]; protocol messages do);
//! * tagged unions nest at most [`MAX_DEPTH`] deep, so a hostile
//!   expression cannot exhaust the stack.
//!
//! Decoding never panics and never trusts a count: a collection's count
//! is checked against the bytes left before anything is read, and no
//! more than twice those bytes are ever reserved for its elements.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bits::{Bits, Width};
use crate::typecheck::MAX_WIDTH;
use std::collections::VecDeque;

/// A decoding failure, naming what did not fit.
pub type DecResult<T> = std::result::Result<T, String>;

/// How deep tagged unions may nest (an expression inside an expression,
/// …) before a decode is refused. Every circuit the repo generates nests
/// its expressions at most 10 levels deep (the RocketLite SoC), so the
/// cap leaves about 100× that. It is also what bounds the stack of every
/// pass after the decoder: the type checker, FireRipper and the tape
/// compiler recurse once per level too, and a tape at the cap must clear
/// all of them on a job server connection thread, unoptimised builds
/// included.
pub const MAX_DEPTH: u32 = 1_000;

/// Cursor over bytes being decoded.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u32,
    zero_width: bool,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            depth: 0,
            zero_width: true,
        }
    }

    /// The same cursor refusing zero-width [`Bits`] values: a protocol
    /// message never carries one, save in a token frame.
    #[inline]
    pub fn refuse_zero_width(self) -> Self {
        Dec {
            zero_width: false,
            ..self
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Fewer than `n` bytes are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let Some(s) = self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) else {
            return Err(self.truncated(n));
        };
        self.pos += n;
        Ok(s)
    }

    /// Consumes the next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// Fewer than `N` bytes are left.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> DecResult<[u8; N]> {
        let Some(a) = self.buf.get(self.pos..).and_then(<[u8]>::first_chunk) else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(*a)
    }

    #[cold]
    fn truncated(&self, n: usize) -> String {
        format!(
            "truncated: wanted {n} bytes at offset {}, have {}",
            self.pos,
            self.remaining()
        )
    }

    /// Reads one `T`.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    #[inline]
    pub fn get<T: Wire>(&mut self) -> DecResult<T> {
        T::get(self)
    }

    /// A `u32`-counted byte string, borrowed from the input.
    ///
    /// # Errors
    ///
    /// The count runs past the end.
    #[inline]
    pub fn bytes(&mut self) -> DecResult<&'a [u8]> {
        let n = u32::get(self)? as usize;
        self.take(n)
    }

    /// Consumes `magic`, the four bytes leading a format.
    ///
    /// # Errors
    ///
    /// Anything else leads, named as a bad `what`.
    pub fn magic(&mut self, magic: &[u8; 4], what: &str) -> DecResult<()> {
        match self.array::<4>() {
            Ok(m) if m == *magic => Ok(()),
            _ => Err(format!(
                "{what} has a bad magic (expected {})",
                String::from_utf8_lossy(magic)
            )),
        }
    }

    /// Requires every byte to have been consumed.
    ///
    /// # Errors
    ///
    /// Names how many bytes trail the value.
    pub fn finish(&self) -> DecResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }

    /// Runs `f` one tagged-union level deeper.
    ///
    /// # Errors
    ///
    /// The nesting passes [`MAX_DEPTH`], or `f` fails.
    #[inline]
    pub fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> DecResult<T>) -> DecResult<T> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("records nest deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    /// A [`Bits`] value; `zero_ok` says whether width 0 is accepted
    /// (see [`Dec::refuse_zero_width`]).
    ///
    /// # Errors
    ///
    /// A width of 0 (unless `zero_ok`) or above 2^20, missing words, or
    /// a bit set above the width.
    #[inline]
    pub fn bits(&mut self, zero_ok: bool) -> DecResult<Bits> {
        let width = u32::get(self)?;
        if (width == 0 && !zero_ok) || width > MAX_WIDTH {
            return Err(format!("bad value width {width}"));
        }
        // Taken before anything is reserved for them: a garbled width
        // cannot ask for more words than the input still holds.
        let raw = self.take(width.div_ceil(64) as usize * 8)?;
        let mut inline = [0u64; 4];
        let mut heap = Vec::new();
        let words = match raw.len() / 8 {
            n @ 0..=4 => &mut inline[..n],
            n => {
                heap.resize(n, 0);
                &mut heap[..]
            }
        };
        for (w, le) in words.iter_mut().zip(raw.chunks_exact(8)) {
            let mut a = [0u8; 8];
            a.copy_from_slice(le);
            *w = u64::from_le_bytes(a);
        }
        if width % 64 != 0 && words.last().is_some_and(|top| top >> (width % 64) != 0) {
            return Err(format!("bits set above width {width}"));
        }
        Ok(Bits::from_words(words, width))
    }
}

/// A value with a byte layout.
pub trait Wire: Sized {
    /// The fewest bytes any value of this type takes.
    const MIN: usize;

    /// Appends this value.
    fn put(&self, b: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Describes the first field that does not decode.
    fn get(d: &mut Dec<'_>) -> DecResult<Self>;

    /// Appends a run of values (bytes override this with one copy).
    #[inline]
    fn put_all(items: &[Self], b: &mut Vec<u8>) {
        for v in items {
            v.put(b);
        }
    }

    /// Reads `n` values, `n` already checked against [`Wire::MIN`].
    /// Reserves no more than twice the bytes left: a hostile count can
    /// pass the size check and still be many times the input in
    /// `size_of::<Self>()` units.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn get_all(d: &mut Dec<'_>, n: usize) -> DecResult<Vec<Self>> {
        let room = 2 * d.remaining() / std::mem::size_of::<Self>().max(1);
        let mut out = Vec::with_capacity(n.min(room));
        for _ in 0..n {
            out.push(Self::get(d)?);
        }
        Ok(out)
    }
}

impl Wire for u8 {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        Ok(d.array::<1>()?[0])
    }
    #[inline]
    fn put_all(items: &[Self], b: &mut Vec<u8>) {
        b.extend_from_slice(items);
    }
    #[inline]
    fn get_all(d: &mut Dec<'_>, n: usize) -> DecResult<Vec<Self>> {
        Ok(d.take(n)?.to_vec())
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_be_bytes());
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> DecResult<Self> {
                Ok(<$t>::from_be_bytes(d.array()?))
            }
        }
    )*};
}

wire_int!(u32, u64);

/// Types sent as another wire type.
macro_rules! wire_via {
    ($($t:ty as $via:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $t {
            const MIN: usize = <$via as Wire>::MIN;
            #[inline]
            fn put(&self, b: &mut Vec<u8>) {
                $to(*self).put(b);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> DecResult<Self> {
                $from(<$via as Wire>::get(d)?)
            }
        }
    )*};
}

wire_via! {
    usize as u64: |v: usize| v as u64, |v: u64| usize::try_from(v).map_err(|e| e.to_string());
    f64 as u64: f64::to_bits, |v| Ok(f64::from_bits(v));
    bool as u8: u8::from, |v| match v {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("bool byte {v}")),
    };
    Width as u32: Width::get, |v| Ok(Width::new(v));
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        (self.len() as u32).put(b);
        T::put_all(self, b);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        let n = u32::get(d)? as usize;
        if n.saturating_mul(T::MIN.max(1)) > d.remaining() {
            return Err(format!("count {n} exceeds the bytes left"));
        }
        T::get_all(d, n)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    const MIN: usize = 4;
    fn put(&self, b: &mut Vec<u8>) {
        (self.len() as u32).put(b);
        for v in self {
            v.put(b);
        }
    }
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        Vec::get(d).map(VecDeque::from)
    }
}

impl Wire for String {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        (self.len() as u32).put(b);
        b.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        let bytes = d.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| "string is not UTF-8".to_string())
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        self.is_some().put(b);
        if let Some(v) = self {
            v.put(b);
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        bool::get(d)?.then(|| T::get(d)).transpose()
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN: usize = T::MIN;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        (**self).put(b);
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        T::get(d).map(Box::new)
    }
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN: usize = 0 $(+ $t::MIN)*;
            #[inline]
            fn put(&self, b: &mut Vec<u8>) {
                $(self.$i.put(b);)*
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> DecResult<Self> {
                Ok(($($t::get(d)?,)*))
            }
        }
    };
}

wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

impl Wire for Bits {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        self.width().get().put(b);
        for w in self.as_words() {
            b.extend_from_slice(&w.to_le_bytes());
        }
    }
    #[inline]
    fn get(d: &mut Dec<'_>) -> DecResult<Self> {
        d.bits(d.zero_width)
    }
}

/// Implements [`Wire`] for structs, fields in wire order: wrapped around
/// the struct's declaration (the declaration is the layout), or as
/// `Name { field: Type, … }` for a struct whose fields are declared in
/// another order.
#[macro_export]
macro_rules! wire_struct {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident { $($(#[$fmeta:meta])* $fvis:vis $f:ident: $ft:ty),* $(,)? }
    )*) => {$(
        $(#[$meta])*
        $vis struct $ty { $($(#[$fmeta])* $fvis $f: $ft),* }
        $crate::wire_struct!($ty { $($f: $ft),* });
    )*};
    ($($ty:ident { $($f:ident: $ft:ty),* $(,)? })*) => {$(
        impl $crate::codec::Wire for $ty {
            const MIN: usize = 0 $(+ <$ft as $crate::codec::Wire>::MIN)*;
            #[inline]
            fn put(&self, b: &mut Vec<u8>) {
                $($crate::codec::Wire::put(&self.$f, b);)*
            }
            #[inline]
            fn get(d: &mut $crate::codec::Dec<'_>) -> $crate::codec::DecResult<Self> {
                Ok($ty { $($f: <$ft as $crate::codec::Wire>::get(d)?),* })
            }
        }
    )*};
}

/// Implements [`Wire`] for an enum: a tag byte, then the variant's
/// fields — named (`V { f: T, … }`), positional (`V(a: T, …)`, the names
/// only bind), or none. A variant marked `with f` is decoded by `f`
/// instead. Every variant is one nesting level (see [`MAX_DEPTH`]).
#[macro_export]
macro_rules! wire_enum {
    // One decode arm: the `with` decoder, a unit variant, or the fields
    // in order, each variant in a frame of its own.
    (@get $d:ident, [$dec:ident] $($variant:tt)*) => {
        $dec($d)
    };
    (@get $d:ident, [] $ty:ident::$v:ident) => {
        Ok($ty::$v)
    };
    (@get $d:ident, [] $ty:ident::$v:ident $({ $($f:ident: $ft:ty),* })? $(( $($tt:ty),* ))?) => {
        (|$d: &mut $crate::codec::Dec<'_>| -> $crate::codec::DecResult<$ty> {
            Ok($ty::$v
                $({ $($f: <$ft as $crate::codec::Wire>::get($d)?),* })?
                $(( $(<$tt as $crate::codec::Wire>::get($d)?),* ))?)
        })($d)
    };
    ($ty:ident, $what:literal {
        $($tag:tt => $v:ident $({ $($f:ident: $ft:ty),* $(,)? })? $(( $($tn:ident: $tt:ty),* $(,)? ))?
            $(with $dec:ident)?),* $(,)?
    }) => {
        impl $crate::codec::Wire for $ty {
            const MIN: usize = 1;
            fn put(&self, b: &mut Vec<u8>) {
                match self {
                    $($ty::$v $({ $($f),* })? $(( $($tn),* ))? => {
                        b.push($tag);
                        $($($crate::codec::Wire::put($f, b);)*)?
                        $($($crate::codec::Wire::put($tn, b);)*)?
                    })*
                }
            }
            fn get(d: &mut $crate::codec::Dec<'_>) -> $crate::codec::DecResult<Self> {
                d.nested(|d| match <u8 as $crate::codec::Wire>::get(d)? {
                    $($tag => $crate::wire_enum!(@get d, [$($dec)?] $ty::$v
                        $({ $($f: $ft),* })? $(( $($tt),* ))?),)*
                    t => Err(format!(concat!("unknown ", $what, " {}"), t)),
                })
            }
        }
    };
}
