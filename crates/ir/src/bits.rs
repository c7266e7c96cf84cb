//! Arbitrary-width bit vectors.
//!
//! [`Bits`] is the value type flowing through every wire, register, and
//! LI-BDN token in FireAxe. Widths are explicit and all operations follow
//! FIRRTL-style semantics: results are truncated (or zero-extended) to the
//! width requested by the operation.

use std::fmt;

/// Width of a hardware signal in bits.
///
/// Zero-width signals are permitted (FIRRTL allows them); they carry no
/// information and compare equal to each other.
///
/// # Examples
///
/// ```
/// use fireaxe_ir::Width;
/// let w = Width::new(7);
/// assert_eq!(w.get(), 7);
/// assert_eq!(w.words(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Width(u32);

impl Width {
    /// Creates a width of `bits` bits.
    pub const fn new(bits: u32) -> Self {
        Width(bits)
    }

    /// Returns the width in bits.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Number of 64-bit words needed to store a value of this width.
    pub const fn words(self) -> usize {
        (self.0 as usize).div_ceil(64)
    }

    /// Returns `true` for a zero-bit width.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl From<u32> for Width {
    fn from(bits: u32) -> Self {
        Width(bits)
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An unsigned bit vector of fixed [`Width`].
///
/// Values wider than 64 bits are stored little-endian across `u64` words.
/// All constructors and operations maintain the invariant that bits above
/// the declared width are zero.
///
/// A value of at most 64 bits keeps its one word inline, so the narrow
/// signals that make up most of a design (and most LI-BDN tokens) never
/// touch the heap; only wider values own a word vector.
///
/// # Examples
///
/// ```
/// use fireaxe_ir::Bits;
/// let a = Bits::from_u64(5, 8);
/// let b = Bits::from_u64(250, 8);
/// assert_eq!(a.add(&b).to_u64(), 255);
/// // Addition wraps at the result width (8 bits here):
/// assert_eq!(b.add(&b).to_u64(), (250u64 + 250) & 0xff);
/// ```
pub struct Bits {
    words: Words,
    width: Width,
}

/// The backing words of a [`Bits`]: always exactly `width.words()` of
/// them. Up to one word is stored inline (`len` 0 for a zero-width value,
/// 1 otherwise; an absent word is kept 0), more on the heap.
#[derive(Clone)]
enum Words {
    Small { len: u8, w: u64 },
    Big(Vec<u64>),
}

impl Words {
    /// `n` zero words.
    fn zeroed(n: usize) -> Self {
        if n <= 1 {
            Words::Small { len: n as u8, w: 0 }
        } else {
            Words::Big(vec![0; n])
        }
    }

    /// The first `n` words of `src`; words past its end read as zero.
    fn from_slice(src: &[u64], n: usize) -> Self {
        let mut words = Words::zeroed(n);
        let k = n.min(src.len());
        words[..k].copy_from_slice(&src[..k]);
        words
    }
}

impl std::ops::Deref for Words {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Small { len, w } => &std::slice::from_ref(w)[..*len as usize],
            Words::Big(v) => v,
        }
    }
}

impl std::ops::DerefMut for Words {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Small { len, w } => &mut std::slice::from_mut(w)[..*len as usize],
            Words::Big(v) => v,
        }
    }
}

/// Mask of the low `bits` bits of a word (all ones from 64 bits up).
#[inline]
pub(crate) fn low_mask(bits: u32) -> u64 {
    match bits {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << bits) - 1,
    }
}

// Equality and hashing go over the word slice and the width, in that
// order: exactly what the derived impls of a `{ words: Vec<u64>, width }`
// layout computed, so hashes do not depend on where the words live.
impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        *self.words == *other.words && self.width == other.width
    }
}

impl Eq for Bits {}

impl std::hash::Hash for Bits {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (*self.words).hash(state);
        self.width.hash(state);
    }
}

impl Clone for Bits {
    fn clone(&self) -> Self {
        Bits {
            words: self.words.clone(),
            width: self.width,
        }
    }

    /// Reuses the existing word allocation — hot paths (the compiled
    /// execution engine, extern input refresh) rely on this being
    /// allocation-free once buffers are warm. Only a narrow value taking
    /// a wide one's words allocates.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.words, &source.words) {
            (Words::Big(dst), Words::Big(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
        self.width = source.width;
    }
}

impl Bits {
    /// All-zero value of the given width.
    pub fn zero(width: impl Into<Width>) -> Self {
        let width = width.into();
        Bits {
            words: Words::zeroed(width.words()),
            width,
        }
    }

    /// All-ones value of the given width.
    pub fn ones(width: impl Into<Width>) -> Self {
        let width = width.into();
        let mut b = Bits::zero(width);
        b.words.fill(u64::MAX);
        b.mask_top();
        b
    }

    /// Builds a value from the low 64 bits of `value`, truncated to `width`.
    pub fn from_u64(value: u64, width: impl Into<Width>) -> Self {
        let mut b = Bits::zero(width);
        b.set_from_u64(value);
        b
    }

    /// Builds a value from little-endian 64-bit words, truncated to `width`.
    pub fn from_words(words: &[u64], width: impl Into<Width>) -> Self {
        let width = width.into();
        let mut b = Bits {
            words: Words::from_slice(words, width.words()),
            width,
        };
        b.mask_top();
        b
    }

    /// Parses a binary string such as `"1010"`; width equals string length.
    ///
    /// Returns `None` when the string contains characters other than `0`/`1`
    /// or is empty.
    pub fn from_binary_str(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b == b'0' || b == b'1') {
            return None;
        }
        let width = Width::new(s.len() as u32);
        let mut b = Bits::zero(width);
        for (i, ch) in s.bytes().rev().enumerate() {
            if ch == b'1' {
                b.set_bit(i as u32, true);
            }
        }
        Some(b)
    }

    /// The width of this value.
    #[inline]
    pub fn width(&self) -> Width {
        self.width
    }

    /// The value as a `u64`, truncating anything above bit 63.
    #[inline]
    pub fn to_u64(&self) -> u64 {
        match &self.words {
            Words::Small { w, .. } => *w,
            Words::Big(v) => v[0],
        }
    }

    /// The backing little-endian words.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the value in place from the low 64 bits of `value`,
    /// keeping the current width and heap allocation. Bits above the
    /// width are masked off; words above the first are zeroed.
    ///
    /// This is the zero-allocation store the compiled execution engine
    /// writes narrow results through.
    #[inline]
    pub fn set_from_u64(&mut self, value: u64) {
        match &mut self.words {
            Words::Small { w, .. } => *w = value & low_mask(self.width.get()),
            Words::Big(v) => {
                // Wider than 64 bits: the top word is above word 0.
                v.fill(0);
                v[0] = value;
            }
        }
    }

    /// Overwrites the value in place from little-endian 64-bit words,
    /// keeping the current width and heap allocation. Missing words read
    /// as zero, extra words are ignored, and bits above the width are
    /// masked off.
    ///
    /// This is the zero-allocation store used by the bit-sliced engine
    /// when gathering one lane out of the transposed plane arena.
    pub fn set_from_words(&mut self, words: &[u64]) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = words.get(i).copied().unwrap_or(0);
        }
        self.mask_top();
    }

    /// In-place equivalent of `*self = src.resize(self.width())`: copies
    /// `src`'s words (truncating or zero-extending) while keeping this
    /// value's width and allocation. Never allocates.
    pub fn assign_resized(&mut self, src: &Bits) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = src.words.get(i).copied().unwrap_or(0);
        }
        self.mask_top();
    }

    /// `self == src.resize(self.width())`, computed without allocating.
    pub fn eq_resized(&self, src: &Bits) -> bool {
        let n = self.words.len();
        let rem = self.width.get() % 64;
        for (i, w) in self.words.iter().enumerate() {
            let mut want = src.words.get(i).copied().unwrap_or(0);
            if i + 1 == n && rem != 0 {
                want &= (1u64 << rem) - 1;
            }
            if *w != want {
                return false;
            }
        }
        true
    }

    /// `self == Bits::from_u64(value, self.width())`, computed without
    /// allocating — the change test behind an in-place
    /// [`Bits::set_from_u64`].
    #[inline]
    pub fn eq_u64(&self, value: u64) -> bool {
        match &self.words {
            Words::Small { w, .. } => *w == value & low_mask(self.width.get()),
            Words::Big(v) => v[0] == value && v[1..].iter().all(|&w| w == 0),
        }
    }

    /// Returns `true` when every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Value of bit `i` (counting from the LSB). Bits at or above the width
    /// read as `false`.
    pub fn bit(&self, i: u32) -> bool {
        if i >= self.width.get() {
            return false;
        }
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the width.
    pub fn set_bit(&mut self, i: u32, v: bool) {
        assert!(
            i < self.width.get(),
            "bit index {i} out of width {}",
            self.width
        );
        let w = (i / 64) as usize;
        let m = 1u64 << (i % 64);
        if v {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    fn mask_top(&mut self) {
        let rem = self.width.get() % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Reinterprets the value at a new width (truncating or zero-extending).
    pub fn resize(&self, width: impl Into<Width>) -> Self {
        let width = width.into();
        Bits::from_words(&self.words, width)
    }

    /// Concatenation: `self` becomes the high bits, `low` the low bits,
    /// matching FIRRTL's `cat(hi, lo)`.
    pub fn cat(&self, low: &Bits) -> Self {
        let lw = low.width.get();
        let width = Width::new(lw + self.width.get());
        let mut words = Words::from_slice(&low.words, width.words());
        or_shifted(&mut words, &self.words, lw);
        Bits { words, width }
    }

    /// Bit extraction `self[hi:lo]` (inclusive), like FIRRTL `bits(x, hi, lo)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is outside the width.
    pub fn extract(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "extract range reversed: [{hi}:{lo}]");
        assert!(
            hi < self.width.get(),
            "extract hi bit {hi} out of width {}",
            self.width
        );
        let mut out = Bits::zero(hi - lo + 1);
        out.assign_field(self, lo);
        out
    }

    /// In-place field read: `self = src[offset +: self.width()]`, keeping
    /// this value's width and allocation. Bits of the field at or past
    /// `src`'s width read as zero, so a token shorter than the layout it
    /// is unpacked with is zero-extended. Never allocates.
    ///
    /// This is how the LI-BDN takes one port's value out of a token.
    pub fn assign_field(&mut self, src: &Bits, offset: u32) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = shifted_word(&src.words, offset, i);
        }
        self.mask_top();
    }

    /// In-place field write: ORs `src.resize(width)` into
    /// `self[offset +: width]`. The field must lie inside this value's
    /// width and is expected to be zero beforehand (tokens are packed
    /// into a zeroed value). Never allocates.
    ///
    /// This is how the LI-BDN puts one port's value into a token.
    ///
    /// # Panics
    ///
    /// Panics if the field reaches past this value's width.
    pub fn or_field(&mut self, offset: u32, src: &Bits, width: Width) {
        assert!(
            offset + width.get() <= self.width.get(),
            "field [{offset} +: {width}] out of width {}",
            self.width
        );
        let n = width.words();
        let rem = width.get() % 64;
        for i in 0..n {
            let mut w = src.words.get(i).copied().unwrap_or(0);
            if i + 1 == n && rem != 0 {
                w &= (1u64 << rem) - 1;
            }
            or_shifted(&mut self.words, &[w], offset + 64 * i as u32);
        }
    }

    /// Wrapping addition at `max(widths)` bits.
    pub fn add(&self, rhs: &Bits) -> Self {
        let width = self.width.max(rhs.width);
        let a = self.resize(width);
        let b = rhs.resize(width);
        let mut out = Bits::zero(width);
        let mut carry = 0u64;
        for i in 0..width.words() {
            let (s1, c1) = a.words[i].overflowing_add(b.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Wrapping subtraction at `max(widths)` bits (two's complement).
    pub fn sub(&self, rhs: &Bits) -> Self {
        let width = self.width.max(rhs.width);
        let b = rhs.resize(width).not();
        self.resize(width)
            .add(&b)
            .add(&Bits::from_u64(1, width))
            .resize(width)
    }

    /// Wrapping multiplication at `max(widths)` bits.
    pub fn mul(&self, rhs: &Bits) -> Self {
        let width = self.width.max(rhs.width);
        let a = self.resize(width);
        let b = rhs.resize(width);
        let mut out = Bits::zero(width);
        let n = width.words();
        for i in 0..n {
            let mut carry = 0u128;
            if a.words[i] == 0 {
                continue;
            }
            for j in 0..n - i {
                let cur =
                    out.words[i + j] as u128 + (a.words[i] as u128) * (b.words[j] as u128) + carry;
                out.words[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        out.mask_top();
        out
    }

    /// Unsigned division; division by zero yields all-zeros (FIRRTL leaves it
    /// undefined, we pick zero for determinism). Only widths ≤ 64 support
    /// division.
    ///
    /// # Panics
    ///
    /// Panics if either operand is wider than 64 bits.
    pub fn udiv(&self, rhs: &Bits) -> Self {
        assert!(
            self.width.get() <= 64 && rhs.width.get() <= 64,
            "udiv supports widths <= 64"
        );
        let v = self.to_u64().checked_div(rhs.to_u64()).unwrap_or(0);
        Bits::from_u64(v, self.width.max(rhs.width))
    }

    /// Unsigned remainder with the same restrictions as [`Bits::udiv`].
    ///
    /// # Panics
    ///
    /// Panics if either operand is wider than 64 bits.
    pub fn urem(&self, rhs: &Bits) -> Self {
        assert!(
            self.width.get() <= 64 && rhs.width.get() <= 64,
            "urem supports widths <= 64"
        );
        let v = self.to_u64().checked_rem(rhs.to_u64()).unwrap_or(0);
        Bits::from_u64(v, self.width.max(rhs.width))
    }

    /// Bitwise AND at `max(widths)` bits.
    pub fn and(&self, rhs: &Bits) -> Self {
        self.zip(rhs, |a, b| a & b)
    }

    /// Bitwise OR at `max(widths)` bits.
    pub fn or(&self, rhs: &Bits) -> Self {
        self.zip(rhs, |a, b| a | b)
    }

    /// Bitwise XOR at `max(widths)` bits.
    pub fn xor(&self, rhs: &Bits) -> Self {
        self.zip(rhs, |a, b| a ^ b)
    }

    fn zip(&self, rhs: &Bits, f: impl Fn(u64, u64) -> u64) -> Self {
        let width = self.width.max(rhs.width);
        let a = self.resize(width);
        let b = rhs.resize(width);
        let mut out = Bits::zero(width);
        for i in 0..width.words() {
            out.words[i] = f(a.words[i], b.words[i]);
        }
        out.mask_top();
        out
    }

    /// Bitwise NOT at the value's own width.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        for w in out.words.iter_mut() {
            *w = !*w;
        }
        out.mask_top();
        out
    }

    /// Logical shift left by a constant, keeping the width.
    pub fn shl(&self, n: u32) -> Self {
        let mut out = Bits::zero(self.width);
        for i in n..self.width.get() {
            if self.bit(i - n) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Logical shift right by a constant, keeping the width.
    pub fn shr(&self, n: u32) -> Self {
        let mut out = Bits::zero(self.width);
        if n >= self.width.get() {
            return out;
        }
        for i in 0..self.width.get() - n {
            if self.bit(i + n) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// OR-reduction to a single bit.
    pub fn reduce_or(&self) -> Self {
        Bits::from_u64(u64::from(!self.is_zero()), 1)
    }

    /// AND-reduction to a single bit (true iff every bit in the width is set).
    pub fn reduce_and(&self) -> Self {
        let all = self.count_ones() == self.width.get();
        Bits::from_u64(u64::from(all && !self.width.is_zero()), 1)
    }

    /// XOR-reduction to a single bit (parity).
    pub fn reduce_xor(&self) -> Self {
        Bits::from_u64(u64::from(self.count_ones() % 2 == 1), 1)
    }

    /// Unsigned comparison.
    pub fn ucmp(&self, rhs: &Bits) -> std::cmp::Ordering {
        let width = self.width.max(rhs.width);
        let a = self.resize(width);
        let b = rhs.resize(width);
        for i in (0..width.words()).rev() {
            match a.words[i].cmp(&b.words[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// Word `i` of `src >> offset`; words past the end of `src` read as zero.
fn shifted_word(src: &[u64], offset: u32, i: usize) -> u64 {
    let at = (offset / 64) as usize + i;
    let shift = offset % 64;
    let word = |k: usize| src.get(k).copied().unwrap_or(0);
    if shift == 0 {
        word(at)
    } else {
        (word(at) >> shift) | (word(at + 1) << (64 - shift))
    }
}

/// `dst |= src << offset`; bits shifted past the end of `dst` are dropped.
fn or_shifted(dst: &mut [u64], src: &[u64], offset: u32) {
    let at = (offset / 64) as usize;
    let shift = offset % 64;
    for (i, &w) in src.iter().enumerate() {
        if let Some(d) = dst.get_mut(at + i) {
            *d |= w << shift;
        }
        if shift != 0 {
            if let Some(d) = dst.get_mut(at + i + 1) {
                *d |= w >> (64 - shift);
            }
        }
    }
}

impl Default for Bits {
    fn default() -> Self {
        Bits::zero(0)
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits<{}>({:#x})", self.width, self)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(self, f)
    }
}

impl fmt::LowerHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.words.is_empty() {
            return write!(f, "0");
        }
        let mut started = false;
        let mut s = String::new();
        for w in self.words.iter().rev() {
            if started {
                s.push_str(&format!("{w:016x}"));
            } else if *w != 0 || std::ptr::eq(w, &self.words[0]) {
                s.push_str(&format!("{w:x}"));
                started = true;
            }
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Binary for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.width.get();
        if bits == 0 {
            return write!(f, "0");
        }
        let s: String = (0..bits)
            .rev()
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect();
        f.pad_integral(true, "0b", &s)
    }
}

impl From<bool> for Bits {
    fn from(v: bool) -> Self {
        Bits::from_u64(u64::from(v), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_ones() {
        let z = Bits::zero(130);
        assert!(z.is_zero());
        assert_eq!(z.width().get(), 130);
        let o = Bits::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(!o.bit(130)); // out of range reads false
    }

    #[test]
    fn from_u64_truncates() {
        let b = Bits::from_u64(0xff, 4);
        assert_eq!(b.to_u64(), 0xf);
    }

    #[test]
    fn add_wraps_at_width() {
        let a = Bits::from_u64(0xffff_ffff_ffff_ffff, 64);
        let one = Bits::from_u64(1, 64);
        assert_eq!(a.add(&one).to_u64(), 0);
    }

    #[test]
    fn add_carries_across_words() {
        let a = Bits::from_words(&[u64::MAX, 0], 128);
        let one = Bits::from_u64(1, 128);
        let s = a.add(&one);
        assert_eq!(s.as_words(), &[0, 1]);
    }

    #[test]
    fn sub_two_complement() {
        let a = Bits::from_u64(5, 8);
        let b = Bits::from_u64(7, 8);
        assert_eq!(a.sub(&b).to_u64(), 254); // -2 mod 256
        assert_eq!(b.sub(&a).to_u64(), 2);
    }

    #[test]
    fn mul_basic_and_wide() {
        let a = Bits::from_u64(1 << 40, 128);
        let b = Bits::from_u64(1 << 30, 128);
        let p = a.mul(&b);
        assert_eq!(p.as_words(), &[0, 1 << 6]); // 2^70
    }

    #[test]
    fn div_rem() {
        let a = Bits::from_u64(17, 8);
        let b = Bits::from_u64(5, 8);
        assert_eq!(a.udiv(&b).to_u64(), 3);
        assert_eq!(a.urem(&b).to_u64(), 2);
        assert_eq!(a.udiv(&Bits::zero(8)).to_u64(), 0);
    }

    #[test]
    fn cat_orders_high_low() {
        let hi = Bits::from_u64(0b101, 3);
        let lo = Bits::from_u64(0b01, 2);
        let c = hi.cat(&lo);
        assert_eq!(c.width().get(), 5);
        assert_eq!(c.to_u64(), 0b10101);
    }

    #[test]
    fn extract_inclusive_range() {
        let v = Bits::from_u64(0b110100, 6);
        assert_eq!(v.extract(4, 2).to_u64(), 0b101);
        assert_eq!(v.extract(0, 0).to_u64(), 0);
        assert_eq!(v.extract(5, 5).to_u64(), 1);
    }

    #[test]
    #[should_panic(expected = "out of width")]
    fn extract_out_of_range_panics() {
        Bits::from_u64(1, 4).extract(4, 0);
    }

    #[test]
    fn logic_ops() {
        let a = Bits::from_u64(0b1100, 4);
        let b = Bits::from_u64(0b1010, 4);
        assert_eq!(a.and(&b).to_u64(), 0b1000);
        assert_eq!(a.or(&b).to_u64(), 0b1110);
        assert_eq!(a.xor(&b).to_u64(), 0b0110);
        assert_eq!(a.not().to_u64(), 0b0011);
    }

    #[test]
    fn mixed_width_ops_extend() {
        let a = Bits::from_u64(0b1, 1);
        let b = Bits::from_u64(0b1000, 4);
        assert_eq!(a.or(&b).width().get(), 4);
        assert_eq!(a.or(&b).to_u64(), 0b1001);
    }

    #[test]
    fn shifts_keep_width() {
        let a = Bits::from_u64(0b0110, 4);
        assert_eq!(a.shl(1).to_u64(), 0b1100);
        assert_eq!(a.shl(3).to_u64(), 0); // 0b0110000 truncated to 4 bits
        assert_eq!(a.shr(1).to_u64(), 0b0011);
        assert_eq!(a.shr(8).to_u64(), 0);
    }

    #[test]
    fn reductions() {
        assert_eq!(Bits::from_u64(0, 4).reduce_or().to_u64(), 0);
        assert_eq!(Bits::from_u64(2, 4).reduce_or().to_u64(), 1);
        assert_eq!(Bits::ones(4).reduce_and().to_u64(), 1);
        assert_eq!(Bits::from_u64(0b0111, 4).reduce_and().to_u64(), 0);
        assert_eq!(Bits::from_u64(0b0111, 4).reduce_xor().to_u64(), 1);
    }

    #[test]
    fn comparison() {
        use std::cmp::Ordering;
        let a = Bits::from_words(&[0, 1], 128);
        let b = Bits::from_words(&[u64::MAX, 0], 128);
        assert_eq!(a.ucmp(&b), Ordering::Greater);
        assert_eq!(b.ucmp(&a), Ordering::Less);
        assert_eq!(a.ucmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn binary_str_roundtrip() {
        let b = Bits::from_binary_str("10110").unwrap();
        assert_eq!(b.to_u64(), 0b10110);
        assert_eq!(format!("{b:b}"), "10110");
        assert!(Bits::from_binary_str("").is_none());
        assert!(Bits::from_binary_str("102").is_none());
    }

    #[test]
    fn zero_width_is_inert() {
        let z = Bits::zero(0);
        assert!(z.is_zero());
        assert_eq!(z.cat(&Bits::from_u64(3, 2)).to_u64(), 3);
    }

    #[test]
    fn set_from_u64_masks_and_zeroes_upper_words() {
        let mut b = Bits::from_words(&[u64::MAX, u64::MAX], 100);
        b.set_from_u64(0xABCD);
        assert_eq!(b, Bits::from_u64(0xABCD, 100));
        let mut narrow = Bits::zero(4);
        narrow.set_from_u64(0xFF);
        assert_eq!(narrow.to_u64(), 0xF);
        let mut zw = Bits::zero(0);
        zw.set_from_u64(7); // inert
        assert!(zw.is_zero());
    }

    #[test]
    fn assign_resized_matches_resize() {
        for (src_w, dst_w) in [(8u32, 80u32), (80, 8), (64, 64), (100, 33)] {
            let src = Bits::from_words(&[0xDEAD_BEEF_CAFE_F00D, 0x1234_5678], src_w);
            let mut dst = Bits::ones(dst_w);
            dst.assign_resized(&src);
            assert_eq!(dst, src.resize(dst_w), "src {src_w} -> dst {dst_w}");
        }
    }

    #[test]
    fn eq_resized_matches_resize_equality() {
        for (a_w, b_w) in [(8u32, 80u32), (80, 8), (64, 64), (100, 33), (3, 7)] {
            let a = Bits::from_words(&[0xDEAD_BEEF_CAFE_F00D, 0x1234_5678], a_w);
            let b = Bits::from_words(&[0xDEAD_BEEF_CAFE_F00D, 0x1234_5678], b_w);
            assert_eq!(a.eq_resized(&b), a == b.resize(a_w), "a {a_w} vs b {b_w}");
            assert!(a.eq_resized(&a.clone()));
            assert_eq!(
                a.eq_resized(&Bits::zero(b_w)),
                a == Bits::zero(b_w).resize(a_w)
            );
        }
    }

    #[test]
    fn eq_u64_matches_from_u64_equality() {
        for width in [0u32, 1, 7, 63, 64, 65, 130] {
            for value in [0u64, 1, 0x7F, u64::MAX, 1 << 63] {
                let want = Bits::from_u64(value, width);
                assert!(want.eq_u64(value), "{width} bits, {value:#x}");
                let other = Bits::ones(width);
                assert_eq!(
                    other.eq_u64(value),
                    other == want,
                    "{width} bits, {value:#x}"
                );
            }
        }
    }

    #[test]
    fn clone_from_reuses_and_copies() {
        let src = Bits::from_words(&[1, 2, 3], 180);
        let mut dst = Bits::zero(180);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        let mut shrunk = Bits::ones(200);
        shrunk.clone_from(&Bits::from_u64(9, 8));
        assert_eq!(shrunk, Bits::from_u64(9, 8));
    }

    /// The bit-loop `cat` the word-level one replaced, kept as its oracle.
    fn cat_by_bits(hi: &Bits, low: &Bits) -> Bits {
        let lw = low.width().get();
        let mut out = Bits::zero(lw + hi.width().get());
        for i in 0..lw {
            if low.bit(i) {
                out.set_bit(i, true);
            }
        }
        for i in 0..hi.width().get() {
            if hi.bit(i) {
                out.set_bit(lw + i, true);
            }
        }
        out
    }

    /// The bit-loop `extract`, widened to read zeros past the source's
    /// width (the `unpack` zero-extension rule) so it also serves as the
    /// oracle for `assign_field`.
    fn field_by_bits(src: &Bits, offset: u32, width: u32) -> Bits {
        let mut out = Bits::zero(width);
        for i in 0..width {
            if src.bit(offset + i) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// The bit-loop body of the old `ChannelSpec::pack`.
    fn or_field_by_bits(dst: &mut Bits, offset: u32, src: &Bits, width: u32) {
        let v = src.resize(width);
        for i in 0..width {
            if v.bit(i) {
                dst.set_bit(offset + i, true);
            }
        }
    }

    fn bits_of(words: &[u64], width: u32) -> Bits {
        Bits::from_words(words, width)
    }

    mod word_level_field_ops {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn cat_matches_the_bit_loop(
                hi_w in 0u32..201, lo_w in 0u32..201,
                hi in proptest::collection::vec(any::<u64>(), 4),
                lo in proptest::collection::vec(any::<u64>(), 4),
            ) {
                let (hi, lo) = (bits_of(&hi, hi_w), bits_of(&lo, lo_w));
                prop_assert_eq!(hi.cat(&lo), cat_by_bits(&hi, &lo));
            }

            #[test]
            fn extract_matches_the_bit_loop(
                w in 1u32..201, a in any::<u32>(), b in any::<u32>(),
                words in proptest::collection::vec(any::<u64>(), 4),
            ) {
                let v = bits_of(&words, w);
                let (a, b) = (a % w, b % w);
                let (hi, lo) = (a.max(b), a.min(b));
                prop_assert_eq!(v.extract(hi, lo), field_by_bits(&v, lo, hi - lo + 1));
            }

            #[test]
            fn assign_field_reads_short_and_long_tokens(
                token_w in 0u32..201, field_w in 0u32..201, offset in 0u32..201,
                words in proptest::collection::vec(any::<u64>(), 4),
            ) {
                // The field may start or end past the token: a short token
                // is zero-extended, a long one is simply not read past
                // the field.
                let token = bits_of(&words, token_w);
                let mut field = Bits::ones(field_w);
                field.assign_field(&token, offset);
                prop_assert_eq!(field, field_by_bits(&token, offset, field_w));
            }

            #[test]
            fn or_field_packs_like_the_bit_loop(
                field_w in 0u32..201, src_w in 0u32..201, offset in 0u32..130, slack in 0u32..70,
                words in proptest::collection::vec(any::<u64>(), 4),
                below in proptest::collection::vec(any::<u64>(), 3),
            ) {
                // A neighbouring field below the one under test must
                // survive, and a source wider or narrower than the field
                // is truncated or zero-extended into it.
                let src = bits_of(&words, src_w);
                let mut token = Bits::zero(offset + field_w + slack);
                token.or_field(0, &bits_of(&below, offset), Width::new(offset));
                let mut want = token.clone();
                token.or_field(offset, &src, Width::new(field_w));
                or_field_by_bits(&mut want, offset, &src, field_w);
                prop_assert_eq!(token, want);
            }
        }
    }

    #[test]
    fn field_ops_at_word_boundaries() {
        let v = Bits::from_words(&[u64::MAX, 0, u64::MAX, 0x5], 200);
        for (offset, width) in [
            (0u32, 64u32),
            (63, 2),
            (64, 64),
            (1, 128),
            (127, 73),
            (199, 1),
        ] {
            let mut f = Bits::zero(width);
            f.assign_field(&v, offset);
            assert_eq!(f, field_by_bits(&v, offset, width), "[{offset} +: {width}]");
            assert_eq!(f, v.extract(offset + width - 1, offset));
        }
        // Zero-width fields are inert in both directions.
        let mut z = Bits::zero(0);
        z.assign_field(&v, 70);
        assert_eq!(z, Bits::zero(0));
        let mut t = v.clone();
        t.or_field(200, &Bits::ones(9), Width::new(0));
        assert_eq!(t, v);
    }

    #[test]
    #[should_panic(expected = "out of width")]
    fn or_field_past_the_width_panics() {
        Bits::zero(8).or_field(4, &Bits::ones(8), Width::new(5));
    }

    #[test]
    fn set_bit_across_words() {
        let mut b = Bits::zero(100);
        b.set_bit(99, true);
        assert!(b.bit(99));
        assert_eq!(b.count_ones(), 1);
        b.set_bit(99, false);
        assert!(b.is_zero());
    }

    #[test]
    fn inline_words_keep_bits_at_four_words() {
        assert_eq!(std::mem::size_of::<Bits>(), 32);
    }

    /// The storage-boundary oracle: the heap-only layout `Bits` had before
    /// one-word values went inline, with its derived `Hash`/`Eq`, and
    /// every operation written directly on the vector or bit by bit.
    mod inline_boundary {
        use super::*;
        use proptest::prelude::*;
        use std::hash::{DefaultHasher, Hash, Hasher};

        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Heap {
            words: Vec<u64>,
            width: Width,
        }

        impl Heap {
            fn from_words(words: &[u64], width: u32) -> Heap {
                let width = Width::new(width);
                let mut words = words.to_vec();
                words.resize(width.words(), 0);
                if let (Some(top), r @ 1..) = (words.last_mut(), width.get() % 64) {
                    *top &= (1u64 << r) - 1;
                }
                Heap { words, width }
            }

            fn bit(&self, i: u32) -> bool {
                i < self.width.get() && (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
            }

            fn with_bits(width: u32, bit: impl Fn(u32) -> bool) -> Heap {
                let mut words = vec![0u64; Width::new(width).words()];
                for i in (0..width).filter(|&i| bit(i)) {
                    words[(i / 64) as usize] |= 1 << (i % 64);
                }
                Heap::from_words(&words, width)
            }

            fn resize(&self, width: u32) -> Heap {
                Heap::from_words(&self.words, width)
            }

            fn field(&self, offset: u32, width: u32) -> Heap {
                Heap::with_bits(width, |i| self.bit(offset + i))
            }

            fn cat(&self, low: &Heap) -> Heap {
                let lw = low.width.get();
                Heap::with_bits(lw + self.width.get(), |i| {
                    if i < lw {
                        low.bit(i)
                    } else {
                        self.bit(i - lw)
                    }
                })
            }
        }

        fn hash_of(v: &impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }

        /// `got` holds the oracle's value: same words, width, `u64` view,
        /// hash, and equality with a `Bits` built from the oracle's words.
        fn agrees(got: &Bits, want: &Heap) -> Result<(), TestCaseError> {
            prop_assert_eq!(got.as_words(), &want.words[..]);
            prop_assert_eq!(got.width(), want.width);
            prop_assert_eq!(got.to_u64(), want.words.first().copied().unwrap_or(0));
            prop_assert_eq!(hash_of(got), hash_of(want));
            prop_assert_eq!(got, &Bits::from_words(&want.words, want.width.get()));
            Ok(())
        }

        /// Widths 0..=130, half the draws on the storage edges.
        fn width() -> impl Strategy<Value = u32> {
            (0u32..262).prop_map(|k| match k {
                0..=130 => k,
                _ => [0, 1, 63, 64, 65, 128][(k % 6) as usize],
            })
        }

        fn words() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(any::<u64>(), 3)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn from_words_and_resize_cross_the_boundary(
                w in width(), to in width(), ws in words(),
            ) {
                let (b, h) = (Bits::from_words(&ws, w), Heap::from_words(&ws, w));
                agrees(&b, &h)?;
                agrees(&b.resize(to), &h.resize(to))?;
                agrees(&b.resize(to).resize(w), &h.resize(to).resize(w))?;
            }

            #[test]
            fn clone_from_moves_between_inline_and_heap(
                dst_w in width(), src_w in width(), a in words(), b in words(),
            ) {
                let src = Bits::from_words(&b, src_w);
                let mut dst = Bits::from_words(&a, dst_w);
                dst.clone_from(&src);
                agrees(&dst, &Heap::from_words(&b, src_w))?;
                agrees(&src.clone(), &Heap::from_words(&b, src_w))?;
            }

            #[test]
            fn in_place_stores_and_compares_mask_like_the_oracle(
                w in width(), src_w in width(), a in words(), b in words(), v in any::<u64>(),
            ) {
                let src = Bits::from_words(&b, src_w);
                let want = Heap::from_words(&b, src_w).resize(w);
                let mut dst = Bits::from_words(&a, w);
                prop_assert_eq!(dst.eq_resized(&src), Heap::from_words(&a, w) == want);
                dst.assign_resized(&src);
                agrees(&dst, &want)?;
                prop_assert!(dst.eq_resized(&src));

                let by_u64 = Heap::from_words(&[v], w);
                prop_assert_eq!(dst.eq_u64(v), want == by_u64);
                // Agreeing in word 0 is not enough above 64 bits.
                let low = dst.to_u64();
                prop_assert_eq!(dst.eq_u64(low), want == Heap::from_words(&[low], w));
                dst.set_from_u64(v);
                agrees(&dst, &by_u64)?;
                prop_assert!(dst.eq_u64(v));

                dst.set_from_words(&b);
                agrees(&dst, &Heap::from_words(&b, w))?;
            }

            #[test]
            fn field_ops_and_cat_cross_the_boundary(
                hi_w in width(), lo_w in width(), offset in 0u32..131,
                a in words(), b in words(),
            ) {
                let (hi, lo) = (Bits::from_words(&a, hi_w), Bits::from_words(&b, lo_w));
                let (hhi, hlo) = (Heap::from_words(&a, hi_w), Heap::from_words(&b, lo_w));
                agrees(&hi.cat(&lo), &hhi.cat(&hlo))?;

                let mut field = Bits::ones(lo_w);
                field.assign_field(&hi, offset);
                agrees(&field, &hhi.field(offset, lo_w))?;

                // `lo` packed at `offset` into a zeroed token with room
                // for it: the token's bits below, inside and above the
                // field read as the oracle's `cat`s do.
                let mut token = Bits::zero(offset + lo_w);
                token.or_field(offset, &lo, Width::new(lo_w));
                agrees(&token, &hlo.cat(&Heap::from_words(&[], offset)))?;
            }
        }
    }
}
