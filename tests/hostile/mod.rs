//! The hostile-bytes harness: every decoder of bytes that arrive from
//! outside is fed every strict prefix and seeded single-byte flips of a
//! real encoding, under a per-thread allocation bound. Each input must
//! give an error or exactly the value its bytes describe — never a panic,
//! and never an allocation past a small multiple of the input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single request each thread makes of the heap
/// (per thread, because a suite's tests run in parallel).
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the bookkeeping
// is a `Cell` in a `const`-initialized thread-local with no destructor,
// which neither allocates nor can be reentered.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// Runs `f` and checks that no single allocation inside it exceeded a
/// small multiple of `blob_len` (decoded values are a few times wider in
/// memory than on the wire, and vectors grow by doubling).
pub fn bounded_by<R>(blob_len: usize, f: impl FnOnce() -> R) -> R {
    LARGEST.with(|l| l.set(0));
    let r = f();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 8 * blob_len + 4096,
        "decoding {blob_len} bytes asked for {largest} at once"
    );
    r
}

/// Every strict prefix of `blob`, then 256 copies with one byte changed
/// at a seeded position.
pub fn damaged(blob: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut seed = fnv1a(blob);
    let flips = (0..256).map(move |_| {
        // splitmix64
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut bad = blob.to_vec();
        bad[(z >> 8) as usize % blob.len()] ^= (z as u8).max(1);
        bad
    });
    (0..blob.len()).map(|n| blob[..n].to_vec()).chain(flips)
}

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Feeds every damaged copy of `bytes` to `round_trip`, which decodes
/// its input and re-encodes the value: each copy must be refused, or
/// come back byte for byte.
#[allow(dead_code)] // `state_blobs.rs` restores blobs into a simulation instead
pub fn refused_or_exact<E: std::fmt::Debug>(
    name: &str,
    bytes: &[u8],
    round_trip: impl Fn(&[u8]) -> Result<Vec<u8>, E>,
) {
    assert!(
        round_trip(bytes).is_ok_and(|b| b == bytes),
        "{name}: the undamaged bytes"
    );
    for bad in damaged(bytes) {
        if let Ok(again) = bounded_by(bytes.len(), || round_trip(&bad)) {
            assert!(
                again == bad,
                "{name}: damaged bytes decoded to another value"
            );
        }
    }
}
