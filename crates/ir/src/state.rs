//! Portable state blobs: the one captured form of simulation state.
//!
//! Every capture of simulation state is a byte blob, whoever asks for
//! it: an in-process rollback, a lane of the bit-sliced engine
//! rehydrating into a scalar interpreter, a pooled worker rewinding to
//! cycle 0, a cluster checkpoint crossing the wire to the coordinator and
//! coming back into a freshly spawned worker. Each layer writes its
//! fields in the [`crate::codec`] layouts; a behavioral model declares
//! its state once, in one [`state_fields!`](crate::state_fields) line.
//!
//! The format deliberately carries no schema: both ends are the same
//! binary simulating the same design (the net handshake cross-checks the
//! design digest), so field order is the contract. A blob can still
//! arrive garbled off a socket, so decoding is total-length-checked,
//! never reserves more memory than twice the bytes left, and refuses any
//! shape mismatch, which restore paths surface as a rejected snapshot
//! rather than corrupt state. State blobs accept zero-width values: an
//! interpreter holds zero-width slots.

/// Implements `snapshot_bytes`/`restore_bytes` over the listed fields of
/// `self`, in declaration order, each in its [`Wire`](crate::codec::Wire)
/// layout. Restore
/// decodes every field into temporaries first and only assigns once the
/// whole blob (including its end position) has validated, so a rejected
/// blob leaves the model untouched.
///
/// Meant to be invoked inside an `impl ExternBehavior for Model` (or any
/// impl whose trait declares the same two methods).
#[macro_export]
macro_rules! state_fields {
    ($($field:ident),+ $(,)?) => {
        fn snapshot_bytes(&self) -> Option<Vec<u8>> {
            let mut b = Vec::new();
            $( $crate::codec::Wire::put(&self.$field, &mut b); )+
            Some(b)
        }

        fn restore_bytes(&mut self, bytes: &[u8]) -> bool {
            // Binds each field's type through a reference so the closure
            // can infer what to decode.
            fn infer<T: $crate::codec::Wire>(
                _: &T,
                d: &mut $crate::codec::Dec<'_>,
            ) -> $crate::codec::DecResult<T> {
                T::get(d)
            }
            let mut d = $crate::codec::Dec::new(bytes);
            let decoded: $crate::codec::DecResult<_> =
                (|| Ok(($( infer(&self.$field, &mut d)? ),+ ,)))();
            match decoded {
                Ok(($( $field ),+ ,)) if d.finish().is_ok() => {
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
    use crate::codec::{Dec, DecResult, Wire};
    use crate::Bits;
    use std::collections::VecDeque;

    fn encode<T: Wire>(v: &T) -> Vec<u8> {
        let mut b = Vec::new();
        v.put(&mut b);
        b
    }

    /// The value `bytes` hold, every byte of them.
    fn decode<T: Wire>(bytes: &[u8]) -> DecResult<T> {
        let mut d = Dec::new(bytes);
        let v = d.get()?;
        d.finish()?;
        Ok(v)
    }

    #[test]
    fn scalars_round_trip() {
        let v = (7u8, 0xDEAD_BEEFu32, (u64::MAX - 3, true, usize::MAX));
        let bytes = encode(&v);
        assert_eq!(bytes.len(), 1 + 4 + 8 + 1 + 8);
        assert_eq!(decode::<(u8, u32, (u64, bool, usize))>(&bytes), Ok(v));
        assert!(decode::<bool>(&[2]).is_err(), "a bool is 0 or 1");
        let mut d = Dec::new(&[0, 0, 0, 4, b'b', b'l', b'o', b'b', 9]);
        assert_eq!(d.bytes(), Ok(&b"blob"[..]));
        assert!(d.finish().is_err(), "one byte trails");
    }

    #[test]
    fn bits_round_trip_and_reject_padding() {
        for width in [0u32, 1, 12, 64, 65, 130, 300] {
            let v = if width == 0 {
                Bits::zero(0u32)
            } else {
                Bits::ones(width)
            };
            assert_eq!(decode::<Bits>(&encode(&v)), Ok(v.clone()));
        }
        let mut padded = encode(&12u32);
        padded.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode::<Bits>(&padded).is_err());
        let zero = encode(&Bits::zero(0u32));
        assert!(Bits::get(&mut Dec::new(&zero).refuse_zero_width()).is_err());
        let wide = encode(&((1u32 << 20) + 1));
        assert!(decode::<Bits>(&wide).is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u64, Bits)> = vec![(3, Bits::from_u64(5, 8)), (9, Bits::from_u64(1, 8))];
        let q: VecDeque<u64> = VecDeque::from(vec![1, 2, 3]);
        let all = (v, q, (Some(17u32), None::<u64>, String::from("ü")));
        let bytes = encode(&all);
        type All = (
            Vec<(u64, Bits)>,
            VecDeque<u64>,
            (Option<u32>, Option<u64>, String),
        );
        assert_eq!(decode::<All>(&bytes), Ok(all));
    }

    #[test]
    fn truncation_and_length_lies_are_rejected() {
        let bytes = encode(&vec![1u64, 2, 3]);
        assert!(decode::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode::<Vec<u64>>(&encode(&u32::MAX)).is_err());
        assert!(decode::<String>(&[0, 0, 0, 1, 0xFF]).is_err(), "not UTF-8");
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
        assert!(!u.restore_bytes(&longer));
        assert!(!u.restore_bytes(&bytes[..bytes.len() - 1]));
        assert_eq!(u, t);
    }
}
