//! Canonical byte encoding for collective payloads.
//!
//! The in-process [`ThreadComm`](crate::thread::ThreadComm) moves
//! payloads between rank threads as `Box<dyn Any>` — no serialization at
//! all. A real transport needs actual bytes, so every type that travels
//! through a [`Communicator`](crate::Communicator) collective implements
//! [`Wire`]: a strict, canonical, self-delimiting encoding built on the
//! workspace varint codec ([`sbp_graph::varint`]). The same values carry
//! the daemon's messages and the payload of the `.sbpc` checkpoint file
//! (`sbp_core::checkpoint`), so a snapshot on disk and a frame on a
//! socket decode under one set of rules.
//!
//! The encoding is **canonical** (one byte string per value — wider
//! integers are varints, a `u8` is its byte, floats are fixed-width
//! `to_bits`), which is load-bearing
//! for the exactness story: a TCP cluster and the thread simulator must
//! produce bit-identical results, so nothing about the representation
//! may depend on the transport.
//!
//! Byte sequences travel raw: a `Vec<u8>` is its varint count followed by
//! the bytes themselves, one copy each way, through the sequence hooks
//! [`Wire::wire_write_seq`] / [`Wire::wire_read_seq`] that `u8` overrides.
//! The payloads that matter most are already packed bytes (the sync
//! sections, `encode_cells`, move lists), and a varint per byte would
//! spend two bytes on every byte ≥ 0x80.
//!
//! Decoders follow the same discipline as every other decoder in the
//! workspace (see [`sbp_graph::frame`]): typed [`DecodeError`]s, never
//! panics, and no allocation sized from attacker-controlled data before
//! it is bounds-checked against the bytes actually present.

use sbp_graph::frame::DecodeError;
use sbp_graph::varint::{read_i64, read_u64, write_i64, write_u64};
use sbp_graph::EdgeDelta;

/// A value with a canonical wire encoding, usable as a collective
/// payload element on any [`Communicator`](crate::Communicator)
/// implementation, including real transports.
pub trait Wire: Sized {
    /// Appends this value's canonical encoding to `buf`.
    fn wire_write(&self, buf: &mut Vec<u8>);

    /// Decodes one value starting at `*pos`, advancing `*pos` past it.
    /// Strict: truncation and out-of-domain values return a typed error.
    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError>;

    /// Appends the encodings of `items`, without a count: the body of a
    /// `Vec<Self>`. The default writes one element after another.
    fn wire_write_seq(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.wire_write(buf);
        }
    }

    /// Decodes the body of a `Vec<Self>` of `count` elements starting at
    /// `*pos`. The caller has checked `count` against the bytes remaining
    /// (every element encodes to at least one byte), so allocating for it
    /// is bounded by the input. The default reads one element after
    /// another.
    fn wire_read_seq(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Self::wire_read(buf, pos)?);
        }
        Ok(out)
    }
}

/// Encodes one value into a fresh buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.wire_write(&mut buf);
    buf
}

/// Decodes exactly one value from `buf`, rejecting trailing bytes.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut pos = 0usize;
    let value = T::wire_read(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(DecodeError::TrailingBytes { what: "wire value" });
    }
    Ok(value)
}

/// Decodes a `Vec<T>` (its count, then the elements) of at most `max`
/// elements: a count over `max` is `ValueOutOfRange { what }`, and one over
/// the bytes left `CountExceedsPayload`, both before anything is sized.
/// `Vec<T>` itself is the `usize::MAX` case; a protocol that caps a list
/// below what its payload could hold passes its cap.
pub fn read_vec<T: Wire>(
    buf: &[u8],
    pos: &mut usize,
    max: usize,
    what: &'static str,
) -> Result<Vec<T>, DecodeError> {
    let count = read_u64(buf, pos).ok_or(TRUNCATED)?;
    if count > max as u64 {
        return Err(DecodeError::ValueOutOfRange { what });
    }
    // Every element encodes to at least one byte, so a count beyond
    // the remaining bytes is hostile — reject before allocating.
    let remaining = (buf.len() - *pos) as u64;
    if count > remaining {
        return Err(DecodeError::CountExceedsPayload {
            what,
            declared: count,
            max: remaining,
        });
    }
    T::wire_read_seq(buf, pos, count as usize)
}

const TRUNCATED: DecodeError = DecodeError::Truncated { what: "wire value" };

impl Wire for u64 {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        write_u64(buf, *self);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        read_u64(buf, pos).ok_or(TRUNCATED)
    }
}

impl Wire for i64 {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        write_i64(buf, *self);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        read_i64(buf, pos).ok_or(TRUNCATED)
    }
}

/// Narrow unsigned integers travel as varint `u64` with a range check.
macro_rules! wire_unsigned {
    ($($t:ty => $what:literal),* $(,)?) => {$(
        impl Wire for $t {
            fn wire_write(&self, buf: &mut Vec<u8>) {
                write_u64(buf, *self as u64);
            }

            fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
                let raw = read_u64(buf, pos).ok_or(TRUNCATED)?;
                <$t>::try_from(raw).map_err(|_| DecodeError::ValueOutOfRange { what: $what })
            }
        }
    )*};
}

wire_unsigned!(u16 => "wire u16", u32 => "wire u32", usize => "wire usize");

/// A byte is itself on the wire, alone and in a sequence.
impl Wire for u8 {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let byte = *buf.get(*pos).ok_or(TRUNCATED)?;
        *pos += 1;
        Ok(byte)
    }

    fn wire_write_seq(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }

    fn wire_read_seq(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<u8>, DecodeError> {
        let end = pos
            .checked_add(count)
            .filter(|&e| e <= buf.len())
            .ok_or(TRUNCATED)?;
        let bytes = buf[*pos..end].to_vec();
        *pos = end;
        Ok(bytes)
    }
}

impl Wire for i32 {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        write_i64(buf, i64::from(*self));
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let raw = read_i64(buf, pos).ok_or(TRUNCATED)?;
        i32::try_from(raw).map_err(|_| DecodeError::ValueOutOfRange { what: "wire i32" })
    }
}

impl Wire for f64 {
    /// Fixed-width little-endian `to_bits`, preserving every bit pattern
    /// (including NaN payloads and signed zeros) — DL values must
    /// survive the wire bit-exactly.
    fn wire_write(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let end = pos
            .checked_add(8)
            .filter(|&e| e <= buf.len())
            .ok_or(TRUNCATED)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&buf[*pos..end]);
        *pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }
}

impl Wire for bool {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let byte = *buf.get(*pos).ok_or(TRUNCATED)?;
        *pos += 1;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::ValueOutOfRange { what: "wire bool" }),
        }
    }
}

impl Wire for String {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        write_u64(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let len = read_u64(buf, pos).ok_or(TRUNCATED)?;
        let remaining = (buf.len() - *pos) as u64;
        if len > remaining {
            return Err(DecodeError::CountExceedsPayload {
                what: "wire string",
                declared: len,
                max: remaining,
            });
        }
        let end = *pos + len as usize;
        let s = std::str::from_utf8(&buf[*pos..end])
            .map_err(|_| DecodeError::ValueOutOfRange { what: "wire utf8" })?
            .to_string();
        *pos = end;
        Ok(s)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        write_u64(buf, self.len() as u64);
        T::wire_write_seq(self, buf);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        read_vec(buf, pos, usize::MAX, "wire vec")
    }
}

/// An edge delta is its `(src, dst, delta)` triple — the element of the
/// daemon's `Ingest` list (here because the orphan rule keeps the impl out
/// of `sbp-serve`).
impl Wire for EdgeDelta {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        (self.src, self.dst, self.delta).wire_write(buf);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
        let (src, dst, delta) = Wire::wire_read(buf, pos)?;
        Ok(EdgeDelta { src, dst, delta })
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn wire_write(&self, buf: &mut Vec<u8>) {
                $(self.$idx.wire_write(buf);)+
            }

            fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, DecodeError> {
                Ok(($($name::wire_read(buf, pos)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let buf = encode(&value);
        assert_eq!(decode::<T>(&buf).expect("roundtrip"), value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(u32::MAX);
        roundtrip(usize::MAX);
        roundtrip(255u8);
        roundtrip(-7i32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for x in [
            0.0f64,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            -f64::NAN,
        ] {
            let buf = encode(&x);
            let back = decode::<f64>(&buf).expect("roundtrip");
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![vec![1u8, 2], vec![], vec![3]]);
        roundtrip((42u32, -1i64));
        roundtrip((1u32, 2u32, 3i64));
        roundtrip((vec![7u32], 9usize, 2.5f64, vec![1u8], true));
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        let buf = encode(&(vec![1u32, 2, 3], String::from("tail"), 1.25f64));
        for cut in 0..buf.len() {
            let r = decode::<(Vec<u32>, String, f64)>(&buf[..cut]);
            assert!(r.is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = encode(&7u64);
        buf.push(0);
        assert!(matches!(
            decode::<u64>(&buf),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        sbp_graph::varint::write_u64(&mut buf, u64::MAX);
        buf.push(0);
        assert!(matches!(
            decode::<Vec<u8>>(&buf),
            Err(DecodeError::CountExceedsPayload { .. })
        ));
        let mut buf = Vec::new();
        sbp_graph::varint::write_u64(&mut buf, 1 << 50);
        assert!(matches!(
            decode::<String>(&buf),
            Err(DecodeError::CountExceedsPayload { .. })
        ));
    }

    #[test]
    fn byte_vectors_travel_raw() {
        let bytes: Vec<u8> = (0..=255u8).chain([0x80, 0xff, 0]).collect();
        let buf = encode(&bytes);
        // A two-byte varint count, then the bytes themselves.
        assert_eq!(buf.len(), 2 + bytes.len());
        assert_eq!(&buf[2..], &bytes[..]);
        roundtrip(bytes.clone());
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![bytes.clone(), vec![], vec![0xfe]]);
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    decode::<Vec<u8>>(&buf[..cut]),
                    Err(DecodeError::Truncated { .. } | DecodeError::CountExceedsPayload { .. })
                ),
                "truncation at {cut} accepted"
            );
        }
        let nested = encode(&vec![bytes, vec![1, 2, 3]]);
        for cut in 0..nested.len() {
            assert!(decode::<Vec<Vec<u8>>>(&nested[..cut]).is_err(), "cut {cut}");
        }
        // The hook checks its own bounds when called directly.
        let mut pos = 1;
        assert_eq!(u8::wire_read_seq(&[1, 2, 3], &mut pos, 3), Err(TRUNCATED));
        assert_eq!(
            u8::wire_read_seq(&[1, 2, 3], &mut pos, usize::MAX),
            Err(TRUNCATED)
        );
        assert_eq!(pos, 1);
    }

    #[test]
    fn hostile_byte_counts_are_rejected_before_allocation() {
        // Four bytes of payload behind a count of 2^40: the count check
        // answers before any buffer is sized from it.
        let mut buf = Vec::new();
        sbp_graph::varint::write_u64(&mut buf, 1 << 40);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(
            decode::<Vec<u8>>(&buf),
            Err(DecodeError::CountExceedsPayload {
                what: "wire vec",
                declared: 1 << 40,
                max: 4,
            })
        );
        assert!(matches!(
            decode::<Vec<Vec<u8>>>(&buf),
            Err(DecodeError::CountExceedsPayload { .. })
        ));
    }

    #[test]
    fn capped_vectors_refuse_their_cap_before_the_payload() {
        let buf = encode(&vec![1u32, 2, 3]);
        let read = |max| read_vec::<u32>(&buf, &mut 0, max, "three ids");
        assert_eq!(read(3), Ok(vec![1, 2, 3]));
        assert_eq!(
            read(2),
            Err(DecodeError::ValueOutOfRange { what: "three ids" })
        );
        // A count under the cap but over the payload names the list too.
        let mut short = buf.clone();
        short.truncate(2);
        assert_eq!(
            read_vec::<u32>(&short, &mut 0, 3, "three ids"),
            Err(DecodeError::CountExceedsPayload {
                what: "three ids",
                declared: 3,
                max: 1,
            })
        );
    }

    #[test]
    fn edge_deltas_travel_as_their_triple() {
        let d = EdgeDelta {
            src: 300,
            dst: 2,
            delta: -2,
        };
        assert_eq!(encode(&d), encode(&(300u32, 2u32, -2i64)));
        roundtrip(vec![
            d,
            EdgeDelta {
                src: 0,
                dst: 7,
                delta: 3,
            },
        ]);
        // Vertex ids past u32 are refused.
        let wide = encode(&(u64::from(u32::MAX) + 1, 0u32, 1i64));
        assert!(matches!(
            decode::<EdgeDelta>(&wide),
            Err(DecodeError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let buf = encode(&(u64::from(u32::MAX) + 1));
        assert!(matches!(
            decode::<u32>(&buf),
            Err(DecodeError::ValueOutOfRange { .. })
        ));
        let buf = vec![2u8];
        assert!(matches!(
            decode::<bool>(&buf),
            Err(DecodeError::ValueOutOfRange { .. })
        ));
        let buf = encode(&vec![0xffu8, 0xfe]);
        assert!(matches!(
            decode::<String>(&buf),
            Err(DecodeError::ValueOutOfRange { .. })
        ));
    }
}
