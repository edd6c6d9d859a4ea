//! Strict wire-payload primitives shared by every binary decoder in the
//! workspace: the typed [`DecodeError`], the section framing that packs
//! several independently-encoded payloads into one buffer, and the byte
//! checksum of the `.sbpc` and serve-frame trailers.
//!
//! These started life inside `sbp-dist`'s collective codecs; they moved
//! here so the TCP transport in `sbp-mpi` (which `sbp-dist` depends on,
//! not the other way around) can reuse the exact same strict decoding
//! discipline: typed errors always, panics never, and no allocation
//! sized from attacker-controlled data before it is bounds-checked.

use crate::varint::read_u64;
use std::fmt;

/// A malformed wire payload detected by one of the strict decoders.
/// Every variant is raised *before* any allocation sized from
/// attacker-controlled data, so a hostile frame can cost at most the
/// declared decode limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a varint or before a declared element.
    Truncated {
        /// Which payload kind was being decoded.
        what: &'static str,
    },
    /// Decoding consumed less than the full buffer.
    TrailingBytes {
        /// Which payload kind was being decoded.
        what: &'static str,
    },
    /// A decoded value does not fit its target type or domain.
    ValueOutOfRange {
        /// Which field was out of range.
        what: &'static str,
    },
    /// A declared element count cannot possibly fit in the remaining
    /// bytes (checked before allocating the output vector).
    CountExceedsPayload {
        /// Which payload kind was being decoded.
        what: &'static str,
        /// The count the header declared.
        declared: u64,
        /// The maximum count the remaining bytes could encode.
        max: u64,
    },
    /// A section header declared a length extending past the buffer.
    SectionOutOfBounds {
        /// The declared section length.
        declared: u64,
        /// Bytes actually remaining in the buffer.
        available: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { what } => write!(f, "{what} payload truncated"),
            DecodeError::TrailingBytes { what } => {
                write!(f, "trailing bytes in {what} payload")
            }
            DecodeError::ValueOutOfRange { what } => write!(f, "{what} out of range"),
            DecodeError::CountExceedsPayload {
                what,
                declared,
                max,
            } => write!(
                f,
                "{what} count {declared} exceeds what the payload could hold ({max})"
            ),
            DecodeError::SectionOutOfBounds {
                declared,
                available,
            } => write!(
                f,
                "sync section length {declared} exceeds the {available} bytes available"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The order-sensitive byte checksum shared by the `.sbpc` checkpoint
/// trailer and the `sbp-serve` frame trailer: rotate, add the byte,
/// multiply — seeded with `seed ^ len`, so truncation, bit flips and
/// reordering all change it. Each format passes its own `seed`, which
/// keeps a frame of one format from validating as the other. (The TCP
/// cluster frames' 8-byte-chunk `mix64` and the per-edge `.sbps` mix are
/// different functions.)
pub fn checksum_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut acc = seed ^ (bytes.len() as u64);
    for &b in bytes {
        acc = acc
            .rotate_left(5)
            .wrapping_add(u64::from(b))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    acc ^= acc >> 31;
    acc
}

/// Hard ceiling on the section count [`split_sections`] accepts. The
/// callers frame at most a handful of sections; the ceiling exists so a
/// const generic can never be used to turn a header walk quadratic.
pub const MAX_SECTIONS: usize = 64;

/// Frames several independently-encoded payloads into one buffer, so a
/// whole sync point ships in a single allgather (or one TCP frame): a
/// tiny header holding the varint byte length of every section but the
/// last, then the sections back to back (the last runs to the end of
/// the buffer).
pub fn concat_sections<const N: usize>(sections: [&[u8]; N]) -> Vec<u8> {
    const {
        assert!(N >= 1 && N <= MAX_SECTIONS, "section count out of range");
    }
    let total: usize = sections.iter().map(|s| s.len()).sum();
    let mut buf = Vec::with_capacity(total + 2 * N);
    for s in &sections[..N - 1] {
        crate::varint::write_u64(&mut buf, s.len() as u64);
    }
    for s in sections {
        buf.extend_from_slice(s);
    }
    buf
}

/// Splits a buffer produced by [`concat_sections`] back into its `N`
/// sections. Strict: every declared length is bounds-checked against
/// the buffer before slicing (no allocation happens at all — the
/// sections borrow from `buf`), and `N` is capped at [`MAX_SECTIONS`]
/// at compile time.
pub fn split_sections<const N: usize>(buf: &[u8]) -> Result<[&[u8]; N], DecodeError> {
    const {
        assert!(N >= 1 && N <= MAX_SECTIONS, "section count out of range");
    }
    let mut pos = 0usize;
    let mut lens = [0usize; N];
    for l in lens.iter_mut().take(N - 1) {
        *l = read_u64(buf, &mut pos).ok_or(DecodeError::Truncated {
            what: "sync header",
        })? as usize;
    }
    let mut out = [&buf[..0]; N];
    for (i, slot) in out.iter_mut().enumerate() {
        let end = if i == N - 1 {
            buf.len()
        } else {
            pos.checked_add(lens[i])
                .ok_or(DecodeError::SectionOutOfBounds {
                    declared: lens[i] as u64,
                    available: buf.len() - pos,
                })?
        };
        if end > buf.len() || pos > end {
            return Err(DecodeError::SectionOutOfBounds {
                declared: lens[i] as u64,
                available: buf.len() - pos.min(buf.len()),
            });
        }
        *slot = &buf[pos..end];
        pos = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::write_u64;

    #[test]
    fn decode_errors_display_their_context() {
        let e = DecodeError::CountExceedsPayload {
            what: "move",
            declared: 1 << 40,
            max: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("move"), "{msg}");
        assert!(msg.contains("12"), "{msg}");
        let e = DecodeError::SectionOutOfBounds {
            declared: 200,
            available: 3,
        };
        assert!(e.to_string().contains("200"), "{e}");
    }

    #[test]
    fn sections_roundtrip_through_one_buffer() {
        let a = vec![1u8, 2, 3];
        let b = vec![9u8];
        let c: Vec<u8> = Vec::new();
        let framed = concat_sections([&a, &b, &c]);
        let [ra, rb, rc] = split_sections::<3>(&framed).expect("well-formed");
        assert_eq!(ra, &a[..]);
        assert_eq!(rb, &b[..]);
        assert_eq!(rc, &c[..]);
    }

    #[test]
    fn oversized_section_header_errors() {
        let mut framed = concat_sections([&[][..], &[][..], &[][..]]);
        framed[0] = 100; // claim a longer first section than the buffer holds
        assert!(matches!(
            split_sections::<3>(&framed),
            Err(DecodeError::SectionOutOfBounds { .. })
        ));
    }

    #[test]
    fn truncated_section_header_errors() {
        assert!(matches!(
            split_sections::<3>(&[]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn overflowing_section_header_errors() {
        // A header whose declared length wraps pos + len past usize::MAX.
        let mut framed = Vec::new();
        write_u64(&mut framed, u64::MAX);
        write_u64(&mut framed, 0);
        framed.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            split_sections::<3>(&framed),
            Err(DecodeError::SectionOutOfBounds { .. })
        ));
    }
}
