//! Strict wire primitives shared by every binary decoder in the
//! workspace — typed errors always, panics never, no allocation sized by
//! attacker bytes before a bound check: the stream frame codec, the
//! payload decoders' [`DecodeError`], the section framing that packs
//! several payloads into one buffer, and the `.sbpc` trailer checksum.
//!
//! ## Frames
//!
//! ```text
//! frame    := tag:u8 | len:varint | payload:len bytes | checksum:u64le
//! checksum := h = mix64(seed ^ tag ^ len << 8), then h = mix64(h ^ c) for
//!             each 8-byte LE chunk c of the payload, the last zero-padded
//! ```
//!
//! Both stream protocols send every message as one such frame and name
//! their tags, each with a checksum seed and a payload cap ([`TagRule`]):
//! the TCP cluster (`sbp_mpi::tcp`) kinds 1–6 under the session id or a
//! public handshake seed, the daemon (`sbp_serve::protocol`) one tag under
//! its own seed, so either protocol's frame fails the other's reader at
//! its first byte. [`read_frame`] is the one parser. On-disk formats keep
//! their own mixers ([`checksum_bytes`], the `.sbps` per-edge mix): files
//! already written fix those bytes.

use crate::varint::read_u64;
use std::fmt;
use std::io::{self, Read};

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

/// How a reader checks a frame of one tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagRule {
    /// The seed the checksum must be sealed with.
    pub seed: u64,
    /// The longest payload, in bytes, the frame may declare.
    pub cap: u64,
}

/// Why [`read_frame`] or [`decode_frame`] produced no frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes ended inside a frame.
    Truncated,
    /// The first byte is a tag this reader does not accept.
    UnexpectedTag(u8),
    /// The length varint runs past 64 bits.
    BadLength,
    /// The declared payload length is over the tag's cap.
    TooLarge(u64),
    /// The checksum does not match under the tag's seed (corruption, or a
    /// frame sealed for another session or protocol).
    ChecksumMismatch,
    /// The stream failed, an expired read timeout included.
    Io(io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::UnexpectedTag(tag) => write!(f, "unexpected frame tag {tag:#04x}"),
            FrameError::BadLength => write!(f, "frame length varint overflows 64 bits"),
            FrameError::TooLarge(n) => write!(f, "frame declares {n} payload bytes, over the cap"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Io(kind) => write!(f, "socket error: {}", io::Error::from(*kind)),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            kind => FrameError::Io(kind),
        }
    }
}

/// splitmix64 finalizer — the workspace's standard bit mixer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The frame checksum (module docs): it catches corruption, not adversaries.
fn frame_checksum(seed: u64, tag: u8, payload: &[u8]) -> u64 {
    let mut h = mix64(seed ^ u64::from(tag) ^ ((payload.len() as u64) << 8));
    for chunk in payload.chunks(8) {
        let mut block = [0u8; 8];
        block[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(block));
    }
    h
}

/// Encodes one frame, its checksum sealed with `seed`.
pub fn encode_frame(seed: u64, tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 19);
    buf.push(tag);
    crate::varint::write_u64(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&frame_checksum(seed, tag, payload).to_le_bytes());
    buf
}

/// Reads one frame off `r`: its tag and payload, or `None` at a clean end
/// of stream on a frame boundary. `rule` accepts a tag by naming its seed
/// and cap; both are checked before the payload buffer is sized. The
/// header is read a byte at a time, so a socket belongs behind a buffer.
pub fn read_frame<R: Read + ?Sized>(
    r: &mut R,
    rule: impl Fn(u8) -> Option<TagRule>,
) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut byte = [0u8];
    match r.read_exact(&mut byte).map_err(FrameError::from) {
        Err(FrameError::Truncated) => return Ok(None),
        other => other?,
    }
    let tag = byte[0];
    let TagRule { seed, cap } = rule(tag).ok_or(FrameError::UnexpectedTag(tag))?;
    // LEB128, at most ten bytes; the tenth may only carry bit 63.
    let mut len = 0u64;
    for shift in (0..64).step_by(7) {
        r.read_exact(&mut byte)?;
        if shift == 63 && byte[0] > 1 {
            return Err(FrameError::BadLength);
        }
        len |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
    }
    if len > cap {
        return Err(FrameError::TooLarge(len));
    }
    // Reserve ≤ 1 MiB: a header that declares the cap and stops costs nothing.
    let mut payload = Vec::with_capacity(len.min(1 << 20) as usize);
    Read::take(&mut *r, len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(FrameError::Truncated);
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if u64::from_le_bytes(sum) != frame_checksum(seed, tag, &payload) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(Some((tag, payload)))
}

/// [`read_frame`] over the front of `buf`: tag, payload, and the bytes
/// taken, for callers that forbid trailing bytes to check.
pub fn decode_frame(
    buf: &[u8],
    rule: impl Fn(u8) -> Option<TagRule>,
) -> Result<(u8, Vec<u8>, usize), FrameError> {
    let mut rest = buf;
    let (tag, payload) = read_frame(&mut rest, rule)?.ok_or(FrameError::Truncated)?;
    Ok((tag, payload, buf.len() - rest.len()))
}

/// The order-sensitive byte checksum of the `.sbpc` checkpoint trailer:
/// rotate, add the byte, multiply — seeded with `seed ^ len`, so
/// truncation, bit flips and reordering all change it. Checkpoints
/// already on disk fix its bytes; streams use the frame checksum above.
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

    const TAG: u8 = 7;
    const SEED: u64 = 0x5EED;
    const CAP: u64 = 64;

    fn rule(tag: u8) -> Option<TagRule> {
        (tag == TAG).then_some(TagRule {
            seed: SEED,
            cap: CAP,
        })
    }

    fn decode(buf: &[u8]) -> Result<(u8, Vec<u8>, usize), FrameError> {
        decode_frame(buf, rule)
    }

    #[test]
    fn frames_roundtrip_and_end_cleanly_at_a_boundary() {
        let mut two = encode_frame(SEED, TAG, b"hello frames");
        let first = two.len();
        two.extend_from_slice(&encode_frame(SEED, TAG, b""));
        assert_eq!(decode(&two), Ok((TAG, b"hello frames".to_vec(), first)));
        let mut stream = &two[..];
        assert_eq!(
            read_frame(&mut stream, rule),
            Ok(Some((TAG, b"hello frames".to_vec())))
        );
        assert_eq!(read_frame(&mut stream, rule), Ok(Some((TAG, Vec::new()))));
        assert_eq!(read_frame(&mut stream, rule), Ok(None));
        assert_eq!(decode(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn every_cut_inside_a_frame_is_truncation() {
        // 20 payload bytes: a two-chunk checksum and a partial last chunk.
        let frame = encode_frame(SEED, TAG, &[0xA5; 20]);
        for cut in 1..frame.len() {
            assert_eq!(
                decode(&frame[..cut]),
                Err(FrameError::Truncated),
                "cut {cut}"
            );
            assert_eq!(
                read_frame(&mut &frame[..cut], rule),
                Err(FrameError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_bit_flip_and_a_foreign_seed_are_caught() {
        let frame = encode_frame(SEED, TAG, b"sealed payload");
        // Flips in the payload and the checksum (the header is checked
        // by tag and length below).
        for i in 2..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(decode(&bad), Err(FrameError::ChecksumMismatch), "byte {i}");
            }
        }
        let foreign = |_| {
            Some(TagRule {
                seed: SEED + 1,
                cap: CAP,
            })
        };
        assert_eq!(
            decode_frame(&frame, foreign),
            Err(FrameError::ChecksumMismatch)
        );
    }

    #[test]
    fn tag_and_cap_are_checked_before_the_payload_is_read() {
        assert_eq!(
            decode(&encode_frame(SEED, TAG + 1, b"x")),
            Err(FrameError::UnexpectedTag(TAG + 1))
        );
        // A header alone: the cap refuses it before any payload byte is
        // wanted, so there is no truncation to report.
        let mut header = vec![TAG];
        write_u64(&mut header, CAP + 1);
        assert_eq!(decode(&header), Err(FrameError::TooLarge(CAP + 1)));
        // At the cap it is accepted, and only then found short.
        let mut header = vec![TAG];
        write_u64(&mut header, CAP);
        assert_eq!(decode(&header), Err(FrameError::Truncated));
        // A length varint past 64 bits.
        let mut overlong = vec![TAG];
        overlong.extend_from_slice(&[0xFF; 9]);
        overlong.push(0x02);
        assert_eq!(decode(&overlong), Err(FrameError::BadLength));
    }

    #[test]
    fn stream_failures_are_io_errors_not_truncation() {
        /// Yields its bytes, then fails the way an expired read timeout
        /// does.
        struct TimesOut<'a>(&'a [u8]);
        impl Read for TimesOut<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.0.read(buf)
            }
        }
        let frame = encode_frame(SEED, TAG, b"abc");
        for cut in 0..frame.len() {
            assert_eq!(
                read_frame(&mut TimesOut(&frame[..cut]), rule),
                Err(FrameError::Io(io::ErrorKind::WouldBlock)),
                "cut {cut}"
            );
        }
    }

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
