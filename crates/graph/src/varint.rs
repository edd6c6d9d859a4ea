//! Shared variable-length integer codec: zigzag, LEB128, and delta runs.
//!
//! Two subsystems share this module — the binary [`crate::shard`] format
//! and EDiSt's sync payloads in `sbp-dist` — so the wire conventions live
//! in one place:
//!
//! * **LEB128**: little-endian base-128 with a continuation bit; small
//!   values cost one byte, `u64::MAX` costs ten.
//! * **Zigzag**: maps signed deltas onto unsigned space
//!   (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`) so sign does not poison the
//!   length prefix.
//! * **Delta runs**: sorted id sequences are stored as first value +
//!   successive differences, which keeps almost every entry in one byte.
//! * **Pair runs**: the same for strictly ascending `(row, col)` pairs
//!   ([`write_pair`] / [`read_pair`]). The `.sbps` edge list and the sync
//!   cell lists of `sbp-dist` (`encode_cells`) are both such runs, each
//!   followed per pair by a third value of its own format.
//!
//! All decoders are strict: truncated or over-long input yields `None`
//! (or an error in the higher-level readers), never garbage.

/// Maps a signed value onto the unsigned zigzag spiral.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `v` to `buf` as LEB128 (1–10 bytes).
#[inline]
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends `v` to `buf` as zigzag + LEB128.
#[inline]
pub fn write_i64(buf: &mut Vec<u8>, v: i64) {
    write_u64(buf, zigzag(v));
}

/// Reads one LEB128 value at `*pos`, advancing it. Returns `None` on
/// truncation or an encoding longer than 10 bytes (which cannot come from
/// [`write_u64`]).
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Reads one zigzag + LEB128 value at `*pos`, advancing it.
#[inline]
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(unzigzag)
}

/// Writes a strictly ascending id sequence as a count-prefixed delta run.
///
/// # Panics
/// Panics (debug) if `ids` is not strictly ascending.
pub fn write_ascending_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    write_u64(buf, ids.len() as u64);
    let mut prev = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        let id = u64::from(id);
        if i == 0 {
            write_u64(buf, id);
        } else {
            debug_assert!(id > prev, "ids must be strictly ascending");
            write_u64(buf, id - prev - 1);
        }
        prev = id;
    }
}

/// Reads a sequence written by [`write_ascending_ids`]. Returns `None` on
/// truncation, delta overflow, or if any id exceeds `u32::MAX`.
pub fn read_ascending_ids(buf: &[u8], pos: &mut usize) -> Option<Vec<u32>> {
    let count = read_u64(buf, pos)? as usize;
    // Every id costs at least one varint byte, so a declared count larger
    // than the remaining payload could ever hold is a crafted length —
    // reject it *before* sizing the vector, so a handful of hostile bytes
    // cannot demand an arbitrarily large allocation.
    if count > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let delta = read_u64(buf, pos)?;
        let id = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)?.checked_add(1)?
        };
        if id > u64::from(u32::MAX) {
            return None;
        }
        out.push(id as u32);
        prev = id;
    }
    Some(out)
}

/// Why [`read_pair`] produced no pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairError {
    /// The buffer ended inside the pair.
    Truncated,
    /// The row delta carries the row past `u64::MAX`.
    RowOverflow,
    /// The column gap carries the column past `u64::MAX`.
    ColOverflow,
}

/// Appends `pair` to a strictly ascending `(row, col)` run whose last
/// pair is `prev` (`None` before the first): the first pair as itself,
/// each later one as its row's delta, then its column — absolute when the
/// row changed, its gap from the previous column less one inside a row.
/// The two-dimensional [`write_ascending_ids`].
///
/// # Panics
/// Panics in debug builds if `pair` is not above `prev`; a release build
/// writes wrapped deltas that [`read_pair`] refuses or reads as other
/// pairs, so a writer whose output must hold checks the order itself.
#[inline]
pub fn write_pair(buf: &mut Vec<u8>, prev: Option<(u32, u32)>, pair: (u32, u32)) {
    let (row, col) = (u64::from(pair.0), u64::from(pair.1));
    let Some(last) = prev else {
        write_u64(buf, row);
        write_u64(buf, col);
        return;
    };
    debug_assert!(pair > last, "pair run not sorted: {pair:?} after {last:?}");
    let (last_row, last_col) = (u64::from(last.0), u64::from(last.1));
    write_u64(buf, row.wrapping_sub(last_row));
    if row == last_row {
        write_u64(buf, col.wrapping_sub(last_col + 1));
    } else {
        write_u64(buf, col);
    }
}

/// Reads the pair [`write_pair`] wrote after `prev`, advancing `*pos`.
/// The arithmetic is checked, so a crafted delta is an error, never a
/// wrap; the pair comes back as `u64`s for the caller's own range check.
#[inline]
pub fn read_pair(
    buf: &[u8],
    pos: &mut usize,
    prev: Option<(u32, u32)>,
) -> Result<(u64, u64), PairError> {
    let row = read_u64(buf, pos).ok_or(PairError::Truncated)?;
    let col = read_u64(buf, pos).ok_or(PairError::Truncated)?;
    let Some((last_row, last_col)) = prev else {
        return Ok((row, col));
    };
    if row == 0 {
        let col = u64::from(last_col)
            .checked_add(col)
            .and_then(|c| c.checked_add(1));
        Ok((u64::from(last_row), col.ok_or(PairError::ColOverflow)?))
    } else {
        let row = u64::from(last_row).checked_add(row);
        Ok((row.ok_or(PairError::RowOverflow)?, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zigzag_spiral_is_correct() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn u64_roundtrip_extremes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX];
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // Eleven continuation bytes can never come from write_u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
        // Ten bytes whose top byte overflows the 64th bit.
        let buf = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn ascending_ids_delta_overflow_is_rejected() {
        // count=2, first id 1, then a delta that would wrap u64.
        let mut buf = Vec::new();
        write_u64(&mut buf, 2);
        write_u64(&mut buf, 1);
        write_u64(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(read_ascending_ids(&buf, &mut pos), None);
    }

    #[test]
    fn ascending_ids_roundtrip() {
        for ids in [vec![], vec![0], vec![5, 6, 7], vec![0, 100, u32::MAX]] {
            let mut buf = Vec::new();
            write_ascending_ids(&mut buf, &ids);
            let mut pos = 0;
            assert_eq!(read_ascending_ids(&buf, &mut pos), Some(ids));
            assert_eq!(pos, buf.len());
        }
    }

    fn pair_run(pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut prev = None;
        for &pair in pairs {
            write_pair(&mut buf, prev, pair);
            prev = Some(pair);
        }
        buf
    }

    fn read_pair_run(buf: &[u8], count: usize) -> Result<Vec<(u64, u64)>, PairError> {
        let (mut pos, mut prev, mut out) = (0, None, Vec::new());
        for _ in 0..count {
            let (row, col) = read_pair(buf, &mut pos, prev)?;
            out.push((row, col));
            prev = Some((row as u32, col as u32));
        }
        assert_eq!(pos, buf.len());
        Ok(out)
    }

    #[test]
    fn pair_runs_keep_their_bytes_and_roundtrip() {
        // A row change writes the row delta and the absolute column; a
        // column right after the previous one inside a row is gap 0.
        let pairs = [(3, 9), (3, 10), (5, 2), (5, u32::MAX), (u32::MAX, 0)];
        let buf = pair_run(&pairs);
        let mut want = Vec::new();
        for v in [3, 9, 0, 0, 2, 2, 0, u64::from(u32::MAX) - 3] {
            write_u64(&mut want, v);
        }
        write_u64(&mut want, u64::from(u32::MAX) - 5);
        write_u64(&mut want, 0);
        assert_eq!(buf, want);
        let back: Vec<(u32, u32)> = read_pair_run(&buf, pairs.len())
            .unwrap()
            .into_iter()
            .map(|(r, c)| (r as u32, c as u32))
            .collect();
        assert_eq!(back, pairs);
        for cut in 0..buf.len() {
            assert!(
                read_pair_run(&buf[..cut], pairs.len()).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn overflowing_pair_deltas_are_typed() {
        let prev = Some((u32::MAX, u32::MAX));
        let mut buf = Vec::new();
        write_u64(&mut buf, 0);
        write_u64(&mut buf, u64::MAX);
        assert_eq!(read_pair(&buf, &mut 0, prev), Err(PairError::ColOverflow));
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        write_u64(&mut buf, 0);
        assert_eq!(read_pair(&buf, &mut 0, prev), Err(PairError::RowOverflow));
        assert_eq!(
            read_pair(&buf[..1], &mut 0, None),
            Err(PairError::Truncated)
        );
    }

    proptest! {
        #[test]
        fn i64_roundtrip(v in i64::MIN..i64::MAX) {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_i64(&buf, &mut pos), Some(v));
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn mixed_stream_roundtrip(vs in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
            let mut buf = Vec::new();
            for &v in &vs {
                write_u64(&mut buf, v);
            }
            let mut pos = 0;
            for &v in &vs {
                prop_assert_eq!(read_u64(&buf, &mut pos), Some(v));
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
