//! A set of block ids that comes back out **ascending** without being
//! sorted: a 64-ary hierarchical bitset.
//!
//! [`crate::delta::DeltaScratch::gather_vertex`] meets a vertex's `k`
//! neighbour blocks in adjacency order and everything downstream needs
//! them ascending (that order is part of the bit-identity contract). A
//! comparison sort of `k ≈ 40` ids was 7 % of a solve; a flat bitmap
//! drained with `trailing_zeros` orders them for free but costs a scan of
//! `C/64` words per vertex — 15.6 k words at `C = 10⁶`. Summary levels fix
//! that: bit `i` of level `l + 1` says word `i` of level `l` is nonzero, up
//! to a single root word, so a drain descends only into words that hold
//! something: O(k · levels), `levels = ⌈log₆₄ C⌉ ≤ 6`.

/// See the module docs. Empty between uses: [`BlockSet::drain_into`]
/// clears every word it visits.
#[derive(Debug, Default)]
pub(crate) struct BlockSet {
    /// `levels[0]` holds one bit per id; the last level is one word.
    levels: Vec<Vec<u64>>,
}

impl BlockSet {
    /// Makes room for ids `< n`. Grows only, so a set sized at `C = V`
    /// serves every later, smaller block count.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.levels.first().map_or(0, Vec::len) * 64 >= n.max(1) {
            return;
        }
        debug_assert!(self.is_empty(), "resized while holding ids");
        self.levels.clear();
        let mut words = n.div_ceil(64);
        loop {
            self.levels.push(vec![0; words]);
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
    }

    fn is_empty(&self) -> bool {
        self.levels.last().is_none_or(|root| root[0] == 0)
    }

    /// Adds `id` (idempotent). `id` must be below the last
    /// [`ensure`](Self::ensure)d bound. Every level is written
    /// unconditionally: stopping at the first word that was already
    /// nonzero saves a store and costs a branch that mispredicts.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        let mut i = id as usize;
        for level in &mut self.levels {
            level[i >> 6] |= 1 << (i & 63);
            i >>= 6;
        }
    }

    /// Appends the ids to `out`, ascending, and leaves the set empty.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<u32>) {
        if let Some(top) = self.levels.len().checked_sub(1) {
            drain_word(&mut self.levels, top, 0, out);
        }
    }
}

fn drain_word(levels: &mut [Vec<u64>], level: usize, word: usize, out: &mut Vec<u32>) {
    let mut bits = std::mem::take(&mut levels[level][word]);
    while bits != 0 {
        let i = word * 64 + bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if level == 0 {
            out.push(i as u32);
        } else {
            drain_word(levels, level - 1, i, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(set: &mut BlockSet) -> Vec<u32> {
        let mut out = Vec::new();
        set.drain_into(&mut out);
        out
    }

    /// Ids on both sides of every level boundary come out ascending and
    /// deduplicated, the set is empty afterwards, and a set sized for a
    /// large bound still serves a small one.
    #[test]
    fn drains_ascending_at_every_level_count() {
        let mut set = BlockSet::default();
        assert!(drained(&mut set).is_empty(), "never sized");
        for n in [1usize, 63, 64, 65, 4096, 4097, 262_144, 262_145, 300_000] {
            set.ensure(n);
            let last = n as u32 - 1;
            let mut ids = vec![last, 0, last / 2, last, 63.min(last), 64.min(last), 0];
            for &id in &ids {
                set.insert(id);
            }
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(drained(&mut set), ids, "n = {n}");
            assert!(set.is_empty() && drained(&mut set).is_empty(), "n = {n}");
        }
        set.ensure(2);
        set.insert(1);
        assert_eq!(drained(&mut set), [1]);
    }
}
