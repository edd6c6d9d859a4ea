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
//! to a single top word, so a drain descends only into words that hold
//! something: O(k · levels), `levels = ⌈log₆₄ C⌉ ≤ 6`.
//!
//! The depth follows the block count the set was last
//! [`fit`](BlockSet::fit) to, down as well as up, and the top word is not
//! stored: a [`Gather`] holds it as a local, so a gather keeps it in a
//! register and writes memory only for the levels below it — none at
//! `C ≤ 64`, one at `C ≤ 4096`.

/// See the module docs. Every stored word is zero between gathers:
/// [`Gather::drain_into`] clears every word it visits.
#[derive(Debug, Default)]
pub(crate) struct BlockSet {
    /// The levels below the top word, `levels[0]` holding one bit per id.
    levels: Vec<Vec<u64>>,
    /// The id bound the levels are sized for.
    bound: usize,
}

impl BlockSet {
    /// Sizes the set for ids `< n`: one stored level per word count above
    /// one, so `⌈log₆₄ n⌉ − 1` of them. Levels that stay keep their
    /// allocation.
    pub(crate) fn fit(&mut self, n: usize) {
        if n == self.bound {
            return;
        }
        debug_assert!(
            self.levels.iter().flatten().all(|&w| w == 0),
            "resized while holding ids"
        );
        self.bound = n;
        let mut depth = 0;
        let mut words = n.div_ceil(64);
        while words > 1 {
            match self.levels.get_mut(depth) {
                Some(level) => level.resize(words, 0),
                None => self.levels.push(vec![0; words]),
            }
            depth += 1;
            words = words.div_ceil(64);
        }
        self.levels.truncate(depth);
    }

    /// Starts one fill-and-drain of the set.
    pub(crate) fn gather(&mut self) -> Gather<'_> {
        Gather {
            levels: &mut self.levels,
            top: 0,
        }
    }
}

/// One fill-and-drain of a [`BlockSet`], holding its top word. Drain it:
/// a gather dropped while holding ids leaves them in the set.
pub(crate) struct Gather<'a> {
    levels: &'a mut [Vec<u64>],
    top: u64,
}

impl Gather<'_> {
    /// Adds `id` (idempotent). `id` must be below the last
    /// [`fit`](BlockSet::fit)ted bound. Every level is written
    /// unconditionally: stopping at the first word that was already
    /// nonzero saves a store and costs a branch that mispredicts.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        let mut i = id as usize;
        for level in self.levels.iter_mut() {
            level[i >> 6] |= 1 << (i & 63);
            i >>= 6;
        }
        debug_assert!(i < 64, "id {id} beyond the fitted bound");
        self.top |= 1 << (i & 63);
    }

    /// Appends the ids to `out`, ascending, and leaves the set empty.
    pub(crate) fn drain_into(self, out: &mut Vec<u32>) {
        drain(self.levels, self.top, 0, out);
    }
}

/// Appends the ids under `bits`, word `word` of the level above `levels`,
/// clearing every word of `levels` it descends into.
fn drain(levels: &mut [Vec<u64>], mut bits: u64, word: usize, out: &mut Vec<u32>) {
    while bits != 0 {
        let i = word * 64 + bits.trailing_zeros() as usize;
        bits &= bits - 1;
        match levels.split_last_mut() {
            None => out.push(i as u32),
            Some((below, rest)) => drain(rest, std::mem::take(&mut below[i]), i, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(set: &mut BlockSet, ids: &[u32]) -> Vec<u32> {
        let mut gather = set.gather();
        for &id in ids {
            gather.insert(id);
        }
        let mut out = Vec::new();
        gather.drain_into(&mut out);
        out
    }

    /// Ids on both sides of every level boundary come out ascending and
    /// deduplicated and the set is empty afterwards, at every depth, with
    /// the depth following the bound down as well as up.
    #[test]
    fn drains_ascending_at_every_level_count() {
        let mut set = BlockSet::default();
        assert!(drained(&mut set, &[]).is_empty(), "never sized");
        for (n, stored) in [
            (1usize, 0),
            (63, 0),
            (64, 0),
            (65, 1),
            (4096, 1),
            (4097, 2),
            (262_144, 2),
            (262_145, 3),
            (300_000, 3),
            (4097, 2),
            (65, 1),
            (2, 0),
        ] {
            set.fit(n);
            assert_eq!(set.levels.len(), stored, "n = {n}");
            let last = n as u32 - 1;
            let mut ids = vec![last, 0, last / 2, last, 63.min(last), 64.min(last), 0];
            let got = drained(&mut set, &ids);
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(got, ids, "n = {n}");
            assert!(set.levels.iter().flatten().all(|&w| w == 0), "n = {n}");
            assert!(drained(&mut set, &[]).is_empty(), "n = {n}");
        }
    }
}
