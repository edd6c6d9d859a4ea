//! The golden-ratio search over the number of communities (paper §II-B).
//!
//! Up to three `(num_blocks, DL, partition)` snapshots are kept, ordered by
//! decreasing block count. While the snapshots are also in decreasing order
//! of description length, the search keeps agglomerating from the best
//! snapshot; once a higher DL appears (the "golden ratio criterion"), the
//! optimum is bracketed and golden-section steps shrink the bracket until
//! the block-count window is ≤ 2 wide.
//!
//! The bracket compares raw f64 description lengths (`entry.dl <= mid.dl`
//! in [`GoldenBracket::record`]), so its decisions are only replica-stable
//! because those DLs are themselves bit-stable: entropy sums accumulate
//! over canonical matrix lines (see `crate::line`), making equal logical
//! states produce equal bits in both the dense and sparse regimes.
//!
//! Which step comes next is a function of the three entries' block counts
//! alone (the DLs only decide which entry lands where), so the search can
//! ask ahead of time what [`GoldenBracket::next`] will say should the probe
//! now running come out worse than `mid` —
//! [`GoldenBracket::next_if_worse`], however much worse — and run that
//! probe beside it (`crate::sbp`, "Overlapped probes"). Likewise the first
//! step after [`GoldenBracket::seed`] follows from the seed's block count
//! whatever its DL (`GoldenBracket::next_if_seeded`), so it can run
//! while a warm start's refine pass is still computing that DL.

use crate::sbp::BLOCK_REDUCTION_RATE;

/// A stored search point: partition + its block count and description
/// length. The partition is the dense assignment vector — all a snapshot
/// needs, since a `Blockmodel` can be rebuilt from it in O(E). The search
/// keeps the models of the entries [`GoldenBracket::next`] can hand out
/// *beside* the bracket (`crate::sbp`, "resident models") and rebuilds
/// only when it holds none: a cold search lets `mid`'s go while it is
/// still halving, since only the worse record that establishes the
/// bracket hands `mid` out again, and rebuilds it at that record.
#[derive(Clone, Debug)]
pub struct BracketEntry {
    /// Dense block assignment (labels `0..num_blocks`).
    pub assignment: Vec<u32>,
    /// Number of blocks.
    pub num_blocks: usize,
    /// Description length of this partition.
    pub dl: f64,
}

/// What the driver should do next.
#[derive(Clone, Debug)]
pub enum NextStep {
    /// Start from `start` and merge `blocks_to_merge` blocks, then run the
    /// MCMC phase and record the outcome.
    Continue {
        /// Snapshot to resume from.
        start: BracketEntry,
        /// Number of merges to apply this iteration.
        blocks_to_merge: usize,
    },
    /// The optimum is bracketed within ±1 block: return the best snapshot.
    Done(BracketEntry),
}

/// The three-point bracket. `hi` holds the most blocks, `lo` the fewest;
/// `mid` is the best description length seen.
#[derive(Clone, Debug, Default)]
pub struct GoldenBracket {
    hi: Option<BracketEntry>,
    mid: Option<BracketEntry>,
    lo: Option<BracketEntry>,
}

impl GoldenBracket {
    /// Creates an empty bracket. Until it is established it agglomerates
    /// at [`BLOCK_REDUCTION_RATE`] (the paper halves).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the search with the starting partition (typically the identity
    /// partition at `C = V`). Fills both `hi` and `mid`, so a first result
    /// that is *worse* immediately establishes the bracket instead of
    /// looping.
    pub fn seed(&mut self, entry: BracketEntry) {
        self.hi = Some(entry.clone());
        self.mid = Some(entry);
    }

    /// True once all three points are known (the golden ratio criterion has
    /// been met). The paper switches the MCMC convergence threshold from
    /// loose to tight at this moment.
    pub fn established(&self) -> bool {
        self.hi.is_some() && self.mid.is_some() && self.lo.is_some()
    }

    /// Best snapshot so far.
    pub fn best(&self) -> Option<&BracketEntry> {
        self.mid.as_ref()
    }

    /// The three bracket points `(hi, mid, lo)` — the complete search
    /// state. Exposed for checkpointing: together with
    /// [`GoldenBracket::from_parts`] this round-trips the bracket
    /// exactly, which is what makes a resumed golden search bit-identical
    /// to an uninterrupted one.
    pub fn parts(
        &self,
    ) -> (
        Option<&BracketEntry>,
        Option<&BracketEntry>,
        Option<&BracketEntry>,
    ) {
        (self.hi.as_ref(), self.mid.as_ref(), self.lo.as_ref())
    }

    /// Rebuilds a bracket from checkpointed parts.
    pub fn from_parts(
        hi: Option<BracketEntry>,
        mid: Option<BracketEntry>,
        lo: Option<BracketEntry>,
    ) -> Self {
        GoldenBracket { hi, mid, lo }
    }

    /// Records the outcome of an iteration.
    pub fn record(&mut self, entry: BracketEntry) {
        let Some(mid) = self.mid.as_ref() else {
            self.mid = Some(entry);
            return;
        };
        if entry.dl <= mid.dl {
            // New best: old mid becomes the bound on its side.
            let old_mid = self.mid.take().expect("mid checked above");
            if old_mid.num_blocks > entry.num_blocks {
                self.replace_hi(old_mid);
            } else {
                self.replace_lo(old_mid);
            }
            self.mid = Some(entry);
        } else if entry.num_blocks < mid.num_blocks {
            self.replace_lo(entry);
        } else {
            self.replace_hi(entry);
        }
    }

    fn replace_hi(&mut self, e: BracketEntry) {
        // Keep the tighter (smaller-B) bound when one already exists.
        match &self.hi {
            Some(hi) if hi.num_blocks <= e.num_blocks => {}
            _ => self.hi = Some(e),
        }
    }

    fn replace_lo(&mut self, e: BracketEntry) {
        match &self.lo {
            Some(lo) if lo.num_blocks >= e.num_blocks => {}
            _ => self.lo = Some(e),
        }
    }

    /// Decides the next iteration (paper §II-B; Graph-Challenge reference
    /// `prepare_for_partition_on_next_num_blocks`).
    ///
    /// # Panics
    /// Panics if called before any entry was recorded or seeded.
    pub fn next(&self) -> NextStep {
        let mid = self
            .mid
            .as_ref()
            .expect("GoldenBracket::next called before seed/record");
        if mid.num_blocks <= 1 {
            return NextStep::Done(mid.clone());
        }
        if !self.established() {
            // Keep agglomerating from the best snapshot.
            let b = mid.num_blocks;
            let to_merge = (((b as f64) * BLOCK_REDUCTION_RATE).round() as usize).clamp(1, b - 1);
            return NextStep::Continue {
                start: mid.clone(),
                blocks_to_merge: to_merge,
            };
        }
        let hi = self.hi.as_ref().expect("established");
        let lo = self.lo.as_ref().expect("established");
        if hi.num_blocks.saturating_sub(lo.num_blocks) <= 2 {
            return NextStep::Done(mid.clone());
        }
        let upper = hi.num_blocks - mid.num_blocks;
        let lower = mid.num_blocks - lo.num_blocks;
        if upper >= lower && upper >= 2 {
            // Probe the upper interval: merge down from hi.
            let probe = (mid.num_blocks + ((upper as f64) * 0.618).round() as usize)
                .clamp(mid.num_blocks + 1, hi.num_blocks - 1);
            NextStep::Continue {
                start: hi.clone(),
                blocks_to_merge: hi.num_blocks - probe,
            }
        } else {
            // Probe the lower interval: merge down from mid.
            let probe = (lo.num_blocks + ((lower as f64) * 0.618).round() as usize).clamp(
                lo.num_blocks + 1,
                mid.num_blocks.saturating_sub(1).max(lo.num_blocks + 1),
            );
            NextStep::Continue {
                start: mid.clone(),
                blocks_to_merge: mid.num_blocks - probe,
            }
        }
    }

    /// The step [`GoldenBracket::next`] takes after [`GoldenBracket::record`]
    /// of an entry with `num_blocks` blocks and a description length worse
    /// than `mid`'s: the entry it starts from and the merges it applies —
    /// `next` itself, on a copy given a `dl = +∞` entry. `None` when that
    /// step is `Done`, or starts from the recorded entry (which no caller
    /// holds yet), or nothing is seeded.
    pub fn next_if_worse(&self, num_blocks: usize) -> Option<(BracketEntry, usize)> {
        self.mid.as_ref()?;
        let mut after = self.clone();
        after.record(BracketEntry {
            assignment: Vec::new(),
            num_blocks,
            dl: f64::INFINITY,
        });
        match after.next() {
            // Every other entry's DL is finite.
            NextStep::Continue {
                start,
                blocks_to_merge,
            } if start.dl.is_finite() => Some((start, blocks_to_merge)),
            _ => None,
        }
    }

    /// The merges [`GoldenBracket::next`] applies after
    /// [`GoldenBracket::seed`] of an entry with `num_blocks` blocks,
    /// whatever its description length — `next` itself, on a copy seeded
    /// with a `dl = 0` entry. `None` when that step is `Done`.
    pub(crate) fn next_if_seeded(&self, num_blocks: usize) -> Option<usize> {
        let mut after = self.clone();
        after.seed(BracketEntry {
            assignment: Vec::new(),
            num_blocks,
            dl: 0.0,
        });
        match after.next() {
            NextStep::Continue {
                blocks_to_merge, ..
            } => Some(blocks_to_merge),
            NextStep::Done(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(b: usize, dl: f64) -> BracketEntry {
        BracketEntry {
            assignment: vec![0; 4],
            num_blocks: b,
            dl,
        }
    }

    #[test]
    fn pre_bracket_agglomerates_at_rate() {
        let mut g = GoldenBracket::new();
        g.seed(entry(100, 1000.0));
        match g.next() {
            NextStep::Continue {
                start,
                blocks_to_merge,
            } => {
                assert_eq!(start.num_blocks, 100);
                assert_eq!(blocks_to_merge, 50);
            }
            _ => panic!("expected Continue"),
        }
    }

    #[test]
    fn improving_results_shift_mid_down() {
        let mut g = GoldenBracket::new();
        g.seed(entry(100, 1000.0));
        g.record(entry(50, 900.0));
        assert!(!g.established());
        assert_eq!(g.best().unwrap().num_blocks, 50);
        g.record(entry(25, 850.0));
        assert_eq!(g.best().unwrap().num_blocks, 25);
        assert!(!g.established());
    }

    #[test]
    fn worse_result_establishes_bracket() {
        let mut g = GoldenBracket::new();
        g.seed(entry(100, 1000.0));
        g.record(entry(50, 900.0));
        g.record(entry(25, 950.0)); // worse → lower bound
        assert!(g.established());
        assert_eq!(g.best().unwrap().num_blocks, 50);
    }

    #[test]
    fn worse_first_result_is_handled_via_seed() {
        // If merging immediately makes things worse, the seeded hi==mid
        // ensures the bracket establishes instead of looping.
        let mut g = GoldenBracket::new();
        g.seed(entry(10, 100.0));
        g.record(entry(5, 200.0));
        assert!(g.established());
        match g.next() {
            NextStep::Continue {
                start,
                blocks_to_merge,
            } => {
                // Bracket is (10, 10, 5): probes the lower interval.
                assert_eq!(start.num_blocks, 10);
                assert!((1..5).contains(&blocks_to_merge));
            }
            NextStep::Done(_) => panic!("should keep searching"),
        }
    }

    #[test]
    fn golden_probe_stays_strictly_inside() {
        let mut g = GoldenBracket::new();
        g.seed(entry(100, 1000.0));
        g.record(entry(50, 900.0));
        g.record(entry(25, 950.0));
        match g.next() {
            NextStep::Continue {
                start,
                blocks_to_merge,
            } => {
                let probe = start.num_blocks - blocks_to_merge;
                assert!(probe > 25 && probe < 100);
                assert_ne!(probe, 50);
            }
            _ => panic!("expected Continue"),
        }
    }

    #[test]
    fn narrow_bracket_terminates() {
        let mut g = GoldenBracket::new();
        g.seed(entry(5, 100.0));
        g.record(entry(4, 90.0));
        g.record(entry(3, 95.0));
        // hi=5, mid=4, lo=3 → width 2 → done.
        match g.next() {
            NextStep::Done(best) => assert_eq!(best.num_blocks, 4),
            _ => panic!("expected Done"),
        }
    }

    #[test]
    fn single_block_terminates() {
        let mut g = GoldenBracket::new();
        g.seed(entry(1, 10.0));
        assert!(matches!(g.next(), NextStep::Done(_)));
    }

    #[test]
    fn bounds_only_tighten() {
        let mut g = GoldenBracket::new();
        g.seed(entry(100, 1000.0));
        g.record(entry(50, 900.0)); // mid=50, hi=100
        g.record(entry(25, 950.0)); // lo=25
        g.record(entry(40, 980.0)); // worse, fewer blocks than mid → lo side, tighter
        match g.next() {
            NextStep::Continue { start, .. } => {
                // lo must now be 40, so probes stay in (40, 100).
                let probe = start.num_blocks; // either hi(100) or mid(50)
                assert!(probe == 100 || probe == 50);
            }
            NextStep::Done(_) => {}
        }
        // A looser lo must NOT replace the tighter one.
        g.record(entry(10, 990.0));
        // Simulate convergence loop: the search space never widens.
        let mut width_seen = usize::MAX;
        for _ in 0..50 {
            match g.next() {
                NextStep::Continue {
                    start,
                    blocks_to_merge,
                } => {
                    let probe = start.num_blocks - blocks_to_merge;
                    // Probe must be inside the current bracket.
                    assert!(probe >= 40, "probe {probe} below tight lo 40");
                    // Pretend the probe was slightly worse than mid.
                    g.record(entry(probe, 901.0 + probe as f64 * 1e-6));
                    let w = g.hi.as_ref().unwrap().num_blocks - g.lo.as_ref().unwrap().num_blocks;
                    assert!(w <= width_seen, "bracket widened");
                    width_seen = w;
                }
                NextStep::Done(best) => {
                    assert_eq!(best.num_blocks, 50);
                    return;
                }
            }
        }
        panic!("golden search failed to terminate");
    }

    /// Every bracket shape the tests above build, in order.
    fn shapes() -> Vec<GoldenBracket> {
        let seeded = |b, dl| {
            let mut g = GoldenBracket::new();
            g.seed(entry(b, dl));
            g
        };
        let then = |g: &GoldenBracket, b, dl| {
            let mut g = g.clone();
            g.record(entry(b, dl));
            g
        };
        let s100 = seeded(100, 1000.0);
        let s50 = then(&s100, 50, 900.0);
        let s25 = then(&s50, 25, 850.0);
        let est = then(&s50, 25, 950.0);
        let tight = then(&est, 40, 980.0);
        let s10 = seeded(10, 100.0);
        let s5 = then(&s10, 5, 200.0);
        let s4 = then(&seeded(5, 100.0), 4, 90.0);
        let narrow = then(&s4, 3, 95.0);
        vec![
            s100.clone(),
            s50,
            s25,
            est,
            then(&tight, 10, 990.0),
            tight,
            s10,
            s5,
            s4,
            narrow,
            seeded(1, 10.0),
        ]
    }

    /// What the overlap relies on: the predicted step is the one `next`
    /// asks for after the search records the probe's real, finite DL —
    /// barely worse than `mid` or far worse alike.
    #[test]
    fn worse_branch_step_is_next_after_any_worse_record() {
        let start = |e: &BracketEntry| (e.num_blocks, e.dl.to_bits());
        for (i, g) in shapes().into_iter().enumerate() {
            let mid_dl = g.best().unwrap().dl;
            let top = g.parts().0.map_or(1, |hi| hi.num_blocks) + 1;
            for blocks in 1..=top {
                let predicted = g.next_if_worse(blocks).map(|(e, m)| (start(&e), m));
                for dl in [
                    mid_dl + 1e-9 * mid_dl.abs().max(1.0),
                    mid_dl + 1.0,
                    f64::MAX,
                ] {
                    let mut after = g.clone();
                    // Marked, so a step from the recorded entry is told apart.
                    after.record(BracketEntry {
                        assignment: vec![1; 4],
                        ..entry(blocks, dl)
                    });
                    let asked = match after.next() {
                        NextStep::Continue {
                            start: from,
                            blocks_to_merge,
                        } if from.assignment != [1; 4] => Some((start(&from), blocks_to_merge)),
                        _ => None,
                    };
                    assert_eq!(
                        predicted, asked,
                        "shape {i}, a {blocks}-block entry at {dl}"
                    );
                }
            }
        }
    }

    /// What the warm run-ahead relies on: the merges a freshly seeded
    /// bracket asks for follow from the seed's block count alone, whatever
    /// description length the refine pass gives it.
    #[test]
    fn seeded_step_is_next_after_seed_at_any_dl() {
        for blocks in [1, 2, 3, 18, 3_000] {
            let fresh = GoldenBracket::new();
            let predicted = fresh.next_if_seeded(blocks);
            for dl in [-1.0, 0.0, 1e-300, 123.456, 1e12, f64::MAX] {
                let mut seeded = fresh.clone();
                seeded.seed(entry(blocks, dl));
                let asked = match seeded.next() {
                    NextStep::Continue {
                        start,
                        blocks_to_merge,
                    } => {
                        assert_eq!(start.num_blocks, blocks);
                        Some(blocks_to_merge)
                    }
                    NextStep::Done(_) => None,
                };
                assert_eq!(predicted, asked, "C = {blocks} at {dl}");
            }
            assert_eq!(predicted.is_some(), blocks > 1, "C = {blocks}");
        }
    }
}
