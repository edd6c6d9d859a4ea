//! Machine-speed calibration.
//!
//! The reference box is a 2-vCPU VM on a shared host whose speed is
//! **bimodal**: a fixed single-threaded loop takes 21 ms or 30 ms for
//! tens of seconds at a time (measured; README "Why timings are
//! speed-normalised"). A 20 s run therefore lands wholly in one mode
//! or the other, and no statistic over its reps can tell a slow host
//! from slow code — raw wall times of the *same* binary and seed
//! differed by 33 % minutes apart.
//!
//! It also, for tens of seconds at a time, lends the VM **one core
//! instead of two**: identical 2-rank reps then take 3.1–4.4 s instead
//! of 2.2 s while their user CPU time stays at 4.1 s, and a two-thread
//! ping-pong slows 2× (1 ms chunks) to 8× (30 µs chunks).
//!
//! So every timed section is bracketed by a fixed reference kernel
//! that shares no code with the library under test: rounds of integer
//! mixing and `ln` (the solver's arithmetic in miniature) on as many
//! threads as the workload keeps busy, meeting at a barrier after every
//! round like ranks at a collective. Reported times are `wall ×
//! REFERENCE_SECONDS / kernel_seconds`: seconds as they would read with
//! the host in its fast mode. Measured on 40 identical single-thread
//! reps spanning both speed modes: medians of 8 raw walls varied with
//! CV 11 %, of 8 normalised walls with CV 2.9 %; on 70 identical 2-rank
//! reps: 8.8 % raw, 4.1 % normalised. (A kernel half made of dependent
//! random reads over a 1 MiB table was tried and dropped: its readings
//! swing 3× with the neighbours' cache use where the workload's swing
//! 1.6×, and once over-corrected a whole run by 25 %.) The raw walls
//! and the factor itself are reported too (`trace.partition_s`,
//! `proc.speed_factor`, and a note line per run), so nothing is hidden.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Kernel time on the reference box in its fast mode. Only a scale:
/// on any one machine it multiplies parent and change alike.
pub const REFERENCE_SECONDS: f64 = 0.0080;

/// Rounds per reading; with `width > 1` the threads meet at a barrier
/// after each, like ranks at a collective.
const ROUNDS: usize = 10;
const STEPS_PER_ROUND: usize = 300_000;

/// One round of one thread: registers only, no memory traffic.
fn round(x: &mut u64) -> f64 {
    let mut acc = 0.0_f64;
    for _ in 0..STEPS_PER_ROUND {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        acc += ((*x >> 40) as f64 + 1.0).ln();
    }
    acc
}

/// The reference kernel on `width` threads — the parallel width of the
/// workload being timed, so that a host which lends the VM one core
/// instead of two slows the kernel as it slows the workload.
pub struct Calibrator {
    width: usize,
    /// The most recent kernel time (seconds).
    last: f64,
}

impl Calibrator {
    /// Takes a first reading.
    pub fn new(width: usize) -> Calibrator {
        let mut c = Calibrator {
            width: width.max(1),
            last: 0.0,
        };
        c.measure();
        c
    }

    /// One pass of every thread through all rounds, in units of
    /// [`REFERENCE_SECONDS`] (half the pass's wall time).
    fn kernel(&self) -> f64 {
        let barrier = Barrier::new(self.width);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.width {
                scope.spawn(|| {
                    let mut x = 0x2545_F491_4F6C_DD1D_u64;
                    for _ in 0..ROUNDS {
                        black_box(round(&mut x));
                        barrier.wait();
                    }
                });
            }
        });
        0.5 * started.elapsed().as_secs_f64()
    }

    /// Kernel seconds now: the fastest of three back-to-back passes, so
    /// one interrupt or context switch cannot inflate a reading.
    pub fn measure(&mut self) -> f64 {
        self.last = (0..3).map(|_| self.kernel()).fold(f64::INFINITY, f64::min);
        self.last
    }

    /// [`Calibrator::around`] after a fresh "before" reading, for sections
    /// that do not directly follow the previous one.
    pub fn around_fresh<T>(&mut self, section: impl FnOnce() -> T) -> (T, f64, f64) {
        self.measure();
        self.around(section)
    }

    /// Runs `section`, returning its result, its wall seconds, and the
    /// speed factor to multiply them by (from the readings before and
    /// after it; the reading after doubles as the next one's "before").
    pub fn around<T>(&mut self, section: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let started = Instant::now();
        let result = section();
        let wall = started.elapsed().as_secs_f64();
        let after = self.measure();
        (result, wall, speed_factor(before, after))
    }
}

/// `REFERENCE_SECONDS / mean(before, after)`; 1 when a reading is unusable.
pub fn speed_factor(before: f64, after: f64) -> f64 {
    let mean = 0.5 * (before + after);
    if mean.is_finite() && mean > 0.0 {
        REFERENCE_SECONDS / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_mean_reading() {
        assert_eq!(speed_factor(REFERENCE_SECONDS, REFERENCE_SECONDS), 1.0);
        assert!((speed_factor(0.01, 0.03) - REFERENCE_SECONDS / 0.02).abs() < 1e-12);
        assert_eq!(speed_factor(0.0, 0.0), 1.0);
        assert_eq!(speed_factor(f64::NAN, 0.01), 1.0);
    }

    #[test]
    fn around_times_the_section_and_refreshes_the_reading() {
        let mut c = Calibrator::new(2);
        let first = c.last;
        assert!(first > 0.0);
        let (value, wall, factor) = c.around(|| 7);
        assert_eq!(value, 7);
        assert!(wall >= 0.0 && factor > 0.0);
        assert!(c.last > 0.0);
    }
}
