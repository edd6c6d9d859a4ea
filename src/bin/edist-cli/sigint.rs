//! SIGINT → [`CancelToken`] bridge, in the same hand-rolled-FFI spirit as
//! the `clock_gettime` shim in `sbp-mpi` (the workspace takes no `ctrlc`
//! dependency). The handler only flips an atomic; one process-wide watcher
//! thread (spawned on first install, never per run) does the cancelling
//! against whichever token the *current* run registered. The handler
//! re-arms SIGINT to its default disposition so a second Ctrl-C
//! terminates immediately.

use edist::prelude::CancelToken;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);
/// Token of the run the next interrupt should cancel.
static CURRENT: OnceLock<Mutex<CancelToken>> = OnceLock::new();
static WATCHER: Once = Once::new();

const SIGINT: i32 = 2;
/// POSIX `sighandler_t`; `None` is `SIG_DFL` (the null pointer, via
/// the guaranteed `Option<fn>` niche optimization).
type SigHandler = Option<extern "C" fn(i32)>;
const SIG_DFL: SigHandler = None;
/// `SIG_ERR` is `(sighandler_t)-1`; the return travels as a plain
/// address so it can be compared against it.
const SIG_ERR: usize = usize::MAX;

extern "C" {
    /// POSIX `signal(2)`; the C library std links against provides it.
    /// The previous handler comes back as a raw address (possibly
    /// `SIG_ERR`), never called — so receiving it as `usize` is sound.
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

/// Async-signal-safe by construction: one atomic store plus a
/// re-arm via `signal`, which POSIX lists as safe to call from a
/// handler.
extern "C" fn on_sigint(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
    // SAFETY: `signal` is on POSIX's async-signal-safe list, SIGINT
    // is a valid signal number and `SIG_DFL` (the null handler) a
    // valid disposition; the returned previous handler is discarded,
    // never called.
    unsafe {
        signal(SIGINT, SIG_DFL);
    }
}

/// Registers `token` as the interrupt target and ensures the handler
/// plus the single watcher thread exist. Interrupts are consumed: one
/// SIGINT cancels the currently-registered token exactly once, so a
/// finished run's stale token can never eat a later run's interrupt.
/// Returns false when no handler could be installed (e.g. a sandbox
/// filtering `signal(2)`) — the run then simply stays
/// non-interruptible instead of promising a best-so-far exit it
/// cannot deliver.
pub fn install(token: CancelToken) -> bool {
    // SAFETY: `on_sigint` is async-signal-safe (see above) and stays
    // alive for the process lifetime; SIGINT is a valid signal.
    if unsafe { signal(SIGINT, Some(on_sigint)) } == SIG_ERR {
        return false;
    }
    let current = CURRENT.get_or_init(|| Mutex::new(token.clone()));
    *current.lock().expect("sigint token lock") = token;
    WATCHER.call_once(|| {
        std::thread::spawn(|| loop {
            if INTERRUPTED.swap(false, Ordering::SeqCst) {
                eprintln!("interrupt: finishing at the next checkpoint (Ctrl-C again to kill)");
                if let Some(current) = CURRENT.get() {
                    current.lock().expect("sigint token lock").cancel();
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    });
    true
}

#[cfg(test)]
pub fn trigger_for_test() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}
