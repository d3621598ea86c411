//! The process-wide budget of helper threads.
//!
//! Every driver that puts extra threads on the host — the report's
//! fan-out, the serving simulation's lookahead — takes them from one
//! budget of `available_parallelism() − 1` (the caller's own core is never
//! counted), so nested or concurrent drivers never oversubscribe the host:
//! whoever leases first gets the spare cores, and the rest run on their
//! calling thread alone. A lease never blocks. Drivers with an explicit
//! thread count (`haft_runtime::run_native`'s `workers`,
//! `CampaignConfig::parallelism`) do not lease.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Helper threads currently leased, process-wide.
static LEASED: AtomicUsize = AtomicUsize::new(0);

/// Helper threads the host can take beside the caller:
/// `available_parallelism() − 1`, read once.
pub fn spare() -> usize {
    static SPARE: OnceLock<usize> = OnceLock::new();
    *SPARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()) - 1)
}

/// A grant of helper threads, returned to the budget on drop.
#[derive(Debug)]
pub struct Lease {
    granted: usize,
}

impl Lease {
    /// How many helper threads the holder may run beside itself.
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        LEASED.fetch_sub(self.granted, Ordering::AcqRel);
    }
}

/// Leases up to `want` helper threads: as many as the budget has left,
/// possibly none.
pub fn lease(want: usize) -> Lease {
    let mut granted = 0;
    // `fetch_update` retries on a concurrent grant; the closure's last run
    // is the one that took effect.
    let _ = LEASED.fetch_update(Ordering::AcqRel, Ordering::Acquire, |leased| {
        granted = want.min(spare().saturating_sub(leased));
        (granted > 0).then_some(leased + granted)
    });
    Lease { granted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// One test, because the budget is process-wide: concurrent grants
    /// never exceed the spare cores, and every grant comes back on drop.
    #[test]
    fn grants_stay_within_the_spare_cores_and_return_on_drop() {
        let held = AtomicUsize::new(0);
        let over = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for want in [1, 2, 3, usize::MAX] {
                let (held, over) = (&held, &over);
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        let l = lease(want);
                        let now = held.fetch_add(l.granted(), Ordering::SeqCst) + l.granted();
                        over.fetch_or(now > spare(), Ordering::SeqCst);
                        held.fetch_sub(l.granted(), Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(!over.into_inner(), "more than {} helpers leased at once", spare());

        let all = lease(usize::MAX);
        assert_eq!(all.granted(), spare(), "every grant came back");
        assert_eq!(lease(1).granted(), 0, "nothing left while the budget is held");
        drop(all);
        assert_eq!(lease(1).granted(), spare().min(1), "a dropped lease returns its grant");
        assert_eq!(lease(0).granted(), 0);
    }
}
