//! Batch runs computed ahead of the simulation's event loop, on one
//! helper thread.
//!
//! A batch run is a pure function of its key (the requests and the fault
//! plan), so a run computed early is exactly the run computed late. The
//! event loop predicts which batches it will start next and hands their
//! keys to [`Ahead::predict`]; the helper runs them in order. When the
//! loop starts a batch, [`Ahead::take`] gives it the run for that exact
//! key — finished by the helper, waited for, or run on the caller — and
//! nothing else: a prediction that turned out wrong is dropped, never
//! consumed.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Where the simulation's batch runs came from, summed over every serve
/// call in the process that had a lookahead helper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookaheadCounts {
    /// Batches whose run the helper had finished when the loop got there.
    pub ready: u64,
    /// Batches whose run the helper was computing; the loop waited for it.
    pub waited: u64,
    /// Batches the loop ran itself.
    pub inline: u64,
    /// Every batch run on either thread, the mispredicted ones included:
    /// `runs − ready − waited − inline` were wasted.
    pub runs: u64,
}

static TOTALS: Mutex<LookaheadCounts> =
    Mutex::new(LookaheadCounts { ready: 0, waited: 0, inline: 0, runs: 0 });

/// The process-wide [`LookaheadCounts`] so far.
pub fn lookahead_counts() -> LookaheadCounts {
    *TOTALS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One helper's work list: the predicted keys, the one it is running and
/// the finished runs. `R` is a run's result; a run that panicked keeps
/// its payload, re-raised on whoever takes it.
pub(crate) struct Ahead<K, R> {
    state: Mutex<State<K, R>>,
    changed: Condvar,
}

struct State<K, R> {
    /// Predicted keys not started yet, in the predicted order.
    queue: VecDeque<K>,
    /// The key the helper is running.
    running: Option<K>,
    done: Vec<(K, thread::Result<R>)>,
    closed: bool,
    counts: LookaheadCounts,
}

impl<K: Clone + PartialEq + Send, R: Send> Ahead<K, R> {
    pub(crate) fn new() -> Self {
        let state = State {
            queue: VecDeque::new(),
            running: None,
            done: Vec::new(),
            closed: false,
            counts: LookaheadCounts::default(),
        };
        Ahead { state: Mutex::new(state), changed: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, R>> {
        // No run executes under the lock, so a poisoned one is consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, guard: MutexGuard<'g, State<K, R>>) -> MutexGuard<'g, State<K, R>> {
        self.changed.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `body` on the calling thread with a helper running predicted
    /// keys through `exec` beside it. The helper stops once `body` returns
    /// or unwinds (after the run it is in), and the counts go into the
    /// process-wide totals.
    pub(crate) fn beside<T>(&self, exec: impl Fn(&K) -> R + Sync, body: impl FnOnce() -> T) -> T {
        /// Closes the work list however `body` leaves.
        struct Close<'a, K, R>(&'a Ahead<K, R>);
        impl<K, R> Drop for Close<'_, K, R> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
                st.closed = true;
                self.0.changed.notify_all();
            }
        }
        let out = thread::scope(|scope| {
            scope.spawn(|| self.help(&exec));
            let _close = Close(self);
            body()
        });
        let counts = self.counts();
        let mut totals = TOTALS.lock().unwrap_or_else(PoisonError::into_inner);
        totals.ready += counts.ready;
        totals.waited += counts.waited;
        totals.inline += counts.inline;
        totals.runs += counts.runs;
        out
    }

    /// The helper's loop: runs the front of the queue until closed.
    fn help(&self, exec: &impl Fn(&K) -> R) {
        let mut st = self.lock();
        while !st.closed {
            let Some(key) = st.queue.pop_front() else {
                st = self.wait(st);
                continue;
            };
            st.running = Some(key.clone());
            drop(st);
            let out = catch_unwind(AssertUnwindSafe(|| exec(&key)));
            st = self.lock();
            st.running = None;
            st.counts.runs += 1;
            st.done.push((key, out));
            self.changed.notify_all();
        }
    }

    /// Replaces the helper's queue with `predicted`, the keys expected
    /// after `current`, leaving out those already running or done. A
    /// finished run whose key is neither `current` nor predicted is
    /// dropped.
    pub(crate) fn predict(&self, current: &K, predicted: Vec<K>) {
        let mut st = self.lock();
        st.done.retain(|(k, _)| k == current || predicted.contains(k));
        let st = &mut *st;
        st.queue.clear();
        for key in predicted {
            if st.running.as_ref() != Some(&key) && st.done.iter().all(|(k, _)| *k != key) {
                st.queue.push_back(key);
            }
        }
        self.changed.notify_all();
    }

    /// The run for `key`: the helper's if it finished it; the helper's
    /// after waiting, if it is running it (the caller runs the next
    /// queued key meanwhile); otherwise `exec(key)` here, taking it off
    /// the queue if it was there. A helper run that panicked re-raises
    /// its payload here.
    pub(crate) fn take(&self, key: &K, exec: impl Fn(&K) -> R) -> R {
        let mut st = self.lock();
        let waited = st.running.as_ref() == Some(key);
        if waited {
            // Run a prediction rather than idle: with a plain wait the two
            // threads take turns, and `serve-mixed`'s Sim cells read ×0.94–
            // 0.97 of the serial loop's time, against ×0.63–0.73 (2 vCPUs).
            if let Some(next) = st.queue.pop_front() {
                drop(st);
                let out = catch_unwind(AssertUnwindSafe(|| exec(&next)));
                st = self.lock();
                st.counts.runs += 1;
                st.done.push((next, out));
            }
            while st.running.as_ref() == Some(key) {
                st = self.wait(st);
            }
        }
        let Some(at) = st.done.iter().position(|(k, _)| k == key) else {
            // Not predicted, or predicted and not reached yet.
            st.queue.retain(|k| k != key);
            st.counts.inline += 1;
            st.counts.runs += 1;
            drop(st);
            return exec(key);
        };
        *if waited { &mut st.counts.waited } else { &mut st.counts.ready } += 1;
        let out = st.done.swap_remove(at).1;
        drop(st);
        out.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// The counts so far.
    pub(crate) fn counts(&self) -> LookaheadCounts {
        self.lock().counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    impl<K: Clone + PartialEq + Send, R: Send> Ahead<K, R> {
        /// Waits until the helper has nothing queued or running.
        fn settle(&self) {
            let mut st = self.lock();
            while !st.queue.is_empty() || st.running.is_some() {
                st = self.wait(st);
            }
        }
    }

    /// The message of the panic `f` raises.
    fn panic_message<T>(f: impl FnOnce() -> T) -> String {
        let payload =
            catch_unwind(AssertUnwindSafe(f)).err().expect("the run's panic reaches here");
        payload.downcast_ref::<String>().cloned().expect("a formatted panic message")
    }

    #[test]
    fn predictions_are_taken_in_any_order() {
        let ahead = Ahead::new();
        let exec = |k: &u32| k * 10;
        ahead.beside(exec, || {
            ahead.predict(&0, vec![3, 1, 2]);
            ahead.settle();
            // The loop reaches the three in another order than predicted.
            ahead.predict(&2, vec![1, 3]);
            assert_eq!(ahead.take(&2, exec), 20);
            ahead.predict(&3, vec![1]);
            assert_eq!(ahead.take(&3, exec), 30);
            ahead.predict(&1, vec![]);
            assert_eq!(ahead.take(&1, exec), 10);
            assert_eq!(ahead.take(&4, exec), 40, "never predicted: run by the caller");
        });
        assert_eq!(ahead.counts(), LookaheadCounts { ready: 3, waited: 0, inline: 1, runs: 4 });
    }

    #[test]
    fn a_stale_prediction_is_never_consumed() {
        let ahead = Ahead::new();
        let ran = Mutex::new(Vec::new());
        let (started, on_start) = mpsc::channel();
        let (go, on_go) = mpsc::channel::<()>();
        let on_go = Mutex::new(on_go);
        let exec = |k: &u32| {
            if *k == 7 {
                started.send(()).expect("the test waits for the start");
                on_go.lock().unwrap().recv().expect("the test lets it go");
            }
            ran.lock().unwrap().push(*k);
            *k
        };
        ahead.beside(exec, || {
            ahead.predict(&0, vec![5, 6]);
            ahead.settle();
            // The loop went another way: 5 is no longer expected, 6 still is.
            ahead.predict(&1, vec![6]);
            assert_eq!(ahead.take(&1, exec), 1);
            ahead.predict(&5, vec![6]);
            assert_eq!(ahead.take(&5, exec), 5, "the dropped run of 5 is run again");
            ahead.predict(&6, vec![]);
            assert_eq!(ahead.take(&6, exec), 6);
            // A replaced queue: 8 is withdrawn while the helper is busy.
            ahead.predict(&0, vec![7, 8]);
            on_start.recv().expect("the helper starts 7");
            ahead.predict(&0, vec![9]);
            go.send(()).expect("7 is waiting");
            ahead.settle();
            ahead.predict(&9, vec![]);
            assert_eq!(ahead.take(&9, exec), 9);
        });
        assert_eq!(*ran.lock().unwrap(), [5, 6, 1, 5, 7, 9], "8 never ran");
        assert_eq!(ahead.counts(), LookaheadCounts { ready: 2, waited: 0, inline: 2, runs: 6 });
    }

    #[test]
    fn a_panicking_run_re_raises_its_message_and_never_hangs() {
        let (started, on_start) = mpsc::channel();
        let (one_ran, on_one) = mpsc::channel();
        let on_one = Mutex::new(on_one);
        let exec = |k: &u32| {
            if *k == 1 {
                one_ran.send(()).expect("8 waits for it");
            }
            if *k == 8 {
                // 8 finishes only after the caller, waiting for it, ran 1.
                started.send(()).expect("the test waits for the start");
                on_one.lock().unwrap().recv().expect("the caller runs 1");
            }
            assert!(*k < 8, "run {k} failed");
            *k
        };
        let ahead = Ahead::new();
        ahead.beside(exec, || {
            // Finished by the helper before the loop got there.
            ahead.predict(&0, vec![9]);
            ahead.settle();
            assert_eq!(panic_message(|| ahead.take(&9, exec)), "run 9 failed");
            // Running on the helper while the loop waits for it; the loop
            // runs the next prediction meanwhile.
            ahead.predict(&0, vec![8, 1]);
            on_start.recv().expect("the helper starts 8");
            assert_eq!(panic_message(|| ahead.take(&8, exec)), "run 8 failed");
            ahead.predict(&1, vec![]);
            assert_eq!(ahead.take(&1, exec), 1);
        });
        assert_eq!(ahead.counts(), LookaheadCounts { ready: 2, waited: 1, inline: 0, runs: 3 });
        // Run on the caller: the helper stops and the panic leaves the scope.
        let ahead = Ahead::new();
        assert_eq!(panic_message(|| ahead.beside(exec, || ahead.take(&10, exec))), "run 10 failed");
    }
}
