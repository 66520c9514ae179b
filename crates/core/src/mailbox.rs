//! Mailboxes and distributed termination for Algorithm L's threaded
//! drivers ([`lshaped`](crate::lshaped) and
//! [`lshaped_cx`](crate::lshaped_cx)).
//!
//! A run is over when no worker has work left and no message is in
//! flight. Both facts live in one counter, `busy`:
//!
//! - every worker that is not idle counts 1 (all start busy);
//! - every message counts 1 from [`Mailboxes::send`] until its receiver
//!   calls [`Mailboxes::applied`], so a message stays counted while it
//!   is being applied, not only while it waits in the queue;
//! - every wake-up counts 1 from [`Mailboxes::wake_others`] until its
//!   worker takes it.
//!
//! Only a busy worker raises the counter (it sends, or it wakes the
//! others), and an idle worker leaves the idle set only while a message
//! or wake-up addressed to it holds the counter above zero. So a zero,
//! once reached, is final, and every worker that reads it may exit. It
//! is one counter, not an idle count beside message counts, because
//! between two separate reads a worker can take a message, act on it
//! and ship work to a peer that the second read let leave.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// What one step of a busy worker did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Applied a message or committed an extraction.
    Progress,
    /// Work remains, but another worker holds the cubes it needs.
    Conflicted,
    /// Found nothing to do.
    Nothing,
}

/// One mailbox per worker plus the shared termination count.
pub(crate) struct Mailboxes<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    /// A wake-up is pending for worker `q`.
    wake: Vec<AtomicBool>,
    /// Busy workers + unapplied messages + pending wake-ups.
    busy: AtomicUsize,
}

impl<T> Mailboxes<T> {
    /// Mailboxes for `p` workers, all of them busy.
    pub(crate) fn new(p: usize) -> Self {
        Mailboxes {
            queues: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
            wake: (0..p).map(|_| AtomicBool::new(false)).collect(),
            busy: AtomicUsize::new(p),
        }
    }

    /// Queues `msg` for worker `to`. The caller must be busy.
    pub(crate) fn send(&self, to: usize, msg: T) {
        self.busy.fetch_add(1, Ordering::SeqCst);
        self.queues[to].lock().push_back(msg);
    }

    /// Takes worker `me`'s next message. It stays counted until
    /// [`Mailboxes::applied`].
    pub(crate) fn pop(&self, me: usize) -> Option<T> {
        self.queues[me].lock().pop_front()
    }

    /// One popped message has been fully applied.
    pub(crate) fn applied(&self) {
        self.busy.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every worker but `me`, whose next step must look again
    /// (Algorithm L: cubes were released, which can raise values). The
    /// caller must be busy.
    pub(crate) fn wake_others(&self, me: usize) {
        for (q, flag) in self.wake.iter().enumerate() {
            if q != me {
                self.busy.fetch_add(1, Ordering::SeqCst);
                if flag.swap(true, Ordering::SeqCst) {
                    self.busy.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Whether every mailbox is empty (the round-robin drivers' test).
    pub(crate) fn all_empty(&self) -> bool {
        self.queues.iter().all(|q| q.lock().is_empty())
    }

    /// Runs worker `me` until the run is over or `stop` says so. `stop`
    /// is checked before every step, idle or not; `step` runs only
    /// while the worker is busy. Idle workers poll every 200 µs; a
    /// conflicted worker backs off (staggered by `me`) without ever
    /// counting as idle.
    pub(crate) fn drive(
        &self,
        me: usize,
        mut stop: impl FnMut() -> bool,
        mut step: impl FnMut() -> Step,
    ) {
        let mut idle = false;
        loop {
            if stop() {
                return;
            }
            if idle {
                let mail = !self.queues[me].lock().is_empty();
                if !mail && !self.wake[me].load(Ordering::SeqCst) {
                    if self.busy.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                // Safe to count ourselves busy again: what is addressed
                // to us holds `busy` above zero until we consume it.
                self.busy.fetch_add(1, Ordering::SeqCst);
                idle = false;
            }
            if self.wake[me].swap(false, Ordering::SeqCst) {
                self.busy.fetch_sub(1, Ordering::SeqCst);
            }
            match step() {
                Step::Progress => {}
                Step::Conflicted => {
                    std::thread::sleep(Duration::from_micros(50 * (me as u64 + 1)));
                }
                Step::Nothing => {
                    idle = true;
                    if self.busy.fetch_sub(1, Ordering::SeqCst) == 1 {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_worker_with_nothing_to_do_ends_the_run() {
        let mail: Mailboxes<u32> = Mailboxes::new(1);
        let mut steps = 0;
        mail.drive(
            0,
            || false,
            || {
                steps += 1;
                Step::Nothing
            },
        );
        assert_eq!(steps, 1);
        assert_eq!(mail.busy.load(Ordering::SeqCst), 0);
    }

    /// Runs `f` on its own thread; a run that has not finished after ten
    /// seconds fails the test instead of hanging the suite.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the run did not terminate")
    }

    #[test]
    fn messages_keep_the_run_alive_until_applied() {
        // A token bounces between two workers ten times. Each receiver
        // applies it slowly and only then sends the next hop, so at every
        // hop the sender has gone idle while the receiver is still
        // applying: the sender must not take that for the end of the run.
        let (hops, mail) = within_deadline(|| {
            let mail: Mailboxes<u32> = Mailboxes::new(2);
            mail.send(1, 0);
            let hops = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for me in 0..2 {
                    let (mail, hops) = (&mail, &hops);
                    s.spawn(move || {
                        mail.drive(
                            me,
                            || false,
                            || match mail.pop(me) {
                                Some(n) => {
                                    std::thread::sleep(Duration::from_millis(2));
                                    if n < 9 {
                                        mail.send(1 - me, n + 1);
                                    }
                                    hops.fetch_add(1, Ordering::SeqCst);
                                    mail.applied();
                                    Step::Progress
                                }
                                None => Step::Nothing,
                            },
                        );
                    });
                }
            });
            (hops.into_inner(), mail)
        });
        assert_eq!(hops, 10);
        assert!(mail.all_empty());
        assert_eq!(mail.busy.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_wake_up_gives_an_idle_worker_another_step() {
        let mail: Mailboxes<u32> = Mailboxes::new(2);
        let steps = [AtomicUsize::new(0), AtomicUsize::new(0)];
        std::thread::scope(|s| {
            for me in 0..2 {
                let (mail, steps) = (&mail, &steps);
                s.spawn(move || {
                    mail.drive(
                        me,
                        || false,
                        || {
                            let n = steps[me].fetch_add(1, Ordering::SeqCst);
                            if me == 1 && n == 0 {
                                // Wake worker 0 once it has taken its step.
                                while steps[0].load(Ordering::SeqCst) == 0 {
                                    std::thread::yield_now();
                                }
                                mail.wake_others(me);
                            }
                            Step::Nothing
                        },
                    );
                });
            }
        });
        assert_eq!(steps[0].load(Ordering::SeqCst), 2);
        assert_eq!(steps[1].load(Ordering::SeqCst), 1);
        assert_eq!(mail.busy.load(Ordering::SeqCst), 0);
    }
}
