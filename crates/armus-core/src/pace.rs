//! Pacing of periodic work by what is published, not by the clock: the one
//! rule ([`Pacer`]) and the one park/wake primitive ([`Signal`]) behind
//! every loop of this repository that used to sleep out a period — the
//! detection monitor ([`crate::verifier`]), a distributed site's
//! publisher, and the store server's checker and report writers
//! (`armus-dist`).
//!
//! Each loop has the same shape: read the head of what it follows, ask the
//! pacer ([`Pacer::decide`]), then act ([`Pace::Check`]), look again after
//! a nap ([`Pace::Nap`], [`Signal::wait`]) or wait to be woken by the next
//! event ([`Pace::Park`], [`Signal::park`]). The period every such loop is
//! configured with is therefore an *upper bound* on how long something new
//! waits, not a cadence: an event that finds the follower idle is acted on
//! at once, the rest of a burst one quiet interval after it ends, and
//! nothing new costs nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// What a paced loop does next, decided by [`Pacer::decide`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pace {
    /// Act now (run the check, ship the flush, run the round).
    Check,
    /// Something new is published but neither wait is over: look again
    /// after this long.
    Nap(Duration),
    /// Nothing new: wait to be woken by the next event.
    Park,
}

/// The pacing rule, as a function of the followed head and the clock so
/// that it is tested without threads: act only when something was
/// published since the last act, and then
///
/// * at once, on the leading edge, when the follower was idle — its
///   previous look found nothing new and its last act is at least a quiet
///   interval old — so the block that wakes an idle monitor is checked
///   when it wakes it, as the block that closes a cycle in a program gone
///   still is;
/// * as soon as the head has stood still for one quiet interval — the end
///   of a burst whose first event did not find the follower idle;
/// * or when a period has passed since the last act — a program that never
///   pauses is acted on once a period, never more often.
///
/// Both early clauses need a quiet interval — since the last act, or since
/// the last event — so a burst shorter than a period is acted on at most
/// twice, at its first event and a quiet interval after its last, and a
/// program that blocks just often enough to find the follower idle every
/// time is acted on at most once a quiet interval, the trailing clause's
/// bound.
pub struct Pacer {
    period: Duration,
    quiet: Duration,
    /// The head the last act covered, and when that act ended.
    checked: (u64, Instant),
    /// The head at the previous look, and when it was first seen there. A
    /// look at a head the last act covered updates it too, so "the previous
    /// look found nothing new" is `seen.0 == checked.0`.
    seen: (u64, Instant),
}

impl Pacer {
    /// The quiet interval as a share of the period. A sixteenth keeps a
    /// busy program's follower to sixteen cheap looks a period and acts on
    /// a quiescent state an order of magnitude sooner than waiting out the
    /// period does.
    pub const QUIET_SHARE: u32 = 16;

    /// A pacer that has covered head 0 as of `now`. A `quiet` of
    /// [`Duration::MAX`] leaves only the period clause — for a follower
    /// that is *told* when its source went quiet and cannot see it stand
    /// still.
    pub fn new(period: Duration, quiet: Duration, now: Instant) -> Pacer {
        Pacer { period, quiet, checked: (0, now), seen: (0, now) }
    }

    /// The period this pacer bounds its waits by.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Whether `head` is past what the last act covered.
    pub fn is_new(&self, head: u64) -> bool {
        head != self.checked.0
    }

    /// What to do with the head at `head` and the clock at `now`.
    pub fn decide(&mut self, head: u64, now: Instant) -> Pace {
        if head != self.seen.0 {
            let idle = !self.is_new(self.seen.0)
                && now.saturating_duration_since(self.checked.1) >= self.quiet;
            self.seen = (head, now);
            if idle && self.is_new(head) {
                return Pace::Check;
            }
        }
        if !self.is_new(head) {
            return Pace::Park;
        }
        let still_for = now.saturating_duration_since(self.seen.1);
        let left = self.quiet.saturating_sub(still_for);
        match left.min(self.due_in(now)) {
            Duration::ZERO => Pace::Check,
            left => Pace::Nap(left),
        }
    }

    /// [`Pacer::decide`] for a loop that also acts on the clock alone — a
    /// lease heartbeat: with nothing new it is [`Pace::Check`] once a
    /// period has passed since the last act, and until then a
    /// [`Pace::Park`] that may last [`Pacer::due_in`].
    pub fn decide_or_due(&mut self, head: u64, now: Instant) -> Pace {
        match self.decide(head, now) {
            Pace::Park if self.due_in(now).is_zero() => Pace::Check,
            pace => pace,
        }
    }

    /// How long until a period has passed since the last act.
    pub fn due_in(&self, now: Instant) -> Duration {
        self.period.saturating_sub(now.saturating_duration_since(self.checked.1))
    }

    /// Records an act that ended at `now` and covered everything up to
    /// `head` — the head read *before* the act, so that what was published
    /// while it ran is new at the next look.
    pub fn checked(&mut self, head: u64, now: Instant) {
        self.checked = (head, now);
    }
}

/// Stop flag + wake-up for one following thread, shared separately from
/// what it follows so that (a) a stop can interrupt the follower no matter
/// how long its period is, and (b) the follower holds no strong reference
/// to its source while it waits.
#[derive(Default)]
pub struct Signal {
    pub(crate) state: Mutex<SignalState>,
    wake: Condvar,
    /// Set by the follower before it waits for the next event; a publisher
    /// that reads it set wakes the follower. The handshake is the store of
    /// this flag followed by a re-read of the head on the follower's side,
    /// and the append followed by the load of this flag on the publisher's
    /// — all `SeqCst`, so at least one side sees the other's write: the
    /// follower finds the new head and does not wait, or the publisher
    /// finds the flag and leaves a wake-up behind.
    pub(crate) parked: AtomicBool,
}

#[derive(Default)]
pub(crate) struct SignalState {
    stop: bool,
    /// A publisher's wake-up, kept here until the follower takes it so
    /// that one sent between the follower's re-read and its wait is not
    /// lost.
    pub(crate) woken: bool,
}

impl Signal {
    /// A signal nobody has stopped or parked on.
    pub fn new() -> Signal {
        Signal::default()
    }

    /// Sets the stop flag and wakes the follower out of whatever wait it
    /// is in; every later wait returns at once.
    pub fn stop(&self) {
        self.state.lock().stop = true;
        self.wake.notify_all();
    }

    /// Whether [`Signal::stop`] was called.
    pub fn is_stopped(&self) -> bool {
        self.state.lock().stop
    }

    /// The publisher's half of the handshake, after its append: one load
    /// unless the follower is parked, and then one publisher of a burst
    /// takes the lock.
    pub fn wake_if_parked(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.state.lock().woken = true;
            self.wake.notify_all();
        }
    }

    /// The follower's half of the handshake: announce the wait, look at
    /// the source once more, and only then wait — for a publisher's
    /// wake-up, a stop or `timeout`. Returns whether to stop.
    pub fn park(&self, nothing_new: impl FnOnce() -> bool, timeout: Duration) -> bool {
        self.parked.store(true, Ordering::SeqCst);
        self.wait(if nothing_new() { timeout } else { Duration::ZERO })
    }

    /// Waits for `timeout`, a stop or (parked) a publisher's wake-up,
    /// whichever comes first; returns whether to stop. A spurious condvar
    /// wake-up goes back to waiting out the rest of `timeout`.
    pub fn wait(&self, timeout: Duration) -> bool {
        // `None`: so far off that it is never reached (`Duration::MAX`).
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.state.lock();
        while !state.stop && !state.woken {
            let left =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                break;
            }
            self.wake.wait_for(&mut state, left);
        }
        state.woken = false;
        self.parked.store(false, Ordering::SeqCst);
        state.stop
    }

    /// Test hook: a condvar notify *without* a wake-up or a stop — exactly
    /// the spurious wake-up [`Signal::wait`] must absorb.
    #[cfg(test)]
    fn poke(&self) {
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_absorbs_spurious_wakeups() {
        let signal = Arc::new(Signal::new());
        let period = Duration::from_millis(60);
        // A poker that fires condvar notifies throughout the wait without
        // ever setting a flag — forced spurious wake-ups.
        let poker = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                for _ in 0..30 {
                    signal.poke();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let begin = Instant::now();
        let stopped = signal.wait(period);
        let elapsed = begin.elapsed();
        poker.join().unwrap();
        assert!(!stopped, "no stop was requested");
        assert!(
            elapsed >= period,
            "wait returned after {elapsed:?}, before the {period:?} deadline — \
             a spurious wakeup cut it short"
        );
    }

    #[test]
    fn the_clock_alone_is_due_a_period_after_the_last_act() {
        let t0 = Instant::now();
        let period = Duration::from_millis(160);
        let mut pacer = Pacer::new(period, Duration::from_millis(10), t0);
        assert_eq!(pacer.due_in(t0), period);
        assert_eq!(pacer.decide(0, t0 + period), Pace::Park, "nothing new is never a check");
        assert_eq!(pacer.decide_or_due(0, t0 + period / 2), Pace::Park);
        assert_eq!(pacer.due_in(t0 + period / 2), period / 2);
        assert_eq!(pacer.decide_or_due(0, t0 + period), Pace::Check, "but the clock alone is due");
        pacer.checked(0, t0 + period);
        assert_eq!(pacer.due_in(t0 + period + Duration::from_millis(60)), period * 5 / 8);
        // Something new is paced as ever — a burst that did not find the
        // pacer idle waits for its end: the clock is no reason to hurry it.
        assert_eq!(
            pacer.decide_or_due(1, t0 + period + Duration::from_millis(5)),
            Pace::Nap(Duration::from_millis(10))
        );
    }

    #[test]
    fn a_pacer_without_a_quiet_interval_acts_on_the_period_alone() {
        let t0 = Instant::now();
        let period = Duration::from_millis(160);
        let mut pacer = Pacer::new(period, Duration::MAX, t0);
        // Idle for a quarter period is not idle for a quiet interval: no
        // leading edge either.
        assert_eq!(pacer.decide(1, t0 + period / 4), Pace::Nap(period * 3 / 4));
        // Standing still for ever so long is not going quiet.
        assert_eq!(pacer.decide(1, t0 + period / 2), Pace::Nap(period / 2));
        assert_eq!(pacer.decide(1, t0 + period), Pace::Check);
    }
}
