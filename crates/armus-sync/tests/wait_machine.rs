//! The wait machine as a table: each event that resolves a wait — a
//! release, a targeted avoidance interrupt, a poisoning — played in each
//! window of the register-then-recheck handshake, and what the waiter's
//! next step returns and how often its parked waker was woken.
//!
//! The windows are: (a) before the wait begins, (b) after `begin` went
//! pending but before the first step parked a waker, and (c) after that
//! step. A counting waker stands in for the parked thread or task; task
//! identities are multiplexed over this one test thread with
//! `ctx::scoped`, so every cell is one deterministic schedule.
//!
//! The last test pins what the one machine buys the blocking front-end: a
//! thread blocked in `await_phase` is woken only by an event that resolves
//! its wait.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

use armus_core::VerifierConfig;
use armus_sync::ctx::{self, TaskCtx};
use armus_sync::{OnDeadlock, Phaser, Runtime, RuntimeConfig, SyncError, WaitStep};

/// A waker that counts its wakes (and otherwise does nothing).
struct CountingWake(AtomicUsize);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[derive(Clone, Copy, Debug)]
enum Window {
    BeforeBegin,
    BeforePark,
    AfterPark,
}

/// What the waiter's step after the event returned.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Ready,
    Pending,
    WouldDeadlock,
    Poisoned,
}

fn outcome(step: Result<WaitStep, SyncError>) -> Outcome {
    match step {
        Ok(WaitStep::Ready) => Outcome::Ready,
        Ok(WaitStep::Pending) => Outcome::Pending,
        Err(SyncError::WouldDeadlock(_)) => Outcome::WouldDeadlock,
        Err(SyncError::Poisoned(_)) => Outcome::Poisoned,
        Err(err) => panic!("unexpected error {err}"),
    }
}

/// One row's fixture: the waiter `task` awaits `phase` on `phaser`, and
/// `event` plays the row's event.
struct Row {
    rt: Arc<Runtime>,
    phaser: Phaser,
    task: Arc<TaskCtx>,
    phase: u64,
    event: Box<dyn Fn()>,
}

/// Plays `row`'s event in `window`; returns the waiter's next step and
/// the wakes its waker received.
fn play(row: Row, window: Window) -> (Outcome, usize) {
    let wakes = Arc::new(CountingWake(AtomicUsize::new(0)));
    let waker = Waker::from(Arc::clone(&wakes));
    let begin = || ctx::scoped(&row.task, || row.phaser.begin_await(row.phase));
    let step = || ctx::scoped(&row.task, || row.phaser.poll_await_with_waker(&waker));
    let next = match window {
        Window::BeforeBegin => {
            (row.event)();
            begin()
        }
        Window::BeforePark => {
            assert_eq!(begin().unwrap(), WaitStep::Pending);
            (row.event)();
            step()
        }
        Window::AfterPark => {
            assert_eq!(begin().unwrap(), WaitStep::Pending);
            assert_eq!(step().unwrap(), WaitStep::Pending);
            (row.event)();
            step()
        }
    };
    let woken = wakes.0.load(Ordering::SeqCst);
    let stats = row.rt.stats();
    assert_eq!(stats.waker_wakes, woken as u64, "{window:?}: only the waiter ever parked");
    row.rt.shutdown();
    (outcome(next), woken)
}

/// Runs one row of the table: a fresh fixture per window.
fn table(fixture: fn() -> Row, expected: [(Outcome, usize); 3]) {
    let windows = [Window::BeforeBegin, Window::BeforePark, Window::AfterPark];
    for (window, want) in windows.into_iter().zip(expected) {
        assert_eq!(play(fixture(), window), want, "window {window:?}");
    }
}

/// `task` and `other` registered on every phaser of `phasers`.
fn members(phasers: &[&Phaser]) -> (Arc<TaskCtx>, Arc<TaskCtx>) {
    let (task, other) = (TaskCtx::fresh(), TaskCtx::fresh());
    for ph in phasers {
        ctx::scoped(&task, || ph.register()).unwrap();
        ctx::scoped(&other, || ph.register()).unwrap();
    }
    (task, other)
}

/// The waiter has arrived at phase 1; the event is the laggard's arrival.
fn release() -> Row {
    let rt = Runtime::avoidance();
    let phaser = Phaser::new_unregistered(&rt);
    let (task, laggard) = members(&[&phaser]);
    ctx::scoped(&task, || phaser.arrive()).unwrap();
    let ph = phaser.clone();
    let event = Box::new(move || {
        ctx::scoped(&laggard, || ph.arrive()).unwrap();
    });
    Row { rt, phaser, task, phase: 1, event }
}

/// A crossed wait: the waiter awaits `p` while lagging on `q`, the other
/// task the reverse. The event is the other task's await, which closes
/// the cycle: refused, it interrupts a pending waiter (or, played before
/// the waiter begins, leaves the waiter's own begin to be refused).
fn interrupt() -> Row {
    let rt = Runtime::avoidance();
    let (p, q) = (Phaser::new_unregistered(&rt), Phaser::new_unregistered(&rt));
    let (task, other) = members(&[&p, &q]);
    ctx::scoped(&task, || p.arrive()).unwrap();
    ctx::scoped(&other, || q.arrive()).unwrap();
    let event = Box::new(move || {
        let _ = ctx::scoped(&other, || q.begin_await(1));
    });
    Row { rt, phaser: p, task, phase: 1, event }
}

/// Two other tasks deadlock across `p` and `q`; the waiter is a
/// non-member awaiting `p`. The event is the detection check that finds
/// their cycle, which (under `OnDeadlock::Break`) poisons both phasers.
fn poison() -> Row {
    let rt = Runtime::new(
        RuntimeConfig::unchecked()
            .with_verifier(VerifierConfig::publish_only())
            .with_on_deadlock(OnDeadlock::Break),
    );
    let (p, q) = (Phaser::new_unregistered(&rt), Phaser::new_unregistered(&rt));
    let (x, y) = members(&[&p, &q]);
    ctx::scoped(&x, || p.arrive()).unwrap();
    ctx::scoped(&y, || q.arrive()).unwrap();
    let (p2, verifier) = (p.clone(), Arc::clone(rt.verifier()));
    let event = Box::new(move || {
        assert_eq!(ctx::scoped(&x, || p2.begin_await(1)).unwrap(), WaitStep::Pending);
        assert_eq!(ctx::scoped(&y, || q.begin_await(1)).unwrap(), WaitStep::Pending);
        assert!(verifier.check_now().is_some(), "the planted cycle is found");
    });
    Row { rt, phaser: p, task: TaskCtx::fresh(), phase: 1, event }
}

#[test]
fn wait_machine_handshake_release() {
    table(release, [(Outcome::Ready, 0), (Outcome::Ready, 0), (Outcome::Ready, 1)]);
}

#[test]
fn wait_machine_handshake_interrupt() {
    table(
        interrupt,
        [(Outcome::WouldDeadlock, 0), (Outcome::WouldDeadlock, 0), (Outcome::WouldDeadlock, 1)],
    );
}

#[test]
fn wait_machine_handshake_poison() {
    table(poison, [(Outcome::Poisoned, 0), (Outcome::Poisoned, 0), (Outcome::Poisoned, 1)]);
}

#[test]
fn blocking_waiters_are_woken_only_by_an_event_that_resolves_them() {
    let rt = Runtime::unchecked();
    let ph = Phaser::new_unregistered(&rt);
    let (ahead, laggard) = members(&[&ph]);
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let ph = ph.clone();
            rt.spawn(move || ph.await_phase(1))
        })
        .collect();
    // Rendezvous: every waiter has parked its thread's waker.
    let deadline = Instant::now() + Duration::from_secs(2);
    while rt.stats().async_waits < 4 {
        assert!(Instant::now() < deadline, "four blocked waits must park: {:?}", rt.stats());
        std::thread::yield_now();
    }
    assert_eq!(rt.stats().async_waits, 4);

    // Arrivals that leave the laggard behind resolve no wait: no wake.
    ctx::scoped(&ahead, || ph.arrive()).unwrap();
    ctx::scoped(&ahead, || ph.arrive()).unwrap();
    assert_eq!(rt.stats().waker_wakes, 0, "a non-resolving arrival woke a blocked thread");

    // The releasing arrival wakes each blocked thread once.
    ctx::scoped(&laggard, || ph.arrive()).unwrap();
    assert_eq!(rt.stats().waker_wakes, 4);
    for waiter in waiters {
        assert!(waiter.join().unwrap().is_ok());
    }
    assert_eq!(rt.stats().async_waits, 4, "a woken thread went back to waiting");
}
