//! The wait futures: `Future`-returning counterparts of the sync blocking
//! ops, driven through the `begin_await` / `poll_await_with_waker` seam —
//! the same wait machine a blocking `await_phase` runs, with the task's
//! waker parked where a blocked thread parks its own.
//!
//! [`AwaitPhase`] is the one wait state machine:
//!
//! 1. **First poll** captures the current task context (installed by the
//!    executor's [`crate::Scoped`] wrapper) and pins it into the future —
//!    later polls may run on any worker thread, and drop-cancellation must
//!    act as the same task. It then runs `begin_await`, which is where the
//!    avoidance check fires, exactly as on the sync path.
//! 2. A pending wait parks the poll's waker with the wait machine
//!    (register-before-check, so a racing settle cannot strand the
//!    future); the waker is woken exactly once, when the fate resolves.
//! 3. **Drop while pending** cancels the wait: the waker is unparked and
//!    the published blocked status withdrawn, leaving verifier state as if
//!    the await had never begun.
//!
//! [`Advance`] arrives on its first poll and then drives an owned
//! [`AwaitPhase`] for the arrived phase.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use armus_sync::ctx::{self, TaskCtx};
use armus_sync::{Phase, Phaser, SyncError, WaitStep};

enum WaitState {
    Unstarted,
    Pending(Arc<TaskCtx>),
    Done,
}

/// Future form of [`Phaser::await_phase`]: resolves when `phase` is
/// observed (or with the poison / would-deadlock error). Created by
/// [`crate::ops::AsyncPhaser::await_phase_async`] and
/// [`crate::ops::AsyncLatch::wait_async`].
pub struct AwaitPhase {
    phaser: Phaser,
    phase: Phase,
    state: WaitState,
}

impl AwaitPhase {
    pub(crate) fn new(phaser: Phaser, phase: Phase) -> AwaitPhase {
        AwaitPhase { phaser, phase, state: WaitState::Unstarted }
    }

    /// The awaited phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }
}

impl Future for AwaitPhase {
    type Output = Result<(), SyncError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let task = match &this.state {
            WaitState::Done => panic!("AwaitPhase polled after completion"),
            WaitState::Pending(task) => Arc::clone(task),
            WaitState::Unstarted => match this.phaser.begin_await(this.phase) {
                Ok(WaitStep::Pending) => ctx::current(),
                begun => {
                    this.state = WaitState::Done;
                    return Poll::Ready(begun.map(|_| ()));
                }
            },
        };
        match ctx::scoped(&task, || this.phaser.poll_await_with_waker(cx.waker())) {
            Ok(WaitStep::Pending) => {
                this.state = WaitState::Pending(task);
                Poll::Pending
            }
            stepped => {
                this.state = WaitState::Done;
                Poll::Ready(stepped.map(|_| ()))
            }
        }
    }
}

impl Drop for AwaitPhase {
    fn drop(&mut self) {
        if let WaitState::Pending(task) = &self.state {
            ctx::scoped(task, || self.phaser.cancel_await());
        }
    }
}

enum AdvanceState {
    Unstarted(Phaser),
    Waiting { phase: Phase, wait: AwaitPhase },
    Done,
}

/// Future form of [`Phaser::arrive_and_await`]: arrives on first poll,
/// then resolves with the arrived phase once it is observed. Dropping the
/// future while pending cancels the *await* only (the owned
/// [`AwaitPhase`]'s drop) — the arrival, like on the sync path, has
/// already been signalled to the other members and is not rolled back.
pub struct Advance {
    state: AdvanceState,
}

impl Advance {
    pub(crate) fn new(phaser: Phaser) -> Advance {
        Advance { state: AdvanceState::Unstarted(phaser) }
    }
}

impl Future for Advance {
    type Output = Result<Phase, SyncError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.state = match std::mem::replace(&mut this.state, AdvanceState::Done) {
            AdvanceState::Unstarted(phaser) => match phaser.arrive() {
                Ok(phase) => AdvanceState::Waiting { phase, wait: AwaitPhase::new(phaser, phase) },
                Err(err) => return Poll::Ready(Err(err)),
            },
            state => state,
        };
        let AdvanceState::Waiting { phase, wait } = &mut this.state else {
            panic!("Advance polled after completion");
        };
        let phase = *phase;
        let polled = Pin::new(wait).poll(cx);
        if polled.is_ready() {
            this.state = AdvanceState::Done;
        }
        polled.map(|done| done.map(|()| phase))
    }
}
