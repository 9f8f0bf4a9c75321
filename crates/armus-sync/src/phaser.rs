//! The phaser: the generalised barrier all other primitives in this crate
//! are built from (paper §2.2).
//!
//! A phaser maps member tasks to *local phases* (monotonic counters).
//! Members **arrive** (increment their local phase) and **await** a phase
//! `n`, which is observed once every member's local phase is at least `n`
//! (`await(P, n)` in the paper). Membership is dynamic: tasks register
//! (inheriting a phase) and deregister at any time. Split-phase
//! synchronisation (`resume`/`arrive` now, `await` later) and waits on
//! arbitrary phases are supported, subsuming X10 clocks, Java
//! `Phaser`/`CyclicBarrier`/`CountDownLatch`, and HJ phasers.
//!
//! Every blocking wait runs the Armus hook: the blocked status — the event
//! waited on and, per registered phaser, the task's local phase — is
//! published to the verifier. In avoidance mode a wait that would complete
//! a deadlock cycle returns [`SyncError::WouldDeadlock`] instead of
//! blocking, and the task is deregistered from this phaser.
//!
//! A wait is one machine whichever front-end drives it: `begin` publishes
//! it, and a step ([`Phaser::poll_await_with_waker`]) parks the caller's
//! waker and reads the wait's fate under the phaser lock. An async future
//! parks its task's waker; a blocking [`Phaser::await_phase`] parks a
//! waker that unparks its OS thread, then calls `std::thread::park`. An
//! event wakes only the waits it resolves.

use std::collections::HashMap;
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::thread::Thread;

use armus_core::{DeadlockReport, Phase, PhaserId, Resource, TaskId, Verifier};
use parking_lot::Mutex;

use crate::ctx::{self, TaskCtx};
use crate::error::SyncError;
use crate::runtime::Runtime;

/// HJ-style registration modes (Shirako et al., cited in §2.2): phasers
/// "unify barrier and point-to-point synchronisation" by letting members
/// register as signallers, waiters, or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RegMode {
    /// Signal *and* wait: the classic barrier member (X10 clocked tasks,
    /// Java phaser parties).
    #[default]
    SigWait,
    /// Signal-only: arrives but never waits — a producer. Its arrivals
    /// gate other members' waits, so it *impedes*; it may not `await`.
    Sig,
    /// Wait-only: waits but never signals — a consumer. Its (non-)arrival
    /// gates nobody: `await(P, n)` ignores it, and correspondingly the
    /// verification layer publishes no impede registration for it.
    Wait,
}

struct Member {
    arrived: Phase,
    resumed: bool,
    mode: RegMode,
}

/// One step of a wait driven through the poll seam ([`Phaser::begin_await`]
/// / [`Phaser::poll_await`]): either the wait resolved — observed, or the
/// error already surfaced through the `Result` — or it is still pending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitStep {
    /// The wait completed (its blocked status, if published, has been
    /// withdrawn).
    Ready,
    /// The wait has not resolved; its blocked status stays published.
    Pending,
}

/// How a pending wait resolved, as [`PhState::fate`] decides it.
enum Fate {
    Poisoned,
    Interrupted,
    Observed,
}

struct PhState {
    members: HashMap<TaskId, Member>,
    poisoned: Option<Box<DeadlockReport>>,
    /// Targeted avoidance interrupts: when an avoidance check finds a
    /// cycle, *every* blocked task in the cycle is woken with the verdict
    /// (paper §2.1: "an exception is raised in Lines 8 and 11"), keyed here
    /// by the victim's task id on the phaser it waits on.
    interrupts: HashMap<TaskId, Box<DeadlockReport>>,
    /// Waits begun (blocked status published, when the verifier is
    /// enabled) but not yet resolved, with the phase each awaits. Every
    /// driver — a blocking thread, a future, a cooperative scheduler —
    /// steps these through [`PhaserCore::poll_wait`], so the wait machine
    /// has exactly one implementation.
    pending: HashMap<TaskId, Phase>,
    /// Wakers parked behind pending waits, keyed by the waiting task: a
    /// future's, or a blocked thread's [`ThreadWake`]. A waker is parked
    /// only beside its pending wait, and woken **exactly once**: it is
    /// removed as it is woken by a fate-resolving event, and only the
    /// driver's next step may park it again (re-reading the fate under
    /// the same lock, so no wake is ever lost).
    wakers: HashMap<TaskId, Waker>,
}

impl PhState {
    /// The observed phase: the minimum local phase over the *signalling*
    /// members (wait-only registrations gate nobody).
    fn floor(&self) -> Option<Phase> {
        self.members.values().filter(|m| m.mode != RegMode::Wait).map(|m| m.arrived).min()
    }

    /// `await(P, n)` over the signalling members; the same as
    /// `floor() ≥ n` (or no signaller), but it stops at the first laggard.
    fn observed(&self, n: Phase) -> bool {
        self.members.values().filter(|m| m.mode != RegMode::Wait).all(|m| m.arrived >= n)
    }

    /// The fate rule: how `task`'s wait stands, `None` while it is
    /// pending. The step, the peek and [`PhaserCore::notify_waiters`] all
    /// read it. `observed` answers `await(P, n)` for the wait, asked only
    /// when neither poison nor an interrupt decides; a caller deciding
    /// many waits answers it from one [`PhState::floor`]. The priority
    /// order is load-bearing: poisoning beats interrupts beats a racing
    /// normal release — an interrupt is an epoch-confirmed avoidance
    /// verdict for exactly this blocking operation, so *every* task of the
    /// cycle observes the exception (paper §2.1), deterministically.
    fn fate(&self, task: TaskId, observed: impl FnOnce() -> bool) -> Option<Fate> {
        if self.poisoned.is_some() {
            Some(Fate::Poisoned)
        } else if self.interrupts.contains_key(&task) {
            Some(Fate::Interrupted)
        } else if observed() {
            Some(Fate::Observed)
        } else {
            None
        }
    }
}

/// The park primitive of a blocking wait: a waker that unparks the OS
/// thread it was built on.
struct ThreadWake(Thread);

impl Wake for ThreadWake {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    static THREAD_WAKER: Waker = Waker::from(Arc::new(ThreadWake(std::thread::current())));
}

/// Shared phaser state; `Phaser` handles are cheap clones of an `Arc` of
/// this.
pub(crate) struct PhaserCore {
    id: PhaserId,
    runtime: Arc<Runtime>,
    state: Mutex<PhState>,
}

impl PhaserCore {
    pub(crate) fn id(&self) -> PhaserId {
        self.id
    }

    pub(crate) fn verifier(&self) -> &Arc<Verifier> {
        self.runtime.verifier()
    }

    /// The local phase of `task`, if it is a member.
    pub(crate) fn local_phase_of(&self, task: TaskId) -> Option<Phase> {
        self.state.lock().members.get(&task).map(|m| m.arrived)
    }

    /// The local phase `task` publishes as its *impede* registration —
    /// `None` for non-members and for wait-only members, whose arrival
    /// gates nobody (so they impede no event).
    pub(crate) fn impeding_phase_of(&self, task: TaskId) -> Option<Phase> {
        self.state.lock().members.get(&task).filter(|m| m.mode != RegMode::Wait).map(|m| m.arrived)
    }

    fn register_at(&self, ctx: &TaskCtx, phase: Phase, mode: RegMode) -> Result<(), SyncError> {
        {
            let mut st = self.state.lock();
            if st.members.contains_key(&ctx.id()) {
                return Err(SyncError::AlreadyRegistered { phaser: self.id, task: ctx.id() });
            }
            st.members.insert(ctx.id(), Member { arrived: phase, resumed: false, mode });
        }
        // Registration can never release waiters, so no notification; but
        // the context must know, for future blocked-status publications.
        ctx.add_registration(&self.self_arc());
        Ok(())
    }

    /// Registers `child` at the phase of the current task (PL's
    /// `reg(t, p)`: the registered task inherits the phase of the current
    /// task). The current task must be a member.
    pub(crate) fn register_child(
        &self,
        parent: &TaskCtx,
        child: &TaskCtx,
    ) -> Result<(), SyncError> {
        let phase = self
            .local_phase_of(parent.id())
            .ok_or(SyncError::NotRegistered { phaser: self.id, task: parent.id() })?;
        self.register_at(child, phase, RegMode::SigWait)
    }

    /// Registers the current task at the phaser's observed phase (Java
    /// `Phaser.register()` style: join at the current phase floor).
    pub(crate) fn register_current(&self, ctx: &TaskCtx, mode: RegMode) -> Result<(), SyncError> {
        let phase = self.state.lock().floor().unwrap_or(0);
        self.register_at(ctx, phase, mode)
    }

    fn mode_of(&self, task: TaskId) -> Option<RegMode> {
        self.state.lock().members.get(&task).map(|m| m.mode)
    }

    /// Deregisters `ctx`; waiters are re-notified since removing a laggard
    /// can observe a phase.
    pub(crate) fn deregister(&self, ctx: &TaskCtx) -> Result<(), SyncError> {
        {
            let mut st = self.state.lock();
            if st.members.remove(&ctx.id()).is_none() {
                return Err(SyncError::NotRegistered { phaser: self.id, task: ctx.id() });
            }
        }
        self.notify_waiters();
        ctx.remove_registration(self);
        Ok(())
    }

    /// Wakes (and unparks) every parked waker whose wait has now resolved
    /// — by release, poison, or a targeted interrupt — and no other.
    /// Resolution is decided under the state lock but the wakes run
    /// outside it, so a woken driver may step (and re-lock) immediately
    /// without deadlocking against us.
    pub(crate) fn notify_waiters(&self) {
        let woken: Vec<Waker> = {
            let mut st = self.state.lock();
            if st.wakers.is_empty() {
                return;
            }
            let floor = st.floor();
            let resolved: Vec<TaskId> = st
                .wakers
                .keys()
                .copied()
                .filter(|task| {
                    let wait = st.pending.get(task);
                    debug_assert!(wait.is_some(), "a waker is parked only beside its pending wait");
                    wait.is_some_and(|&n| {
                        st.fate(*task, || floor.map_or(true, |f| f >= n)).is_some()
                    })
                })
                .collect();
            resolved.iter().filter_map(|task| st.wakers.remove(task)).collect()
        };
        if !woken.is_empty() {
            self.verifier().note_waker_wakes(woken.len() as u64);
            for waker in woken {
                waker.wake();
            }
        }
    }

    /// Arrives at the next phase, returning the arrived phase. If the task
    /// had `resume`d, the pending arrival is consumed instead (X10
    /// `resume();…;advance()` semantics). Wait-only members cannot signal.
    pub(crate) fn arrive(&self, ctx: &TaskCtx) -> Result<Phase, SyncError> {
        let phase = {
            let mut st = self.state.lock();
            let member = st
                .members
                .get_mut(&ctx.id())
                .ok_or(SyncError::NotRegistered { phaser: self.id, task: ctx.id() })?;
            if member.mode == RegMode::Wait {
                return Err(SyncError::InvalidMode {
                    phaser: self.id,
                    task: ctx.id(),
                    operation: "arrive",
                });
            }
            if member.resumed {
                member.resumed = false;
                member.arrived
            } else {
                member.arrived += 1;
                member.arrived
            }
        };
        self.notify_waiters();
        Ok(phase)
    }

    /// Split-phase arrival: signals arrival at the next phase without
    /// consuming it; the next `arrive` (e.g. inside `arrive_and_await`)
    /// completes this phase rather than starting another. Idempotent until
    /// consumed.
    pub(crate) fn resume(&self, ctx: &TaskCtx) -> Result<Phase, SyncError> {
        let phase = {
            let mut st = self.state.lock();
            let member = st
                .members
                .get_mut(&ctx.id())
                .ok_or(SyncError::NotRegistered { phaser: self.id, task: ctx.id() })?;
            if member.mode == RegMode::Wait {
                return Err(SyncError::InvalidMode {
                    phaser: self.id,
                    task: ctx.id(),
                    operation: "resume",
                });
            }
            if !member.resumed {
                member.arrived += 1;
                member.resumed = true;
            }
            member.arrived
        };
        self.notify_waiters();
        Ok(phase)
    }

    /// Begins a wait for phase `n`: the fast path (nothing to wait for —
    /// and nothing to verify, the Armus hook fires only on operations
    /// that actually block) resolves to [`WaitStep::Ready`]; otherwise the
    /// blocked status is published (in avoidance mode this is where a
    /// would-deadlock verdict surfaces — the task is deregistered from
    /// this phaser so the remaining members can progress, paper §2.1) and
    /// the wait is recorded as pending.
    pub(crate) fn begin_wait(&self, ctx: &TaskCtx, n: Phase) -> Result<WaitStep, SyncError> {
        {
            let mut st = self.state.lock();
            if st.members.get(&ctx.id()).is_some_and(|m| m.mode == RegMode::Sig) {
                return Err(SyncError::InvalidMode {
                    phaser: self.id,
                    task: ctx.id(),
                    operation: "await",
                });
            }
            if let Some(report) = &st.poisoned {
                return Err(SyncError::Poisoned(report.clone()));
            }
            if st.observed(n) {
                // Drop any stale interrupt aimed at a wait we never enter.
                st.interrupts.remove(&ctx.id());
                return Ok(WaitStep::Ready);
            }
        }
        let verifier = self.verifier();
        if verifier.is_enabled() {
            let waits = vec![Resource::new(self.id, n)];
            let registered = ctx.registration_vector(verifier);
            if let Err(err) = verifier.block(ctx.id(), waits, registered) {
                let _ = self.deregister(ctx);
                return Err(SyncError::WouldDeadlock(Box::new(err.report)));
            }
        }
        self.state.lock().pending.insert(ctx.id(), n);
        Ok(WaitStep::Pending)
    }

    /// The step of a wait begun with [`PhaserCore::begin_wait`], for every
    /// driver. Resolves the wait if [`PhState::fate`] allows, withdrawing
    /// the published status (an interrupted task is also deregistered from
    /// this phaser, as the paper prescribes); otherwise leaves it pending,
    /// with `waker` — if given — parked to be woken exactly once when the
    /// fate resolves. The order is register-before-check: the waker is
    /// parked *first* and the fate read under the same lock, so an event
    /// racing the step either resolved the fate before we locked (we read
    /// it here) or runs after us (it finds the parked waker) — a pending
    /// wait can never be stranded. A task with no pending wait reads
    /// [`WaitStep::Ready`].
    pub(crate) fn poll_wait(
        &self,
        ctx: &TaskCtx,
        waker: Option<&Waker>,
    ) -> Result<WaitStep, SyncError> {
        let task = ctx.id();
        let outcome = {
            let mut st = self.state.lock();
            let Some(&n) = st.pending.get(&task) else {
                debug_assert!(!st.wakers.contains_key(&task), "a waker outlived its wait");
                return Ok(WaitStep::Ready);
            };
            let parked_fresh = waker.is_some_and(|w| st.wakers.insert(task, w.clone()).is_none());
            let Some(fate) = st.fate(task, || st.observed(n)) else {
                if parked_fresh {
                    self.verifier().note_async_wait();
                }
                return Ok(WaitStep::Pending);
            };
            st.pending.remove(&task);
            st.wakers.remove(&task);
            let interrupt = st.interrupts.remove(&task);
            match fate {
                Fate::Observed => Ok(WaitStep::Ready),
                Fate::Poisoned => {
                    Err(SyncError::Poisoned(st.poisoned.clone().expect("fate read it")))
                }
                Fate::Interrupted => {
                    Err(SyncError::WouldDeadlock(interrupt.expect("fate read it")))
                }
            }
        };
        self.verifier().unblock(task);
        if let Err(SyncError::WouldDeadlock(_)) = &outcome {
            let _ = self.deregister(ctx);
        }
        outcome
    }

    /// Cancels `ctx`'s pending wait, if any: unparks its waker, drops any
    /// targeted interrupt aimed at it (withdrawing the block withdraws
    /// this task from the cycle, so the verdict is void for it), and
    /// withdraws the published blocked status — leaving verifier, journal
    /// and phaser state exactly as if the wait had never begun. The
    /// drop-safety hook for async futures.
    pub(crate) fn cancel_wait(&self, ctx: &TaskCtx) {
        let was_pending = {
            let mut st = self.state.lock();
            st.wakers.remove(&ctx.id());
            let was_pending = st.pending.remove(&ctx.id()).is_some();
            if was_pending {
                st.interrupts.remove(&ctx.id());
            }
            was_pending
        };
        if was_pending {
            self.verifier().unblock(ctx.id());
        }
    }

    /// Would [`PhaserCore::poll_wait`] resolve `task`'s pending wait right
    /// now (by release, poison, or interrupt)? Pure peek — no state
    /// changes — so a scheduler can enumerate its runnable set without
    /// committing. A task with no pending wait reads `true`.
    pub(crate) fn wait_would_resolve(&self, task: TaskId) -> bool {
        let st = self.state.lock();
        st.pending.get(&task).map_or(true, |&n| st.fate(task, || st.observed(n)).is_some())
    }

    /// Blocks until phase `n` is observed (every signalling member arrived
    /// at `≥ n`). Non-members may wait: the predicate ranges over members
    /// only. Signal-only members may not wait (HJ mode discipline).
    ///
    /// This is the OS-thread driver of the wait machine: begin, then step
    /// with the thread's waker parked and park the thread until a step
    /// resolves the wait.
    pub(crate) fn await_phase(&self, ctx: &TaskCtx, n: Phase) -> Result<(), SyncError> {
        if self.begin_wait(ctx, n)? == WaitStep::Ready {
            return Ok(());
        }
        THREAD_WAKER.with(|waker| {
            while self.poll_wait(ctx, Some(waker))? == WaitStep::Pending {
                std::thread::park();
            }
            Ok(())
        })
    }

    /// Delivers an avoidance verdict to a blocked victim: wakes `task`'s
    /// wait on this phaser with [`SyncError::WouldDeadlock`].
    pub(crate) fn interrupt(&self, task: TaskId, report: &DeadlockReport) {
        {
            let mut st = self.state.lock();
            st.interrupts.insert(task, Box::new(report.clone()));
        }
        self.notify_waiters();
    }

    /// Marks the phaser deadlocked (recovery extension) *without waking
    /// waiters*: all current and future waits fail with
    /// [`SyncError::Poisoned`]. The runtime poisons every phaser of a
    /// cycle first and only then wakes ([`PhaserCore::notify_waiters`]), so
    /// that no victim's exit-deregistration can release another victim
    /// with a normal (non-poisoned) completion in between.
    pub(crate) fn poison_quiet(&self, report: &DeadlockReport) {
        let mut st = self.state.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(Box::new(report.clone()));
        }
    }

    /// Registers a synthetic member at phase 0 (used by
    /// [`crate::CountDownLatch`] for unclaimed count slots). Virtual
    /// members have no task context and never publish blocked status.
    pub(crate) fn register_virtual(&self, task: TaskId) {
        self.state
            .lock()
            .members
            .insert(task, Member { arrived: 0, resumed: false, mode: RegMode::SigWait });
    }

    /// Removes a synthetic member (one anonymous count-down); waiters are
    /// re-notified since the departure may observe a phase.
    pub(crate) fn retire_virtual(&self, task: TaskId) {
        self.state.lock().members.remove(&task);
        self.notify_waiters();
    }

    /// Replaces synthetic member `virtual_id` with the real task `ctx`,
    /// preserving the phase, so the task becomes visible to verification.
    pub(crate) fn swap_virtual(&self, virtual_id: TaskId, ctx: &TaskCtx) -> Result<(), SyncError> {
        {
            let mut st = self.state.lock();
            if st.members.contains_key(&ctx.id()) {
                return Err(SyncError::AlreadyRegistered { phaser: self.id, task: ctx.id() });
            }
            let Some(member) = st.members.remove(&virtual_id) else {
                return Err(SyncError::NotRegistered { phaser: self.id, task: virtual_id });
            };
            st.members.insert(ctx.id(), member);
        }
        ctx.add_registration(&self.self_arc());
        Ok(())
    }

    fn member_count(&self) -> usize {
        self.state.lock().members.len()
    }

    fn floor(&self) -> Option<Phase> {
        self.state.lock().floor()
    }

    /// The `Arc` for this core, recovered through the runtime's phaser
    /// table (cores are always created through [`PhaserCore::create`]).
    fn self_arc(&self) -> Arc<PhaserCore> {
        self.runtime
            .lookup_phaser(self.id)
            .expect("phaser core must be in its runtime's table while alive")
    }

    pub(crate) fn create(runtime: &Arc<Runtime>) -> Arc<PhaserCore> {
        let core = Arc::new(PhaserCore {
            id: PhaserId::fresh(),
            runtime: Arc::clone(runtime),
            state: Mutex::new(PhState {
                members: HashMap::new(),
                poisoned: None,
                interrupts: HashMap::new(),
                pending: HashMap::new(),
                wakers: HashMap::new(),
            }),
        });
        runtime.track_phaser(&core);
        core
    }
}

/// A first-class, dynamically-membered barrier. Cloning yields another
/// handle to the same phaser; handles may be sent across tasks (phasers are
/// first-class values, paper §1).
#[derive(Clone)]
pub struct Phaser {
    pub(crate) core: Arc<PhaserCore>,
}

impl Phaser {
    /// Creates a phaser and registers the current task at phase 0 (PL's
    /// `newPhaser`; X10's `Clock.make()`).
    pub fn new(runtime: &Arc<Runtime>) -> Phaser {
        let ph = Phaser::new_unregistered(runtime);
        ph.core
            .register_at(&ctx::current(), 0, RegMode::SigWait)
            .expect("fresh phaser cannot have members");
        ph
    }

    /// Creates a phaser with no members.
    pub fn new_unregistered(runtime: &Arc<Runtime>) -> Phaser {
        Phaser { core: PhaserCore::create(runtime) }
    }

    /// The phaser's id (the name `p` used in deadlock reports).
    pub fn id(&self) -> PhaserId {
        self.core.id()
    }

    /// Registers the current task at the phaser's observed phase, in the
    /// default signal-and-wait mode.
    pub fn register(&self) -> Result<(), SyncError> {
        self.core.register_current(&ctx::current(), RegMode::SigWait)
    }

    /// Registers the current task with an explicit HJ registration mode:
    /// [`RegMode::Sig`] (producer — signals, never waits, impedes),
    /// [`RegMode::Wait`] (consumer — waits, never signals, impedes
    /// nothing), or [`RegMode::SigWait`].
    pub fn register_with_mode(&self, mode: RegMode) -> Result<(), SyncError> {
        self.core.register_current(&ctx::current(), mode)
    }

    /// The current task's registration mode, if a member.
    pub fn mode(&self) -> Option<RegMode> {
        self.core.mode_of(ctx::current().id())
    }

    /// Deregisters the current task (PL's `dereg`; X10's `drop`; Java's
    /// `arriveAndDeregister` without the arrival).
    pub fn deregister(&self) -> Result<(), SyncError> {
        self.core.deregister(&ctx::current())
    }

    /// Arrives at the next phase without waiting (split-phase begin; Java
    /// `Phaser.arrive`). Returns the arrived phase, to be awaited later.
    pub fn arrive(&self) -> Result<Phase, SyncError> {
        self.core.arrive(&ctx::current())
    }

    /// X10 `Clock.resume()`: signals arrival but leaves the phase pending,
    /// so a following [`Phaser::arrive_and_await`] completes *this* phase.
    pub fn resume(&self) -> Result<Phase, SyncError> {
        self.core.resume(&ctx::current())
    }

    /// Waits until `phase` is observed (every member arrived at `≥ phase`).
    /// Permitted for non-members (e.g. latch-style waits and HJ waits on
    /// arbitrary phases).
    pub fn await_phase(&self, phase: Phase) -> Result<(), SyncError> {
        self.core.await_phase(&ctx::current(), phase)
    }

    /// Poll-seam entry: begins a wait for `phase` without blocking. On
    /// [`WaitStep::Pending`] the current task's blocked status is
    /// published and the wait is driven by [`Phaser::poll_await`]; in
    /// avoidance mode a would-deadlock verdict surfaces here. Used by
    /// cooperative schedulers (the simulation testkit) in place of
    /// [`Phaser::await_phase`].
    pub fn begin_await(&self, phase: Phase) -> Result<WaitStep, SyncError> {
        self.core.begin_wait(&ctx::current(), phase)
    }

    /// Poll-seam step: resolves the current task's pending wait if it can
    /// (release, poison, or avoidance interrupt), otherwise leaves it
    /// pending. See [`Phaser::begin_await`].
    pub fn poll_await(&self) -> Result<WaitStep, SyncError> {
        self.core.poll_wait(&ctx::current(), None)
    }

    /// Async-seam step: like [`Phaser::poll_await`], but a wait that
    /// stays pending parks `waker` with the wait machine, to be woken
    /// exactly once when the fate resolves (release, poison, or avoidance
    /// interrupt) — no polling loops. Register-before-check: the waker is
    /// parked before the fate is re-read under the same lock, so a settle
    /// racing a first poll can never strand the future. `Future`
    /// implementations over the seam (the `armus-async` crate) call this
    /// from `poll`; [`Phaser::await_phase`] runs the same step with a
    /// waker that unparks its thread.
    pub fn poll_await_with_waker(&self, waker: &Waker) -> Result<WaitStep, SyncError> {
        self.core.poll_wait(&ctx::current(), Some(waker))
    }

    /// Cancels the current task's pending wait, if any: unparks its
    /// waker, drops any targeted interrupt aimed at it, and withdraws the
    /// published blocked status — leaving verifier and phaser state
    /// exactly as if the wait had never begun. Async futures call this
    /// when dropped while pending (cancellation safety).
    pub fn cancel_await(&self) {
        self.core.cancel_wait(&ctx::current());
    }

    /// Would [`Phaser::poll_await`] resolve `task`'s pending wait right
    /// now? Pure peek; lets a scheduler enumerate runnable steps without
    /// committing them. A task with no pending wait reads `true`.
    pub fn await_would_resolve_of(&self, task: TaskId) -> bool {
        self.core.wait_would_resolve(task)
    }

    /// Poll-seam form of [`Phaser::arrive_and_await`]: arrives, then
    /// begins the wait for the arrived phase.
    pub fn begin_arrive_and_await(&self) -> Result<WaitStep, SyncError> {
        let ctx = ctx::current();
        let n = self.core.arrive(&ctx)?;
        self.core.begin_wait(&ctx, n)
    }

    /// Registers `child` at the current task's phase (the same inheritance
    /// as [`crate::Runtime::spawn_clocked`], without spawning a thread) —
    /// the seam cooperative schedulers use to model clocked forks. The
    /// current task must be a member.
    pub fn register_child(&self, child: &Arc<crate::ctx::TaskCtx>) -> Result<(), SyncError> {
        self.core.register_child(&ctx::current(), child)
    }

    /// The cyclic-barrier step: arrive and wait for everyone (X10
    /// `advance`; Java `arriveAndAwaitAdvance`). Returns the phase observed.
    pub fn arrive_and_await(&self) -> Result<Phase, SyncError> {
        let ctx = ctx::current();
        let n = self.core.arrive(&ctx)?;
        self.core.await_phase(&ctx, n)?;
        Ok(n)
    }

    /// Arrives and leaves the phaser (Java `arriveAndDeregister`): signals
    /// this task's step without waiting, then revokes membership.
    pub fn arrive_and_deregister(&self) -> Result<(), SyncError> {
        let ctx = ctx::current();
        self.core.arrive(&ctx)?;
        self.core.deregister(&ctx)
    }

    /// The current task's local phase, if registered.
    pub fn local_phase(&self) -> Option<Phase> {
        self.core.local_phase_of(ctx::current().id())
    }

    /// The observed phase: the minimum local phase over members (`None`
    /// when the phaser has no members).
    pub fn phase(&self) -> Option<Phase> {
        self.core.floor()
    }

    /// Number of registered members.
    pub fn member_count(&self) -> usize {
        self.core.member_count()
    }
}

impl std::fmt::Debug for Phaser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phaser")
            .field("id", &self.id())
            .field("members", &self.member_count())
            .field("phase", &self.phase())
            .finish()
    }
}
