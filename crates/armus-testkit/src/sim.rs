//! The virtual-time cooperative simulator: drives a [`Scenario`] through
//! real `armus-sync` phasers — registrations, arrivals, waits, avoidance
//! verdicts, interrupts and all — on **one OS thread**, with no sleeps.
//!
//! Task identities are multiplexed over the driving thread through
//! [`armus_sync::ctx::scoped`]; blocking waits go through the poll seam
//! ([`Phaser::begin_await`] / [`Phaser::poll_await`]) instead of parking
//! on condvars, so the *scheduler* — any [`Chooser`] — decides the exact
//! interleaving, and the same seed replays the same run, bit for bit.
//!
//! Virtual time is the step counter: one tick per executed step. The
//! detection monitor's sampling is modelled by the harness calling
//! [`armus_core::Verifier::check_now`] at ticks of its choosing (the
//! monitor thread's body, minus the wall-clock sleep).

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use armus_async::{AsyncPhaser, AwaitPhase};
use armus_core::{DeadlockReport, PhaserId, TaskId, Verifier, VerifierConfig};
use armus_sync::ctx::{self, TaskCtx};
use armus_sync::{Phaser, Runtime, RuntimeConfig, SyncError, WaitStep};

use crate::scenario::{Op, PhaserIx, Scenario};
use crate::sched::Chooser;

/// Which front-end the simulator drives blocking waits through. Both sit
/// on the same `begin_await`/`poll_await` wait machine; the differential
/// tests prove their verifier decisions and reports identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitApi {
    /// The sync crate's poll seam, called directly ([`Phaser::
    /// begin_await`] / [`Phaser::poll_await`]) — how the thread-per-task
    /// front-end blocks, minus the condvar park.
    Seam,
    /// The async front-end: an [`armus_async::AwaitPhase`] future per
    /// `Await` op, manually polled (with a no-op waker) under the task's
    /// scoped identity — how executor-driven tasks block, minus the
    /// executor.
    Future,
}

/// The waker manual future polls use: resolution is observed by the
/// chooser re-polling (a `Resolve` step), never by wake-driven scheduling,
/// so wakes are deliberately dropped.
struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

fn noop_waker() -> Waker {
    Waker::from(Arc::new(NoopWake))
}

/// What a scheduled step does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Execute the task's next op (an `Await` op that cannot complete
    /// publishes the blocked status and parks the task).
    Exec,
    /// Resolve the task's pending wait (offered only when it would
    /// resolve — by release, poison, or avoidance interrupt).
    Resolve,
}

/// One schedulable step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimStep {
    /// Task index.
    pub task: usize,
    /// What the step does.
    pub kind: StepKind,
}

/// What a step did — the simulator's event stream, consumed by the
/// differential oracle to mirror PL transitions.
#[derive(Clone, Debug)]
pub enum SimEvent {
    /// The task completed a PL-visible instruction (`Skip`/`Adv`/`Sync`/
    /// `Dereg` of the given op).
    Completed(usize, Op),
    /// The task began blocking on its `Await` op: the blocked status is
    /// published; no PL transition fires (the PL `await` stays at head).
    BlockedAt(usize, PhaserIx),
    /// The task's wait was refused (avoidance verdict at begin, when its
    /// own block closed the cycle) or interrupted (the same verdict
    /// delivered later to a blocked victim of the cycle): the task failed
    /// with the given report and was deregistered from the awaited
    /// phaser.
    Refused {
        /// Task index.
        task: usize,
        /// The awaited phaser the task was deregistered from.
        phaser: PhaserIx,
        /// The verdict.
        report: Box<DeadlockReport>,
        /// True when this task's own block closed the cycle (the report
        /// describes the state *now*); false for an interrupt delivered
        /// to a parked victim (the report is historical — the initiator
        /// broke the cycle when it was refused).
        initiated: bool,
    },
}

/// Where a task stands.
#[derive(Clone, Debug, PartialEq, Eq)]
enum TaskState {
    /// Next op is executable.
    Running,
    /// Parked on its `Await` op's pending wait on the given phaser.
    Blocked(PhaserIx),
    /// Script exhausted (memberships, if any remain, persist — matching
    /// PL, where a terminated task stays in the phaser map; this is what
    /// makes missing-participant hangs reproducible).
    Done,
    /// Failed with an avoidance verdict; script abandoned.
    Failed,
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOutcome {
    /// Every task ran to completion (or failed with a verdict) and no
    /// task is parked.
    Quiesced,
    /// Some task is parked with no step able to release it: the run is
    /// stuck (a hang — possibly, but not necessarily, a deadlock).
    Stuck,
}

struct SimTask {
    ctx: Arc<TaskCtx>,
    script: Vec<Op>,
    pc: usize,
    state: TaskState,
    /// The in-flight `Await` future under [`WaitApi::Future`] (always
    /// `None` under [`WaitApi::Seam`]).
    pending: Option<AwaitPhase>,
}

/// A scenario instantiated over a real runtime, stepped by a scheduler.
pub struct Sim {
    rt: Arc<Runtime>,
    phasers: Vec<Phaser>,
    tasks: Vec<SimTask>,
    api: WaitApi,
    /// Virtual clock: executed steps.
    pub clock: u64,
}

impl Sim {
    /// Instantiates `scenario` over a fresh runtime with the given
    /// verifier configuration, blocking through the sync poll seam.
    pub fn new(scenario: &Scenario, verifier: VerifierConfig) -> Sim {
        Sim::new_with_api(scenario, verifier, WaitApi::Seam)
    }

    /// [`Sim::new`], blocking through the chosen front-end: creates the
    /// phasers and task contexts and performs the initial (phase-0)
    /// registrations.
    pub fn new_with_api(scenario: &Scenario, verifier: VerifierConfig, api: WaitApi) -> Sim {
        let rt = Runtime::new(RuntimeConfig::unchecked().with_verifier(verifier));
        let phasers: Vec<Phaser> =
            (0..scenario.phasers).map(|_| Phaser::new_unregistered(&rt)).collect();
        let tasks: Vec<SimTask> = scenario
            .tasks
            .iter()
            .map(|def| {
                let task_ctx = TaskCtx::fresh();
                for &p in &def.members {
                    ctx::scoped(&task_ctx, || phasers[p].register())
                        .expect("fresh membership cannot collide");
                }
                SimTask {
                    ctx: task_ctx,
                    script: def.script.clone(),
                    pc: 0,
                    state: TaskState::Running,
                    pending: None,
                }
            })
            .collect();
        Sim { rt, phasers, tasks, api, clock: 0 }
    }

    /// The verifier under test.
    pub fn verifier(&self) -> &Arc<Verifier> {
        self.rt.verifier()
    }

    /// The runtime id of task `i`.
    pub fn task_id(&self, i: usize) -> TaskId {
        self.tasks[i].ctx.id()
    }

    /// The runtime id of phaser `p`.
    pub fn phaser_id(&self, p: PhaserIx) -> PhaserId {
        self.phasers[p].id()
    }

    /// Is task `i` parked on a published wait?
    pub fn is_blocked(&self, i: usize) -> bool {
        matches!(self.tasks[i].state, TaskState::Blocked(_))
    }

    /// Did task `i` fail with an avoidance verdict?
    pub fn is_failed(&self, i: usize) -> bool {
        self.tasks[i].state == TaskState::Failed
    }

    /// The currently schedulable steps, in deterministic (task-index)
    /// order. Empty means the run is over: [`Sim::outcome`] says how.
    pub fn options(&self) -> Vec<SimStep> {
        let mut out = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            match t.state {
                TaskState::Running if t.pc < t.script.len() => {
                    out.push(SimStep { task: i, kind: StepKind::Exec });
                }
                TaskState::Blocked(p) if self.phasers[p].await_would_resolve_of(t.ctx.id()) => {
                    out.push(SimStep { task: i, kind: StepKind::Resolve });
                }
                _ => {}
            }
        }
        out
    }

    /// How the run ended (meaningful once [`Sim::options`] is empty).
    pub fn outcome(&self) -> SimOutcome {
        if self.tasks.iter().any(|t| matches!(t.state, TaskState::Blocked(_))) {
            SimOutcome::Stuck
        } else {
            SimOutcome::Quiesced
        }
    }

    /// Executes one step, advancing the virtual clock.
    ///
    /// # Panics
    /// Panics on scenario misuse (an op whose PL premise fails — ruled out
    /// by the [`Scenario`] constructors) or on a `Resolve` step that was
    /// not actually resolvable (a scheduler bug).
    pub fn step(&mut self, step: SimStep) -> SimEvent {
        self.clock += 1;
        let i = step.task;
        match step.kind {
            StepKind::Exec => self.exec(i),
            StepKind::Resolve => self.resolve(i),
        }
    }

    fn exec(&mut self, i: usize) -> SimEvent {
        let op = self.tasks[i].script[self.tasks[i].pc];
        let task_ctx = Arc::clone(&self.tasks[i].ctx);
        match op {
            Op::Skip => {
                self.tasks[i].pc += 1;
                self.settle_running(i);
                SimEvent::Completed(i, op)
            }
            Op::Arrive(p) => {
                ctx::scoped(&task_ctx, || self.phasers[p].arrive())
                    .expect("scenario scripts only arrive as members");
                self.tasks[i].pc += 1;
                self.settle_running(i);
                SimEvent::Completed(i, op)
            }
            Op::Dereg(p) => {
                ctx::scoped(&task_ctx, || self.phasers[p].deregister())
                    .expect("scenario scripts only dereg memberships");
                self.tasks[i].pc += 1;
                self.settle_running(i);
                SimEvent::Completed(i, op)
            }
            Op::Await(p) => {
                let phase = ctx::scoped(&task_ctx, || self.phasers[p].local_phase())
                    .expect("scenario scripts only await as members");
                let step = match self.api {
                    WaitApi::Seam => ctx::scoped(&task_ctx, || self.phasers[p].begin_await(phase)),
                    WaitApi::Future => {
                        // The future's first poll runs the avoidance check
                        // inline at `begin_await` (as the sync path does)
                        // and then polls the seam once; in this
                        // single-threaded simulator nothing can resolve
                        // the wait between those two calls, so a pending
                        // begin is a pending first poll — the event
                        // streams of the two front-ends coincide.
                        let mut fut = self.phasers[p].await_phase_async(phase);
                        match Self::poll_future(&mut fut, &task_ctx) {
                            Poll::Ready(done) => done.map(|()| WaitStep::Ready),
                            Poll::Pending => {
                                self.tasks[i].pending = Some(fut);
                                Ok(WaitStep::Pending)
                            }
                        }
                    }
                };
                match step {
                    Ok(WaitStep::Ready) => {
                        self.tasks[i].pc += 1;
                        self.settle_running(i);
                        SimEvent::Completed(i, op)
                    }
                    Ok(WaitStep::Pending) => {
                        self.tasks[i].state = TaskState::Blocked(p);
                        SimEvent::BlockedAt(i, p)
                    }
                    Err(SyncError::WouldDeadlock(report)) => {
                        self.tasks[i].state = TaskState::Failed;
                        SimEvent::Refused { task: i, phaser: p, report, initiated: true }
                    }
                    Err(e) => panic!("unexpected wait error in simulation: {e}"),
                }
            }
        }
    }

    fn resolve(&mut self, i: usize) -> SimEvent {
        let TaskState::Blocked(p) = self.tasks[i].state else {
            panic!("resolve step on a non-blocked task (scheduler bug)");
        };
        let op = self.tasks[i].script[self.tasks[i].pc];
        let task_ctx = Arc::clone(&self.tasks[i].ctx);
        let step = match self.api {
            WaitApi::Seam => ctx::scoped(&task_ctx, || self.phasers[p].poll_await()),
            WaitApi::Future => {
                let mut fut = self.tasks[i]
                    .pending
                    .take()
                    .expect("a future-api blocked task holds its await future");
                match Self::poll_future(&mut fut, &task_ctx) {
                    Poll::Ready(done) => done.map(|()| WaitStep::Ready),
                    Poll::Pending => {
                        self.tasks[i].pending = Some(fut);
                        Ok(WaitStep::Pending)
                    }
                }
            }
        };
        match step {
            Ok(WaitStep::Ready) => {
                self.tasks[i].pc += 1;
                self.tasks[i].state = TaskState::Running;
                self.settle_running(i);
                SimEvent::Completed(i, op)
            }
            Ok(WaitStep::Pending) => {
                panic!("resolve step did not resolve (scheduler bug: options() lied)")
            }
            Err(SyncError::WouldDeadlock(report)) => {
                self.tasks[i].state = TaskState::Failed;
                SimEvent::Refused { task: i, phaser: p, report, initiated: false }
            }
            Err(e) => panic!("unexpected poll error in simulation: {e}"),
        }
    }

    /// Polls an await future once under `task`'s scoped identity (the
    /// future captures that identity on its first poll, exactly as a
    /// future running on the executor captures its `Scoped` task's).
    fn poll_future(fut: &mut AwaitPhase, task: &Arc<TaskCtx>) -> Poll<Result<(), SyncError>> {
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        ctx::scoped(task, || Pin::new(fut).poll(&mut cx))
    }

    fn settle_running(&mut self, i: usize) {
        if self.tasks[i].pc >= self.tasks[i].script.len() {
            self.tasks[i].state = TaskState::Done;
        }
    }

    /// Runs the scenario to quiescence under `chooser`, ignoring events
    /// (the differential oracle drives the loop itself when it needs
    /// them). Returns the outcome and the number of steps taken.
    pub fn run_to_end(&mut self, chooser: &mut dyn Chooser) -> (SimOutcome, u64) {
        loop {
            let options = self.options();
            if options.is_empty() {
                return (self.outcome(), self.clock);
            }
            let pick = chooser.choose(options.len());
            let _ = self.step(options[pick]);
        }
    }
}

// The unit tests assert the *correct* verifier's behaviour, so they fail
// by design under the planted `verifier-mutation` bug (whose run is
// reserved for tests/mutation.rs).
#[cfg(all(test, not(feature = "verifier-mutation")))]
mod tests {
    use super::*;
    use crate::scenario::canonical_scenarios;
    use crate::sched::SeededChooser;

    fn scenario(name: &str) -> Scenario {
        canonical_scenarios().into_iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn spmd_runs_to_quiescence_with_verification_off() {
        let mut sim = Sim::new(&scenario("spmd-3"), VerifierConfig::disabled());
        let (outcome, steps) = sim.run_to_end(&mut SeededChooser::new(1));
        assert_eq!(outcome, SimOutcome::Quiesced);
        assert!(steps >= 6, "three arrive+await pairs take at least six steps");
    }

    #[test]
    fn crossed_wait_sticks_under_publish_only() {
        let mut sim = Sim::new(&scenario("crossed-wait"), VerifierConfig::publish_only());
        let (outcome, _) = sim.run_to_end(&mut SeededChooser::new(3));
        assert_eq!(outcome, SimOutcome::Stuck);
        // Both tasks published their blocked status; the canonical checker
        // over the registry sees the cycle.
        assert_eq!(sim.verifier().local_snapshot().len(), 2);
        let v = sim.verifier();
        let full = armus_core::checker::check(
            &v.local_snapshot(),
            v.config().model,
            armus_core::DEFAULT_SG_THRESHOLD,
        );
        assert!(full.report.is_some());
    }

    #[test]
    fn crossed_wait_is_refused_under_avoidance() {
        for seed in 0..32 {
            let mut sim = Sim::new(&scenario("crossed-wait"), VerifierConfig::avoidance());
            let (outcome, _) = sim.run_to_end(&mut SeededChooser::new(seed));
            assert_eq!(outcome, SimOutcome::Quiesced, "seed {seed}: avoidance must unstick");
            assert!(
                sim.is_failed(0) || sim.is_failed(1),
                "seed {seed}: some task must carry the verdict"
            );
            assert!(sim.verifier().found_deadlock());
        }
    }

    #[test]
    fn replay_is_bit_for_bit_deterministic() {
        let run = |seed| {
            let mut sim = Sim::new(&scenario("figure1-mini"), VerifierConfig::publish_only());
            let mut trace = Vec::new();
            loop {
                let options = sim.options();
                if options.is_empty() {
                    break;
                }
                let mut ch = SeededChooser::new(seed ^ sim.clock);
                let pick = ch.choose(options.len());
                trace.push(format!("{:?}", sim.step(options[pick])));
            }
            trace
        };
        assert_eq!(run(42), run(42));
    }
}
