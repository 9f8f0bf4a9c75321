//! The runtime: task spawning, phaser tracking, and the bridge between
//! blocking operations and the Armus verifier.
//!
//! Every blocking primitive funnels through [`armus_core::Verifier::block`]
//! / `unblock`, which journal the status change and (in avoidance mode)
//! check the incremental engine's maintained graph — so a block costs one
//! map insert, one journal append, and a delta-sized graph update rather
//! than a registry clone. The engine's `deltas_applied` / `full_rebuilds` /
//! `resyncs` counters surface here via [`Runtime::stats`].

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::thread;

use armus_core::{DeadlockReport, PhaserId, StatsSnapshot, TaskId, Verifier, VerifierConfig};
use parking_lot::Mutex;

use crate::ctx::{self, TaskCtx};
use crate::error::SyncError;
use crate::phaser::{Phaser, PhaserCore};

/// What to do when the detector reports a deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnDeadlock {
    /// Report only (the paper's behaviour): the deadlock is recorded and
    /// subscribers run, but the tasks stay blocked.
    Report,
    /// Recovery extension: poison every phaser involved in the cycle so the
    /// victims unblock with [`SyncError::Poisoned`].
    Break,
}

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Verifier configuration (mode, model, threshold).
    pub verifier: VerifierConfig,
    /// Reaction to detected deadlocks.
    pub on_deadlock: OnDeadlock,
}

impl RuntimeConfig {
    /// No verification.
    pub fn unchecked() -> Self {
        RuntimeConfig { verifier: VerifierConfig::disabled(), on_deadlock: OnDeadlock::Report }
    }

    /// Deadlock avoidance (adaptive model).
    pub fn avoidance() -> Self {
        RuntimeConfig { verifier: VerifierConfig::avoidance(), on_deadlock: OnDeadlock::Report }
    }

    /// Deadlock detection with the paper's default 100 ms period.
    pub fn detection() -> Self {
        RuntimeConfig { verifier: VerifierConfig::detection(), on_deadlock: OnDeadlock::Report }
    }

    /// Sets the verifier configuration.
    pub fn with_verifier(mut self, verifier: VerifierConfig) -> Self {
        self.verifier = verifier;
        self
    }

    /// Sets the deadlock reaction.
    pub fn with_on_deadlock(mut self, on_deadlock: OnDeadlock) -> Self {
        self.on_deadlock = on_deadlock;
        self
    }
}

/// A runtime instance: owns the verifier and tracks live phasers. Multiple
/// runtimes can coexist (the distributed layer runs one per site).
pub struct Runtime {
    verifier: Arc<Verifier>,
    cfg: RuntimeConfig,
    phasers: Mutex<HashMap<PhaserId, Weak<PhaserCore>>>,
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> Arc<Runtime> {
        let verifier = Verifier::new(cfg.verifier);
        let rt = Arc::new(Runtime { verifier, cfg, phasers: Mutex::new(HashMap::new()) });
        if cfg.on_deadlock == OnDeadlock::Break {
            let weak = Arc::downgrade(&rt);
            rt.verifier.subscribe(move |report| {
                if let Some(rt) = weak.upgrade() {
                    rt.poison_for(report);
                }
            });
        }
        if matches!(cfg.verifier.mode, armus_core::VerifyMode::Avoidance) {
            // Avoidance wakes *every* blocked task in a found cycle, not
            // just the one whose block closed it (paper §2.1: exceptions
            // are raised at all the deadlocked operations).
            let weak = Arc::downgrade(&rt);
            rt.verifier.subscribe(move |report| {
                if let Some(rt) = weak.upgrade() {
                    rt.interrupt_victims(report);
                }
            });
        }
        rt
    }

    /// Delivers an avoidance verdict to every still-blocked participant of
    /// the cycle (the initiating task was already withdrawn and errs via
    /// its own return value). Reads each participant's status directly
    /// from the registry's task map — no full-registry copy.
    fn interrupt_victims(&self, report: &DeadlockReport) {
        for &(task, epoch) in &report.task_epochs {
            let Some(info) = self.verifier.blocked_info(task) else { continue };
            if info.epoch != epoch {
                continue; // different blocking operation by now
            }
            for w in &info.waits {
                if let Some(core) = self.lookup_phaser(w.phaser) {
                    core.interrupt(task, report);
                }
            }
        }
    }

    /// A runtime with verification disabled.
    pub fn unchecked() -> Arc<Runtime> {
        Runtime::new(RuntimeConfig::unchecked())
    }

    /// A runtime in avoidance mode.
    pub fn avoidance() -> Arc<Runtime> {
        Runtime::new(RuntimeConfig::avoidance())
    }

    /// A runtime in detection mode (100 ms).
    pub fn detection() -> Arc<Runtime> {
        Runtime::new(RuntimeConfig::detection())
    }

    /// The verifier behind this runtime.
    pub fn verifier(&self) -> &Arc<Verifier> {
        &self.verifier
    }

    /// This runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Verification statistics (checks run, graph sizes, deadlocks found),
    /// read one counter at a time: `checks + fastpath_skips == blocks`
    /// holds only at rest, and a read while blocks are in flight can show
    /// `blocks` ahead by the number in flight.
    pub fn stats(&self) -> StatsSnapshot {
        self.verifier.stats()
    }

    /// Drains the reports since the last `take_reports`: the newest
    /// [`armus_core::REPORT_CAPACITY`] at most (all count in the stats).
    pub fn take_reports(&self) -> Vec<DeadlockReport> {
        self.verifier.take_reports()
    }

    /// Stops the background monitor (detection mode); idempotent.
    pub fn shutdown(&self) {
        self.verifier.shutdown();
    }

    /// Spawns an unregistered task.
    pub fn spawn<T, F>(self: &Arc<Self>, f: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_spawn_clocked(&[], f).expect("spawn without phasers cannot fail")
    }

    /// Spawns a task registered with the given phasers, inheriting the
    /// current task's phase on each (X10's `async clocked(c…)`).
    ///
    /// # Panics
    /// Panics if the current task is not registered with one of the
    /// phasers (X10's `ClockUseException`); see
    /// [`Runtime::try_spawn_clocked`] for the fallible variant.
    pub fn spawn_clocked<T, F>(self: &Arc<Self>, phasers: &[&Phaser], f: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_spawn_clocked(phasers, f)
            .expect("spawn_clocked: current task must be registered with every phaser")
    }

    /// Fallible [`Runtime::spawn_clocked`].
    pub fn try_spawn_clocked<T, F>(
        self: &Arc<Self>,
        phasers: &[&Phaser],
        f: F,
    ) -> Result<TaskHandle<T>, SyncError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let parent = ctx::current();
        let child = TaskCtx::fresh();
        let mut cores: Vec<Arc<PhaserCore>> = Vec::with_capacity(phasers.len());
        for ph in phasers {
            match ph.core.register_child(&parent, &child) {
                Ok(()) => cores.push(Arc::clone(&ph.core)),
                Err(e) => {
                    // Roll back the registrations made so far.
                    for core in &cores {
                        let _ = core.deregister(&child);
                    }
                    return Err(e);
                }
            }
        }
        let id = child.id();
        let inner = thread::Builder::new()
            .name(format!("task-{}", id.raw()))
            .spawn(move || {
                ctx::install(Arc::clone(&child));
                let _guard = TaskGuard { ctx: child, _cores: cores };
                f()
            })
            .expect("failed to spawn task thread");
        Ok(TaskHandle { inner, id })
    }

    pub(crate) fn track_phaser(&self, core: &Arc<PhaserCore>) {
        let mut table = self.phasers.lock();
        table.retain(|_, w| w.strong_count() > 0);
        table.insert(core.id(), Arc::downgrade(core));
    }

    pub(crate) fn lookup_phaser(&self, id: PhaserId) -> Option<Arc<PhaserCore>> {
        self.phasers.lock().get(&id).and_then(Weak::upgrade)
    }

    /// Poisons every phaser named in the report (recovery extension):
    /// two-phase — set every poison flag, then wake — so victims released
    /// by another victim's exit still observe the poisoning.
    fn poison_for(&self, report: &DeadlockReport) {
        let cores: Vec<_> =
            report.resources.iter().filter_map(|r| self.lookup_phaser(r.phaser)).collect();
        for core in &cores {
            core.poison_quiet(report);
        }
        for core in &cores {
            core.notify_waiters();
        }
    }
}

/// Deregisters the task from every phaser it is still registered with when
/// the task terminates — normally *or by panic/error propagation*, which is
/// what makes avoidance errors recoverable: the failed task leaves, and the
/// survivors' barriers observe its departure. This is X10/HJ behaviour
/// (paper §7: "tasks deregister from all barriers upon termination"), and
/// a [`crate::Finish`] depends on it: its children "arrive" by leaving.
struct TaskGuard {
    ctx: Arc<TaskCtx>,
    _cores: Vec<Arc<PhaserCore>>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        self.ctx.deregister_all();
    }
}

/// Handle to a spawned task.
pub struct TaskHandle<T> {
    inner: thread::JoinHandle<T>,
    id: TaskId,
}

impl<T> TaskHandle<T> {
    /// The spawned task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Waits for the task and returns its result (`Err` if it panicked).
    pub fn join(self) -> thread::Result<T> {
        self.inner.join()
    }
}
