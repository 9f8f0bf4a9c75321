//! Per-task context: the task's identity plus the set of phasers it is
//! registered with.
//!
//! This is the runtime's "task observer + resource mapper" (paper §5.3):
//! when the task is about to block, it assembles — from purely local
//! information — the registrations that finitely describe every event the
//! task impedes.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use armus_core::{Registration, TaskId, Verifier};
use parking_lot::Mutex;

use crate::phaser::PhaserCore;

/// Identity and registration set of one task.
pub struct TaskCtx {
    id: TaskId,
    registered: Mutex<Vec<Weak<PhaserCore>>>,
}

impl TaskCtx {
    /// Creates a context with a fresh task id.
    pub fn fresh() -> Arc<TaskCtx> {
        Arc::new(TaskCtx { id: TaskId::fresh(), registered: Mutex::new(Vec::new()) })
    }

    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Records a phaser registration (called by the phaser itself).
    pub(crate) fn add_registration(&self, core: &Arc<PhaserCore>) {
        let mut regs = self.registered.lock();
        // Drop dead entries opportunistically.
        regs.retain(|w| w.strong_count() > 0);
        regs.push(Arc::downgrade(core));
    }

    /// Removes a phaser registration (called on deregister).
    pub(crate) fn remove_registration(&self, core: &PhaserCore) {
        self.registered
            .lock()
            .retain(|w| w.upgrade().map(|c| c.id() != core.id()).unwrap_or(false));
    }

    /// Phasers this task is currently registered with (live handles).
    pub(crate) fn registered_cores(&self) -> Vec<Arc<PhaserCore>> {
        self.registered.lock().iter().filter_map(Weak::upgrade).collect()
    }

    /// Deregisters this task from every phaser it is still registered
    /// with — what [`crate::Runtime`]-spawned threads do on exit (normal
    /// or panicking), exposed so async executors can give completed or
    /// cancelled tasks the same leave-on-exit semantics.
    pub fn deregister_all(self: &Arc<TaskCtx>) {
        for core in self.registered_cores() {
            let _ = core.deregister(self);
        }
    }

    /// The task's blocked-status registrations: for every phaser it is
    /// registered with *under the given verifier*, its local phase —
    /// omitting wait-only memberships, which impede nothing. The verifier
    /// filter keeps tasks that touch several runtimes (tests, embedded
    /// scenarios) from leaking registrations across verifiers.
    ///
    /// Built straight from the weak list under the context's lock, each
    /// phase read under its phaser's state lock. The order is context,
    /// then phaser state, and no path takes them the other way round: a
    /// phaser releases its state lock before it calls
    /// [`TaskCtx::add_registration`] or [`TaskCtx::remove_registration`].
    pub(crate) fn registration_vector(&self, verifier: &Arc<Verifier>) -> Vec<Registration> {
        let registered = self.registered.lock();
        let mut out = Vec::with_capacity(registered.len());
        for core in registered.iter().filter_map(Weak::upgrade) {
            if !Arc::ptr_eq(core.verifier(), verifier) {
                continue;
            }
            if let Some(phase) = core.impeding_phase_of(self.id) {
                out.push(Registration::new(core.id(), phase));
            }
        }
        out
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<TaskCtx>>> = const { RefCell::new(None) };
}

/// The current thread's task context, created on first use for threads not
/// spawned through a [`crate::Runtime`] (e.g. the main thread).
pub fn current() -> Arc<TaskCtx> {
    CURRENT.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &*slot {
            Some(ctx) => Arc::clone(ctx),
            None => {
                let ctx = TaskCtx::fresh();
                *slot = Some(Arc::clone(&ctx));
                ctx
            }
        }
    })
}

/// Installs `ctx` as the current thread's task context (done by the runtime
/// when it starts a spawned task). Returns the previous context, if any.
pub fn install(ctx: Arc<TaskCtx>) -> Option<Arc<TaskCtx>> {
    CURRENT.with(|slot| slot.borrow_mut().replace(ctx))
}

/// Runs `f` with `ctx` installed as the current task, restoring the
/// previous context afterwards (also on panic). This is the seam that
/// lets a cooperative scheduler multiplex many task identities over one
/// OS thread: each simulated step runs inside `scoped` so every
/// registration and blocked-status publication is attributed to the
/// simulated task, not the driving thread.
pub fn scoped<R>(ctx: &Arc<TaskCtx>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<TaskCtx>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|slot| *slot.borrow_mut() = prev);
        }
    }
    let _restore = Restore(install(Arc::clone(ctx)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_stable_within_a_thread() {
        let a = current();
        let b = current();
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn current_differs_across_threads() {
        let here = current().id();
        let there = std::thread::spawn(|| current().id()).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn install_replaces_context() {
        std::thread::spawn(|| {
            let first = current();
            let fresh = TaskCtx::fresh();
            let prev = install(Arc::clone(&fresh));
            assert_eq!(prev.unwrap().id(), first.id());
            assert_eq!(current().id(), fresh.id());
        })
        .join()
        .unwrap();
    }
}
