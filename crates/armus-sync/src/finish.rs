//! X10 `finish` blocks: join barriers over dynamically spawned tasks
//! (paper §2.1, Figure 1 line 2/11).
//!
//! A finish is a phaser on which the parent and every spawned child are
//! registered at phase 0. Children arrive-and-deregister on termination
//! (handled by the task guard installed by [`Finish::spawn`]); the parent's
//! [`Finish::wait`] arrives and awaits phase 1, which is observed exactly
//! when every child has terminated — the join-barrier structure of the
//! paper's Figure 2 `b`-phaser.

use std::sync::Arc;

use armus_core::PhaserId;

use crate::error::SyncError;
use crate::phaser::Phaser;
use crate::runtime::{Runtime, TaskHandle};

/// An X10-style finish (join) block.
pub struct Finish {
    runtime: Arc<Runtime>,
    phaser: Phaser,
}

impl Finish {
    /// Opens a finish block; the current task is registered as the joiner.
    pub fn new(runtime: &Arc<Runtime>) -> Finish {
        Finish { runtime: Arc::clone(runtime), phaser: Phaser::new(runtime) }
    }

    /// The underlying join phaser's id.
    pub fn id(&self) -> PhaserId {
        self.phaser.id()
    }

    /// Spawns a task governed by this finish (`async` inside the block).
    /// The child is registered on the join phaser and deregisters on
    /// termination; it signals its completion by simply terminating.
    pub fn spawn<T, F>(&self, f: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        // The join phaser rides along via clocked spawn: the child inherits
        // phase 0 and the exit guard deregisters it — its departure is the
        // "arrival" the join barrier observes.
        self.runtime.spawn_clocked(&[&self.phaser], f)
    }

    /// Spawns a task governed by this finish *and* registered with the
    /// given additional phasers (`async clocked(c)` inside a finish).
    pub fn spawn_clocked<T, F>(&self, phasers: &[&Phaser], f: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut all: Vec<&Phaser> = Vec::with_capacity(phasers.len() + 1);
        all.push(&self.phaser);
        all.extend_from_slice(phasers);
        self.runtime.spawn_clocked(&all, f)
    }

    /// Closes the block: waits until every spawned task has terminated.
    /// Consumes the finish (a finish joins once), deregistering the parent.
    pub fn wait(self) -> Result<(), SyncError> {
        // Parent arrives (to phase 1) and awaits: observed once every
        // still-registered child reaches phase ≥ 1 — children never arrive,
        // they deregister, so this is exactly "all children terminated".
        self.phaser.arrive_and_await()?;
        self.phaser.deregister()
    }

    /// Closes a poll-driven finish after its join wait — begun with
    /// [`Phaser::begin_arrive_and_await`] on [`Finish::phaser`] — resolved
    /// `Ready`: deregisters the parent, consuming the block.
    pub fn conclude(self) -> Result<(), SyncError> {
        self.phaser.deregister()
    }

    /// The join phaser (for cooperative schedulers that register children
    /// via [`Phaser::register_child`] instead of spawning threads).
    pub fn phaser(&self) -> &Phaser {
        &self.phaser
    }

    /// Number of tasks still governed by this finish (including the
    /// parent).
    pub fn pending(&self) -> usize {
        self.phaser.member_count()
    }
}
