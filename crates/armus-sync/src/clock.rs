//! X10 clocks (paper §2.1), as a thin veneer over [`Phaser`].
//!
//! A clock is a phaser whose members step together: `advance()` arrives and
//! waits for every registered task; `resume()` performs the split-phase
//! arrival; `drop_clock()` revokes membership. Tasks are registered either
//! at clock creation (the creator) or at spawn time via
//! [`crate::Runtime::spawn_clocked`], mirroring `async clocked(c)`.

use std::sync::Arc;

use armus_core::{Phase, PhaserId};

use crate::error::SyncError;
use crate::phaser::Phaser;
use crate::runtime::Runtime;

/// An X10-style clock.
#[derive(Clone, Debug)]
pub struct Clock {
    phaser: Phaser,
}

impl Clock {
    /// `Clock.make()`: creates a clock with the current task registered.
    pub fn make(runtime: &Arc<Runtime>) -> Clock {
        Clock { phaser: Phaser::new(runtime) }
    }

    /// The clock's phaser id.
    pub fn id(&self) -> PhaserId {
        self.phaser.id()
    }

    /// The underlying phaser, e.g. for `spawn_clocked`.
    pub fn phaser(&self) -> &Phaser {
        &self.phaser
    }

    /// `advance()`: arrive and wait until every registered task has done
    /// so. If the task `resume`d earlier, this completes that phase.
    pub fn advance(&self) -> Result<Phase, SyncError> {
        self.phaser.arrive_and_await()
    }

    /// `resume()`: split-phase arrival — signal this task's step without
    /// waiting; a later [`Clock::advance`] only waits.
    pub fn resume(&self) -> Result<Phase, SyncError> {
        self.phaser.resume()
    }

    /// `drop()`: revoke the current task's membership.
    pub fn drop_clock(&self) -> Result<(), SyncError> {
        self.phaser.deregister()
    }

    /// Registers the current task at the clock's observed phase (used when
    /// a task obtains a clock by means other than clocked spawn).
    pub fn register(&self) -> Result<(), SyncError> {
        self.phaser.register()
    }

    /// The current task's local phase on this clock.
    pub fn local_phase(&self) -> Option<Phase> {
        self.phaser.local_phase()
    }
}
