//! A Java-style `CyclicBarrier` on top of [`Phaser`].
//!
//! Java's API fixes the party count at construction but never learns *which*
//! threads participate — the information Armus needs (paper §5.3). As in
//! JArmus, each participating task must therefore [`CyclicBarrier::register`]
//! itself before its first [`CyclicBarrier::wait`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use armus_core::{Phase, PhaserId};

use crate::error::SyncError;
use crate::phaser::Phaser;
use crate::runtime::Runtime;

/// A cyclic barrier for a fixed number of parties.
#[derive(Clone, Debug)]
pub struct CyclicBarrier {
    phaser: Phaser,
    parties: usize,
    registered: Arc<AtomicUsize>,
}

impl CyclicBarrier {
    /// Creates a barrier for `parties` tasks. No task is registered yet —
    /// each party calls [`CyclicBarrier::register`] (the JArmus
    /// `JArmus.register(b)` annotation).
    pub fn new(runtime: &Arc<Runtime>, parties: usize) -> CyclicBarrier {
        CyclicBarrier {
            phaser: Phaser::new_unregistered(runtime),
            parties,
            registered: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The barrier's phaser id.
    pub fn id(&self) -> PhaserId {
        self.phaser.id()
    }

    /// The underlying phaser — the async front-end builds its futures
    /// over this (a barrier wait is `arrive` + await of the arrived
    /// phase on the phaser seam).
    pub fn phaser(&self) -> &Phaser {
        &self.phaser
    }

    /// The fixed party count.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Registers the calling task as one of the parties.
    pub fn register(&self) -> Result<(), SyncError> {
        // Optimistically claim a slot; release it if the phaser refuses.
        let prev = self.registered.fetch_add(1, Ordering::SeqCst);
        if prev >= self.parties {
            self.registered.fetch_sub(1, Ordering::SeqCst);
            return Err(SyncError::TooManyParties { parties: self.parties });
        }
        match self.phaser.register() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.registered.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Leaves the barrier (a registered party that will no longer
    /// participate).
    pub fn deregister(&self) -> Result<(), SyncError> {
        self.phaser.deregister()?;
        self.registered.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }

    /// `await()`: arrive and wait for all registered parties.
    pub fn wait(&self) -> Result<Phase, SyncError> {
        self.phaser.arrive_and_await()
    }
}
