//! A Java-style `CountDownLatch` on top of [`Phaser`].
//!
//! The latch phaser starts with `count` *virtual* members; each
//! `count_down` arrives-and-deregisters one of them, and `wait` is a
//! non-member wait for phase 1 (awaiters are not latch participants, so
//! they never impede the latch event).
//!
//! Verification caveat, exactly as in JArmus: Java's latch API does not
//! say which tasks will count down. A counting task that wants to be
//! visible to the deadlock analysis claims its virtual slot up front with
//! [`CountDownLatch::register_counter`]; unclaimed slots remain virtual and
//! the analysis is blind to who impedes them (the paper's §5.3 discussion
//! of missing participant information in Java).

use std::sync::Arc;

use armus_core::{PhaserId, TaskId};
use parking_lot::Mutex;

use crate::ctx;
use crate::error::SyncError;
use crate::phaser::Phaser;
use crate::runtime::Runtime;

/// A count-down latch.
#[derive(Clone)]
pub struct CountDownLatch {
    phaser: Phaser,
    virtual_members: Arc<Mutex<Vec<VirtualSlot>>>,
}

enum VirtualSlot {
    /// Unclaimed: counted down anonymously.
    Virtual(TaskId),
    /// Claimed by a real task via `register_counter`.
    Claimed(TaskId),
}

impl CountDownLatch {
    /// Creates a latch that opens after `count` count-downs.
    pub fn new(runtime: &Arc<Runtime>, count: usize) -> CountDownLatch {
        let phaser = Phaser::new_unregistered(runtime);
        let mut slots = Vec::with_capacity(count);
        for _ in 0..count {
            // Each virtual member occupies a member slot at phase 0 via a
            // synthetic task id; count_down arrives & deregisters one.
            let vid = TaskId::fresh();
            phaser.core.register_virtual(vid);
            slots.push(VirtualSlot::Virtual(vid));
        }
        CountDownLatch { phaser, virtual_members: Arc::new(Mutex::new(slots)) }
    }

    /// The latch's phaser id.
    pub fn id(&self) -> PhaserId {
        self.phaser.id()
    }

    /// The underlying phaser — the async front-end builds its futures
    /// over this (a latch wait is a non-member await of phase 1).
    pub fn phaser(&self) -> &Phaser {
        &self.phaser
    }

    /// Claims one count-down slot for the calling task, making it visible
    /// to the deadlock analysis as an impeder of the latch event.
    pub fn register_counter(&self) -> Result<(), SyncError> {
        let me = ctx::current().id();
        let mut slots = self.virtual_members.lock();
        let Some(slot) = slots.iter_mut().find(|s| matches!(s, VirtualSlot::Virtual(_))) else {
            return Err(SyncError::TooManyParties { parties: slots.len() });
        };
        let VirtualSlot::Virtual(vid) = *slot else { unreachable!() };
        // Swap the virtual member for the real task, preserving phase 0.
        self.phaser.core.swap_virtual(vid, &ctx::current())?;
        *slot = VirtualSlot::Claimed(me);
        Ok(())
    }

    /// Counts down once. For a task that claimed a slot this arrives as
    /// itself; otherwise an anonymous virtual slot is consumed.
    pub fn count_down(&self) -> Result<(), SyncError> {
        let me = ctx::current().id();
        let mut slots = self.virtual_members.lock();
        // Prefer the caller's own claimed slot.
        if let Some(pos) =
            slots.iter().position(|s| matches!(s, VirtualSlot::Claimed(t) if *t == me))
        {
            slots.remove(pos);
            drop(slots);
            return self.phaser.arrive_and_deregister();
        }
        // Otherwise consume a virtual slot.
        let Some(pos) = slots.iter().position(|s| matches!(s, VirtualSlot::Virtual(_))) else {
            // Counting below zero is a no-op, like Java.
            return Ok(());
        };
        let VirtualSlot::Virtual(vid) = slots.remove(pos) else { unreachable!() };
        drop(slots);
        self.phaser.core.retire_virtual(vid);
        Ok(())
    }

    /// Waits until the count reaches zero. The awaiter is *not* a member.
    pub fn wait(&self) -> Result<(), SyncError> {
        self.phaser.await_phase(1)
    }

    /// Remaining count.
    pub fn count(&self) -> usize {
        self.phaser.member_count()
    }
}
