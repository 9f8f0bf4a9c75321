//! Clocked variables [Atkins et al., ACSC'13]: shared memory cells whose
//! reads and writes are mediated by barrier synchronisation (paper §2.2).
//!
//! A clocked variable pairs a value history with a clock. Within a phase,
//! registered tasks read the value *committed for their phase* and write
//! the value for the *next* phase; `advance()` moves every registered task
//! to the next phase together. This gives deterministic
//! read-previous/write-next semantics without data races, and is the
//! substrate for the SE/FI/FR/BFS/PS course benchmarks of §6.3.

use std::collections::BTreeMap;
use std::sync::Arc;

use armus_core::{Phase, PhaserId};
use parking_lot::Mutex;

use crate::error::SyncError;
use crate::phaser::Phaser;
use crate::runtime::Runtime;

/// A barrier-mediated shared variable.
#[derive(Clone)]
pub struct ClockedVar<T> {
    phaser: Phaser,
    /// Value committed per phase. A read at local phase `n` returns the
    /// value with the greatest phase `≤ n`; a write at phase `n` commits
    /// for phase `n + 1`.
    history: Arc<Mutex<BTreeMap<Phase, T>>>,
}

impl<T: Clone + Send + 'static> ClockedVar<T> {
    /// Creates a clocked variable holding `initial`; the current task is
    /// registered with its clock.
    pub fn new(runtime: &Arc<Runtime>, initial: T) -> ClockedVar<T> {
        let mut history = BTreeMap::new();
        history.insert(0, initial);
        ClockedVar { phaser: Phaser::new(runtime), history: Arc::new(Mutex::new(history)) }
    }

    /// The underlying clock's phaser id.
    pub fn id(&self) -> PhaserId {
        self.phaser.id()
    }

    /// The underlying phaser, e.g. for clocked spawns.
    pub fn phaser(&self) -> &Phaser {
        &self.phaser
    }

    /// Registers the current task with the variable's clock.
    pub fn register(&self) -> Result<(), SyncError> {
        self.phaser.register()
    }

    /// Deregisters the current task.
    pub fn deregister(&self) -> Result<(), SyncError> {
        self.phaser.deregister()
    }

    /// Reads the value visible in the current task's phase.
    pub fn get(&self) -> Result<T, SyncError> {
        let me = crate::ctx::current().id();
        let phase = self
            .phaser
            .core
            .local_phase_of(me)
            .ok_or(SyncError::NotRegistered { phaser: self.phaser.id(), task: me })?;
        let history = self.history.lock();
        let value = history
            .range(..=phase)
            .next_back()
            .map(|(_, v)| v.clone())
            .expect("phase 0 value always present");
        Ok(value)
    }

    /// Writes the value for the *next* phase (visible to everyone after
    /// their next `advance`). Last write in a phase wins, as in the
    /// reference implementation.
    pub fn set(&self, value: T) -> Result<(), SyncError> {
        let me = crate::ctx::current().id();
        let phase = self
            .phaser
            .core
            .local_phase_of(me)
            .ok_or(SyncError::NotRegistered { phaser: self.phaser.id(), task: me })?;
        let mut history = self.history.lock();
        history.insert(phase + 1, value);
        // Prune entries no reader can reach: strictly below the clock's
        // observed phase (every member's local phase is ≥ the floor, and
        // reads look backwards from the member's own phase).
        if let Some(floor) = self.phaser.phase() {
            prune_below(&mut history, floor);
        }
        Ok(())
    }

    /// Advances the variable's clock: arrive and wait for all registered
    /// tasks. After this, values written in the previous phase are visible.
    pub fn advance(&self) -> Result<Phase, SyncError> {
        self.phaser.arrive_and_await()
    }

    /// Split-phase arrival on the variable's clock.
    pub fn resume(&self) -> Result<Phase, SyncError> {
        self.phaser.resume()
    }
}

/// Removes history entries that can no longer be read: everything strictly
/// below `floor` except the newest such entry (which is still the visible
/// value for a task exactly at `floor` if no later write exists).
fn prune_below<T>(history: &mut BTreeMap<Phase, T>, floor: Phase) {
    let keys: Vec<Phase> = history.range(..floor).map(|(&k, _)| k).collect();
    if keys.len() > 1 {
        for &k in &keys[..keys.len() - 1] {
            history.remove(&k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_keeps_latest_visible_value() {
        let mut h: BTreeMap<Phase, i32> = BTreeMap::new();
        h.insert(0, 10);
        h.insert(1, 11);
        h.insert(2, 12);
        h.insert(5, 15);
        prune_below(&mut h, 4);
        // 0 and 1 dropped; 2 kept (visible at floor 4); 5 kept.
        assert_eq!(h.keys().copied().collect::<Vec<_>>(), vec![2, 5]);
        prune_below(&mut h, 2);
        assert_eq!(h.keys().copied().collect::<Vec<_>>(), vec![2, 5]);
    }
}
