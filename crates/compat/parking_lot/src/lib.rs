//! Offline, API-compatible subset of the `parking_lot` crate, implemented
//! on top of `std::sync`.
//!
//! The build environment has no access to a crate registry, so the
//! workspace vendors the *interface* the Armus sources rely on:
//! `Mutex`/`MutexGuard` without lock poisoning, `Condvar` whose `wait`
//! borrows the guard mutably instead of consuming it, and `RwLock` with
//! guard types nameable in public signatures. Poisoning from the std layer
//! is deliberately swallowed (`parking_lot` has no poisoning), which the
//! Armus runtime depends on: a worker that panics while holding a phaser
//! lock must not wedge every later `lock()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual exclusion primitive (no poisoning, like `parking_lot`).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => {
                Some(MutexGuard { inner: Some(p.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

/// RAII guard for [`Mutex`]. The `Option` is only ever `None` transiently
/// inside [`Condvar::wait`]/[`Condvar::wait_for`], which need to hand the
/// std guard to the std condvar by value.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard taken during condvar wait")
    }
}

/// A condition variable whose `wait` borrows the [`MutexGuard`] mutably
/// (the `parking_lot` calling convention).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Blocks until notified, releasing the lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard already taken");
        let std_guard = self.inner.wait(std_guard).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
    }

    /// Blocks until notified or `timeout` elapses, releasing the lock
    /// while waiting.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let std_guard = guard.inner.take().expect("guard already taken");
        let (std_guard, _) =
            self.inner.wait_timeout(std_guard, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

/// A reader-writer lock (no poisoning).
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { inner: std::sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { inner: self.inner.write().unwrap_or_else(PoisonError::into_inner) }
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex");
        })
        .join();
        *m.lock() = 7; // must not panic
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        // Nobody notifies: the waits return on their own (a spurious
        // wake-up only adds a round) and hand the guard back each time.
        let pair = (Mutex::new(0), Condvar::new());
        let mut g = pair.0.lock();
        let deadline = std::time::Instant::now() + Duration::from_millis(10);
        while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
            pair.1.wait_for(&mut g, left);
            *g += 1;
        }
        assert!(*g >= 1);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        let (a, b) = (l.read(), l.read()); // two concurrent readers
        assert_eq!((a.len(), b.len()), (3, 3));
    }
}
