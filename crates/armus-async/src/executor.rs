//! A minimal multi-worker executor (no external async runtime — the
//! workspace is offline) that threads Armus task identity through spawn
//! points.
//!
//! Each spawned future gets a fresh [`TaskCtx`] and runs inside
//! [`crate::Scoped`], so every phaser op it performs — registration,
//! blocked-status publication, avoidance check — is attributed to that
//! task, exactly as the sync runtime attributes ops to its OS threads.
//! [`Executor::spawn_clocked`] mirrors `Runtime::spawn_clocked`: the child
//! is registered with the given phasers at the spawning task's phase
//! before the future first runs. On completion (normal, panicking, or
//! cancelled at executor drop) the task deregisters from every phaser it
//! is still registered with, like a `Runtime` thread's exit guard.
//!
//! Scheduling is a single shared run queue: a task is queued when spawned
//! and re-queued when its parked waker fires; a blocked task occupies no
//! worker thread, which is the entire point — 1M blocked tasks cost 1M
//! heap entries, not 1M stacks.

use std::any::Any;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;

use armus_sync::ctx::{self, TaskCtx};
use armus_sync::{Phaser, SyncError, TaskId};
use parking_lot::{Condvar, Mutex};

use crate::scope::Scoped;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send>>;
type PanicPayload = Box<dyn Any + Send>;

/// What a task left behind: its value, or the panic payload / cancellation
/// notice that ended it (mirroring [`std::thread::Result`]).
pub type TaskResult<T> = Result<T, PanicPayload>;

// Task lifecycle, mirrored in `TaskEntry::state`. A wake during RUNNING
// moves to NOTIFIED so the polling worker re-queues instead of idling the
// task — the standard lost-wakeup guard.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

struct TaskEntry {
    state: AtomicU8,
    future: Mutex<Option<BoxFuture>>,
    shared: Weak<ExecShared>,
}

impl TaskEntry {
    /// Queues the task unless it is already queued, done, or being polled
    /// (in which case the poller is told to re-queue it).
    fn schedule(self: &Arc<TaskEntry>) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let mut current = self.state.load(Ordering::Acquire);
        loop {
            let target = match current {
                IDLE => QUEUED,
                RUNNING => NOTIFIED,
                QUEUED | NOTIFIED | DONE => return,
                _ => unreachable!("invalid task state"),
            };
            match self.state.compare_exchange_weak(
                current,
                target,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if target == QUEUED {
                        shared.push(Arc::clone(self));
                    }
                    return;
                }
                Err(seen) => current = seen,
            }
        }
    }
}

impl Wake for TaskEntry {
    fn wake(self: Arc<TaskEntry>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<TaskEntry>) {
        self.schedule();
    }
}

struct ExecShared {
    queue: Mutex<VecDeque<Arc<TaskEntry>>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Tasks spawned and not yet completed (resident: queued, running, or
    /// parked behind a waker).
    live: AtomicUsize,
    peak_live: AtomicUsize,
}

impl ExecShared {
    fn push(&self, entry: Arc<TaskEntry>) {
        self.queue.lock().push_back(entry);
        self.available.notify_one();
    }

    fn task_completed(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One poll cycle of a queued task.
fn run_entry(shared: &ExecShared, entry: Arc<TaskEntry>) {
    entry.state.store(RUNNING, Ordering::Release);
    let waker = Waker::from(Arc::clone(&entry));
    let mut cx = Context::from_waker(&waker);
    let mut slot = entry.future.lock();
    let Some(fut) = slot.as_mut() else {
        entry.state.store(DONE, Ordering::Release);
        return;
    };
    // The task wrapper resolves panics into its join state, so a panic
    // escaping here would be an executor bug; the catch keeps one broken
    // task from killing a worker regardless.
    let polled = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
    match polled {
        Ok(Poll::Pending) => {
            drop(slot);
            if entry
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // A wake landed mid-poll (NOTIFIED): run it again.
                entry.state.store(QUEUED, Ordering::Release);
                shared.push(entry);
            }
        }
        Ok(Poll::Ready(())) | Err(_) => {
            *slot = None;
            drop(slot);
            entry.state.store(DONE, Ordering::Release);
            shared.task_completed();
        }
    }
}

struct JoinSlot<T> {
    result: Option<TaskResult<T>>,
    wakers: Vec<Waker>,
}

struct JoinState<T> {
    slot: Mutex<JoinSlot<T>>,
    done: Condvar,
}

impl<T> JoinState<T> {
    fn new() -> Arc<JoinState<T>> {
        Arc::new(JoinState {
            slot: Mutex::new(JoinSlot { result: None, wakers: Vec::new() }),
            done: Condvar::new(),
        })
    }

    /// First completion wins; later calls (e.g. a drop racing a normal
    /// finish) are ignored.
    fn complete(&self, result: TaskResult<T>) {
        let wakers = {
            let mut slot = self.slot.lock();
            if slot.result.is_some() {
                return;
            }
            slot.result = Some(result);
            std::mem::take(&mut slot.wakers)
        };
        self.done.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }
}

/// Handle to a spawned task: blockingly [`join`](JoinHandle::join) it from
/// sync code, or `.await` it from another task.
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// The spawned task's verifier-visible id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Has the task finished (successfully or not)?
    pub fn is_finished(&self) -> bool {
        self.state.slot.lock().result.is_some()
    }

    /// Blocks the calling OS thread until the task completes. Call this
    /// from outside the executor (e.g. a bench main); an async task
    /// should `.await` the handle instead.
    pub fn join(self) -> TaskResult<T> {
        let mut slot = self.state.slot.lock();
        loop {
            if let Some(result) = slot.result.take() {
                return result;
            }
            self.state.done.wait(&mut slot);
        }
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = TaskResult<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = self.state.slot.lock();
        if let Some(result) = slot.result.take() {
            return Poll::Ready(result);
        }
        slot.wakers.retain(|w| !w.will_wake(cx.waker()));
        slot.wakers.push(cx.waker().clone());
        Poll::Pending
    }
}

/// The spawned-future wrapper: runs the user future, publishes its result
/// (or panic payload) to the join state, and on any exit — completion,
/// panic, or cancellation — deregisters the task from every phaser it is
/// still registered with, like the sync runtime's thread-exit guard.
struct TaskFuture<F: Future> {
    inner: Option<Pin<Box<F>>>,
    task: Arc<TaskCtx>,
    join: Arc<JoinState<F::Output>>,
}

impl<F: Future> TaskFuture<F> {
    fn finish(&mut self, result: TaskResult<F::Output>) {
        // Order matters: drop the user future first (its drop impls cancel
        // pending waits as this task), then leave every phaser, then
        // publish the result to joiners.
        if let Some(inner) = self.inner.take() {
            ctx::scoped(&self.task, || drop(inner));
        }
        self.task.deregister_all();
        self.join.complete(result);
    }
}

impl<F: Future> Future for TaskFuture<F> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let Some(inner) = this.inner.as_mut() else {
            return Poll::Ready(());
        };
        match catch_unwind(AssertUnwindSafe(|| inner.as_mut().poll(cx))) {
            Ok(Poll::Pending) => Poll::Pending,
            Ok(Poll::Ready(value)) => {
                this.finish(Ok(value));
                Poll::Ready(())
            }
            Err(payload) => {
                this.finish(Err(payload));
                Poll::Ready(())
            }
        }
    }
}

impl<F: Future> Drop for TaskFuture<F> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.finish(Err(Box::new("task cancelled before completion")));
        }
    }
}

/// A bounded worker pool driving [`Scoped`] Armus tasks. See the
/// [module docs](self).
pub struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Executor {
    /// Starts `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Executor {
        let shared = Arc::new(ExecShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            peak_live: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("armus-async-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Spawns `fut` as a fresh, unregistered task.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.spawn_as(TaskCtx::fresh(), fut)
    }

    /// Spawns `fut` registered with the given phasers at the calling
    /// task's phase — `Runtime::spawn_clocked` for futures. Identity flows
    /// the same way: the caller's context (thread-local, or the
    /// surrounding task when called from inside another spawned future)
    /// is the registering parent.
    ///
    /// # Panics
    /// Panics if the calling task is not registered with one of the
    /// phasers; see [`Executor::try_spawn_clocked`].
    pub fn spawn_clocked<F>(&self, phasers: &[&Phaser], fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        self.try_spawn_clocked(phasers, fut)
            .expect("spawn_clocked: calling task must be registered with every phaser")
    }

    /// Fallible [`Executor::spawn_clocked`].
    pub fn try_spawn_clocked<F>(
        &self,
        phasers: &[&Phaser],
        fut: F,
    ) -> Result<JoinHandle<F::Output>, SyncError>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let child = TaskCtx::fresh();
        for phaser in phasers {
            if let Err(err) = phaser.register_child(&child) {
                child.deregister_all();
                return Err(err);
            }
        }
        Ok(self.spawn_as(child, fut))
    }

    fn spawn_as<F>(&self, task: Arc<TaskCtx>, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let join = JoinState::new();
        let id = task.id();
        let wrapped = Scoped::new(
            Arc::clone(&task),
            TaskFuture { inner: Some(Box::pin(fut)), task, join: Arc::clone(&join) },
        );
        let entry = Arc::new(TaskEntry {
            state: AtomicU8::new(QUEUED),
            future: Mutex::new(Some(Box::pin(wrapped) as BoxFuture)),
            shared: Arc::downgrade(&self.shared),
        });
        let live = self.shared.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared.peak_live.fetch_max(live, Ordering::Relaxed);
        self.shared.push(entry);
        JoinHandle { state: join, id }
    }

    /// Tasks spawned and not yet completed (queued, running, or parked).
    pub fn live_tasks(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Executor::live_tasks`].
    pub fn peak_live_tasks(&self) -> usize {
        self.shared.peak_live.load(Ordering::Relaxed)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Cancel tasks that never got to run: dropping their futures runs
        // the cancellation path (pending waits withdrawn, phasers left,
        // joiners notified). Tasks parked behind a phaser waker stay alive
        // until that phaser drops — join what you spawn before dropping
        // the executor.
        let drained: Vec<_> = self.shared.queue.lock().drain(..).collect();
        for entry in drained {
            *entry.future.lock() = None;
            entry.state.store(DONE, Ordering::Release);
            self.shared.task_completed();
        }
    }
}

fn worker_loop(shared: &Arc<ExecShared>) {
    loop {
        let entry = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(entry) = queue.pop_front() {
                    break Some(entry);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                shared.available.wait(&mut queue);
            }
        };
        match entry {
            Some(entry) => run_entry(shared, entry),
            None => return,
        }
    }
}
