//! End-to-end tests of the async front-end: executor-driven barrier
//! rounds, identity propagation through spawn points, latch waits,
//! avoidance verdicts delivered to parked futures, and panic cleanup.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use armus_async::prelude::*;
use armus_sync::ctx::{self, TaskCtx};
use armus_sync::{CountDownLatch, Phaser, Runtime, SyncError, TaskId};

struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

fn noop_waker() -> Waker {
    Waker::from(Arc::new(NoopWake))
}

#[test]
fn executor_runs_lock_step_barrier_rounds() {
    let rt = Runtime::avoidance();
    let exec = Executor::new(2);
    let ph = Phaser::new(&rt);
    let n = 16u64;
    let k = 10u64;
    let arrivals: Arc<Vec<AtomicU64>> = Arc::new((0..k).map(|_| AtomicU64::new(0)).collect());
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let ph2 = ph.clone();
            let arrivals = Arc::clone(&arrivals);
            exec.spawn_clocked(&[&ph], async move {
                for step in 0..k {
                    arrivals[step as usize].fetch_add(1, Ordering::SeqCst);
                    ph2.advance_async().await.unwrap();
                    // After the barrier resolves, every member arrived.
                    assert_eq!(arrivals[step as usize].load(Ordering::SeqCst), n);
                }
                ph2.deregister().unwrap();
            })
        })
        .collect();
    ph.deregister().unwrap();
    for handle in handles {
        handle.join().unwrap();
    }
    let stats = rt.verifier().stats();
    assert!(stats.async_waits > 0, "some round must actually have parked a waker");
    assert!(stats.waker_wakes > 0);
    assert!(!rt.verifier().found_deadlock());
    rt.verifier().shutdown();
}

#[test]
fn identity_survives_suspension_and_matches_the_handle() {
    let rt = Runtime::avoidance();
    let exec = Executor::new(2);
    let ph = Phaser::new(&rt);
    let partner = {
        let ph2 = ph.clone();
        exec.spawn_clocked(&[&ph], async move {
            ph2.advance_async().await.unwrap();
            ph2.deregister().unwrap();
        })
    };
    let probe = {
        let ph2 = ph.clone();
        exec.spawn_clocked(&[&ph], async move {
            let before: TaskId = ctx::current().id();
            ph2.advance_async().await.unwrap();
            let after: TaskId = ctx::current().id();
            ph2.deregister().unwrap();
            (before, after)
        })
    };
    ph.deregister().unwrap();
    let probe_id = probe.id();
    let (before, after) = probe.join().unwrap();
    partner.join().unwrap();
    assert_eq!(before, after, "identity must survive .await suspension");
    assert_eq!(before, probe_id, "the spawned future runs as its handle's task");
    rt.verifier().shutdown();
}

#[test]
fn join_handles_can_be_awaited_from_other_tasks() {
    let rt = Runtime::avoidance();
    let exec = Arc::new(Executor::new(2));
    let latch = CountDownLatch::new(&rt, 1);
    let waiter = {
        let latch2 = latch.clone();
        exec.spawn(async move {
            latch2.wait_async().await.unwrap();
            7u32
        })
    };
    let chained = exec.spawn(async move { waiter.await.unwrap() + 1 });
    latch.count_down().unwrap();
    assert_eq!(chained.join().unwrap(), 8);
    rt.verifier().shutdown();
}

#[test]
fn latch_wait_async_resolves_on_last_count_down() {
    let rt = Runtime::avoidance();
    let exec = Executor::new(2);
    let count = 4;
    let latch = CountDownLatch::new(&rt, count);
    let waiters: Vec<_> = (0..3)
        .map(|_| {
            let latch2 = latch.clone();
            exec.spawn(async move { latch2.wait_async().await })
        })
        .collect();
    let downers: Vec<_> = (0..count)
        .map(|_| {
            let latch2 = latch.clone();
            exec.spawn(async move { latch2.count_down().unwrap() })
        })
        .collect();
    for handle in downers {
        handle.join().unwrap();
    }
    for handle in waiters {
        handle.join().unwrap().unwrap();
    }
    rt.verifier().shutdown();
}

/// The avoidance path end-to-end: a crossed two-phaser cycle. Whichever
/// task blocks second is refused at `begin_await`; the other is parked —
/// and must be *woken* by the targeted interrupt, resolving its future
/// with the same `WouldDeadlock` verdict the sync path delivers.
#[test]
fn avoidance_verdict_reaches_the_parked_future() {
    let rt = Runtime::avoidance();
    let exec = Executor::new(2);
    let pa = Phaser::new(&rt);
    let pb = Phaser::new(&rt);
    let task_a = {
        let (pa2, pb2) = (pa.clone(), pb.clone());
        exec.spawn_clocked(&[&pa, &pb], async move {
            let verdict = pa2.advance_async().await;
            // Leave pb so the runtime is quiescent either way.
            let _ = pb2.deregister();
            verdict
        })
    };
    let task_b = {
        let (pa2, pb2) = (pa.clone(), pb.clone());
        exec.spawn_clocked(&[&pa, &pb], async move {
            let verdict = pb2.advance_async().await;
            let _ = pa2.deregister();
            verdict
        })
    };
    pa.deregister().unwrap();
    pb.deregister().unwrap();
    let got_a = task_a.join().unwrap();
    let got_b = task_b.join().unwrap();
    for verdict in [got_a, got_b] {
        match verdict {
            Err(SyncError::WouldDeadlock(report)) => {
                assert_eq!(report.tasks.len(), 2, "both tasks are in the cycle");
            }
            other => panic!("expected WouldDeadlock on both fronts, got {other:?}"),
        }
    }
    assert!(rt.verifier().found_deadlock());
    rt.verifier().shutdown();
}

#[test]
fn panicking_task_deregisters_and_reports_through_join() {
    let rt = Runtime::avoidance();
    let exec = Executor::new(2);
    let ph = Phaser::new(&rt);
    let doomed = exec.spawn_clocked(&[&ph], async move {
        panic!("task dies before ever arriving");
    });
    assert!(doomed.join().is_err(), "the panic payload surfaces at join");
    // The panicked task's exit guard deregistered it: only the spawner
    // remains, whose own arrivals now release instantly.
    assert_eq!(ph.member_count(), 1);
    ph.arrive_and_await().unwrap();
    ph.deregister().unwrap();
    rt.verifier().shutdown();
}

#[test]
fn scoped_attributes_manual_polls_to_its_task() {
    let rt = Runtime::avoidance();
    let ph = Phaser::new_unregistered(&rt);
    let ph2 = ph.clone();
    let mut fut = armus_async::scoped_fresh(async move {
        ph2.register().unwrap();
        ctx::current().id()
    });
    let scoped_id = fut.id();
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    match std::pin::Pin::new(&mut fut).poll(&mut cx) {
        Poll::Ready(inner_id) => assert_eq!(inner_id, scoped_id),
        Poll::Pending => panic!("future has no awaits; one poll completes it"),
    }
    // The registration really was attributed to the scoped task.
    assert_eq!(ph.member_count(), 1);
    let task: Arc<TaskCtx> = Arc::clone(fut.task());
    ctx::scoped(&task, || ph.deregister()).unwrap();
    rt.verifier().shutdown();
}

/// Dropping an executor right after its last task completed: the worker
/// that ran it may be between its look at the shutdown flag and its wait
/// for work, and the drop's wake-up must still reach it, or the drop joins
/// that worker forever.
#[test]
fn dropping_an_executor_as_its_last_task_finishes_stops_every_worker() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..2_000 {
            let exec = Executor::new(2);
            exec.spawn(async {}).join().unwrap();
            drop(exec);
        }
        tx.send(()).unwrap();
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("an executor's drop waited forever for a worker");
}
