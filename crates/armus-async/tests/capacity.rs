//! The capacity claim of the async front-end: a blocked task is a parked
//! waker, not a parked OS thread, so the number of *simultaneously
//! blocked* verified tasks is bounded by memory, not by the OS thread
//! limit — a million of them fit on a two-worker pool.
//!
//! The tests live in a test binary of their own on purpose: the thread
//! bound reads the whole process's `Threads:` count, which is exact only
//! when no sibling test is running its own executor beside it.

use std::time::Duration;

use armus_async::prelude::*;
use armus_sync::{CountDownLatch, Phaser, Runtime};

const WORKERS: usize = 2;
/// Clients per phaser group.
const GROUP: u64 = 32;

/// `Threads:` from `/proc/self/status` (Linux; `None` elsewhere).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// `clients` tasks in phaser groups of [`GROUP`]: each registers with its
/// group's phaser, counts down the group's latch and parks on
/// `latch.wait_async()`; once released, the group runs one lock-step
/// `advance_async` round and deregisters. Every latch holds one count
/// more than its group has members and the test thread spends those only
/// after it has seen every client park, so all `clients` tasks are
/// blocked at once — each after an avoidance check at `begin_await`.
fn blocked_tasks_fit_on_a_bounded_pool(clients: u64) {
    let rt = Runtime::avoidance();
    let exec = Executor::new(WORKERS);
    let groups = clients.div_ceil(GROUP);
    let members_of = |g: u64| GROUP.min(clients - g * GROUP);
    let cells: Vec<(Phaser, CountDownLatch)> = (0..groups)
        .map(|g| {
            (Phaser::new_unregistered(&rt), CountDownLatch::new(&rt, members_of(g) as usize + 1))
        })
        .collect();

    let mut handles = Vec::with_capacity(clients as usize);
    // Interleaved: member j of every group spawns before member j+1 of
    // any, so consecutive spawns touch different phasers.
    for j in 0..GROUP {
        for g in (0..groups).filter(|&g| j < members_of(g)) {
            let (ph, latch) = cells[g as usize].clone();
            handles.push(exec.spawn(async move {
                ph.register().unwrap();
                latch.count_down().unwrap();
                latch.wait_async().await.unwrap();
                ph.advance_async().await.unwrap();
                ph.deregister().unwrap();
            }));
        }
    }

    // No latch can open yet, so every client's wait goes pending: this
    // loop waits for a count, it does not guess a duration.
    while rt.verifier().stats().async_waits < clients {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(exec.live_tasks() as u64, clients, "every client is resident, parked on its latch");
    if let Some(threads) = process_threads() {
        // Workers + main + this test's thread, small slack for the
        // harness; a thread per blocked task would be `clients` more.
        assert!(threads <= WORKERS + 4, "{threads} threads beside {clients} blocked tasks");
    }

    for (_, latch) in &cells {
        latch.count_down().unwrap();
    }
    for handle in handles {
        handle.join().expect("clients do not panic");
    }
    assert_eq!(exec.peak_live_tasks() as u64, clients);
    assert!(!rt.verifier().found_deadlock(), "the workload is deadlock-free by construction");
    rt.verifier().shutdown();
}

#[test]
fn twenty_thousand_blocked_tasks_fit_on_a_bounded_pool() {
    blocked_tasks_fit_on_a_bounded_pool(20_000);
}

/// Run by name in CI's `async` job (`--release -- --ignored --exact
/// a_million_blocked_tasks_fit_on_a_bounded_pool`): about a minute and
/// 1 GB in release, too heavy for tier-1.
#[test]
#[ignore = "a million resident tasks: run by name, in release"]
fn a_million_blocked_tasks_fit_on_a_bounded_pool() {
    blocked_tasks_fit_on_a_bounded_pool(1_000_000);
}
