//! The generated phaser program, run on the async front-end.
//!
//! One task per group member; a round is every task doing `advances`
//! lock-step `advance_async` steps on its group's phaser (a halo member
//! also steps its neighbour's). Between rounds every task is parked on a
//! *gate*: a phaser whose only member is the harness thread, awaited by
//! the tasks as non-members, so opening it costs one arrival and the
//! parked tasks are a standing blocked population (each publishes its
//! gate wait and its group registrations) for the verdict trials.
//!
//! The program is a closed loop: a task issues its next operation only
//! when the previous one has completed.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::api::{AsyncPhaser, Executor, JoinHandle, Phaser, Runtime, SyncError};
use crate::gen::Topology;
use crate::host;

/// A round that takes longer than this has hung (a lost wake-up or a task
/// that died mid-round); the run fails rather than sit out the driver's
/// time limit.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// How `Executor::new` names its worker threads.
const WORKER_THREADS: &str = "armus-async-";

struct Shared {
    /// Tasks that have not yet finished the current round (or, during
    /// set-up, not yet registered).
    pending: AtomicUsize,
    stop: AtomicBool,
    errors: AtomicUsize,
    /// When set, tasks time every advance and hand the latencies over at
    /// the end of the round (the traced run's front-end spans).
    tracing: AtomicBool,
    latencies_ns: Mutex<Vec<u32>>,
    harness: Thread,
}

impl Shared {
    fn task_done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.harness.unpark();
        }
    }
}

/// One slice of the program: the groups that live on one runtime
/// (`dist-tcp` has one part per site; everything else has a single part).
pub struct Part {
    pub runtime: Arc<Runtime>,
    pub topology: Topology,
}

pub struct AsyncProgram {
    /// One gate per part.
    gates: Vec<Phaser>,
    // Dropped after the tasks have been joined.
    _executor: Executor,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<Result<(), SyncError>>>,
    tasks: usize,
    ops_per_round: u64,
}

async fn task_body(
    own: Phaser,
    next: Option<Phaser>,
    gate: Phaser,
    shared: &Shared,
    advances: usize,
) -> Result<(), SyncError> {
    own.register()?;
    if let Some(next) = &next {
        next.register()?;
    }
    shared.task_done();
    let mut round = 1;
    loop {
        gate.await_phase_async(round).await?;
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        // The traced run's front-end spans: each task times its own ops.
        let tracing = shared.tracing.load(Ordering::Relaxed);
        let mut latencies = Vec::new();
        for _ in 0..advances {
            for phaser in std::iter::once(&own).chain(&next) {
                let started = tracing.then(Instant::now);
                phaser.advance_async().await?;
                if let Some(started) = started {
                    latencies.push(started.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                }
            }
        }
        if tracing {
            shared.latencies_ns.lock().expect("latency buffer lock").extend(latencies);
        }
        shared.task_done();
        round += 1;
    }
}

impl AsyncProgram {
    /// Spawns the program's tasks on one executor of `workers` threads
    /// (every part's tasks share it: an executor serves any runtime) and
    /// returns once every task has registered with its phasers (so all
    /// registrations are at phase 0) and is parked on — or about to park
    /// on — its gate.
    pub fn spawn(
        parts: Vec<Part>,
        workers: usize,
        advances: usize,
    ) -> Result<AsyncProgram, String> {
        let tasks: usize = parts.iter().map(|p| p.topology.tasks()).sum();
        let ops_per_round = parts.iter().map(|p| p.topology.ops_per_round(advances)).sum();
        let shared = Arc::new(Shared {
            pending: AtomicUsize::new(tasks),
            stop: AtomicBool::new(false),
            errors: AtomicUsize::new(0),
            tracing: AtomicBool::new(false),
            latencies_ns: Mutex::new(Vec::new()),
            harness: std::thread::current(),
        });
        let mut handles = Vec::with_capacity(tasks);
        let mut gates = Vec::with_capacity(parts.len());
        // The executor hands out no thread ids, so its workers are the
        // `armus-async-*` threads that appear as it starts; worker k is
        // pinned to the k-th allowed core (see `host::pin`). A thread
        // names itself as it starts running, so a scan straight after
        // `Executor::new` can find none of them yet — wait until all have.
        let before = host::threads_named(WORKER_THREADS);
        let executor = Executor::new(workers);
        let started = Instant::now();
        let fresh = loop {
            let mut now = host::threads_named(WORKER_THREADS);
            now.retain(|tid| !before.contains(tid));
            if now.len() >= workers {
                break now;
            }
            if started.elapsed() > Duration::from_secs(2) {
                return Err(format!("found {} of {workers} executor workers to pin", now.len()));
            }
            std::thread::yield_now();
        };
        let cpus = host::allowed_cpus();
        for (k, tid) in fresh.into_iter().enumerate() {
            if !cpus.is_empty() {
                host::pin(tid, cpus[k % cpus.len()]);
            }
        }
        for part in parts {
            // The harness thread is the gate's only member.
            let gate = Phaser::new(&part.runtime);
            let phasers: Vec<Phaser> = (0..part.topology.members.len())
                .map(|_| Phaser::new_unregistered(&part.runtime))
                .collect();
            for (g, &members) in part.topology.members.iter().enumerate() {
                for m in 0..members {
                    let own = phasers[g].clone();
                    let next = (part.topology.halo && m == 0)
                        .then(|| phasers.get(g + 1).cloned())
                        .flatten();
                    let gate = gate.clone();
                    let shared = Arc::clone(&shared);
                    handles.push(executor.spawn(async move {
                        let result = task_body(own, next, gate, &shared, advances).await;
                        if result.is_err() {
                            shared.errors.fetch_add(1, Ordering::AcqRel);
                            shared.harness.unpark();
                        }
                        result
                    }));
                }
            }
            gates.push(gate);
        }
        let program =
            AsyncProgram { gates, _executor: executor, shared, handles, tasks, ops_per_round };
        program.wait_pending()?;
        Ok(program)
    }

    pub fn tasks(&self) -> usize {
        self.tasks
    }

    pub fn ops_per_round(&self) -> u64 {
        self.ops_per_round
    }

    fn wait_pending(&self) -> Result<(), String> {
        let started = Instant::now();
        while self.shared.pending.load(Ordering::Acquire) != 0 {
            if self.shared.errors.load(Ordering::Acquire) != 0 {
                return Err("a program task failed".into());
            }
            if started.elapsed() > ROUND_TIMEOUT {
                return Err(format!("round hung for {ROUND_TIMEOUT:?}"));
            }
            std::thread::park_timeout(Duration::from_millis(50));
        }
        Ok(())
    }

    fn open_gates(&self) -> Result<(), String> {
        for gate in &self.gates {
            gate.arrive().map_err(|e| format!("gate arrival failed: {e}"))?;
        }
        Ok(())
    }

    /// Runs one round: opens the gates and waits for every task to finish
    /// its advances. The returned time is first gate arrival → last task
    /// done; the tasks re-park on the gate afterwards.
    pub fn round(&mut self) -> Result<Duration, String> {
        self.shared.pending.store(self.tasks, Ordering::Release);
        let started = Instant::now();
        self.open_gates()?;
        self.wait_pending()?;
        Ok(started.elapsed())
    }

    /// A round in which every task times each of its advances; returns
    /// the round time and the per-operation latencies.
    pub fn traced_round(&mut self) -> Result<(Duration, Vec<u32>), String> {
        self.shared.tracing.store(true, Ordering::Relaxed);
        let elapsed = self.round();
        self.shared.tracing.store(false, Ordering::Relaxed);
        let latencies =
            std::mem::take(&mut *self.shared.latencies_ns.lock().expect("latency buffer lock"));
        Ok((elapsed?, latencies))
    }

    /// Releases the tasks from the gate to exit, joins them, and returns
    /// how many ended in an error or a panic.
    pub fn shutdown(self) -> usize {
        self.shared.stop.store(true, Ordering::Release);
        let _ = self.open_gates();
        let mut failed = 0;
        for handle in self.handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(_)) | Err(_) => failed += 1,
            }
        }
        for gate in &self.gates {
            let _ = gate.deregister();
        }
        failed
    }
}
