//! Verdict trials: plant a real crossed wait among fresh tasks on fresh
//! phasers, beside the workload's standing blocked population, and time
//! how long the verdict takes to reach the application.
//!
//! The clock starts just before the call that closes the cycle and stops
//! where the application learns of it: the `Err` the closing call returns
//! (avoidance), the `Verifier::subscribe` callback (detection),
//! `Subscription::recv` (dist). A verdict counts only if its task set is
//! exactly the planted one; afterwards the trial is torn down and none of
//! its tasks may remain blocked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    scoped, Phaser, PhaserId, Registration, Resource, Runtime, SyncError, TaskCtx, TaskId, WaitStep,
};
use crate::gen::TrialShape;
use crate::rig::{Mode, Rig, DETECT_PERIOD, DIST_CHECK_PERIOD, DIST_PUBLISH_PERIOD};

/// A local verdict later than this counts as missed.
const LOCAL_DEADLINE: Duration = Duration::from_secs(1);
/// A distributed verdict later than this counts as missed.
const DIST_DEADLINE: Duration = Duration::from_secs(2);

/// One trial's outcome: the time to verdict, or why it does not count.
pub type Trial = Result<Duration, String>;

/// `cycle` fresh tasks on `cycle` fresh phasers: task `i` is a member of
/// phasers `i` and `i + 1` and will arrive on and await phaser `i`, where
/// its predecessor is the member that never arrives. All but the last
/// task are driven into their wait; the caller closes the cycle.
struct Planted {
    tasks: Vec<Arc<TaskCtx>>,
    phasers: Vec<Phaser>,
}

impl Planted {
    fn new(rt: &Arc<Runtime>, cycle: usize) -> Result<Planted, String> {
        let tasks: Vec<Arc<TaskCtx>> = (0..cycle).map(|_| TaskCtx::fresh()).collect();
        let phasers: Vec<Phaser> = (0..cycle).map(|_| Phaser::new_unregistered(rt)).collect();
        for (i, task) in tasks.iter().enumerate() {
            scoped(task, || {
                phasers[i].register()?;
                phasers[(i + 1) % cycle].register()
            })
            .map_err(|e| format!("trial registration failed: {e}"))?;
        }
        for (task, phaser) in tasks.iter().zip(&phasers).take(cycle - 1) {
            match scoped(task, || phaser.begin_arrive_and_await()) {
                Ok(WaitStep::Pending) => {}
                other => return Err(format!("trial wait did not block: {other:?}")),
            }
        }
        Ok(Planted { tasks, phasers })
    }

    /// The call that closes the cycle.
    fn close(&self) -> Result<WaitStep, SyncError> {
        let last = self.tasks.len() - 1;
        scoped(&self.tasks[last], || self.phasers[last].begin_arrive_and_await())
    }

    fn ids(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.tasks.iter().map(|t| t.id()).collect();
        ids.sort();
        ids
    }

    /// Resolves or cancels every wait, leaves every phaser, and checks
    /// that no trial task is still published as blocked.
    fn tear_down(self, rt: &Arc<Runtime>) -> Result<(), String> {
        for (task, phaser) in self.tasks.iter().zip(&self.phasers) {
            scoped(task, || {
                let _ = phaser.poll_await();
                phaser.cancel_await();
            });
            task.deregister_all();
        }
        drop(rt.take_reports());
        match self.tasks.iter().find(|t| rt.verifier().blocked_info(t.id()).is_some()) {
            Some(task) => Err(format!("{} still blocked after tear-down", task.id())),
            None => Ok(()),
        }
    }
}

fn same_tasks(reported: &[TaskId], planted: &[TaskId]) -> Result<(), String> {
    if reported == planted {
        Ok(())
    } else {
        Err(format!("verdict names {reported:?}, planted {planted:?}"))
    }
}

impl Rig {
    /// Runs one verdict trial of the given shape.
    pub fn trial(&mut self, shape: TrialShape) -> Trial {
        match self.mode {
            Mode::Avoidance => self.avoidance_trial(shape),
            Mode::Detection => self.detection_trial(shape),
            Mode::Dist => self.dist_trial(shape),
        }
    }

    /// Ends a slice of trials: on `dist-tcp` the last trial's unblocks
    /// reach the store a publish period later, and until a checker has
    /// looked again a site may still report the cycle it saw — which must
    /// not be taken for a report during the round that follows.
    pub fn after_trials(&self) {
        if self.mode == Mode::Dist {
            std::thread::sleep(DIST_PUBLISH_PERIOD + DIST_CHECK_PERIOD);
        }
    }

    fn avoidance_trial(&mut self, shape: TrialShape) -> Trial {
        let rt = Arc::clone(&self.runtimes[0]);
        let planted = Planted::new(&rt, shape.cycle)?;
        let started = Instant::now();
        let closed = planted.close();
        let elapsed = started.elapsed();
        let verdict = match closed {
            Err(SyncError::WouldDeadlock(report)) => same_tasks(&report.tasks, &planted.ids()),
            other => Err(format!("closing call returned {other:?}, not a deadlock")),
        };
        planted.tear_down(&rt)?;
        verdict.map(|()| elapsed)
    }

    fn detection_trial(&mut self, shape: TrialShape) -> Trial {
        let rt = Arc::clone(&self.runtimes[0]);
        let verdicts = self.detections.as_ref().expect("detection rig has a verdict channel");
        if verdicts.try_recv().is_ok() {
            return Err("a verdict arrived outside any trial".into());
        }
        std::thread::sleep(DETECT_PERIOD.mul_f64(shape.phase));
        let planted = Planted::new(&rt, shape.cycle)?;
        let started = Instant::now();
        let verdict = match planted.close() {
            Ok(WaitStep::Pending) => match verdicts.recv_timeout(LOCAL_DEADLINE) {
                Ok((at, tasks)) => {
                    same_tasks(&tasks, &planted.ids()).map(|()| at.duration_since(started))
                }
                Err(_) => Err(format!("no verdict within {LOCAL_DEADLINE:?}")),
            },
            other => Err(format!("closing call returned {other:?}, not a pending wait")),
        };
        planted.tear_down(&rt)?;
        verdict
    }

    fn dist_trial(&mut self, shape: TrialShape) -> Trial {
        let dist = self.dist.as_ref().expect("dist rig");
        if dist.subscription.recv(Duration::ZERO).is_some() {
            return Err("a verdict arrived outside any trial".into());
        }
        // Let the previous trial's unblocks reach the store, then land
        // the closing call at the shape's offset into the check period.
        std::thread::sleep(DIST_PUBLISH_PERIOD + DIST_CHECK_PERIOD.mul_f64(shape.phase));
        let k = shape.cycle;
        let phasers: Vec<PhaserId> = (0..k).map(|_| PhaserId::fresh()).collect();
        let tasks: Vec<TaskId> = (0..k).map(|_| TaskId::fresh()).collect();
        let verifier = |i: usize| dist.sites[i % dist.sites.len()].runtime().verifier();
        // Task i sits on site i % 2: arrived on and awaiting phaser i,
        // not yet arrived on phaser i + 1 — the distributed clocks are
        // shared by id, as in `examples/distributed_detection.rs`.
        let block = |i: usize| {
            let (own, next) = (phasers[i], phasers[(i + 1) % k]);
            verifier(i)
                .block(
                    tasks[i],
                    vec![Resource::new(own, 1)],
                    vec![Registration::new(own, 1), Registration::new(next, 0)],
                )
                .map_err(|e| format!("publish-only block refused: {e}"))
        };
        for i in 0..k - 1 {
            block(i)?;
        }
        let started = Instant::now();
        block(k - 1)?;
        let verdict = match dist.subscription.recv(DIST_DEADLINE) {
            Some(report) => {
                let elapsed = started.elapsed();
                let mut planted: Vec<TaskId> =
                    (0..k).map(|i| tasks[i].with_site((i % dist.sites.len()) as u32)).collect();
                planted.sort();
                same_tasks(&report.tasks, &planted).map(|()| elapsed)
            }
            None => Err(format!("no verdict within {DIST_DEADLINE:?}")),
        };
        for (i, &task) in tasks.iter().enumerate() {
            verifier(i).unblock(task);
            if verifier(i).blocked_info(task).is_some() {
                return Err(format!("{task} still blocked after tear-down"));
            }
        }
        verdict
    }
}
