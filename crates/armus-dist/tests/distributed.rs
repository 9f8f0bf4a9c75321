//! End-to-end distributed detection: cross-site deadlocks, fault
//! injection on sites and on the store.

use std::sync::Arc;
use std::time::{Duration, Instant};

use armus_dist::{Cluster, MemStore, SiteConfig, Store};
use armus_sync::{Phaser, SyncError};
use armus_testkit::dist::{ChaosConfig, ChaosStore};

fn fast_cfg() -> SiteConfig {
    SiteConfig {
        publish_period: Duration::from_millis(10),
        check_period: Duration::from_millis(20),
        ..Default::default()
    }
}

/// A cluster over a store whose outages the test switches: a
/// [`ChaosStore`] with no message chaos underneath, and the handle to it.
fn cluster_with_outages(n: usize) -> (Arc<ChaosStore<MemStore>>, Cluster) {
    let store = Arc::new(ChaosStore::new(MemStore::new(), ChaosConfig::NONE, 0));
    let cluster = Cluster::start_on(Arc::clone(&store) as Arc<dyn Store>, n, fast_cfg());
    (store, cluster)
}

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// Plants a two-task crossed-wait deadlock on the given site runtime. The
/// tasks stay blocked forever (detection reports, never breaks).
fn plant_deadlock(rt: &Arc<armus_sync::Runtime>) {
    let p = Phaser::new(rt);
    let q = Phaser::new(rt);
    {
        let p2 = p.clone();
        rt.spawn_clocked(&[&p, &q], move || {
            let _ = p2.arrive_and_await();
        });
    }
    {
        let q2 = q.clone();
        rt.spawn_clocked(&[&p, &q], move || {
            let _ = q2.arrive_and_await();
        });
    }
    // Parent leaves both phasers so only the crossed pair remains.
    p.deregister().unwrap();
    q.deregister().unwrap();
}

/// Runs a clean barrier workload on a site runtime.
fn clean_workload(rt: &Arc<armus_sync::Runtime>) -> Result<(), SyncError> {
    let ph = Phaser::new(rt);
    let mut handles = Vec::new();
    for _ in 0..3 {
        let ph2 = ph.clone();
        handles.push(rt.spawn_clocked(&[&ph], move || -> Result<(), SyncError> {
            for _ in 0..20 {
                ph2.arrive_and_await()?;
            }
            ph2.deregister()
        }));
    }
    for _ in 0..20 {
        ph.arrive_and_await()?;
    }
    ph.deregister()?;
    for h in handles {
        h.join().unwrap()?;
    }
    Ok(())
}

#[test]
fn clean_cluster_reports_nothing() {
    let cluster = Cluster::start(3, fast_cfg());
    cluster.run_on_all(|_i, rt| clean_workload(rt).unwrap());
    // Give the checkers a few rounds to (not) find anything.
    std::thread::sleep(Duration::from_millis(150));
    assert!(!cluster.any_deadlock(), "reports: {:?}", cluster.all_reports());
    cluster.stop();
}

#[test]
fn single_site_deadlock_is_detected_cluster_wide() {
    let cluster = Cluster::start(3, fast_cfg());
    plant_deadlock(cluster.sites()[1].runtime());
    assert!(
        eventually(Duration::from_secs(10), || cluster.any_deadlock()),
        "the cluster must detect the planted deadlock"
    );
    // Every surviving checker sees the same global view, so eventually all
    // sites report (no designated control site).
    assert!(
        eventually(Duration::from_secs(10), || cluster.reporting_sites().len() == 3),
        "all sites must report, got {:?}",
        cluster.reporting_sites()
    );
    cluster.stop();
}

#[test]
fn detection_survives_checker_failures() {
    let mut cluster = Cluster::start(3, fast_cfg());
    // Kill two of the three checkers before planting the deadlock.
    cluster.sites_mut()[0].kill_checker();
    cluster.sites_mut()[2].kill_checker();
    plant_deadlock(cluster.sites()[1].runtime());
    assert!(
        eventually(Duration::from_secs(10), || cluster.any_deadlock()),
        "the one surviving checker must still detect"
    );
    let reporting = cluster.reporting_sites();
    assert_eq!(reporting, vec![armus_dist::SiteId(1)]);
    cluster.stop();
}

#[test]
fn detection_survives_store_outage() {
    let (store, cluster) = cluster_with_outages(2);
    // Outage from the very start: nothing can be published or fetched.
    store.set_available(false);
    plant_deadlock(cluster.sites()[0].runtime());
    std::thread::sleep(Duration::from_millis(200));
    assert!(!cluster.any_deadlock(), "nothing can be detected during the outage");
    assert!(store.rejected() > 0, "rounds were attempted and skipped");
    // Outage ends: publishing resumes, detection follows.
    store.set_available(true);
    assert!(
        eventually(Duration::from_secs(10), || cluster.any_deadlock()),
        "detection must resume after the outage"
    );
    cluster.stop();
}

#[test]
fn site_partitions_are_disjoint_and_replaced() {
    let cluster = Cluster::start(2, fast_cfg());
    // Block one task on site 0 for a while, then release it; the partition
    // must eventually shrink back to empty.
    let rt0 = Arc::clone(cluster.sites()[0].runtime());
    let gate = Phaser::new(&rt0);
    let waiter = {
        let g2 = gate.clone();
        rt0.spawn_clocked(&[&gate], move || {
            let _ = g2.arrive_and_await();
        })
    };
    // The waiter publishes a blocked status.
    assert!(eventually(Duration::from_secs(5), || {
        cluster
            .store()
            .fetch_all()
            .map(|v| v.iter().any(|(s, p)| *s == armus_dist::SiteId(0) && !p.is_empty()))
            .unwrap_or(false)
    }));
    // Release it (the parent arrives), the partition drains.
    gate.arrive_and_deregister().unwrap();
    waiter.join().unwrap();
    assert!(eventually(Duration::from_secs(5), || {
        cluster.store().fetch_all().map(|v| v.iter().all(|(_, p)| p.is_empty())).unwrap_or(false)
    }));
    assert!(!cluster.any_deadlock());
    cluster.stop();
}

#[test]
fn steady_state_publishes_deltas_not_snapshots() {
    use armus_core::{PhaserId, Registration, Resource, TaskId};

    let cluster = Cluster::start(2, fast_cfg());
    // Let the join snapshots land, then churn blocked statuses so the
    // journal has deltas to ship.
    assert!(eventually(Duration::from_secs(5), || {
        cluster.sites().iter().all(|site| site.publish_resyncs() == 1)
    }));
    cluster.run_on_all(|_i, rt| clean_workload(rt).unwrap());
    // One more status, after every join: it can only reach the store in a
    // delta interval, unless a site resyncs again — which the count below
    // rules out.
    let blocked = TaskId(9001);
    cluster.sites()[0]
        .runtime()
        .verifier()
        .block(
            blocked,
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )
        .unwrap();
    assert!(
        eventually(Duration::from_secs(5), || {
            cluster.store().fetch_all().unwrap().iter().any(|(_, p)| p.get(blocked).is_some())
        }),
        "steady-state publishing must use the delta path"
    );
    // Each site resynced exactly once: the join snapshot.
    for site in cluster.sites() {
        assert_eq!(site.publish_resyncs(), 1, "{}: no recovery resync was needed", site.id());
    }
    cluster.stop();
}

#[test]
fn lost_partition_recovers_with_a_full_snapshot() {
    let cluster = Cluster::start(1, fast_cfg());
    // Let the join snapshot land.
    assert!(eventually(Duration::from_secs(5), || cluster.sites()[0].publish_resyncs() == 1));
    // Simulate store-side data loss: the partition vanishes. The site is
    // completely quiescent (no block/unblock churn) — the worst case,
    // since a fully-deadlocked site produces no deltas either — so the
    // recovery must come from the heartbeat NACK alone.
    cluster.store().remove(armus_dist::SiteId(0)).unwrap();
    assert!(
        eventually(Duration::from_secs(5), || cluster.sites()[0].publish_resyncs() >= 2),
        "recovery after partition loss must resync even when quiescent"
    );
    // And the partition is back for the checkers to merge.
    assert!(cluster.store().fetch_all().unwrap().iter().any(|(s, _)| *s == armus_dist::SiteId(0)));
    cluster.stop();
}

#[test]
fn stopping_a_site_removes_its_partition() {
    let cluster = Cluster::start(2, fast_cfg());
    let store = Arc::clone(cluster.store());
    cluster.stop();
    let parts = store.fetch_all().unwrap();
    assert!(parts.is_empty(), "stopped sites must clean up: {parts:?}");
}

#[test]
fn stop_is_interruptible_not_a_sum_of_periods() {
    // Multi-second publish/check periods: a stop that sleeps out the
    // periods would take seconds; the interruptible wait must return in
    // well under 100 ms (wake-up + joins + one bounded remove).
    let cfg = SiteConfig {
        publish_period: Duration::from_secs(5),
        check_period: Duration::from_secs(5),
        ..Default::default()
    };
    let cluster = Cluster::start(2, cfg);
    // Let both sites park in their first full waits.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    cluster.stop();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(100), "stop took {elapsed:?}");
}

#[test]
fn stop_against_a_dead_store_is_bounded_not_an_endless_retry() {
    // The store never recovers. Stop must give up on the remove within
    // its bounded budget instead of spinning forever — a service being
    // restarted can't wait on a dead backend.
    let (store, cluster) = cluster_with_outages(1);
    assert!(eventually(Duration::from_secs(5), || {
        store.fetch_all().map(|v| !v.is_empty()).unwrap_or(false)
    }));
    store.set_available(false);
    let start = Instant::now();
    cluster.stop();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(100), "stop took {elapsed:?} against a dead store");
    // The partition genuinely could not be removed; that is the trade.
    store.set_available(true);
    assert!(!store.fetch_all().unwrap().is_empty());
}

#[test]
fn stop_retries_the_remove_through_a_brief_outage() {
    // The store is down at the instant of stop; it recovers 40 ms later —
    // inside the bounded retry window — so the partition must still be
    // removed (no ghost left for other sites to merge).
    let (store, cluster) = cluster_with_outages(1);
    assert!(eventually(Duration::from_secs(5), || {
        store.fetch_all().map(|v| !v.is_empty()).unwrap_or(false)
    }));
    store.set_available(false);
    let revive = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            store.set_available(true);
        })
    };
    cluster.stop();
    revive.join().unwrap();
    let parts = store.fetch_all().unwrap();
    assert!(parts.is_empty(), "remove must retry past the outage: {parts:?}");
}

/// The ghost-partition regression (soundness): a site whose tasks
/// unblocked during a store outage dies without removing its partition;
/// its stale blocked statuses must not let the surviving site *confirm* a
/// deadlock that no longer exists. The partition lease is the fix: with
/// no publishes refreshing it, the ghost expires and the merged view
/// drops it.
#[test]
fn dead_sites_ghost_partition_cannot_confirm_a_false_deadlock() {
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, Snapshot, TaskId};
    use armus_dist::{Site, SiteId};

    // The would-be cross-site cycle: the ghost's task g1 waits on p2@1
    // while impeding p1@1; the live task a1 waits on p1@1 while impeding
    // p2@1. If both were really blocked this *would* be a deadlock — but
    // g1 unblocked during the outage; only its stale status lingers.
    let ghost_partition = Snapshot::from_tasks(vec![BlockedInfo::new(
        TaskId(9001),
        vec![Resource::new(PhaserId(2), 1)],
        vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
    )]);
    let live_blocked = |site: &Site| {
        site.runtime()
            .verifier()
            .block(
                TaskId(9002),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
            )
            .unwrap();
    };

    let run = |lease: Option<Duration>| -> bool {
        let inner = match lease {
            Some(ttl) => MemStore::with_lease(ttl),
            None => MemStore::new(),
        };
        let store = Arc::new(ChaosStore::new(inner, ChaosConfig::NONE, 0));
        // Outage starts; the ghost's partition was written before it.
        store.set_available(false);
        store.inner().publish_full(SiteId(9), ghost_partition.clone(), 1).unwrap();
        let site = Site::start(SiteId(0), Arc::clone(&store) as Arc<dyn Store>, fast_cfg());
        live_blocked(&site);
        // The outage outlives the lease; the ghost site "dies" during it
        // (no further publishes, no remove).
        std::thread::sleep(Duration::from_millis(250));
        store.set_available(true);
        // Give the survivor's checker ample rounds to (not) confirm.
        std::thread::sleep(Duration::from_millis(300));
        let found = site.found_deadlock();
        site.stop();
        found
    };

    assert!(
        run(None),
        "control: without a lease the ghost partition does confirm the false deadlock \
         (the bug this regression pins down)"
    );
    assert!(
        !run(Some(Duration::from_millis(100))),
        "with a lease shorter than the outage, the ghost expires and no false deadlock \
         is confirmed"
    );
}
