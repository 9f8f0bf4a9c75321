//! Networked-store integration: real `armus-stored` child processes and
//! in-process [`StoredServer`]s, with sites publishing through
//! [`TcpStore`] — the store genuinely crosses a process/socket boundary.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use armus_core::{
    BlockedInfo, DeadlockReport, Delta, PhaserId, Registration, Resource, Snapshot, TaskId,
    Verifier, VerifierConfig,
};
use armus_dist::server::{StoredConfig, StoredServer};
use armus_dist::{
    DeltaAck, Publisher, Shipped, Site, SiteConfig, SiteId, Store, StoreError, Subscription,
    TcpStore, TcpStoreConfig, TenantId,
};
use armus_testkit::dist::{ChaosConfig, ChaosStore, StoredProcess};

fn fast_cfg() -> SiteConfig {
    SiteConfig {
        publish_period: Duration::from_millis(10),
        check_period: Duration::from_millis(20),
        ..Default::default()
    }
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

/// The paper's running example split across two sites, with **colliding
/// local task ids** (both sites use 1..): workers on one site blocked on
/// the shared phaser 1, the driver on the other blocked on the shared
/// phaser 2 — a cross-site cycle only the merged view reveals.
fn plant_workers(site: &Site) {
    for i in 1..=3u64 {
        site.runtime()
            .verifier()
            .block(
                TaskId(i),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
            )
            .unwrap();
    }
}

fn plant_driver(site: &Site) {
    site.runtime()
        .verifier()
        .block(
            TaskId(1), // collides with a worker id on the other site
            vec![Resource::new(PhaserId(2), 1)],
            vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
        )
        .unwrap();
}

/// The `armus-stored` binary built alongside these tests.
fn stored_binary() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_armus-stored"))
}

#[test]
fn cross_process_deadlock_is_detected_over_the_wire() {
    // The store is a real child process; the two sites talk to it over
    // TCP through independent client connections.
    let stored = StoredProcess::spawn(stored_binary(), Some(Duration::from_secs(5)), None)
        .expect("spawn armus-stored");
    let site0 = Site::start(
        SiteId(0),
        Arc::new(TcpStore::new(stored.addr())) as Arc<dyn Store>,
        fast_cfg(),
    );
    let site1 = Site::start(
        SiteId(1),
        Arc::new(TcpStore::new(stored.addr())) as Arc<dyn Store>,
        fast_cfg(),
    );
    plant_workers(&site0);
    plant_driver(&site1);
    assert!(
        eventually(Duration::from_secs(10), || site0.found_deadlock() && site1.found_deadlock()),
        "both sites must independently detect the cross-process cycle"
    );
    // The reports carry site-namespaced ids: the colliding local task 1
    // appears once per site, never aliased.
    let report = site0.reports().into_iter().next().unwrap();
    assert!(report.tasks.contains(&TaskId(1).with_site(0)));
    assert!(report.tasks.contains(&TaskId(1).with_site(1)));
    assert_eq!(report.tasks.len(), 4, "3 workers + driver");
    site0.stop();
    site1.stop();
    stored.stop().expect("drain armus-stored");
}

#[test]
fn tcp_store_reconnects_with_bounded_backoff() {
    // No server yet: operations fail fast as Unavailable.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    server.shutdown(); // free the port, remember the address
    let store = TcpStore::with_config(
        addr.to_string(),
        TcpStoreConfig {
            backoff_initial: Duration::from_millis(20),
            backoff_max: Duration::from_millis(100),
            ..Default::default()
        },
    );
    assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
    // Inside the backoff window the client fails fast without dialing.
    let start = Instant::now();
    assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
    assert!(start.elapsed() < Duration::from_millis(15), "backoff window must fail fast");
    assert_eq!(store.reconnects(), 0);
    assert!(store.failures() >= 2);
    // The server comes back on the same port: after the backoff lapses
    // the client redials transparently.
    let server = StoredServer::bind(addr, StoredConfig::default()).unwrap();
    assert!(
        eventually(Duration::from_secs(5), || store.fetch_all().is_ok()),
        "client must reconnect once the server returns"
    );
    assert_eq!(store.reconnects(), 1);
    server.shutdown();
}

#[test]
fn server_restart_forces_a_full_resync_not_corruption() {
    // A site survives its server being replaced mid-run (empty store):
    // the partition reappears via the NACK → full-snapshot resync path.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    let store = Arc::new(TcpStore::new(addr.to_string()));
    let site = Site::start(SiteId(0), Arc::clone(&store) as Arc<dyn Store>, fast_cfg());
    plant_driver(&site);
    assert!(eventually(Duration::from_secs(5), || {
        store.fetch_all().map(|v| v.iter().any(|(_, p)| !p.is_empty())).unwrap_or(false)
    }));
    let resyncs_before = site.publish_resyncs();
    server.shutdown();
    let server = StoredServer::bind(addr, StoredConfig::default()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || {
            store.fetch_all().map(|v| v.iter().any(|(_, p)| !p.is_empty())).unwrap_or(false)
        }),
        "the partition must be republished to the fresh server"
    );
    // The publisher counts the resync once its `publish_full` returns,
    // which can be after this thread's fetch has already seen the
    // partition.
    assert!(
        eventually(Duration::from_secs(5), || site.publish_resyncs() > resyncs_before),
        "recovery must be a full resync"
    );
    site.stop();
    server.shutdown();
}

#[test]
fn leases_expire_crashed_sites_over_the_wire() {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { lease: Some(Duration::from_millis(120)), ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string());
    let partition = Snapshot::from_tasks(vec![BlockedInfo::new(
        TaskId(1),
        vec![Resource::new(PhaserId(1), 1)],
        vec![Registration::new(PhaserId(1), 1)],
    )]);
    store.publish_full(SiteId(0), partition, 1).unwrap();
    assert_eq!(store.fetch_all().unwrap().len(), 1);
    // "Crash": no further publishes. The lease lapses server-side.
    assert!(
        eventually(Duration::from_secs(2), || store.fetch_all().unwrap().is_empty()),
        "a silent site's partition must expire"
    );
    server.shutdown();
}

/// Runs the three-site deadlock scenario (workers / driver / empty
/// observer) against the given per-site stores and returns each site's
/// first report — the artifact the transport must not perturb.
fn scenario_reports(stores: Vec<Arc<dyn Store>>) -> Vec<DeadlockReport> {
    assert_eq!(stores.len(), 3);
    let sites: Vec<Site> = stores
        .into_iter()
        .enumerate()
        .map(|(i, store)| Site::start(SiteId(i as u32), store, fast_cfg()))
        .collect();
    plant_workers(&sites[0]);
    plant_driver(&sites[1]);
    // Site 2 plants nothing: the paper's "every site checks" — an idle
    // observer still detects the cycle from the merged view alone.
    assert!(
        eventually(Duration::from_secs(10), || sites.iter().all(|s| s.found_deadlock())),
        "all three sites must detect the cross-site cycle"
    );
    let reports = sites.iter().map(|s| s.reports()[0].clone()).collect();
    for site in sites {
        site.stop();
    }
    reports
}

#[test]
fn multiplexed_sites_match_dedicated_connections_and_memstore() {
    // One pooled TcpStore shared by all three sites: every publisher and
    // checker multiplexes over a single connection.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let shared = Arc::new(TcpStore::new(server.local_addr().to_string()));
    let muxed = scenario_reports(vec![
        Arc::clone(&shared) as Arc<dyn Store>,
        Arc::clone(&shared) as Arc<dyn Store>,
        Arc::clone(&shared) as Arc<dyn Store>,
    ]);
    assert_eq!(shared.reconnects(), 1, "three sites must share one pooled connection");
    assert_eq!(shared.failures(), 0, "a healthy multiplexed run never fails an op");
    server.shutdown();

    // Connection-per-site against a fresh server.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let dedicated = scenario_reports(
        (0..3)
            .map(|_| Arc::new(TcpStore::new(server.local_addr().to_string())) as Arc<dyn Store>)
            .collect(),
    );
    server.shutdown();

    // The in-process baseline: no wire at all.
    let mem = Arc::new(armus_dist::MemStore::new());
    let inproc = scenario_reports(vec![
        Arc::clone(&mem) as Arc<dyn Store>,
        Arc::clone(&mem) as Arc<dyn Store>,
        Arc::clone(&mem) as Arc<dyn Store>,
    ]);

    // The transport must be invisible in the analysis: every site's
    // report is byte-identical across all three deployment shapes.
    assert_eq!(muxed, dedicated, "multiplexing must not change any report");
    assert_eq!(muxed, inproc, "the wire must not change any report");
}

#[test]
fn concurrent_publishers_share_flushes_on_one_connection() {
    // The batching claim as a structural property, not a throughput
    // floor: threads publishing through one shared TcpStore coalesce
    // their frames into shared write(2)s, and the server answers them in
    // bursts. The barrier makes every round a simultaneous fan-in.
    const SITES: usize = 16;
    const ROUNDS: u64 = 100;
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let tcp = Arc::new(TcpStore::new(server.local_addr().to_string()));
    let barrier = std::sync::Barrier::new(SITES);
    std::thread::scope(|scope| {
        for i in 0..SITES {
            let (tcp, barrier) = (&tcp, &barrier);
            scope.spawn(move || {
                let site = SiteId(i as u32);
                tcp.publish_full(site, workers_snapshot(), 0).unwrap();
                let probe = BlockedInfo::new(
                    TaskId(100 + i as u64),
                    vec![Resource::new(PhaserId(9), 1)],
                    vec![Registration::new(PhaserId(9), 1)],
                );
                for round in 0..ROUNDS {
                    let deltas = [Delta::Block(probe.clone()), Delta::Unblock(probe.task)];
                    barrier.wait();
                    let ack = tcp.publish_deltas(site, 2 * round, &deltas, 2 * round + 2);
                    assert_eq!(ack, Ok(DeltaAck::Applied), "site {i}, round {round}");
                }
            });
        }
    });
    assert_eq!(tcp.failures(), 0);
    assert_eq!(tcp.reconnects(), 1, "every publisher shares the one pooled connection");
    assert_eq!(tcp.frames_sent(), SITES as u64 * (ROUNDS + 1));
    assert!(
        tcp.frames_sent() > tcp.flushes(),
        "{} frames in {} flushes: none rode another caller's write",
        tcp.frames_sent(),
        tcp.flushes()
    );
    let metrics = server.metrics();
    assert!(metrics.reply_queue_max > 1, "the server never answered two requests in one burst");
    assert_eq!(metrics.protocol_errors, 0);
    assert_eq!(metrics.delta_publishes, SITES as u64 * ROUNDS);
    server.shutdown();
}

#[test]
fn legacy_v1_frames_close_the_connection_and_are_not_served() {
    // A peer still speaking the retired serde-tree protocol: a well-formed
    // v1 `Shutdown`, written out by hand (version 1, string tag 6, varint
    // length 8, the variant name). The server must refuse it loudly —
    // close, count a protocol error — and must not act on it: served, it
    // would drain the server.
    use std::io::{Read, Write};
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let store = TcpStore::new(server.local_addr().to_string());
    store.publish_full(SiteId(0), driver_snapshot(), 1).unwrap();
    let served = server.served();
    let mut frame = 11u32.to_le_bytes().to_vec();
    frame.extend_from_slice(&[1, 6, 8]);
    frame.extend_from_slice(b"Shutdown");
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(&frame).unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(conn.read(&mut byte).unwrap(), 0, "closed without an answer");
    assert_eq!(server.protocol_errors(), 1);
    assert_eq!(server.served(), served, "the frame must not count as served");
    assert!(!server.shutdown_requested(), "the v1 Shutdown must not have been obeyed");
    assert_eq!(store.fetch_all().unwrap().len(), 1, "the store is untouched and still serving");
    server.shutdown();
}

#[test]
fn server_death_fails_every_batched_frame_to_unavailable() {
    // Concurrent callers are mid-flight — some batched, some awaiting
    // responses — when the server dies. Every one of them must resolve
    // to Unavailable promptly: no hang, no silent drop, no false ack
    // (an op that returned Ok before the shutdown genuinely landed).
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let store = Arc::new(TcpStore::with_config(
        server.local_addr().to_string(),
        TcpStoreConfig {
            io_timeout: Duration::from_millis(500),
            backoff_initial: Duration::from_millis(20),
            backoff_max: Duration::from_millis(100),
            ..Default::default()
        },
    ));
    store.fetch_all().expect("warm the connection");
    let deadline = Instant::now() + Duration::from_millis(600);
    let errors: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let snap = Snapshot::from_tasks(vec![BlockedInfo::new(
                        TaskId(1),
                        vec![Resource::new(PhaserId(1), 1)],
                        vec![Registration::new(PhaserId(1), 1)],
                    )]);
                    let mut errors = 0u64;
                    let mut version = 0u64;
                    while Instant::now() < deadline {
                        version += 1;
                        match store.publish_full(SiteId(i), snap.clone(), version) {
                            Ok(()) => {}
                            Err(StoreError::Unavailable) => errors += 1,
                        }
                    }
                    errors
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown(); // mid-burst: in-flight and batched frames die
        handles.into_iter().map(|h| h.join().expect("no caller may panic or hang")).sum()
    });
    assert!(errors > 0, "the killed connection must surface Unavailable to its callers");
    assert!(store.failures() > 0);
}

#[test]
fn chaos_over_tcp_survives_a_server_restart() {
    // The reconnect regression under message chaos: the server restarts
    // mid-run (all partitions lost, every in-flight batched frame failed),
    // and the publisher protocol must still converge the partition to the
    // site's exact truth through NACK → full resync — batched frames that
    // died fail loudly as Unavailable and are retried by the rounds.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut server = Some(server);
    let tcp = TcpStore::with_config(
        addr.to_string(),
        TcpStoreConfig {
            io_timeout: Duration::from_millis(500),
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(40),
            ..Default::default()
        },
    );
    let store = ChaosStore::new(tcp, ChaosConfig::default(), 11);
    let v = Verifier::new(VerifierConfig::publish_only().with_journal_capacity(8));
    let mut publisher = Publisher::new(SiteId(0), Duration::from_millis(5), Instant::now());
    let info = |task: u64| {
        BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )
    };
    for i in 0..120u64 {
        if i == 60 {
            // Replace the server: connection severed, store emptied.
            server.take().unwrap().shutdown();
            server = Some(StoredServer::bind(addr, StoredConfig::default()).unwrap());
        }
        let b = info(i % 16);
        v.block(b.task, b.waits, b.registered).unwrap();
        if i % 5 == 0 {
            v.unblock(TaskId(i % 16));
        }
        if i % 3 == 0 {
            publisher.publish(&store, &v);
        }
    }
    let _ = store.flush_delayed();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // An acknowledged empty interval: in sync, nothing left.
        let caught_up =
            matches!(publisher.publish(&store, &v), Shipped::Settled | Shipped::Heartbeat);
        if caught_up || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = store.flush_delayed();
    let all = store.fetch_all().unwrap();
    let partition = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
    assert_eq!(
        partition,
        &v.local_snapshot(),
        "a restart under chaos must cost availability, never correctness"
    );
    assert!(store.inner().failures() > 0, "the severed batch must have failed ops loudly");
    assert!(store.inner().reconnects() >= 2, "the client must have redialed the new server");
    server.take().unwrap().shutdown();
}

/// The workers half of the running example as a raw partition: tasks
/// 1..=3 blocked on phaser 1, a phase behind on phaser 2.
fn workers_snapshot() -> Snapshot {
    Snapshot::from_tasks(
        (1..=3u64)
            .map(|i| {
                BlockedInfo::new(
                    TaskId(i),
                    vec![Resource::new(PhaserId(1), 1)],
                    vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
                )
            })
            .collect(),
    )
}

/// The driver half: blocked on phaser 2, a phase behind on phaser 1 —
/// published from another site it closes the cross-site cycle.
fn driver_snapshot() -> Snapshot {
    Snapshot::from_tasks(vec![BlockedInfo::new(
        TaskId(1),
        vec![Resource::new(PhaserId(2), 1)],
        vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
    )])
}

#[test]
fn tenants_with_colliding_sites_are_isolated_over_tcp() {
    // Two tenants reuse SiteId(0) against one server; neither may ever
    // observe the other's partitions, and removes stay scoped.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let a = TcpStore::new(addr.clone()).for_tenant(TenantId(1));
    let b = TcpStore::new(addr).for_tenant(TenantId(2));
    a.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    b.publish_full(SiteId(0), driver_snapshot(), 1).unwrap();
    let view_a = a.fetch_all().unwrap();
    assert_eq!(view_a.len(), 1);
    assert_eq!(view_a[0].1.tasks.len(), 3, "tenant 1 must see only its own partition");
    let view_b = b.fetch_all().unwrap();
    assert_eq!(view_b.len(), 1);
    assert_eq!(view_b[0].1.tasks.len(), 1, "tenant 2 must see only its own partition");
    a.remove(SiteId(0)).unwrap();
    assert!(a.fetch_all().unwrap().is_empty());
    assert_eq!(b.fetch_all().unwrap().len(), 1, "tenant 1's remove must not touch tenant 2");
    server.shutdown();
}

#[test]
fn subscribers_get_streamed_reports_without_polling() {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: Duration::from_millis(20), ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let sub = store.subscribe().expect("subscribe");
    store.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    store.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    let report = sub.recv(Duration::from_secs(10)).expect("a pushed report");
    assert!(report.tasks.contains(&TaskId(1).with_site(0)));
    assert!(report.tasks.contains(&TaskId(1).with_site(1)));
    assert_eq!(report.tasks.len(), 4, "3 workers + driver");
    // The gate for the push channel: detection reached the client with
    // zero fetch_all polls (the server-side checker reads the store
    // in-process, below the request counters).
    let metrics = store.metrics().unwrap();
    assert_eq!(metrics.fetches, 0, "a subscriber must never need to poll");
    assert_eq!(metrics.subscribers, 1);
    assert!(metrics.reports_streamed >= 1);
    // The same deadlock is found every round; dedup pushes it once.
    assert!(
        sub.recv(Duration::from_millis(200)).is_none(),
        "an unchanged deadlock must not be streamed twice"
    );
    server.shutdown();
}

/// The planted cross-site cycle of [`workers_snapshot`] and
/// [`driver_snapshot`], as the merged view names it.
fn planted_tasks() -> Vec<TaskId> {
    let mut tasks: Vec<TaskId> = (1..=3).map(|i| TaskId(i).with_site(0)).collect();
    tasks.push(TaskId(1).with_site(1));
    tasks
}

/// Publishes the two halves of the planted cycle by hand, each followed
/// by the empty interval a site's publisher sends once its journal has
/// stood still.
fn plant_and_settle(store: &TcpStore) {
    store.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    store.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    for site in [SiteId(0), SiteId(1)] {
        assert_eq!(store.publish_deltas(site, 1, &[], 1), Ok(DeltaAck::Applied));
    }
}

#[test]
fn a_subscriber_only_connection_hears_a_report_when_it_is_found() {
    // The period is an hour: whatever reaches the subscriber within
    // seconds was woken by the events before it — the sites' markers woke
    // the checker, and the checker's push woke the connection's writer,
    // with no request from this peer and no read timeout in between (its
    // connection carries the subscription and nothing else).
    let hour = Duration::from_secs(3600);
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: hour, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let watcher = TcpStore::new(addr.clone()).for_tenant(TenantId(7));
    let sub = watcher.subscribe().expect("subscribe");
    plant_and_settle(&TcpStore::new(addr).for_tenant(TenantId(7)));
    let report = sub.recv(Duration::from_secs(2)).expect("no report within 2 s of the markers");
    assert_eq!(report.tasks, planted_tasks());
    server.shutdown();
}

#[test]
fn a_subscribed_idle_server_runs_no_rounds() {
    let period = Duration::from_millis(10);
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: period, ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    plant_and_settle(&store);
    assert_eq!(server.rounds(), 0, "nobody watches the tenant yet");
    // The subscription's own round reports the standing deadlock; once it
    // is here, that round has begun and nothing else is owed.
    let sub = store.subscribe().expect("subscribe");
    assert_eq!(
        sub.recv(Duration::from_secs(2)).expect("the standing deadlock").tasks,
        planted_tasks()
    );
    assert_eq!(server.rounds(), 1);
    assert!(sub.recv(50 * period).is_none(), "nothing changed, nothing is reported");
    assert_eq!(server.rounds(), 1, "a clean view is not checked again, however many periods pass");
    server.shutdown();
}

#[test]
fn sites_that_never_pause_are_checked_once_a_period() {
    let period = Duration::from_millis(20);
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: period, ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let sub = store.subscribe().expect("subscribe");
    for site in [SiteId(0), SiteId(1)] {
        store.publish_full(site, Snapshot::empty(), 0).unwrap();
    }
    // Two sites publishing non-empty intervals back to back, neither ever
    // saying that its journal stood still.
    let probe = |site: SiteId| {
        BlockedInfo::new(
            TaskId(100 + u64::from(site.0)),
            vec![Resource::new(PhaserId(9), 1)],
            vec![Registration::new(PhaserId(9), 1)],
        )
    };
    let begin = Instant::now();
    let mut version = 0u64;
    while begin.elapsed() < 40 * period {
        for site in [SiteId(0), SiteId(1)] {
            let deltas = [Delta::Block(probe(site)), Delta::Unblock(probe(site).task)];
            assert_eq!(
                store.publish_deltas(site, version, &deltas, version + 2),
                Ok(DeltaAck::Applied)
            );
        }
        version += 2;
    }
    let rounds = server.rounds();
    assert!(rounds <= 42, "{rounds} rounds in 40 periods: more often than once a period");
    assert!(rounds >= 2, "{rounds} rounds in 40 periods: the period clause never ran");
    assert!(sub.recv(Duration::ZERO).is_none(), "and there was no deadlock to report");
    server.shutdown();
}

#[test]
fn subscriptions_are_tenant_scoped() {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: Duration::from_millis(20), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let deadlocked = TcpStore::new(addr.clone()).for_tenant(TenantId(1));
    let bystander = TcpStore::new(addr).for_tenant(TenantId(2));
    let sub_own = deadlocked.subscribe().unwrap();
    let sub_other = bystander.subscribe().unwrap();
    deadlocked.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    deadlocked.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    assert!(sub_own.recv(Duration::from_secs(10)).is_some(), "own tenant streams the report");
    assert!(
        sub_other.recv(Duration::from_millis(300)).is_none(),
        "tenant 2 must never see tenant 1's deadlock"
    );
    server.shutdown();
}

#[test]
fn resubscribing_hears_about_a_standing_deadlock() {
    // A client that subscribes once the deadlock has already been pushed
    // — here the same client again, as after a reconnect — must still
    // hear about it, and the server must forget a tenant nobody watches.
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: Duration::from_millis(20), ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let sub = store.subscribe().expect("subscribe");
    store.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    store.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    let first = sub.recv(Duration::from_secs(10)).expect("a pushed report");
    drop(sub);
    let sub = store.subscribe().expect("subscribe again");
    let again = sub.recv(Duration::from_secs(10)).expect("the standing deadlock, pushed again");
    assert_eq!(again, first);
    // A second client joining later hears it too.
    let late = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let late_sub = late.subscribe().expect("subscribe from a second client");
    assert_eq!(late_sub.recv(Duration::from_secs(10)), Some(first));
    assert_eq!(store.metrics().unwrap().fetches, 0, "a subscriber must never need to poll");
    server.shutdown();
}

/// A server whose checker runs on the sites' markers alone, a subscriber
/// of tenant 7 that has heard the planted cycle: the server's checker
/// follows the tenant by now.
fn watched_standing_cycle() -> (StoredServer, TcpStore, Subscription) {
    let hour = Duration::from_secs(3600);
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: hour, ..Default::default() },
    )
    .unwrap();
    let store = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let sub = store.subscribe().expect("subscribe");
    plant_and_settle(&store);
    let heard = sub.recv(Duration::from_secs(2)).expect("the planted cycle");
    assert_eq!(heard.tasks, planted_tasks());
    (server, store, sub)
}

/// A snapshot of one task replaces site 1's live partition, followed by
/// the site's marker.
fn replace_site1_and_settle(store: &TcpStore, only: BlockedInfo) {
    store.publish_full(SiteId(1), Snapshot::from_tasks(vec![only]), 2).unwrap();
    assert_eq!(store.publish_deltas(SiteId(1), 2, &[], 2), Ok(DeltaAck::Applied));
}

#[test]
fn a_snapshot_replacing_a_live_partition_closes_a_cycle_the_subscriber_hears() {
    let (server, store, sub) = watched_standing_cycle();
    // The driver's place is taken by another task in the same wait: the
    // cycle the subscriber hears of next runs through it and no longer
    // through the task the snapshot dropped.
    let driver = driver_snapshot().tasks.remove(0);
    replace_site1_and_settle(&store, BlockedInfo { task: TaskId(2), ..driver });
    let report = sub.recv(Duration::from_secs(2)).expect("the cycle the snapshot closed");
    let mut through_the_new_task = planted_tasks();
    through_the_new_task[3] = TaskId(2).with_site(1);
    assert_eq!(report.tasks, through_the_new_task);
    assert_eq!(store.metrics().unwrap().fetches, 0, "nobody fetched: the writes were noted");
    server.shutdown();
}

#[test]
fn a_snapshot_that_drops_the_cycles_member_leaves_nothing_to_hear() {
    let (server, store, sub) = watched_standing_cycle();
    let bystander = BlockedInfo::new(
        TaskId(1),
        vec![Resource::new(PhaserId(9), 1)],
        vec![Registration::new(PhaserId(9), 1)],
    );
    replace_site1_and_settle(&store, bystander);
    // Whoever subscribes while a deadlock stands hears of it (see
    // `resubscribing_hears_about_a_standing_deadlock`): none stands.
    let late = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let late_sub = late.subscribe().expect("subscribe from a second client");
    assert_eq!(late_sub.recv(Duration::from_millis(500)), None);
    assert_eq!(sub.recv(Duration::ZERO), None);
    server.shutdown();
}

#[test]
fn a_second_subscriber_does_not_replay_the_standing_report_to_the_first() {
    let (server, store, first) = watched_standing_cycle();
    let before = server.rounds();
    let late = TcpStore::new(server.local_addr().to_string()).for_tenant(TenantId(7));
    let second = late.subscribe().expect("subscribe from a second client");
    assert!(
        eventually(Duration::from_secs(5), || server.rounds() > before),
        "the second subscription's round never began"
    );
    let heard = second.recv(Duration::from_secs(2)).expect("the standing cycle");
    assert_eq!(heard.tasks, planted_tasks());
    assert_eq!(first.recv(Duration::from_millis(300)), None, "the first subscriber heard it again");
    assert_eq!(store.metrics().unwrap().reports_streamed, 2, "one report frame a subscriber");
    server.shutdown();
}

#[test]
fn metrics_are_served_over_the_wire() {
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let store = TcpStore::new(server.local_addr().to_string());
    store.publish_full(SiteId(3), driver_snapshot(), 1).unwrap();
    let first = store.metrics().unwrap();
    assert_eq!(first.publishes, 1);
    assert_eq!(first.tenants.len(), 1);
    assert_eq!(first.tenants[0].partitions, 1);
    assert_eq!(first, server.metrics(), "the wire carries the server's own snapshot");
    let second = store.metrics().unwrap();
    assert_eq!(second.served, first.served + 1, "the first scrape was itself served");
    server.shutdown();
}

#[test]
fn cross_process_tenants_are_isolated_and_streamed() {
    // The full service deployment: a real armus-stored child process,
    // two tenants with colliding site ids, one subscriber.
    let stored = StoredProcess::spawn(stored_binary(), Some(Duration::from_secs(5)), None)
        .expect("spawn armus-stored");
    let a = TcpStore::new(stored.addr()).for_tenant(TenantId(1));
    let b = TcpStore::new(stored.addr()).for_tenant(TenantId(2));
    let sub = a.subscribe().expect("subscribe across the process boundary");
    a.publish_full(SiteId(0), workers_snapshot(), 1).unwrap();
    a.publish_full(SiteId(1), driver_snapshot(), 1).unwrap();
    b.publish_full(SiteId(0), driver_snapshot(), 1).unwrap();
    assert_eq!(a.fetch_all().unwrap().len(), 2);
    assert_eq!(b.fetch_all().unwrap().len(), 1, "colliding site ids must stay namespaced");
    let report =
        sub.recv(Duration::from_secs(10)).expect("report streamed across the process boundary");
    assert_eq!(report.tasks.len(), 4, "tenant 1's cycle only: 3 workers + driver");
    let metrics = a.metrics().unwrap();
    assert_eq!(metrics.tenants.len(), 2);
    assert!(metrics.reports_streamed >= 1);
    stored.stop().expect("drain armus-stored");
}

#[test]
fn chaos_over_tcp_costs_resyncs_never_corruption() {
    // The existing ChaosStore differential argument, with the real wire
    // protocol underneath: message chaos on top of TCP still converges
    // the partition to the publisher's exact truth.
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    for seed in 0..8u64 {
        let tcp = TcpStore::new(server.local_addr().to_string());
        let store = ChaosStore::new(tcp, ChaosConfig::default(), seed);
        let v = Verifier::new(VerifierConfig::publish_only().with_journal_capacity(8));
        let mut publisher = Publisher::new(SiteId(0), Duration::from_millis(5), Instant::now());
        let info = |task: u64| {
            BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1)],
            )
        };
        for i in 0..120u64 {
            let b = info(i % 16);
            v.block(b.task, b.waits, b.registered).unwrap();
            if i % 5 == 0 {
                v.unblock(TaskId(i % 16));
            }
            if i % 3 == 0 {
                publisher.publish(&store, &v);
            }
        }
        store.flush_delayed().unwrap();
        for _ in 0..100 {
            // An acknowledged empty interval: in sync, nothing left.
            if matches!(publisher.publish(&store, &v), Shipped::Settled | Shipped::Heartbeat) {
                break;
            }
        }
        store.flush_delayed().unwrap();
        let all = store.fetch_all().unwrap();
        let partition = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
        assert_eq!(
            partition,
            &v.local_snapshot(),
            "seed {seed}: chaos over TCP must never corrupt the partition"
        );
        store.remove(SiteId(0)).unwrap();
    }
    server.shutdown();
}

/// `n` tasks on `site`, each blocked on a phaser of its own: a standing
/// population with no edge between any two of them.
fn plant_parked(site: &Site, n: u64) {
    for task in 100..100 + n {
        let gate = PhaserId(1_000 + task);
        site.runtime()
            .verifier()
            .block(TaskId(task), vec![Resource::new(gate, 1)], vec![Registration::new(gate, 1)])
            .unwrap();
    }
}

#[test]
fn site_checkers_read_the_whole_view_only_when_they_join() {
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let sites: Vec<Site> = (0..2)
        .map(|i| {
            let store = Arc::new(TcpStore::new(server.local_addr().to_string()));
            Site::start(SiteId(i), store as Arc<dyn Store>, fast_cfg())
        })
        .collect();
    for site in &sites {
        plant_parked(site, 200);
    }
    assert!(
        eventually(Duration::from_secs(20), || {
            sites.iter().all(|site| site.checker_stats().rounds >= 25)
        }),
        "every site checks once a period"
    );
    let joins = || sites.iter().map(|site| site.checker_stats().order_rebuilds).sum::<u64>();
    let (before, fetches, after) = (joins(), server.metrics().fetches, joins());
    assert_eq!((before, after), (2, 2), "one join a site, every later round fed");
    assert_eq!(fetches, before, "whole views served: the sites' joins, and nothing else");
    assert!(sites.iter().all(|site| !site.found_deadlock()));
    for site in sites {
        site.stop();
    }
    server.shutdown();
}

#[test]
fn a_site_rejoins_a_restarted_server_and_reports_like_check_store() {
    let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
    let addr = server.local_addr();
    let store = Arc::new(TcpStore::with_config(
        addr.to_string(),
        TcpStoreConfig {
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(20),
            ..Default::default()
        },
    ));
    let site = Site::start(SiteId(0), Arc::clone(&store) as Arc<dyn Store>, fast_cfg());
    plant_parked(&site, 50);
    assert!(eventually(Duration::from_secs(5), || site.checker_stats().rounds >= 3));
    assert_eq!(site.checker_stats().order_rebuilds, 1);
    server.shutdown();
    let server = StoredServer::bind(addr, StoredConfig::default()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || site.checker_stats().order_rebuilds == 2),
        "the old server's cursor means nothing to the new one: the checker rejoins"
    );
    // A crossed wait of two, planted once the checker follows the new log.
    let verifier = site.runtime().verifier();
    for (task, own, next) in [(1, 1, 2), (2, 2, 1)] {
        let (own, next) = (PhaserId(own), PhaserId(next));
        let registered = vec![Registration::new(own, 1), Registration::new(next, 0)];
        verifier.block(TaskId(task), vec![Resource::new(own, 1)], registered).unwrap();
    }
    assert!(eventually(Duration::from_secs(10), || site.found_deadlock()));
    let (model, threshold) = (armus_core::ModelChoice::Auto, armus_core::DEFAULT_SG_THRESHOLD);
    let reference = armus_dist::check_store(store.as_ref(), model, threshold).unwrap();
    assert_eq!(site.reports(), vec![reference.report.expect("the planted cycle")]);
    assert_eq!(site.checker_stats().order_rebuilds, 2, "one rejoin, no more");
    site.stop();
    server.shutdown();
}
