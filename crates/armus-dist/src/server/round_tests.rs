//! The server's round ([`super::round`]) and the store's change log
//! without sockets: against the stateless reference ([`check_store`]) over
//! random write streams — and what the round's subscribers hear of it
//! through the hub — beside a second reader of the log, by the counts
//! that pin a round's cost to what was written, at the points where a hit
//! goes stale between its analysis and its confirmation, and at the
//! cursors the log does not honour.

use super::tests::heard;
use super::{round, SubHub};
use crate::detector::{check_store, merge, IncrementalDistChecker};
use crate::store::{DeltaAck, Feed, MemStore, SiteId, StoreError, TenantId, LOG_CAPACITY};
use armus_core::{
    BlockedInfo, DeadlockReport, Delta, ModelChoice, PhaserId, Registration, ReportDedup, Resource,
    Signal, Snapshot, TaskId, DEFAULT_SG_THRESHOLD,
};
use armus_workloads::util::XorShift;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The tenant the checkers read: the one [`MemStore`]'s plain `Store` impl
/// — and so [`check_store`] — reads.
const T: TenantId = TenantId::DEFAULT;
/// A tenant nobody reads, written with the same site and task ids.
const OTHER: TenantId = TenantId(9);
/// Longer than a test, shorter than any uptime (`MemStore::lapse_in`).
const LEASE: Duration = Duration::from_secs(5);

/// `task` arrived on and awaiting `own`, a phase behind on `next`: it
/// impedes whoever awaits `next`, so two of these with the phasers swapped
/// are a cycle.
fn crossed(task: u64, own: u64, next: u64, epoch: u64) -> BlockedInfo {
    let (own, next) = (PhaserId(own), PhaserId(next));
    BlockedInfo {
        epoch,
        ..BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(own, 1)],
            vec![Registration::new(own, 1), Registration::new(next, 0)],
        )
    }
}

/// `task` awaiting a phaser of its own: an edge to nobody.
fn parked(task: u64) -> BlockedInfo {
    let gate = PhaserId(1_000_000 + task);
    BlockedInfo::new(TaskId(task), vec![Resource::new(gate, 1)], vec![Registration::new(gate, 1)])
}

fn reference(store: &MemStore) -> Option<DeadlockReport> {
    check_store(store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).expect("a MemStore").report
}

/// The engine holds what a fetch of the tenant would merge to.
fn assert_in_step(
    store: &MemStore,
    checker: &IncrementalDistChecker,
    present: &[SiteId],
    at: &str,
) {
    let view = store.fetch_all_in(T).expect("a MemStore");
    assert_eq!(present, view.iter().map(|(site, _)| *site).collect::<Vec<_>>(), "{at}");
    assert_eq!(checker.materialize(), merge(&view), "{at}");
}

/// The writer of a connection subscribed to [`T`] through `hub`, on
/// correlation id 1.
fn subscribe(hub: &SubHub) -> Arc<Signal> {
    let writer: Arc<Signal> = Arc::default();
    hub.subscribe(T, 1, &writer);
    writer
}

const SITES: usize = 3;
const TASKS: u64 = 4;
const PHASERS: usize = 5;

fn random_status(rng: &mut XorShift) -> BlockedInfo {
    let own = rng.next_below(PHASERS);
    let next = (own + 1 + rng.next_below(PHASERS - 1)) % PHASERS;
    let epoch = 1 + rng.next_below(3) as u64;
    crossed(1 + rng.next_below(TASKS as usize) as u64, own as u64, next as u64, epoch)
}

/// One write of the stream, applied to the store and to `versions` (what
/// the publishers know their partitions to be at).
fn random_write(
    rng: &mut XorShift,
    store: &MemStore,
    versions: &mut BTreeMap<(TenantId, SiteId), u64>,
) -> String {
    let tenant = if rng.next_below(4) == 0 { OTHER } else { T };
    let site = SiteId(rng.next_below(SITES) as u32);
    let key = (tenant, site);
    match rng.next_below(12) {
        0..=2 => {
            let mut tasks: Vec<BlockedInfo> = Vec::new();
            for task in 1..=TASKS {
                if rng.next_below(2) == 0 {
                    tasks.push(BlockedInfo { task: TaskId(task), ..random_status(rng) });
                }
            }
            let version = 1 + rng.next_below(100) as u64;
            store.publish_full_in(tenant, site, Snapshot::from_tasks(tasks), version).unwrap();
            versions.insert(key, version);
            format!("{tenant}/{site}: snapshot at {version}")
        }
        3..=8 => {
            // Up to four deltas, tasks repeating: re-blocks of one task and
            // a block and its unblock inside one interval both occur; none
            // at all is the heartbeat.
            let deltas: Vec<Delta> = (0..rng.next_below(5))
                .map(|_| match random_status(rng) {
                    status if rng.next_below(3) == 0 => Delta::Unblock(status.task),
                    status => Delta::Block(status),
                })
                .collect();
            let base = versions.get(&key).copied();
            let next = base.unwrap_or(0) + deltas.len() as u64;
            let ack =
                store.publish_deltas_in(tenant, site, base.unwrap_or(0), &deltas, next).unwrap();
            match base {
                Some(_) => {
                    assert_eq!(ack, DeltaAck::Applied);
                    versions.insert(key, next);
                }
                None => assert_eq!(ack, DeltaAck::NeedSnapshot, "no partition to apply to"),
            }
            format!("{tenant}/{site}: {deltas:?} -> {ack:?}")
        }
        9 => {
            let base = versions.get(&key).map_or(7, |version| version + 1);
            let ack =
                store.publish_deltas_in(tenant, site, base, &[Delta::Unblock(TaskId(1))], base + 1);
            assert_eq!(ack, Ok(DeltaAck::NeedSnapshot), "a base the store is not at");
            format!("{tenant}/{site}: base mismatch")
        }
        10 => {
            store.remove_in(tenant, site).unwrap();
            versions.remove(&key);
            format!("{tenant}/{site}: removed")
        }
        _ => {
            store.lapse_in(tenant, site);
            versions.remove(&key);
            format!("{tenant}/{site}: lease lapsed")
        }
    }
}

#[test]
fn the_round_matches_check_store_after_every_write() {
    let (mut hits, mut clean, mut rounds, mut joins) = (0u32, 0u32, 0u64, 0u64);
    for seed in 1..=40u64 {
        let mut rng = XorShift::new(seed);
        let store = MemStore::with_lease(LEASE);
        let mut versions = BTreeMap::new();
        let mut checker = IncrementalDistChecker::new();
        // A subscriber from the first round on, and what it has been told.
        let mut hub = SubHub::default();
        let mut watcher = subscribe(&hub);
        let mut told = ReportDedup::new();
        for step in 0..300 {
            let wrote = match rng.next_below(45) {
                // The tenant lost its last subscriber and found a new one.
                0 => {
                    joins += checker.stats().order_rebuilds;
                    rounds += checker.stats().rounds;
                    checker = IncrementalDistChecker::new();
                    hub = SubHub::default();
                    watcher = subscribe(&hub);
                    told = ReportDedup::new();
                    "a new checker".to_string()
                }
                // The checker doubts the continuity.
                2 => {
                    checker.resync();
                    "the checker resynced".to_string()
                }
                _ => random_write(&mut rng, &store, &mut versions),
            };
            let at = format!("seed {seed}, step {step} ({wrote})");
            // Now and then a second subscriber joins before the round.
            let joiner = (rng.next_below(8) == 0).then(|| subscribe(&hub));
            let (standing, present) = round(&store, T, &mut checker);
            assert_eq!(standing, reference(&store), "{at}");
            match &standing {
                Some(_) => hits += 1,
                None => clean += 1,
            }
            hub.publish(T, standing.clone());
            // The subscriber hears what is new to it, whoever joins; the
            // joiner hears what stands.
            let fresh = standing.clone().filter(|report| told.is_new(report));
            assert_eq!(heard(&hub, &watcher), Vec::from_iter(fresh), "{at}: the subscriber");
            if let Some(joiner) = joiner {
                assert_eq!(heard(&hub, &joiner), Vec::from_iter(standing), "{at}: the joiner");
            }
            assert_in_step(&store, &checker, &present, &at);
        }
        joins += checker.stats().order_rebuilds;
        rounds += checker.stats().rounds;
    }
    assert!(hits > 1_000 && clean > 1_000, "{hits} rounds with a cycle, {clean} without");
    assert!(
        joins * 10 < rounds,
        "{joins} of {rounds} rounds fetched: the feed must carry the rest"
    );
}

/// 2 048 statuses stand in the store, 1 024 a site.
fn standing_population(store: &MemStore) {
    for site in [SiteId(0), SiteId(1)] {
        let tasks = (1..=1024).map(parked).collect();
        store.publish_full_in(T, site, Snapshot::from_tasks(tasks), 1).unwrap();
    }
}

#[test]
fn a_round_costs_what_was_written_not_what_is_stored() {
    let store = MemStore::new();
    standing_population(&store);
    let mut checker = IncrementalDistChecker::new();
    let applied = |checker: &IncrementalDistChecker| checker.stats().deltas_applied;
    let hub = SubHub::default();
    let watcher = subscribe(&hub);

    let (standing, present) = round(&store, T, &mut checker);
    assert_eq!(standing, None);
    assert_eq!(checker.stats().order_rebuilds, 1, "the join fetches");
    assert_in_step(&store, &checker, &present, "join");
    // A clean round takes nothing.
    assert_eq!(round(&store, T, &mut checker).0, None);
    assert_eq!(applied(&checker), 0);

    // A crossed wait of three, over both sites.
    let (a, b, c) = (crossed(2001, 1, 2, 1), crossed(2001, 2, 3, 1), crossed(2002, 3, 1, 1));
    let on_site0 = [Delta::Block(a), Delta::Block(c)];
    assert_eq!(store.publish_deltas_in(T, SiteId(0), 1, &on_site0, 3), Ok(DeltaAck::Applied));
    assert_eq!(
        store.publish_deltas_in(T, SiteId(1), 1, &[Delta::Block(b)], 2),
        Ok(DeltaAck::Applied)
    );
    let (standing, present) = round(&store, T, &mut checker);
    let report = standing.expect("the crossed wait");
    let planted = [TaskId(2001).with_site(0), TaskId(2002).with_site(0), TaskId(2001).with_site(1)];
    assert_eq!(report.tasks, planted);
    assert_eq!(Some(&report), reference(&store).as_ref());
    assert_eq!(applied(&checker), 3, "three tasks blocked beside 2 048");
    assert_eq!(checker.stats().confirm_fetches, 1);
    assert_in_step(&store, &checker, &present, "hit");
    hub.publish(T, Some(report.clone()));
    assert_eq!(heard(&hub, &watcher), std::slice::from_ref(&report));
    // Heartbeats log nothing, and the standing cycle is told once.
    assert_eq!(store.publish_deltas_in(T, SiteId(0), 3, &[], 3), Ok(DeltaAck::Applied));
    let (standing, _) = round(&store, T, &mut checker);
    assert_eq!(standing.as_ref(), Some(&report), "every round names what stands");
    hub.publish(T, standing);
    assert_eq!(heard(&hub, &watcher), []);
    assert_eq!(applied(&checker), 3);

    // A snapshot equal to the partition it replaces: every id of it is
    // logged — leaving and arriving — and applied once, and nothing changes.
    let before = checker.materialize();
    let (_, same) = store.fetch_all_in(T).unwrap().swap_remove(1);
    let stored = same.len();
    store.publish_full_in(T, SiteId(1), same, 2).unwrap();
    let joiner = subscribe(&hub);
    let (again, _) = round(&store, T, &mut checker);
    hub.publish(T, again);
    assert_eq!(heard(&hub, &joiner), [report], "told again only to the subscriber that joined");
    assert_eq!(heard(&hub, &watcher), []);
    assert_eq!(applied(&checker), 3 + stored as u64);
    assert_eq!(checker.materialize(), before);
    assert_eq!(checker.stats().order_rebuilds, 1, "one fetch in all");
}

#[test]
fn every_tenants_log_is_bounded_whoever_reads_it() {
    let store = MemStore::new();
    store.publish_full_in(T, SiteId(0), Snapshot::empty(), 0).unwrap();
    store.publish_full_in(OTHER, SiteId(0), Snapshot::empty(), 0).unwrap();
    let mut checker = IncrementalDistChecker::new();
    round(&store, T, &mut checker);
    // Nobody reads the other tenant: its writes are logged all the same,
    // two entries an interval, and the oldest dropped past the capacity.
    for version in 0..LOG_CAPACITY as u64 {
        let interval = [Delta::Block(parked(version)), Delta::Unblock(TaskId(version))];
        let ack = store.publish_deltas_in(OTHER, SiteId(0), version, &interval, version + 1);
        assert_eq!(ack, Ok(DeltaAck::Applied));
    }
    assert_eq!(store.log_len_in(OTHER), LOG_CAPACITY);
    assert_eq!(store.log_len_in(T), 0);
    // The reader of the first tenant is fed nothing and joins no more.
    assert_eq!(round(&store, T, &mut checker).0, None);
    let stats = checker.stats();
    assert_eq!((stats.order_rebuilds, stats.deltas_applied), (1, 0));
}

#[test]
fn a_tenant_nobody_wrote_reads_as_an_empty_log() {
    let store = MemStore::new();
    let (cursor, feed) = store.changes_since_in(OTHER, None).unwrap();
    assert_eq!(feed, Feed::Join(Vec::new()));
    assert_eq!(
        store.changes_since_in(OTHER, Some(cursor)).unwrap(),
        (cursor, Feed::Deltas(vec![]))
    );
    // The first write's log continues from the cursor the empty one gave.
    store.publish_full_in(OTHER, SiteId(0), Snapshot::from_tasks(vec![parked(1)]), 1).unwrap();
    let (next, feed) = store.changes_since_in(OTHER, Some(cursor)).unwrap();
    let stored = BlockedInfo { task: TaskId(1).with_site(0), ..parked(1) };
    assert_eq!((next.wrapping_sub(cursor), feed), (1, Feed::Deltas(vec![Delta::Block(stored)])));
}

#[test]
fn two_readers_at_different_cursors_both_match_check_store() {
    let (mut reads, mut writes) = (0u32, 0u32);
    for seed in 1..=20u64 {
        let mut rng = XorShift::new(seed);
        let store = MemStore::with_lease(LEASE);
        let mut versions = BTreeMap::new();
        let mut checker = IncrementalDistChecker::new();
        // The second reader follows the log through `Store::changes_since`.
        let mut second = IncrementalDistChecker::new();
        for step in 0..300 {
            let wrote = random_write(&mut rng, &store, &mut versions);
            let at = format!("seed {seed}, step {step} ({wrote})");
            let standing = reference(&store);
            // Every round names what stands, new or not.
            let (found, present) = round(&store, T, &mut checker);
            assert_eq!(found, standing, "{at}: the server's round");
            assert_in_step(&store, &checker, &present, &at);
            // The second reader reads after a random third of the writes:
            // its cursor lags, and a read takes several writes at once.
            writes += 1;
            if rng.next_below(3) == 0 {
                reads += 1;
                let check = second.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
                assert_eq!(check.unwrap().report, standing, "{at}: the second reader");
                assert_eq!(second.materialize(), checker.materialize(), "{at}");
            }
        }
        let joins = (checker.stats().order_rebuilds, second.stats().order_rebuilds);
        assert_eq!(joins, (1, 1), "seed {seed}: one join each, every later read fed");
    }
    assert!(reads * 4 > writes && reads * 2 < writes, "{reads} reads of {writes} writes");
}

#[test]
fn a_read_repeated_at_its_cursor_answers_the_same() {
    for seed in 1..=10u64 {
        let mut rng = XorShift::new(seed);
        let store = MemStore::with_lease(LEASE);
        let mut versions = BTreeMap::new();
        let mut cursor = None;
        let mut checker = IncrementalDistChecker::new();
        for step in 0..200 {
            let wrote = random_write(&mut rng, &store, &mut versions);
            let at = format!("seed {seed}, step {step} ({wrote})");
            let answer = store.changes_since_in(T, cursor).unwrap();
            assert_eq!(store.changes_since_in(T, cursor).unwrap(), answer, "{at}");
            // Half the answers are lost on their way: the cursor stays.
            if rng.next_below(2) == 0 {
                cursor = Some(answer.0);
            }
            // A checker whose first read of the round is answered and then
            // lost reads it again, and is in step with the store.
            let mut lose = rng.next_below(2) == 0;
            let check = loop {
                let read = |cursor| match std::mem::take(&mut lose) {
                    true => store.changes_since_in(T, cursor).and(Err(StoreError::Unavailable)),
                    false => store.changes_since_in(T, cursor),
                };
                if let Ok(check) = checker.follow(read, ModelChoice::Auto, DEFAULT_SG_THRESHOLD) {
                    break check;
                }
            };
            assert_eq!(check.report, reference(&store), "{at}");
            assert_eq!(checker.materialize(), merge(&store.fetch_all_in(T).unwrap()), "{at}");
        }
        assert_eq!(checker.stats().order_rebuilds, 1, "seed {seed}: a lost answer costs no join");
    }
}

#[test]
fn a_cursor_the_log_dropped_or_another_store_issued_joins() {
    let store = MemStore::new();
    let half = |own, next| Snapshot::from_tasks(vec![crossed(1, own, next, 1), parked(2)]);
    store.publish_full_in(T, SiteId(0), half(1, 2), 1).unwrap();
    store.publish_full_in(T, SiteId(1), half(2, 1), 1).unwrap();
    let standing = reference(&store);
    assert!(standing.is_some());
    let mut version = 1;
    // `n` more entries in the log: a standing task of site 0 re-published.
    let mut churn = |n: usize| {
        for _ in 0..n {
            let interval = [Delta::Block(parked(2))];
            let ack = store.publish_deltas_in(T, SiteId(0), version, &interval, version + 1);
            assert_eq!(ack, Ok(DeltaAck::Applied));
            version += 1;
        }
    };
    let round = |checker: &mut IncrementalDistChecker, store: &MemStore| {
        checker.check_round(store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report
    };
    let mut checker = IncrementalDistChecker::new();
    assert_eq!(round(&mut checker, &store), standing);

    // A cursor exactly a log's length behind is still fed; one entry more
    // and the log has dropped it.
    let (cursor, _) = store.changes_since_in(T, None).unwrap();
    churn(LOG_CAPACITY);
    let deltas = |feed| matches!(feed, Feed::Deltas(deltas) if deltas.len() == 1);
    assert!(deltas(store.changes_since_in(T, Some(cursor)).unwrap().1));
    churn(1);
    assert!(matches!(store.changes_since_in(T, Some(cursor)).unwrap().1, Feed::Join(_)));
    assert_eq!(round(&mut checker, &store), standing, "the checker's cursor was dropped too");
    let stats = checker.stats();
    assert_eq!((stats.order_rebuilds, stats.deltas_applied), (2, 0), "it joined: {stats:?}");

    // A cursor another store issued, holding the same partitions.
    let other = MemStore::new();
    for (site, partition) in store.fetch_all_in(T).unwrap() {
        other.publish_full_in(T, site, partition, 1).unwrap();
    }
    let mut foreign = IncrementalDistChecker::new();
    assert_eq!(round(&mut foreign, &other), standing);
    let (cursor, _) = other.changes_since_in(T, None).unwrap();
    assert!(matches!(store.changes_since_in(T, Some(cursor)).unwrap().1, Feed::Join(_)));
    assert_eq!(round(&mut foreign, &store), standing);
    assert_eq!(foreign.stats().order_rebuilds, 2, "the other store's cursor joins");
}

/// What happens in the store between a hit's analysis and its
/// confirmation, and whether the hit still stands after it.
type Between = (&'static str, fn(&MemStore), bool);

const BETWEEN: [Between; 7] = [
    ("nothing", |_| {}, true),
    (
        "another task blocks",
        |store| {
            store.publish_deltas_in(T, SiteId(1), 1, &[Delta::Block(parked(7))], 2).unwrap();
        },
        true,
    ),
    (
        "a member unblocks",
        |store| {
            store.publish_deltas_in(T, SiteId(1), 1, &[Delta::Unblock(TaskId(1))], 2).unwrap();
        },
        false,
    ),
    (
        "a member blocks anew",
        |store| {
            let anew = Delta::Block(crossed(1, 2, 1, 2));
            store.publish_deltas_in(T, SiteId(1), 1, &[anew], 2).unwrap();
        },
        false,
    ),
    (
        "a snapshot without a member replaces its partition",
        |store| {
            store.publish_full_in(T, SiteId(1), Snapshot::from_tasks(vec![parked(7)]), 2).unwrap()
        },
        false,
    ),
    ("a member's site leaves", |store| store.remove_in(T, SiteId(1)).unwrap(), false),
    ("a member's lease lapses", |store| store.lapse_in(T, SiteId(1)), false),
];

#[test]
fn a_hit_is_reported_only_if_it_stands_at_its_confirmation() {
    for (what, between, stands) in BETWEEN {
        let store = MemStore::with_lease(LEASE);
        // Colliding local ids: task 1 of site 0 and task 1 of site 1.
        let half = |own, next| Snapshot::from_tasks(vec![crossed(1, own, next, 1)]);
        store.publish_full_in(T, SiteId(0), half(1, 2), 1).unwrap();
        store.publish_full_in(T, SiteId(1), half(2, 1), 1).unwrap();
        let mut checker = IncrementalDistChecker::new();
        let mut reads = 0;
        let read = |cursor| {
            reads += 1;
            // The second read is the confirmation.
            if reads == 2 {
                between(&store);
            }
            store.changes_since_in(T, cursor)
        };
        let check = checker.follow(read, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert_eq!(check.report.is_some(), stands, "{what}");
        assert_eq!(checker.stats().confirm_fetches, 1, "{what}");
        // The next round is fed what happened and agrees with the store.
        let (standing, present) = round(&store, T, &mut checker);
        assert_eq!(standing, reference(&store), "{what}");
        assert_in_step(&store, &checker, &present, what);
    }
}
