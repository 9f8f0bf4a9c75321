//! Deterministic coverage of the journal edge cases that used to be hit
//! only probabilistically: `Behind` detection and the versioned
//! full-snapshot resync after journal overflow, driven through the
//! injectable journal capacity ([`RegistryConfig`],
//! `VerifierConfig::with_journal_capacity`). `RegistryConfig::shards` is
//! ignored (the registry is one map under one lock); the tests that still
//! set it show that no value of it changes the journal.

use std::time::Duration;

use armus_core::engine::IncrementalEngine;
use armus_core::{
    BlockedInfo, GraphModel, JournalRead, PhaserId, Registration, Registry, RegistryConfig,
    Resource, TaskId, Verifier, VerifierConfig,
};

fn t(n: u64) -> TaskId {
    TaskId(n)
}
fn p(n: u64) -> PhaserId {
    PhaserId(n)
}
fn r(ph: u64, n: u64) -> Resource {
    Resource::new(p(ph), n)
}

fn info(task: u64, ph: u64) -> BlockedInfo {
    BlockedInfo::new(t(task), vec![r(ph, 1)], vec![Registration::new(p(ph), 1)])
}

/// A journal fed by several tasks turns into an explicit `Behind` the
/// moment the window slides past a cursor, even when the overflowing
/// append comes from a task other than those of the cursor's unread
/// entries.
#[test]
fn stripe_merge_reports_behind_across_shards() {
    let reg = Registry::with_config(RegistryConfig {
        journal_capacity: 4,
        shards: 8,
        track_waited: false,
    });
    // Tasks 1..=4: one entry from each.
    for task in 1..=4 {
        reg.block(info(task, task));
    }
    let JournalRead::Deltas(deltas, cursor) = reg.deltas_since(0) else {
        panic!("window exactly full: still readable");
    };
    assert_eq!(deltas.len(), 4);
    assert_eq!(cursor, 4);
    // A fifth append (from yet another task) slides the window past 0.
    reg.block(info(5, 5));
    assert_eq!(reg.deltas_since(0), JournalRead::Behind, "cursor 0 left the window");
    // The caught-up cursor still reads deltas.
    assert!(matches!(reg.deltas_since(cursor), JournalRead::Deltas(d, 5) if d.len() == 1));
}

/// The ignored shard count changes nothing: the journal window is about
/// sequence numbers, and the registry is one map whatever the count.
#[test]
fn single_shard_journal_window_matches_multi_shard() {
    for shards in [1usize, 32] {
        let reg = Registry::with_config(RegistryConfig {
            journal_capacity: 3,
            shards,
            track_waited: false,
        });
        for task in 1..=3 {
            reg.block(info(task, 1));
        }
        assert!(matches!(reg.deltas_since(0), JournalRead::Deltas(d, 3) if d.len() == 3));
        reg.block(info(4, 1));
        assert_eq!(reg.deltas_since(0), JournalRead::Behind, "{shards} shards");
        let (snap, cursor) = reg.snapshot_with_cursor();
        assert_eq!(snap.len(), 4, "{shards} shards");
        assert_eq!(cursor, 4, "{shards} shards");
    }
}

/// An engine following a tiny journal recovers from overflow through the
/// full-snapshot resync and keeps producing byte-identical state.
#[test]
fn engine_resyncs_after_overflow_and_stays_exact() {
    let reg = Registry::with_config(RegistryConfig {
        journal_capacity: 2,
        shards: 1,
        track_waited: false,
    });
    let mut engine = IncrementalEngine::new();
    reg.block(info(1, 1));
    let out = engine.sync(&reg);
    assert_eq!((out.deltas_applied, out.resynced), (1, false));
    // Five more appends overflow the 2-entry window.
    for task in 2..=6 {
        reg.block(info(task, task % 3));
    }
    let out = engine.sync(&reg);
    assert!(out.resynced, "overflow must force the snapshot path");
    assert_eq!(engine.materialize(), reg.snapshot(), "resynced view is exact");
    // Back on the delta path afterwards.
    reg.unblock(t(3));
    let out = engine.sync(&reg);
    assert_eq!((out.deltas_applied, out.resynced), (1, false));
    assert_eq!(engine.materialize(), reg.snapshot());
}

/// Verifier-level determinism: a detection verifier with an injected
/// 2-entry journal must take exactly one resync on its first sample after
/// a burst, then return to the delta path — and still confirm the planted
/// deadlock.
#[test]
fn detection_verifier_resyncs_deterministically() {
    let v = Verifier::new(
        VerifierConfig::detection_every(Duration::from_secs(3600)).with_journal_capacity(2),
    );
    // Benign burst: five independent blockers overflow the journal.
    for task in 1..=5 {
        v.block(t(task), vec![r(10 + task, 1)], vec![Registration::new(p(10 + task), 1)]).unwrap();
    }
    assert!(v.check_now().is_none());
    let stats = v.stats();
    assert_eq!(stats.resyncs, 1, "first sample after the burst resyncs: {stats:?}");
    assert_eq!(stats.deltas_applied, 0);
    // Small follow-up: within the window, consumed as deltas.
    v.unblock(t(1));
    assert!(v.check_now().is_none());
    let stats = v.stats();
    assert_eq!(stats.resyncs, 1, "no further resync: {stats:?}");
    assert_eq!(stats.deltas_applied, 1);
    // Plant the paper's crossed-wait cycle; the next sample overflows
    // again (two blocks > capacity 2 is fine — exactly at the window) and
    // must still find and confirm the cycle.
    v.block(t(21), vec![r(1, 1)], vec![Registration::new(p(1), 1), Registration::new(p(2), 0)])
        .unwrap();
    v.block(t(22), vec![r(2, 1)], vec![Registration::new(p(2), 1), Registration::new(p(1), 0)])
        .unwrap();
    let report = v.check_now().expect("cycle found across the resync boundary");
    assert_eq!(report.tasks, vec![t(21), t(22)]);
    v.shutdown();
}

/// After a forced `Behind` → snapshot resync, the maintained
/// Pearce–Kelly orders are rebuilt from the snapshot and a **pre-existing
/// cycle survives the rebuild**: `check_full` re-reports it
/// byte-identically to the canonical from-scratch checker, and the order
/// invariants hold on both sides of the boundary.
#[test]
fn resync_rebuilds_the_order_and_rereports_byte_identically() {
    use armus_core::{checker, ModelChoice};
    let reg = Registry::with_config(RegistryConfig {
        journal_capacity: 2,
        shards: 1,
        track_waited: false,
    });
    let mut engine = IncrementalEngine::new();
    // Plant the crossed-wait cycle and let the engine follow it as deltas.
    reg.block(BlockedInfo::new(
        t(21),
        vec![r(1, 1)],
        vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
    ));
    reg.block(BlockedInfo::new(
        t(22),
        vec![r(2, 1)],
        vec![Registration::new(p(2), 1), Registration::new(p(1), 0)],
    ));
    let out = engine.sync(&reg);
    assert_eq!((out.deltas_applied, out.resynced), (2, false));
    assert!(engine.order_invariants().is_ok());
    assert!(engine.check_full(ModelChoice::FixedWfg, 2).report.is_some(), "cycle seen pre-resync");
    // Benign burst: five independent blockers overflow the 2-entry window,
    // so the next sync must take the full-snapshot path — which rebuilds
    // the topological orders from scratch.
    for task in 1..=5 {
        reg.block(info(task, 10 + task));
    }
    let out = engine.sync(&reg);
    assert!(out.resynced, "overflow must force the snapshot resync");
    // Live before the resync: the WFG adjacency and its order (the check
    // above demanded them). The resync rebuilt exactly those.
    assert_eq!(engine.counters().order_rebuilds, 1);
    assert!(!engine.is_live(GraphModel::Sg), "nothing asked for the SG yet");
    assert!(engine.order_invariants().is_ok(), "order rebuilt from the snapshot");
    // The planted cycle is re-reported byte-identically to the canonical
    // checker for both fixed models (Auto is verdict-stable by the same
    // delegation; the fixed models pin the exact report bytes).
    let snap = reg.snapshot();
    for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
        let ours = engine.check_full(choice, 2).report;
        let oracle = checker::check(&snap, choice, 2).report;
        assert_eq!(ours, oracle, "{choice:?} report must be byte-identical across the resync");
        assert!(ours.is_some(), "{choice:?}: the cycle must survive the resync");
    }
    // The hit fell back to the canonical rebuild; the orders still hold.
    assert!(engine.order_invariants().is_ok());
    // Clearing the cycle returns the engine to the incremental path.
    reg.unblock(t(21));
    reg.unblock(t(22));
    let out = engine.sync(&reg);
    assert_eq!((out.deltas_applied, out.resynced), (2, false));
    assert!(engine.check_full(ModelChoice::FixedWfg, 2).report.is_none());
    assert!(engine.order_invariants().is_ok());
}

/// The avoidance fast-path toggle: with `fastpath(false)` every block
/// runs an engine check (no skips), with identical verdicts.
#[test]
fn fastpath_toggle_changes_accounting_not_verdicts() {
    for fastpath in [true, false] {
        let v = Verifier::new(VerifierConfig::avoidance().with_fastpath(fastpath));
        for task in 1..=4 {
            v.block(t(task), vec![r(1, 1)], vec![Registration::new(p(1), 1)]).unwrap();
        }
        let stats = v.stats();
        assert_eq!(stats.blocks, 4);
        if fastpath {
            assert_eq!(stats.fastpath_skips, 4, "nobody waits behind an arrived member");
            assert_eq!(stats.checks, 0);
        } else {
            assert_eq!(stats.fastpath_skips, 0, "toggle off: no skips");
            assert_eq!(stats.checks, 4);
        }
        // Verdicts agree: the crossed wait is refused either way.
        let v = Verifier::new(VerifierConfig::avoidance().with_fastpath(fastpath));
        v.block(t(1), vec![r(1, 1)], vec![Registration::new(p(1), 1), Registration::new(p(2), 0)])
            .unwrap();
        let err = v
            .block(
                t(2),
                vec![r(2, 1)],
                vec![Registration::new(p(2), 1), Registration::new(p(1), 0)],
            )
            .expect_err("closing block refused with fastpath={fastpath}");
        assert!(err.report.tasks.contains(&t(2)));
    }
}
