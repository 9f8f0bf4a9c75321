//! # armus-core
//!
//! The verification layer of **Armus** (“Dynamic deadlock verification for
//! general barrier synchronisation”, PPoPP 2015): an event-based
//! representation of barrier concurrency constraints, graph-based deadlock
//! analysis over two interchangeable models (Wait-For Graph and State
//! Graph), automatic model selection, and a run-time verifier supporting
//! deadlock *detection* and deadlock *avoidance*.
//!
//! ## Concepts
//!
//! * A **resource** ([`Resource`]) is a synchronisation event `res(p, n)`:
//!   phase `n` of phaser `p`, i.e. a timestamp of the logical clock
//!   associated with the phaser.
//! * A blocked task publishes ([`BlockedInfo`]) the events it **waits** on
//!   and — via its local phase per registered phaser ([`Registration`]) —
//!   the events it **impedes**. Both are local facts: no global membership
//!   bookkeeping is required, which is the paper's key idea.
//! * A deadlock is a cycle in the **WFG** or equivalently in the **SG**
//!   (Theorem 4.8); [`checker::check`] finds one and names the tasks and
//!   events involved.
//! * The **adaptive** builder ([`adaptive::build`]) picks the cheaper model
//!   at run time.
//! * The **incremental engine** ([`engine::IncrementalEngine`]) follows
//!   the registry's delta journal and maintains, persistently, the graph
//!   its checks read — the model the adaptive rule selects, built on first
//!   demand and retired when nothing reads it — so checks cost `O(churn
//!   since the last check)` instead of `O(blocked tasks)` and deltas cost
//!   the selected model's local degree, not the larger model's; detection
//!   additionally keeps a Pearce–Kelly topological order
//!   ([`graph::TopoOrder`]) of that model, answering whole-graph
//!   cycle-existence without a full scan. The from-scratch builders remain
//!   the oracle it is tested against.
//! * The [`Verifier`] packages all of this behind `block`/`unblock` calls
//!   made by a runtime (see the `armus-sync` crate) or a distributed site
//!   (see `armus-dist`).
//!
//! ## Quick example
//!
//! ```
//! use armus_core::prelude::*;
//! use std::time::Duration;
//!
//! // A verifier in avoidance mode with automatic graph selection.
//! let v = Verifier::new(VerifierConfig::avoidance());
//!
//! // Two tasks, two phasers, crossed waits: t1 waits p1@1 while lagging on
//! // p2; t2 waits p2@1 while lagging on p1.
//! let (p1, p2) = (PhaserId::fresh(), PhaserId::fresh());
//! let (t1, t2) = (TaskId::fresh(), TaskId::fresh());
//! v.block(t1, vec![Resource::new(p1, 1)],
//!         vec![Registration::new(p1, 1), Registration::new(p2, 0)])
//!     .expect("first block cannot deadlock");
//! let err = v.block(t2, vec![Resource::new(p2, 1)],
//!         vec![Registration::new(p1, 0), Registration::new(p2, 1)])
//!     .expect_err("second block closes the cycle");
//! assert!(err.report.tasks.contains(&t2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod checker;
pub mod deps;
pub mod engine;
pub mod error;
pub mod graph;
pub mod grg;
pub mod ids;
pub mod index;
pub mod pace;
pub mod resource;
pub mod sg;
pub mod stats;
pub mod verifier;
pub mod wfg;
pub mod window;

pub use adaptive::{GraphModel, ModelChoice, DEFAULT_SG_THRESHOLD};
pub use checker::{
    CheckOutcome, CheckStats, CycleWitness, DeadlockReport, ReportDedup, DEFAULT_DEDUP_CAPACITY,
};
pub use deps::{
    BlockedInfo, Delta, JournalRead, Registry, RegistryConfig, Snapshot, DEFAULT_JOURNAL_CAPACITY,
    DEFAULT_SHARDS,
};
pub use engine::{DetectionOutcome, EngineCounters, IncrementalEngine, SyncOutcome};
pub use error::DeadlockError;
pub use graph::TopoOrder;
pub use ids::{Phase, PhaserId, TaskId, MAX_LOCAL_TASK, MAX_SITE_TAG, SITE_TAG_SHIFT};
pub use pace::{Pace, Pacer, Signal};
pub use resource::{Registration, Resource};
pub use stats::{StatsCollector, StatsSnapshot};
pub use verifier::{Verifier, VerifierConfig, VerifyMode, REPORT_CAPACITY};
pub use window::Window;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::adaptive::{GraphModel, ModelChoice, DEFAULT_SG_THRESHOLD};
    pub use crate::checker::{CycleWitness, DeadlockReport};
    pub use crate::deps::{BlockedInfo, Snapshot};
    pub use crate::error::DeadlockError;
    pub use crate::ids::{Phase, PhaserId, TaskId};
    pub use crate::resource::{Registration, Resource};
    pub use crate::verifier::{Verifier, VerifierConfig, VerifyMode};
}
