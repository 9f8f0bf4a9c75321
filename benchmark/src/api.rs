//! The pinned API: every armus symbol the benchmark touches is named here
//! and nowhere else, so a later PR that renames or deletes a product path
//! has exactly one file of the benchmark to look at.
//!
//! Only the production path is listed — the front-ends (`Runtime`, the
//! `Phaser` poll seam, `Executor`), the verifier and the layers under it
//! (`Registry`, `IncrementalEngine::{sync, check_task, check_full}`,
//! `checker::check`), the flat v2 codec, `Store::{publish_full,
//! publish_deltas, fetch_all}`, `TcpStore`, `StoredServer`, `Site`,
//! `IncrementalDistChecker` and its `merge`. The paths ROADMAP item 2
//! retires — the adjacency-scan full check and its parallel peel, the
//! fetch-all-and-rebuild store check, the v1 tree codec, the unversioned
//! store publish — and everything in `crates/bench` are never used.

pub use armus_async::{AsyncPhaser, Executor, JoinHandle};
pub use armus_core::checker::check as canonical_check;
// Test-only: the ladder's unit test writes a delta stream by hand.
#[cfg(test)]
pub use armus_core::BlockedInfo;
pub use armus_core::{
    Delta, IncrementalEngine, JournalRead, ModelChoice, PhaserId, Registration, Registry,
    RegistryConfig, Resource, Snapshot, StatsSnapshot, TaskId, Verifier, VerifierConfig,
    DEFAULT_JOURNAL_CAPACITY, DEFAULT_SG_THRESHOLD, DEFAULT_SHARDS,
};
pub use armus_dist::wire::{encode_frame_v2_into, FrameBuffer, Request};
pub use armus_dist::{
    merge, DeltaAck, IncrementalDistChecker, MemStore, Site, SiteConfig, SiteId, Store,
    StoredConfig, StoredServer, Subscription, TcpStore, TenantId,
};
pub use armus_sync::ctx::{scoped, TaskCtx};
pub use armus_sync::{OnDeadlock, Phaser, Runtime, RuntimeConfig, SyncError, WaitStep};
pub use armus_workloads::kernels::{self, Kernel, Scale};
