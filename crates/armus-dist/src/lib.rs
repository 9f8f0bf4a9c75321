//! # armus-dist
//!
//! Distributed deadlock detection for barrier synchronisation (paper
//! §5.2): each *site* (place) runs its workload on a local runtime whose
//! verifier only maintains blocked statuses; a publisher thread pushes the
//! site's partition to a shared fault-tolerant store; and every site
//! independently pulls the merged view — task ids injectively
//! site-namespaced by [`detector::merge`] — and runs the graph analysis:
//! the adapted one-phase algorithm with a confirmation pass.
//!
//! The store (the paper uses Redis) comes in two embeddings:
//! * **in-process** — [`store::MemStore`], wrapped in the outage-injecting
//!   [`store::FaultyStore`] or the message-chaos [`chaos::ChaosStore`];
//! * **networked** — the `armus-stored` server ([`server::StoredServer`]
//!   and the binary under `src/bin/`) speaking the length-prefixed binary
//!   protocol of [`wire`] (flat frames with correlation ids, pipelined in
//!   bursts), with [`tcp::TcpStore`] as the client-side [`store::Store`]
//!   — one multiplexed connection that batches concurrent callers' frames
//!   per flush, so many [`site::Site`]s can share a single
//!   `Arc<TcpStore>`; [`cluster::NetCluster`] wires a true multi-process
//!   cluster (one spawned server + N site processes).
//!
//! Fault tolerance, as claimed by the paper and tested here:
//! * a site's checker can die — the other sites still detect;
//! * the store can be unavailable for windows — rounds are skipped and
//!   detection resumes after the outage;
//! * a whole site can crash without cleanup — its partition's lease
//!   ([`store::MemStore::with_lease`]) expires instead of its ghost
//!   blocked statuses confirming deadlocks that no longer exist.
//!
//! ```no_run
//! use armus_dist::{Cluster, SiteConfig};
//! use armus_sync::{Clock, Finish};
//!
//! let cluster = Cluster::start(4, SiteConfig::default());
//! cluster.run_on_all(|_site, rt| {
//!     // every site operates a distinct instance of the clock, as in
//!     // `at (p) async example()`
//!     let c = Clock::make(rt);
//!     let finish = Finish::new(rt);
//!     /* … the running example … */
//! });
//! assert!(!cluster.any_deadlock());
//! cluster.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod cluster;
pub mod detector;
pub mod server;
pub mod site;
pub mod store;
pub mod tcp;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosStore};
pub use cluster::{Cluster, NetCluster};
pub use detector::{
    check_store, merge, DistCheck, DistCheckerStats, IncrementalDistChecker, ReportDedup,
    DEFAULT_DEDUP_CAPACITY,
};
pub use server::{StoredConfig, StoredProcess, StoredServer, DEFAULT_CHECK_PERIOD};
pub use site::{Site, SiteConfig};
pub use store::{DeltaAck, FaultyStore, MemStore, SiteId, SiteStats, Store, StoreError, TenantId};
pub use tcp::{Subscription, TcpStore, TcpStoreConfig};
pub use wire::{ServerMetrics, TenantMetrics};
