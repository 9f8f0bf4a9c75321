//! # armus-dist
//!
//! Distributed deadlock detection for barrier synchronisation (paper
//! §5.2): each *site* (place) runs its workload on a local runtime whose
//! verifier only maintains blocked statuses; a publisher thread pushes the
//! site's partition to a shared fault-tolerant store; and every site
//! independently follows the merged view — task ids injectively
//! site-namespaced by [`detector::merge`] — and runs the graph analysis:
//! the adapted one-phase algorithm with a confirmation pass. The store
//! server runs the same round for its subscribers. Every checker reads the
//! store's change log by cursor ([`store::Store::changes_since`]), so a
//! round costs what changed, not what is stored.
//!
//! The store (the paper uses Redis) comes in two embeddings:
//! * **in-process** — [`store::MemStore`], which is what
//!   [`cluster::Cluster::start`] puts under its sites;
//! * **networked** — the `armus-stored` server ([`server::StoredServer`]
//!   and the binary under `src/bin/`) speaking the length-prefixed binary
//!   protocol of [`wire`] (flat frames with correlation ids, pipelined in
//!   bursts), with [`tcp::TcpStore`] as the client-side [`store::Store`]
//!   — one multiplexed connection that batches concurrent callers' frames
//!   per flush, so many [`site::Site`]s can share a single
//!   `Arc<TcpStore>`.
//!
//! Fault tolerance, as claimed by the paper. This crate holds the
//! mechanisms; the faults are injected from outside it, by
//! `armus_testkit::dist` (`ChaosStore`, the one fault-injecting
//! [`store::Store`] wrapper, and `StoredProcess`, the child-server glue),
//! which `tests/distributed.rs`, `tests/net.rs` and the
//! `distributed_detection` example put underneath a [`site::Site`] or a
//! [`cluster::Cluster::start_on`]:
//! * a site's checker can die ([`site::Site::kill_checker`]) — the other
//!   sites still detect (`distributed.rs::detection_survives_checker_failures`);
//! * the store can be unavailable for windows — rounds are skipped and
//!   detection resumes after the outage
//!   (`distributed.rs::detection_survives_store_outage`; over a real
//!   socket, `net.rs::chaos_over_tcp_survives_a_server_restart`);
//! * a whole site can crash without cleanup — its partition's lease
//!   ([`store::MemStore::with_lease`]) expires instead of its ghost
//!   blocked statuses confirming deadlocks that no longer exist
//!   (`distributed.rs::dead_sites_ghost_partition_cannot_confirm_a_false_deadlock`);
//! * delta publishes can be dropped, duplicated or reordered — the
//!   versioned delta protocol turns each into a resync, never into a
//!   corrupt partition (`armus_testkit::dist`'s unit tests;
//!   `net.rs::chaos_over_tcp_costs_resyncs_never_corruption`).
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

pub mod cluster;
pub mod detector;
pub mod server;
pub mod site;
pub mod store;
pub mod tcp;
pub mod wire;

pub use cluster::Cluster;
pub use detector::{check_store, merge, DistCheck, DistCheckerStats, IncrementalDistChecker};
pub use server::{StoredConfig, StoredServer, DEFAULT_CHECK_PERIOD};
pub use site::{Publisher, Shipped, Site, SiteConfig};
pub use store::{DeltaAck, Feed, MemStore, SiteId, SiteStats, Store, StoreError, TenantId};
pub use tcp::{Subscription, TcpStore, TcpStoreConfig};
pub use wire::{ServerMetrics, TenantMetrics};
