//! The in-process `at (p) async` launcher: N [`Site`]s over one shared
//! [`Store`], with helpers to run per-site workloads — the equivalent of
//! `finish for (p in CLUSTER) at (p) async example();` (paper §2.1), and
//! what the §6.2 distributed suite (`armus-workloads::dist`,
//! `armus-bench paper dist`) runs on. The cluster adds no layer of its
//! own: every site holds the very `Arc` it was started on, so a caller
//! that wants faults underneath passes a fault-injecting store to
//! [`Cluster::start_on`] and keeps its own handle to it.

use std::sync::Arc;

use armus_core::DeadlockReport;
use armus_sync::Runtime;

use crate::site::{Site, SiteConfig};
use crate::store::{MemStore, SiteId, Store};

/// A running cluster.
pub struct Cluster {
    store: Arc<dyn Store>,
    sites: Vec<Site>,
}

impl Cluster {
    /// Starts `n` sites sharing a fresh [`MemStore`].
    pub fn start(n: usize, cfg: SiteConfig) -> Cluster {
        Cluster::start_on(Arc::new(MemStore::new()), n, cfg)
    }

    /// Starts `n` sites sharing `store` — a leased [`MemStore`], a
    /// [`crate::TcpStore`], or a test's fault-injecting wrapper.
    pub fn start_on(store: Arc<dyn Store>, n: usize, cfg: SiteConfig) -> Cluster {
        let sites =
            (0..n).map(|i| Site::start(SiteId(i as u32), Arc::clone(&store), cfg)).collect();
        Cluster { store, sites }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the cluster has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The shared store, exactly as every site holds it.
    pub fn store(&self) -> &Arc<dyn Store> {
        &self.store
    }

    /// The sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Mutable access (for [`Site::kill_checker`] fault injection).
    pub fn sites_mut(&mut self) -> &mut [Site] {
        &mut self.sites
    }

    /// Runs `work(site_index, runtime)` concurrently on every site (one
    /// OS thread per site), returning when all complete. The workload
    /// spawns its own tasks on the given runtime.
    pub fn run_on_all<F>(&self, work: F)
    where
        F: Fn(usize, &Arc<Runtime>) + Send + Sync,
    {
        std::thread::scope(|scope| {
            for (i, site) in self.sites.iter().enumerate() {
                let work = &work;
                let rt = site.runtime();
                scope.spawn(move || work(i, rt));
            }
        });
    }

    /// All reports from all site checkers.
    pub fn all_reports(&self) -> Vec<DeadlockReport> {
        self.sites.iter().flat_map(|s| s.reports()).collect()
    }

    /// Has any site reported a deadlock?
    pub fn any_deadlock(&self) -> bool {
        self.sites.iter().any(|s| s.found_deadlock())
    }

    /// Which sites reported at least one deadlock?
    pub fn reporting_sites(&self) -> Vec<SiteId> {
        self.sites.iter().filter(|s| s.found_deadlock()).map(|s| s.id()).collect()
    }

    /// Stops every site.
    pub fn stop(self) {
        for site in self.sites {
            site.stop();
        }
    }
}
