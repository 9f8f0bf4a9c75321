//! `armus-stored`: the networked global store (paper §5.2's Redis role),
//! embeddable in-process ([`StoredServer`]) or run standalone (the
//! `armus-stored` binary in `src/bin/`).
//!
//! The server is a thread-per-connection loop over the same [`MemStore`]
//! core the in-process cluster uses, speaking the frame protocol of
//! [`crate::wire`]. Connections are **pipelined**: each `read(2)` may
//! deliver a burst of frames (a [`wire::FrameBuffer`] reassembles them
//! across reads), every frame is handled in arrival order, and the
//! responses — each echoing its request's correlation id — accumulate in
//! a per-connection reply queue flushed with one write per burst, so a
//! multiplexing client ([`crate::tcp::TcpStore`]) keeps dozens of requests
//! in flight on one socket. A checker thread runs the same
//! [`IncrementalDistChecker`] the sites run, one per subscribed tenant,
//! and streams the deadlocks it confirms to that tenant's subscribers.
//! Per-connection read/write timeouts reap dead peers, partitions carry a
//! lease TTL refreshed by every publish (crashed sites expire instead of
//! ghosting the merged view), and shutdown is a graceful drain: a flag —
//! set in-band by [`crate::wire::Request::Shutdown`], the SIGTERM
//! equivalent — stops the accept loop, lets in-flight requests finish, and
//! joins every connection thread.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armus_core::{DeadlockReport, ModelChoice, Snapshot, DEFAULT_SG_THRESHOLD};
use parking_lot::Mutex;

use crate::detector::{IncrementalDistChecker, ReportDedup};
use crate::store::{MemStore, SiteId, Store, StoreError, TenantId};
use crate::wire::{self, Request, Response, ServerMetrics, TenantMetrics};

/// Default partition lease: a site that has not published for this long is
/// considered dead and its partition stops contributing to fetches. Must
/// comfortably exceed the sites' publish period (50 ms by default).
pub const DEFAULT_LEASE: Duration = Duration::from_secs(5);

/// Default idle timeout before a silent connection is reaped.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default bound on writing one response back to a peer.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default cadence of the server-side checker that feeds subscribers
/// (paper's 200 ms check period, halved so a push usually beats a
/// client's own polling round).
pub const DEFAULT_CHECK_PERIOD: Duration = Duration::from_millis(100);

/// Granularity of the accept loop's shutdown poll and of a connection's
/// first-byte wait (bounds drain latency without burning CPU).
const POLL_PERIOD: Duration = Duration::from_millis(25);

/// Tuning of a [`StoredServer`].
#[derive(Clone, Copy, Debug)]
pub struct StoredConfig {
    /// Partition lease TTL; `None` disables expiry.
    pub lease: Option<Duration>,
    /// Reap a connection that sends nothing for this long.
    pub read_timeout: Duration,
    /// Bound on writing one response.
    pub write_timeout: Duration,
    /// How often the server-side checker scans subscribed tenants' merged
    /// views for deadlocks to stream.
    pub check_period: Duration,
}

impl Default for StoredConfig {
    fn default() -> Self {
        StoredConfig {
            lease: Some(DEFAULT_LEASE),
            read_timeout: DEFAULT_READ_TIMEOUT,
            write_timeout: DEFAULT_WRITE_TIMEOUT,
            check_period: DEFAULT_CHECK_PERIOD,
        }
    }
}

/// A running store server.
pub struct StoredServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    checker: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// One connection's registration for streamed reports: which tenant it
/// watches, the correlation id its report frames must carry, whether the
/// checker has yet to see it, and a weak handle to the connection's push
/// buffer (dropping the connection unregisters it implicitly).
struct Subscriber {
    tenant: TenantId,
    corr: u64,
    joined: bool,
    queue: Weak<Mutex<Vec<u8>>>,
}

/// The subscription registry: connections register their push buffers,
/// the server-side checker fans fresh reports out to them.
#[derive(Default)]
struct SubHub {
    subs: Mutex<Vec<Subscriber>>,
}

impl SubHub {
    fn subscribe(&self, tenant: TenantId, corr: u64, queue: &Arc<Mutex<Vec<u8>>>) {
        self.subs.lock().push(Subscriber {
            tenant,
            corr,
            joined: true,
            queue: Arc::downgrade(queue),
        });
    }

    /// Tenants with at least one live subscriber (pruning dead ones), each
    /// with whether a subscriber joined it since the previous call.
    fn tenants(&self) -> BTreeMap<TenantId, bool> {
        let mut subs = self.subs.lock();
        subs.retain(|s| s.queue.strong_count() > 0);
        let mut tenants = BTreeMap::new();
        for s in subs.iter_mut() {
            *tenants.entry(s.tenant).or_insert(false) |= std::mem::take(&mut s.joined);
        }
        tenants
    }

    /// Live subscriptions: the total and the per-tenant breakdown.
    fn counts(&self) -> (u64, Vec<(TenantId, u64)>) {
        let mut subs = self.subs.lock();
        subs.retain(|s| s.queue.strong_count() > 0);
        let mut per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        for s in subs.iter() {
            *per_tenant.entry(s.tenant).or_insert(0) += 1;
        }
        (subs.len() as u64, per_tenant.into_iter().collect())
    }

    /// Queues `report` for every live subscriber of `tenant`, each framed
    /// with the correlation id its subscription arrived under. Returns how
    /// many subscribers received it.
    fn push(&self, tenant: TenantId, report: &DeadlockReport) -> u64 {
        let response = Response::Report(report.clone());
        let mut delivered = 0;
        self.subs.lock().retain(|s| {
            let Some(queue) = s.queue.upgrade() else { return false };
            if s.tenant != tenant {
                return true;
            }
            if wire::encode_frame_v2_into(&mut queue.lock(), s.corr, &response).is_ok() {
                delivered += 1;
            }
            true
        });
        delivered
    }
}

/// A read-only [`Store`] view of one tenant's partitions, fed to the
/// server-side checker: `fetch_all` is the only operation
/// [`IncrementalDistChecker::check_round`] uses, and it must see exactly
/// the tenant's slice.
struct TenantView<'a> {
    store: &'a MemStore,
    tenant: TenantId,
}

impl Store for TenantView<'_> {
    fn publish_full(&self, _: SiteId, _: Snapshot, _: u64) -> Result<(), StoreError> {
        unreachable!("the server-side checker only fetches")
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        self.store.fetch_all_in(self.tenant)
    }

    fn remove(&self, _site: SiteId) -> Result<(), StoreError> {
        unreachable!("the server-side checker only fetches")
    }
}

/// State shared between the accept loop, connection threads, and the
/// server-side checker.
struct Shared {
    store: MemStore,
    cfg: StoredConfig,
    shutdown: Arc<AtomicBool>,
    /// Finished-or-running connection threads, joined on drain.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// The subscription registry.
    hub: SubHub,
    /// Served requests (all kinds), for observability and tests.
    served: AtomicU64,
    /// Connections dropped for protocol violations (malformed frames,
    /// version mismatches) — never panics, always a clean close.
    protocol_errors: AtomicU64,
    /// Connections currently open (a gauge, not a counter).
    live_connections: AtomicU64,
    /// Full-snapshot publish requests served.
    publishes: AtomicU64,
    /// Delta publish requests served.
    delta_publishes: AtomicU64,
    /// `FetchAll` requests served.
    fetches: AtomicU64,
    /// `Remove` requests served.
    removes: AtomicU64,
    /// Reports pushed to subscribers by the server-side checker.
    reports_streamed: AtomicU64,
    /// High-water mark of replies queued within one burst on any
    /// connection.
    reply_queue_max: AtomicU64,
}

impl Shared {
    /// Assembles the metrics snapshot answered to [`Request::Metrics`].
    fn metrics(&self) -> ServerMetrics {
        let (total_subs, per_tenant_subs) = self.hub.counts();
        let mut tenants: BTreeMap<TenantId, TenantMetrics> = BTreeMap::new();
        for (tenant, partitions) in self.store.tenant_partitions() {
            tenants.entry(tenant).or_insert_with(|| TenantMetrics::new(tenant)).partitions =
                partitions;
        }
        for (tenant, expiries) in self.store.tenant_expiries() {
            tenants.entry(tenant).or_insert_with(|| TenantMetrics::new(tenant)).lease_expiries =
                expiries;
        }
        for (tenant, subscribers) in per_tenant_subs {
            tenants.entry(tenant).or_insert_with(|| TenantMetrics::new(tenant)).subscribers =
                subscribers;
        }
        ServerMetrics {
            served: self.served.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            live_connections: self.live_connections.load(Ordering::Relaxed),
            subscribers: total_subs,
            publishes: self.publishes.load(Ordering::Relaxed),
            delta_publishes: self.delta_publishes.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            reports_streamed: self.reports_streamed.load(Ordering::Relaxed),
            reply_queue_max: self.reply_queue_max.load(Ordering::Relaxed),
            tenants: tenants.into_values().collect(),
            sites: self.store.site_stats(),
        }
    }
}

/// What the server-side checker keeps per subscribed tenant: the
/// persistent checker following the tenant's merged view, and the reports
/// its current subscribers have already been sent.
#[derive(Default)]
struct TenantChecker {
    checker: IncrementalDistChecker,
    dedup: ReportDedup,
}

/// The server-side checker loop: every
/// [`StoredConfig::check_period`], run one round of each subscribed
/// tenant's [`IncrementalDistChecker`] and stream fresh reports to that
/// tenant's subscribers. Detection happens *at the store* — subscribers
/// learn about deadlocks without a single `fetch_all` poll, and
/// cross-tenant isolation holds because each check round sees exactly one
/// tenant's partitions ([`TenantView`]).
///
/// A tenant's state lives exactly as long as it has a subscriber, and a
/// subscriber joining resets the tenant's dedup: whoever subscribes while
/// a deadlock stands hears about it (a subscriber that was already there
/// hears it again, which [`crate::tcp::Subscription`] consumers tolerate).
fn checker_loop(shared: Arc<Shared>) {
    let mut checkers: HashMap<TenantId, TenantChecker> = HashMap::new();
    let mut next_check = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Park in drain-observable slices until the next round is due.
        let now = Instant::now();
        if now < next_check {
            std::thread::sleep((next_check - now).min(POLL_PERIOD));
            continue;
        }
        next_check = now + shared.cfg.check_period;
        let tenants = shared.hub.tenants();
        checkers.retain(|tenant, _| tenants.contains_key(tenant));
        for (tenant, joined) in tenants {
            let state = checkers.entry(tenant).or_default();
            if joined {
                state.dedup = ReportDedup::new();
            }
            let view = TenantView { store: &shared.store, tenant };
            let Ok(check) =
                state.checker.check_round(&view, ModelChoice::Auto, DEFAULT_SG_THRESHOLD)
            else {
                continue; // MemStore cannot actually fail; stay total anyway
            };
            if let Some(report) = check.report {
                if state.dedup.is_new(&report) {
                    let delivered = shared.hub.push(tenant, &report);
                    shared.reports_streamed.fetch_add(delivered, Ordering::Relaxed);
                }
            }
        }
    }
}

impl StoredServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop.
    pub fn bind(addr: impl ToSocketAddrs, cfg: StoredConfig) -> io::Result<StoredServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let store = match cfg.lease {
            Some(ttl) => MemStore::with_lease(ttl),
            None => MemStore::new(),
        };
        let shared = Arc::new(Shared {
            store,
            cfg,
            shutdown: Arc::clone(&shutdown),
            conns: Mutex::new(Vec::new()),
            hub: SubHub::default(),
            served: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            delta_publishes: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            reports_streamed: AtomicU64::new(0),
            reply_queue_max: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("armus-stored-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn accept loop")
        };
        let checker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("armus-stored-checker".into())
                .spawn(move || checker_loop(shared))
                .expect("spawn server checker")
        };
        Ok(StoredServer { addr, shutdown, accept: Some(accept), checker: Some(checker), shared })
    }

    /// The bound address (the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests received so far (across all connections).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Connections closed on protocol violations so far.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// The same observability snapshot [`Request::Metrics`] answers over
    /// the wire, for embedded servers and benches.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics()
    }

    /// A detachable sampling handle onto this server's metrics — lets the
    /// standalone binary's periodic logger keep observing counters while
    /// the main thread is parked in [`StoredServer::wait`].
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle { shared: Arc::clone(&self.shared) }
    }

    /// Has a drain been requested (locally or via
    /// [`Request::Shutdown`][crate::wire::Request::Shutdown])?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain and blocks until the accept loop and all
    /// connection threads have exited.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join();
    }

    /// Blocks until the server drains (a peer sent
    /// [`Request::Shutdown`][crate::wire::Request::Shutdown], or
    /// [`StoredServer::shutdown`] ran) — the standalone binary's main
    /// loop.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.checker.take() {
            let _ = h.join();
        }
        // After the accept loop exits no new connection threads appear;
        // drain the ones that ran.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for h in conns {
            let _ = h.join();
        }
    }
}

impl Drop for StoredServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join();
    }
}

/// A cloneable handle sampling a running [`StoredServer`]'s metrics
/// without a wire round trip (so the scrape itself does not inflate the
/// served-request counters).
#[derive(Clone)]
pub struct MetricsHandle {
    shared: Arc<Shared>,
}

impl MetricsHandle {
    /// Samples the live [`ServerMetrics`].
    pub fn sample(&self) -> ServerMetrics {
        self.shared.metrics()
    }

    /// Whether the server has drained — the periodic logger's stop
    /// condition.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared2 = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("armus-stored-conn".into())
                    .spawn(move || serve_connection(stream, shared2))
                    .expect("spawn connection thread");
                let mut conns = shared.conns.lock();
                // Reap finished handles so a long-lived server does not
                // accumulate one per past connection.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_PERIOD);
            }
            Err(_) => std::thread::sleep(POLL_PERIOD),
        }
    }
}

/// Serves one connection until the peer hangs up, violates the protocol,
/// idles past the read timeout, or the server drains.
///
/// The loop reads in [`POLL_PERIOD`] slices (so the drain flag stays
/// observed even mid-frame), extracts every complete frame the read
/// delivered, handles them in order, and answers the whole burst with one
/// flush of the reply queue.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_PERIOD)).is_err() {
        return;
    }
    shared.live_connections.fetch_add(1, Ordering::Relaxed);
    let mut stream = stream;
    let mut frames = wire::FrameBuffer::new();
    let mut replies: Vec<u8> = Vec::new();
    // Server-initiated frames (streamed reports): the checker queues them
    // here via the SubHub's weak handle; the loop drains them between
    // reads, so pushes ride the same [`POLL_PERIOD`] cadence as the drain
    // poll even on an otherwise idle connection.
    let pushes: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let mut chunk = vec![0u8; 64 * 1024];
    // Both the idle bound and the mid-frame stall bound: a peer that goes
    // quiet for the read timeout is reaped whether or not it left half a
    // frame behind. A subscribed peer is legitimately quiet forever, so
    // subscribing exempts the connection from idle reaping.
    let mut last_data = Instant::now();
    let mut subscribed = false;
    'conn: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer hung up
            Ok(n) => {
                last_data = Instant::now();
                frames.feed(&chunk[..n]);
                let mut drain = false;
                let mut burst = 0u64;
                while !drain {
                    match frames.next_frame::<Request>() {
                        Ok(Some(frame)) => {
                            shared.served.fetch_add(1, Ordering::Relaxed);
                            let (response, drain_after) = handle(&frame, &shared, &pushes);
                            subscribed |= matches!(frame.msg, Request::Subscribe { .. });
                            if drain_after {
                                // Set the flag *before* answering: a drain
                                // must not be lost to a failed response
                                // write (the peer may fire-and-close), or
                                // the server lives forever.
                                shared.shutdown.store(true, Ordering::SeqCst);
                                drain = true;
                            }
                            if wire::encode_frame_v2_into(&mut replies, frame.corr, &response)
                                .is_err()
                            {
                                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                break 'conn;
                            }
                            burst += 1;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Malformed traffic: answer what the burst
                            // already earned, close, never panic. There
                            // is no resync point mid-stream — the peer
                            // reconnects.
                            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = flush_replies(&mut stream, &mut replies, &shared);
                            break 'conn;
                        }
                    }
                }
                shared.reply_queue_max.fetch_max(burst, Ordering::Relaxed);
                if flush_replies(&mut stream, &mut replies, &shared).is_err() || drain {
                    break;
                }
                if flush_pushes(&mut stream, &pushes, &shared).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if flush_pushes(&mut stream, &pushes, &shared).is_err() {
                    break;
                }
                if !subscribed && last_data.elapsed() >= shared.cfg.read_timeout {
                    break; // reap the idle (or mid-frame stalled) peer
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.live_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Writes the queued replies for one burst in a single `write_all` and
/// clears the queue.
fn flush_replies(stream: &mut TcpStream, replies: &mut Vec<u8>, shared: &Shared) -> io::Result<()> {
    if replies.is_empty() {
        return Ok(());
    }
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    let result = stream.write_all(replies);
    replies.clear();
    result
}

/// Writes any server-initiated frames the checker queued for this
/// connection (streamed reports). The queue is swapped out under the lock
/// and written outside it, so a slow peer never blocks the checker.
fn flush_pushes(
    stream: &mut TcpStream,
    pushes: &Arc<Mutex<Vec<u8>>>,
    shared: &Shared,
) -> io::Result<()> {
    let queued = std::mem::take(&mut *pushes.lock());
    if queued.is_empty() {
        return Ok(());
    }
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    stream.write_all(&queued)
}

/// Rejects a publish whose ids could not survive the checkers'
/// site-namespacing merge: the site must fit the tag range and every
/// task id must be un-namespaced (≤ [`armus_core::MAX_LOCAL_TASK`]).
/// Catching this at the boundary gives the out-of-protocol peer an
/// explicit error instead of a silently skipped partition.
fn validate_publish<'a>(
    site: crate::store::SiteId,
    mut tasks: impl Iterator<Item = &'a armus_core::TaskId>,
) -> Option<Response> {
    if site.0 > armus_core::MAX_SITE_TAG {
        return Some(Response::Error(format!("site {} beyond the namespace tag range", site.0)));
    }
    tasks
        .find(|t| t.checked_with_site(site.0).is_none())
        .map(|task| Response::Error(format!("task id {:#x} cannot be site-namespaced", task.0)))
}

/// Task ids a delta interval touches.
fn delta_tasks(deltas: &[armus_core::Delta]) -> impl Iterator<Item = &armus_core::TaskId> {
    deltas.iter().map(|d| match d {
        armus_core::Delta::Block(info) => &info.task,
        armus_core::Delta::Unblock(task) => task,
    })
}

/// Applies one request to the store, dispatching every data-path
/// operation into the request's tenant namespace. The boolean asks the
/// connection loop to begin the drain after responding.
fn handle(
    frame: &wire::Frame<Request>,
    shared: &Shared,
    pushes: &Arc<Mutex<Vec<u8>>>,
) -> (Response, bool) {
    let store = &shared.store;
    let request = &frame.msg;
    let response = match request {
        Request::PublishFull { site, tenant, snapshot, version } => {
            shared.publishes.fetch_add(1, Ordering::Relaxed);
            match validate_publish(*site, snapshot.tasks.iter().map(|b| &b.task)) {
                Some(rejection) => rejection,
                None => match store.publish_full_in(*tenant, *site, snapshot.clone(), *version) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                },
            }
        }
        Request::PublishDeltas { site, tenant, base, deltas, next } => {
            shared.delta_publishes.fetch_add(1, Ordering::Relaxed);
            match validate_publish(*site, delta_tasks(deltas)) {
                Some(rejection) => rejection,
                None => match store.publish_deltas_in(*tenant, *site, *base, deltas, *next) {
                    Ok(crate::store::DeltaAck::Applied) => Response::Applied,
                    Ok(crate::store::DeltaAck::NeedSnapshot) => Response::NeedSnapshot,
                    Err(e) => Response::Error(e.to_string()),
                },
            }
        }
        Request::FetchAll { tenant } => {
            shared.fetches.fetch_add(1, Ordering::Relaxed);
            match store.fetch_all_in(*tenant) {
                Ok(view) => Response::View(view),
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Remove { site, tenant } => {
            shared.removes.fetch_add(1, Ordering::Relaxed);
            match store.remove_in(*tenant, *site) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::PublishStats { site, tenant, stats } => {
            match store.publish_stats_in(*tenant, *site, *stats) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Metrics => Response::Metrics(shared.metrics()),
        Request::Subscribe { tenant } => {
            // Register this connection's push buffer under the request's
            // correlation id: every future report frame for the tenant
            // carries it, so the client's demultiplexer can route the
            // stream beside its ordinary request traffic.
            shared.hub.subscribe(*tenant, frame.corr, pushes);
            Response::Subscribed
        }
        Request::Shutdown => Response::Ok,
    };
    (response, matches!(request, Request::Shutdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SiteId;
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, Snapshot, TaskId};

    fn snap(task: u64) -> Snapshot {
        Snapshot::from_tasks(vec![BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )])
    }

    /// One request/response exchange on an open connection.
    fn exchange(stream: &mut TcpStream, request: &Request) -> Response {
        let mut frame = Vec::new();
        wire::encode_frame_v2_into(&mut frame, 7, request).unwrap();
        stream.write_all(&frame).unwrap();
        let mut frames = wire::FrameBuffer::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(reply) = frames.next_frame::<Response>().unwrap() {
                assert_eq!(reply.corr, 7, "a reply echoes its request's correlation id");
                return reply.msg;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "the server closed before answering");
            frames.feed(&chunk[..n]);
        }
    }

    fn talk(addr: SocketAddr, request: &Request) -> Response {
        exchange(&mut TcpStream::connect(addr).unwrap(), request)
    }

    const T0: TenantId = TenantId::DEFAULT;

    #[test]
    fn serves_the_store_protocol() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let addr = server.local_addr();
        assert_eq!(
            talk(
                addr,
                &Request::PublishFull {
                    site: SiteId(0),
                    tenant: T0,
                    snapshot: snap(1),
                    version: 3
                }
            ),
            Response::Ok
        );
        assert_eq!(
            talk(
                addr,
                &Request::PublishDeltas {
                    site: SiteId(0),
                    tenant: T0,
                    base: 3,
                    deltas: vec![armus_core::Delta::Unblock(TaskId(1))],
                    next: 4
                }
            ),
            Response::Applied
        );
        assert_eq!(
            talk(
                addr,
                &Request::PublishDeltas {
                    site: SiteId(0),
                    tenant: T0,
                    base: 9,
                    deltas: vec![],
                    next: 9
                }
            ),
            Response::NeedSnapshot
        );
        match talk(addr, &Request::FetchAll { tenant: T0 }) {
            Response::View(view) => {
                assert_eq!(view.len(), 1);
                assert!(view[0].1.is_empty(), "the unblock delta applied");
            }
            other => panic!("expected a view, got {other:?}"),
        }
        assert_eq!(talk(addr, &Request::Remove { site: SiteId(0), tenant: T0 }), Response::Ok);
        assert_eq!(server.served(), 5);
        server.shutdown();
    }

    #[test]
    fn multiple_requests_per_connection() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        for task in 1..=5u64 {
            let publish = Request::PublishFull {
                site: SiteId(task as u32),
                tenant: T0,
                snapshot: snap(task),
                version: 1,
            };
            assert_eq!(exchange(&mut stream, &publish), Response::Ok);
        }
        match talk(server.local_addr(), &Request::FetchAll { tenant: T0 }) {
            Response::View(view) => assert_eq!(view.len(), 5),
            other => panic!("expected a view, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn metrics_report_live_counters_per_tenant() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let addr = server.local_addr();
        let (a, b) = (TenantId(1), TenantId(2));
        for (tenant, site) in [(a, 0u32), (a, 1), (b, 0)] {
            assert_eq!(
                talk(
                    addr,
                    &Request::PublishFull {
                        site: SiteId(site),
                        tenant,
                        snapshot: snap(u64::from(site) + 1),
                        version: 1
                    }
                ),
                Response::Ok
            );
        }
        assert_eq!(
            talk(
                addr,
                &Request::PublishStats {
                    site: SiteId(0),
                    tenant: a,
                    stats: crate::store::SiteStats { blocks: 7, ..Default::default() }
                }
            ),
            Response::Ok
        );
        let Response::Metrics(m) = talk(addr, &Request::Metrics) else {
            panic!("expected metrics");
        };
        assert_eq!(m.publishes, 3);
        assert_eq!(m.served, 5, "publishes + stats publish + this scrape");
        assert_eq!(m.fetches, 0);
        let t_a = m.tenants.iter().find(|t| t.tenant == a).expect("tenant a present");
        let t_b = m.tenants.iter().find(|t| t.tenant == b).expect("tenant b present");
        assert_eq!((t_a.partitions, t_b.partitions), (2, 1));
        assert_eq!(
            m.sites,
            vec![(a, SiteId(0), crate::store::SiteStats { blocks: 7, ..Default::default() })]
        );
        server.shutdown();
    }

    #[test]
    fn tenants_with_colliding_sites_are_isolated_over_the_wire() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let addr = server.local_addr();
        let (a, b) = (TenantId(1), TenantId(2));
        // Same SiteId(0) in both tenants, different blocked tasks.
        for (tenant, task) in [(a, 1u64), (b, 2)] {
            assert_eq!(
                talk(
                    addr,
                    &Request::PublishFull {
                        site: SiteId(0),
                        tenant,
                        snapshot: snap(task),
                        version: 1
                    }
                ),
                Response::Ok
            );
        }
        for (tenant, task) in [(a, 1u64), (b, 2)] {
            match talk(addr, &Request::FetchAll { tenant }) {
                Response::View(view) => {
                    assert_eq!(view.len(), 1, "exactly the tenant's own partition");
                    assert_eq!(view[0].1.tasks[0].task, TaskId(task));
                }
                other => panic!("expected a view, got {other:?}"),
            }
        }
        // Removing tenant a's partition leaves tenant b's untouched.
        assert_eq!(talk(addr, &Request::Remove { site: SiteId(0), tenant: a }), Response::Ok);
        match talk(addr, &Request::FetchAll { tenant: b }) {
            Response::View(view) => assert_eq!(view.len(), 1),
            other => panic!("expected a view, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn in_band_shutdown_drains_the_server() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let addr = server.local_addr();
        assert_eq!(talk(addr, &Request::Shutdown), Response::Ok);
        // wait() returns because the drain flag is set; afterwards the
        // port no longer accepts a conversation.
        server.wait();
        let refused = TcpStream::connect(addr)
            .and_then(|mut s| {
                s.set_read_timeout(Some(Duration::from_millis(200)))?;
                let mut frame = Vec::new();
                wire::encode_frame_v2_into(&mut frame, 1, &Request::FetchAll { tenant: T0 })
                    .unwrap();
                s.write_all(&frame)?;
                let mut byte = [0u8; 1];
                match s.read(&mut byte) {
                    Ok(0) => Err(io::Error::new(io::ErrorKind::ConnectionReset, "closed")),
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                }
            })
            .is_err();
        assert!(refused, "a drained server must not serve");
    }

    #[test]
    fn malformed_traffic_closes_the_connection_but_not_the_server() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let addr = server.local_addr();
        // Oversized length prefix.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut buf = [0u8; 1];
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(s.read(&mut buf).unwrap(), 0, "server must close on oversized prefix");
        // Garbage payload under a plausible prefix.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&8u32.to_le_bytes()).unwrap();
        s.write_all(&[0xff; 8]).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(s.read(&mut buf).unwrap(), 0, "server must close on garbage");
        // The server survives and still serves valid peers.
        assert_eq!(
            talk(
                addr,
                &Request::PublishFull {
                    site: SiteId(0),
                    tenant: T0,
                    snapshot: snap(1),
                    version: 1
                }
            ),
            Response::Ok
        );
        assert!(server.protocol_errors() >= 2);
        server.shutdown();
    }

    #[test]
    fn publishes_with_unnamespaceable_ids_are_rejected() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let addr = server.local_addr();
        // Task id already carrying a site tag: renaming cannot be
        // injective, so the publish is refused at the boundary.
        let rogue = Snapshot::from_tasks(vec![BlockedInfo::new(
            TaskId(1).with_site(2),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )]);
        assert!(matches!(
            talk(
                addr,
                &Request::PublishFull { site: SiteId(0), tenant: T0, snapshot: rogue, version: 1 }
            ),
            Response::Error(_)
        ));
        // Site id beyond the tag range: same refusal, delta path included.
        assert!(matches!(
            talk(
                addr,
                &Request::PublishFull {
                    site: SiteId(armus_core::MAX_SITE_TAG + 1),
                    tenant: T0,
                    snapshot: snap(1),
                    version: 1
                }
            ),
            Response::Error(_)
        ));
        assert!(matches!(
            talk(
                addr,
                &Request::PublishDeltas {
                    site: SiteId(0),
                    tenant: T0,
                    base: 0,
                    deltas: vec![armus_core::Delta::Unblock(TaskId(u64::MAX))],
                    next: 1
                }
            ),
            Response::Error(_)
        ));
        // Nothing landed; well-formed traffic still works.
        match talk(addr, &Request::FetchAll { tenant: T0 }) {
            Response::View(view) => assert!(view.is_empty()),
            other => panic!("expected a view, got {other:?}"),
        }
        assert_eq!(
            talk(
                addr,
                &Request::PublishFull {
                    site: SiteId(0),
                    tenant: T0,
                    snapshot: snap(1),
                    version: 1
                }
            ),
            Response::Ok
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_after_the_read_timeout() {
        let cfg =
            StoredConfig { read_timeout: Duration::from_millis(120), ..StoredConfig::default() };
        let server = StoredServer::bind("127.0.0.1:0", cfg).unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "idle peer must be reaped");
        assert!(start.elapsed() >= Duration::from_millis(100));
        server.shutdown();
    }
}
