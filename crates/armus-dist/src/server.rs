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
//! in flight on one socket.
//!
//! A checker thread runs the same [`IncrementalDistChecker`] round the
//! sites run, one per subscribed tenant, and streams the deadlocks it
//! confirms to that tenant's subscribers. It reads its own store's change
//! log in-process (`MemStore::changes_since_in`), as the sites read it
//! over the wire: a round applies what changed and nothing else — its cost
//! is that of what changed, not of what is stored — and a hit is
//! confirmed by a second read. Only a tenant's first round reads its whole
//! view. The checker has **no clock of its own** either: the
//! connection threads tell it what happened (`Pacing`) — a publish that
//! changed a partition makes the tenant *dirty*, the empty interval a site
//! sends once its journal has stood still ([`crate::site`]) marks that
//! site *settled*, a subscription wants the standing state reported — and
//! it runs a tenant's round when the tenant is dirty and every site that
//! wrote has settled, or [`StoredConfig::check_period`] after it became
//! dirty or was last checked, and parks otherwise. A report new to the
//! tenant joins its report window, which a writer thread each subscribed
//! connection parks reads by cursor and writes to the socket as it grows.
//!
//! Per-connection read/write timeouts reap dead peers, partitions carry a
//! lease TTL refreshed by every publish (crashed sites expire instead of
//! ghosting the merged view), and shutdown is a graceful drain: a flag —
//! set in-band by [`crate::wire::Request::Shutdown`], the SIGTERM
//! equivalent — stops the accept loop, lets in-flight requests finish, and
//! joins every connection thread. The accept loop blocks in `accept`, so a
//! connection is served as it arrives; the drain wakes it with a
//! connection of its own.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armus_core::window::Behind;
use armus_core::{
    DeadlockReport, ModelChoice, Pace, Pacer, ReportDedup, Signal, Window, DEFAULT_SG_THRESHOLD,
    REPORT_CAPACITY,
};
use parking_lot::Mutex;

use crate::detector::IncrementalDistChecker;
use crate::store::{delta_task, DeltaAck, Feed, MemStore, SiteId, TenantId};
use crate::wire::{self, Request, Response, ServerMetrics, TenantMetrics};

/// Default partition lease: a site that has not published for this long is
/// considered dead and its partition stops contributing to fetches. Must
/// comfortably exceed the sites' publish period (50 ms by default).
pub const DEFAULT_LEASE: Duration = Duration::from_secs(5);

/// Default idle timeout before a silent connection is reaped.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default bound on writing one response back to a peer.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default upper bound on how long a changed view waits for the
/// server-side checker that feeds subscribers (paper's 200 ms check
/// period, halved so a push usually beats a client's own polling round).
/// A bound, not a cadence: see [`StoredConfig::check_period`].
pub const DEFAULT_CHECK_PERIOD: Duration = Duration::from_millis(100);

/// Granularity of a connection's first-byte wait (bounds drain latency
/// without burning CPU), and the accept loop's back-off after a failed
/// `accept`.
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
    /// The longest a subscribed tenant's changed view waits for the
    /// server-side checker — an upper bound, not a cadence: the checker
    /// runs as soon as every site that wrote has said (by an empty
    /// interval) that its journal stood still, once a `check_period` while
    /// some site keeps writing or never says so, and not at all while
    /// nothing is published.
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

/// One subscription: the correlation id its report frames carry, its
/// connection's writer, and its cursor into the tenant's reports — `None`
/// until a round of the tenant ends, which sets it to the head and leaves
/// the report that round found standing to be sent first.
struct Subscriber {
    corr: u64,
    writer: Weak<Signal>,
    standing: Option<DeadlockReport>,
    at: Option<u64>,
}

/// A watched tenant's reports — those its checker found new, by a dedup
/// never reset while the tenant is watched — and its subscriptions.
struct Watched {
    reports: Window<DeadlockReport>,
    dedup: ReportDedup,
    subs: Vec<Subscriber>,
}

/// The subscription registry: each watched tenant's reports and the
/// cursors its subscriptions read them by. A tenant's entry lives as long
/// as a subscription of it does, and a subscription as long as its
/// connection's writer.
#[derive(Default)]
struct SubHub {
    tenants: Mutex<BTreeMap<TenantId, Watched>>,
    /// Report frames encoded for subscribers.
    streamed: AtomicU64,
}

impl SubHub {
    fn subscribe(&self, tenant: TenantId, corr: u64, writer: &Arc<Signal>) {
        let sub = Subscriber { corr, writer: Arc::downgrade(writer), standing: None, at: None };
        let new = || Watched {
            reports: Window::new(REPORT_CAPACITY),
            dedup: ReportDedup::new(),
            subs: Vec::new(),
        };
        self.tenants.lock().entry(tenant).or_insert_with(new).subs.push(sub);
    }

    /// Live subscriptions (pruning dead ones, and the tenants left with
    /// none): the total and the per-tenant breakdown.
    fn counts(&self) -> (u64, Vec<(TenantId, u64)>) {
        let mut tenants = self.tenants.lock();
        tenants.retain(|_, watched| {
            watched.subs.retain(|sub| sub.writer.strong_count() > 0);
            !watched.subs.is_empty()
        });
        let per_tenant: Vec<(TenantId, u64)> =
            tenants.iter().map(|(&tenant, w)| (tenant, w.subs.len() as u64)).collect();
        (per_tenant.iter().map(|&(_, subs)| subs).sum(), per_tenant)
    }

    /// The end of a round of `tenant` that found `standing`: a report new
    /// to the tenant joins its window, and a subscription no round had
    /// reached is to send `standing` once, then read from the head — no
    /// other hears it again. Wakes the writers with something to read; the
    /// encoding and the socket are theirs, so a stalled subscriber cannot
    /// hold the checker.
    fn publish(&self, tenant: TenantId, standing: Option<DeadlockReport>) {
        let mut tenants = self.tenants.lock();
        let Some(watched) = tenants.get_mut(&tenant) else { return };
        let grew = standing.as_ref().filter(|report| watched.dedup.is_new(report));
        if let Some(report) = grew {
            watched.reports.push(report.clone());
        }
        for sub in &mut watched.subs {
            if sub.at.is_none() {
                (sub.standing, sub.at) = (standing.clone(), Some(watched.reports.head()));
            }
            match sub.writer.upgrade() {
                Some(writer) if grew.is_some() || sub.standing.is_some() => writer.wake_if_parked(),
                _ => {}
            }
        }
    }

    /// The writer's read step: for each subscription `writer` writes for,
    /// its unsent standing report and every report past its cursor, each
    /// encoded into `out` on its correlation id, and the cursor moved to
    /// the head. [`Behind`]: a cursor fell a window behind; close.
    fn read(&self, writer: &Arc<Signal>, out: &mut Vec<u8>) -> Result<(), Behind> {
        for watched in self.tenants.lock().values_mut() {
            let mine = |sub: &&mut Subscriber| sub.writer.as_ptr() == Arc::as_ptr(writer);
            for sub in watched.subs.iter_mut().filter(mine) {
                let Some(at) = &mut sub.at else { continue };
                let new = watched.reports.since(*at)?;
                for report in sub.standing.take().into_iter().chain(new.cloned()) {
                    let response = Response::Report(report);
                    if wire::encode_frame_v2_into(out, sub.corr, &response).is_ok() {
                        self.streamed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                *at = watched.reports.head();
            }
        }
        Ok(())
    }
}

/// What paces one subscribed tenant's rounds, as a function of what the
/// connection threads saw and the clock, so that it is tested without
/// threads: a round when the tenant is dirty and every site that wrote has
/// settled, or a `check_period` after it became dirty or was last checked;
/// nothing while it is clean — a clean view cannot have grown a cycle, and
/// a lease that expires only removes edges.
///
/// Why a marker from the site and not a quiet interval measured here: the
/// store sees flushes, not journals. Two busy sites flushing once a publish
/// period arrive half a period apart, any quiet test shorter than that
/// passes between them, and a tenant whose sites never pause would be
/// checked several times a period instead of once. Only the site knows
/// whether its journal stood still, and its empty interval says so. The
/// marker is an optimisation and never load-bearing: lost, or never sent
/// (a client that is not a [`crate::site::Site`]), the period clause is
/// what runs the round.
struct TenantPace {
    /// Bumped by everything a round must answer to: a publish that changed
    /// a partition, a subscription. The tenant is dirty while the pacer has
    /// not covered it.
    seq: u64,
    /// Sites that wrote and have not said since that their journal stood
    /// still.
    unsettled: BTreeSet<SiteId>,
    /// The period clause. No quiet interval: see above.
    pacer: Pacer,
    /// The checker's duty bound: a tenant's round never starts sooner
    /// after its previous one ended than that one took. A round costs the
    /// tasks written since the one before, so this spaces the rounds of a
    /// tenant whose bursts are large, and is nothing to one whose rounds
    /// are a few look-ups.
    not_before: Instant,
}

impl TenantPace {
    fn new(check_period: Duration, now: Instant) -> TenantPace {
        TenantPace {
            seq: 0,
            unsettled: BTreeSet::new(),
            pacer: Pacer::new(check_period, Duration::MAX, now),
            not_before: now,
        }
    }

    fn is_dirty(&self) -> bool {
        self.pacer.is_new(self.seq)
    }

    /// Returns whether the tenant was clean: only then does the checker
    /// have a new deadline to learn of.
    fn dirty(&mut self, now: Instant) -> bool {
        let was_clean = !self.is_dirty();
        if was_clean {
            // Clean up to this moment is as good as checked at this moment:
            // the period runs from here, not from a round long ago.
            self.pacer.checked(self.seq, now);
        }
        self.seq += 1;
        was_clean
    }

    /// `site` published something that changed its partition.
    fn wrote(&mut self, site: SiteId, now: Instant) -> bool {
        self.unsettled.insert(site);
        self.dirty(now)
    }

    /// `site` said its journal stood still (or left). Returns whether that
    /// made a round due.
    fn settled(&mut self, site: SiteId) -> bool {
        self.unsettled.remove(&site) && self.unsettled.is_empty() && self.is_dirty()
    }

    fn decide(&mut self, now: Instant) -> Pace {
        let pace = if self.is_dirty() && self.unsettled.is_empty() {
            Pace::Check
        } else {
            self.pacer.decide(self.seq, now)
        };
        match pace {
            Pace::Check if now < self.not_before => Pace::Nap(self.not_before - now),
            pace => pace,
        }
    }

    /// Records a round that ran from `started` to `ended` over everything
    /// up to `seq`.
    fn ran(&mut self, seq: u64, started: Instant, ended: Instant) {
        self.pacer.checked(seq, ended);
        self.not_before = ended + ended.saturating_duration_since(started);
    }
}

/// One round the checker is to run now.
struct Due {
    tenant: TenantId,
    /// What the round covers ([`TenantPace::seq`] when it was planned).
    seq: u64,
}

/// The checker's next step, planned under the pacing lock.
struct Plan {
    /// Tenants with a live subscriber.
    live: BTreeSet<TenantId>,
    due: Vec<Due>,
    /// How long until a tenant that is not due becomes so by the clock
    /// alone; `None`: never.
    wait: Option<Duration>,
    /// [`PacingState::events`] as planned on: the park's second look.
    events: u64,
}

#[derive(Default)]
struct PacingState {
    tenants: BTreeMap<TenantId, TenantPace>,
    /// Counts what may give the checker something to do (or to forget)
    /// that the plan it parked on did not know — the head it follows.
    events: u64,
}

/// What the connection threads tell the checker, and the signal it parks
/// on in between. Each method is one step of one actor: it takes the lock,
/// changes the state, releases it, and (the connection's steps) wakes the
/// checker if it is parked.
struct Pacing {
    state: Mutex<PacingState>,
    signal: Signal,
    check_period: Duration,
}

impl Pacing {
    fn new(check_period: Duration) -> Pacing {
        Pacing { state: Mutex::default(), signal: Signal::new(), check_period }
    }

    /// A connection's step: applies `event` to `tenant`'s pace, if the
    /// tenant is subscribed, and wakes the checker when `event` says so.
    fn tell(&self, tenant: TenantId, event: impl FnOnce(&mut TenantPace) -> bool) {
        let wake = {
            let mut state = self.state.lock();
            let wake = state.tenants.get_mut(&tenant).is_some_and(event);
            state.events += u64::from(wake);
            wake
        };
        if wake {
            self.signal.wake_if_parked();
        }
    }

    /// A connection's step: `site` published something into `tenant` that
    /// changed its partition.
    fn wrote(&self, tenant: TenantId, site: SiteId, now: Instant) {
        self.tell(tenant, |pace| pace.wrote(site, now));
    }

    /// A connection's step: `site` sent `tenant` an empty interval — its
    /// journal stood still — or removed its partition.
    fn settled(&self, tenant: TenantId, site: SiteId) {
        self.tell(tenant, |pace| pace.settled(site));
    }

    /// A connection's step: a subscriber joined `tenant` (its ack is
    /// already on the wire, its subscription in the hub).
    fn subscribed(&self, tenant: TenantId, now: Instant) {
        {
            let mut state = self.state.lock();
            let check_period = self.check_period;
            let pace =
                state.tenants.entry(tenant).or_insert_with(|| TenantPace::new(check_period, now));
            pace.dirty(now);
            state.events += 1;
        }
        self.signal.wake_if_parked();
    }

    /// A connection's step: a subscribed connection closed, and the
    /// checker may have a tenant to forget.
    fn unsubscribed(&self) {
        self.state.lock().events += 1;
        self.signal.wake_if_parked();
    }

    fn events(&self) -> u64 {
        self.state.lock().events
    }

    /// The second look of a checker about to park on `plan`
    /// ([`Signal::park`]): has no connection told it anything since?
    fn nothing_told(&self, plan: &Plan) -> bool {
        self.events() == plan.events
    }

    /// The checker's step: forgets tenants nobody watches any more and
    /// decides every other one. The hub is read under the pacing lock, so a
    /// subscription registered after this look also tells its tenant after
    /// it.
    fn plan(&self, hub: &SubHub, now: Instant) -> Plan {
        let mut state = self.state.lock();
        let live: BTreeSet<TenantId> = hub.counts().1.into_iter().map(|(t, _)| t).collect();
        state.tenants.retain(|tenant, _| live.contains(tenant));
        let (mut due, mut wait) = (Vec::new(), None::<Duration>);
        for (&tenant, pace) in state.tenants.iter_mut() {
            match pace.decide(now) {
                Pace::Check => due.push(Due { tenant, seq: pace.seq }),
                Pace::Nap(left) => wait = Some(wait.map_or(left, |w| w.min(left))),
                Pace::Park => {}
            }
        }
        Plan { live, due, wait, events: state.events }
    }

    /// The checker's step after a round: what it covered, how long it
    /// took, and which sites' partitions it saw — one that is gone
    /// (removed, or its lease expired) will not say that it settled.
    fn ran(&self, due: &Due, present: &[SiteId], started: Instant, ended: Instant) {
        if let Some(pace) = self.state.lock().tenants.get_mut(&due.tenant) {
            pace.unsettled.retain(|site| present.contains(site));
            pace.ran(due.seq, started, ended);
        }
    }
}

/// State shared between the accept loop, connection threads, and the
/// server-side checker.
struct Shared {
    store: MemStore,
    cfg: StoredConfig,
    shutdown: Arc<AtomicBool>,
    /// Where the drain dials to wake the accept loop: the bound address,
    /// with a wildcard IP replaced by loopback.
    wake_addr: SocketAddr,
    /// Finished-or-running connection threads, joined on drain.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// The subscription registry.
    hub: SubHub,
    /// What the connection threads tell the checker.
    pacing: Pacing,
    /// Served requests (all kinds), for observability and tests.
    served: AtomicU64,
    /// Tenant rounds the checker has begun.
    rounds: AtomicU64,
    /// Connections dropped for protocol violations (malformed frames,
    /// version mismatches) — never panics, always a clean close.
    protocol_errors: AtomicU64,
    /// Connections currently open (a gauge, not a counter).
    live_connections: AtomicU64,
    /// Full-snapshot publish requests served.
    publishes: AtomicU64,
    /// Delta publish requests served.
    delta_publishes: AtomicU64,
    /// Whole views served: `ChangesSince` reads answered with a join.
    fetches: AtomicU64,
    /// `Remove` requests served.
    removes: AtomicU64,
    /// High-water mark of replies queued within one burst on any
    /// connection.
    reply_queue_max: AtomicU64,
}

impl Shared {
    /// Begins the drain: every connection loop sees the flag within a poll
    /// period, and the checker and the accept loop — which poll nothing —
    /// are stopped and woken.
    fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.pacing.signal.stop();
        // The accept loop blocks in `accept`: a connection of our own wakes
        // it to read the flag. Refused once the listener is gone, and then
        // there is nothing left to wake.
        let _ = TcpStream::connect_timeout(&self.wake_addr, POLL_PERIOD);
    }

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
            reports_streamed: self.hub.streamed.load(Ordering::Relaxed),
            reply_queue_max: self.reply_queue_max.load(Ordering::Relaxed),
            tenants: tenants.into_values().collect(),
            sites: self.store.site_stats(),
        }
    }
}

/// The server-side checker loop: plan ([`Pacing::plan`]), run the rounds
/// that are due — one tenant's [`round`] each, its report published to
/// that tenant's subscribers ([`SubHub::publish`]) — and park until a
/// connection thread has something to tell or the earliest period clause
/// runs out. Detection happens *at the store* — subscribers learn about
/// deadlocks without a single read of their own, and cross-tenant
/// isolation holds because each round reads exactly one tenant's log.
///
/// An idle store runs no rounds, and a tenant whose sites never pause is
/// checked once a `check_period`, as a fixed cadence would. In between, a
/// tenant whose sites emit isolated bursts more often than one a period is
/// checked once a burst, and a round costs what the burst changed: the
/// distinct tasks written since the tenant's previous round, each looked
/// up and applied once, whatever stands blocked beside them. What bounds
/// the checker's duty when the bursts are large is
/// [`TenantPace::not_before`]: a tenant's round never starts sooner after
/// its previous one than that one took, so no tenant holds the checker
/// more than half the time.
///
/// A tenant's checker lives exactly as long as it has a subscriber, as do
/// its report window and dedup, which each subscriber reads by its own
/// cursor ([`SubHub::publish`]).
fn checker_loop(shared: Arc<Shared>) {
    let mut checkers: HashMap<TenantId, IncrementalDistChecker> = HashMap::new();
    let pacing = &shared.pacing;
    loop {
        let plan = pacing.plan(&shared.hub, Instant::now());
        checkers.retain(|tenant, _| plan.live.contains(tenant));
        for due in &plan.due {
            run_round(&shared, checkers.entry(due.tenant).or_default(), due);
        }
        let stop = if plan.due.is_empty() {
            let timeout = plan.wait.unwrap_or(Duration::MAX);
            pacing.signal.park(|| pacing.nothing_told(&plan), timeout)
        } else {
            pacing.signal.wait(Duration::ZERO)
        };
        if stop {
            break;
        }
    }
}

/// One tenant's round, as a step: the checker's round over the tenant's
/// change log (the whole view on the join, which is the one time the
/// checker reads it). Returns the report that stands — every round names
/// it, new or not; the tenant's dedup decides who hears it — and the
/// sites present.
fn round(
    store: &MemStore,
    tenant: TenantId,
    checker: &mut IncrementalDistChecker,
) -> (Option<DeadlockReport>, Vec<SiteId>) {
    let read = |cursor| store.changes_since_in(tenant, cursor);
    let check = checker.follow(read, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
    (check.ok().and_then(|check| check.report), store.sites_in(tenant))
}

/// Runs one tenant's [`round`], publishes what it found, and tells the
/// pacing what it covered.
fn run_round(shared: &Shared, checker: &mut IncrementalDistChecker, due: &Due) {
    let started = Instant::now();
    shared.rounds.fetch_add(1, Ordering::Relaxed);
    let (standing, present) = round(&shared.store, due.tenant, checker);
    shared.hub.publish(due.tenant, standing);
    shared.pacing.ran(due, &present, started, Instant::now());
}

impl StoredServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop.
    pub fn bind(addr: impl ToSocketAddrs, cfg: StoredConfig) -> io::Result<StoredServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let store = match cfg.lease {
            Some(ttl) => MemStore::with_lease(ttl),
            None => MemStore::new(),
        };
        let shared = Arc::new(Shared {
            store,
            cfg,
            shutdown: Arc::clone(&shutdown),
            wake_addr,
            conns: Mutex::new(Vec::new()),
            hub: SubHub::default(),
            pacing: Pacing::new(cfg.check_period),
            served: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            delta_publishes: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            removes: AtomicU64::new(0),
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

    /// Tenant rounds the server-side checker has begun so far: none while
    /// nothing is published, one a [`StoredConfig::check_period`] at most
    /// for a tenant whose sites never pause.
    pub fn rounds(&self) -> u64 {
        self.shared.rounds.load(Ordering::Relaxed)
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
        self.shared.drain();
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
        self.shared.drain();
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
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
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
            // Out of descriptors and the like: back off, do not spin.
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
///
/// Server-initiated frames (streamed reports) do not wait for any of that:
/// once the connection subscribes, a writer thread of its own
/// ([`push_writer`]) parks on a [`Signal`] of the connection's and writes
/// each report as a round publishes it. Both writers take the
/// connection's write lock for a whole batch, so frames never interleave.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_PERIOD)).is_err()
        || stream.set_write_timeout(Some(shared.cfg.write_timeout)).is_err()
    {
        return;
    }
    shared.live_connections.fetch_add(1, Ordering::Relaxed);
    let stream = Arc::new(stream);
    let write_lock = Arc::new(Mutex::new(()));
    let mut frames = wire::FrameBuffer::new();
    let mut replies: Vec<u8> = Vec::new();
    let pushes: Arc<Signal> = Arc::default();
    let mut writer: Option<JoinHandle<()>> = None;
    let mut chunk = vec![0u8; 64 * 1024];
    // Both the idle bound and the mid-frame stall bound: a peer that goes
    // quiet for the read timeout is reaped whether or not it left half a
    // frame behind. A subscribed peer is legitimately quiet forever, so
    // subscribing exempts the connection from idle reaping.
    let mut last_data = Instant::now();
    'conn: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) => break, // peer hung up
            Ok(n) => {
                last_data = Instant::now();
                frames.feed(&chunk[..n]);
                let mut drain = false;
                let mut burst = 0u64;
                // Subscriptions of this burst: (tenant, correlation id).
                let mut joined: Vec<(TenantId, u64)> = Vec::new();
                while !drain {
                    match frames.next_frame::<Request>() {
                        Ok(Some(frame)) => {
                            shared.served.fetch_add(1, Ordering::Relaxed);
                            let (response, drain_after) = handle(&frame, &shared);
                            if let Request::Subscribe { tenant } = frame.msg {
                                joined.push((tenant, frame.corr));
                            }
                            if drain_after {
                                // Set the flag *before* answering: a drain
                                // must not be lost to a failed response
                                // write (the peer may fire-and-close), or
                                // the server lives forever.
                                shared.drain();
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
                            let _ = flush_replies(&stream, &write_lock, &mut replies);
                            break 'conn;
                        }
                    }
                }
                shared.reply_queue_max.fetch_max(burst, Ordering::Relaxed);
                if flush_replies(&stream, &write_lock, &mut replies).is_err() || drain {
                    break;
                }
                // Only now that the `Subscribed` ack is on the wire may a
                // report follow it — the client takes a stream's first
                // frame for its ack: start the writer, register with the
                // hub, then tell the checker that someone wants the
                // standing state.
                if !joined.is_empty() && writer.is_none() {
                    let (shared, stream) = (Arc::clone(&shared), Arc::clone(&stream));
                    let (lock, signal) = (Arc::clone(&write_lock), Arc::clone(&pushes));
                    writer = std::thread::Builder::new()
                        .name("armus-stored-push".into())
                        .spawn(move || push_writer(&shared.hub, &stream, &lock, &signal))
                        .ok();
                    if writer.is_none() {
                        break; // no thread to write reports with: let the peer reconnect
                    }
                }
                for (tenant, corr) in joined {
                    // Every future report frame for the tenant carries the
                    // subscription's correlation id, so the client's
                    // demultiplexer can route the stream beside its
                    // ordinary request traffic.
                    shared.hub.subscribe(tenant, corr, &pushes);
                    shared.pacing.subscribed(tenant, Instant::now());
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if writer.is_none() && last_data.elapsed() >= shared.cfg.read_timeout {
                    break; // reap the idle (or mid-frame stalled) peer
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    if let Some(writer) = writer {
        pushes.stop();
        let _ = writer.join();
        drop(pushes);
        shared.pacing.unsubscribed();
    }
    shared.live_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Writes the queued replies for one burst in a single `write_all` and
/// clears the queue.
fn flush_replies(
    stream: &TcpStream,
    write_lock: &Mutex<()>,
    replies: &mut Vec<u8>,
) -> io::Result<()> {
    if replies.is_empty() {
        return Ok(());
    }
    let _writing = write_lock.lock();
    let result = (&*stream).write_all(replies);
    replies.clear();
    result
}

/// A subscribed connection's writer: parks until a round has grown one of
/// its tenants' report windows or ended a subscription's wait
/// ([`SubHub::publish`]), then reads each subscription's reports past its
/// cursor into a buffer of its own ([`SubHub::read`]) and writes it
/// outside every lock but the socket's — no request from the peer and no
/// read timeout in between. A slow peer holds nothing the checker needs
/// and costs at most one window: a writer whose cursor the window dropped
/// closes the connection, as does a failed write, which ends the
/// connection's read loop. An idle connection costs a parked thread and
/// no polling.
fn push_writer(hub: &SubHub, stream: &TcpStream, write_lock: &Mutex<()>, signal: &Arc<Signal>) {
    let mut frames = Vec::new();
    loop {
        let stop = match hub.read(signal, &mut frames) {
            Ok(()) if frames.is_empty() => {
                let nothing_new = || hub.read(signal, &mut frames).is_ok() && frames.is_empty();
                signal.park(nothing_new, Duration::MAX)
            }
            Ok(()) => {
                let _writing = write_lock.lock();
                if (&*stream).write_all(&frames).is_err() {
                    break;
                }
                frames.clear();
                signal.is_stopped()
            }
            Err(Behind) => break,
        };
        if stop {
            return;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Rejects a publish whose ids could not survive the checkers'
/// site-namespacing merge: the site must fit the tag range and every
/// task id must be un-namespaced (≤ [`armus_core::MAX_LOCAL_TASK`]).
/// Catching this at the boundary gives the out-of-protocol peer an
/// explicit error instead of a silently skipped partition.
fn validate_publish(
    site: SiteId,
    mut tasks: impl Iterator<Item = armus_core::TaskId>,
) -> Option<Response> {
    if site.0 > armus_core::MAX_SITE_TAG {
        return Some(Response::Error(format!("site {} beyond the namespace tag range", site.0)));
    }
    tasks
        .find(|t| t.checked_with_site(site.0).is_none())
        .map(|task| Response::Error(format!("task id {:#x} cannot be site-namespaced", task.0)))
}

/// Applies one request to the store, dispatching every data-path
/// operation into the request's tenant namespace. The boolean asks the
/// connection loop to begin the drain after responding.
fn handle(frame: &wire::Frame<Request>, shared: &Shared) -> (Response, bool) {
    let store = &shared.store;
    let request = &frame.msg;
    let response = match request {
        Request::PublishFull { site, tenant, snapshot, version } => {
            shared.publishes.fetch_add(1, Ordering::Relaxed);
            match validate_publish(*site, snapshot.tasks.iter().map(|b| b.task)) {
                Some(rejection) => rejection,
                None => match store.publish_full_in(*tenant, *site, snapshot.clone(), *version) {
                    Ok(()) => {
                        shared.pacing.wrote(*tenant, *site, Instant::now());
                        Response::Ok
                    }
                    Err(e) => Response::Error(e.to_string()),
                },
            }
        }
        Request::PublishDeltas { site, tenant, base, deltas, next } => {
            shared.delta_publishes.fetch_add(1, Ordering::Relaxed);
            match validate_publish(*site, deltas.iter().map(delta_task)) {
                Some(rejection) => rejection,
                None => match store.publish_deltas_in(*tenant, *site, *base, deltas, *next) {
                    Ok(DeltaAck::Applied) => {
                        // An empty interval is the site saying that its
                        // journal stood still.
                        if deltas.is_empty() {
                            shared.pacing.settled(*tenant, *site);
                        } else {
                            shared.pacing.wrote(*tenant, *site, Instant::now());
                        }
                        Response::Applied
                    }
                    Ok(DeltaAck::NeedSnapshot) => Response::NeedSnapshot,
                    Err(e) => Response::Error(e.to_string()),
                },
            }
        }
        Request::ChangesSince { tenant, cursor } => {
            match store.changes_since_in(*tenant, *cursor) {
                Ok((cursor, feed)) => {
                    if matches!(feed, Feed::Join(_)) {
                        shared.fetches.fetch_add(1, Ordering::Relaxed);
                    }
                    Response::Changes { cursor, feed }
                }
                Err(e) => Response::Error(e.to_string()),
            }
        }
        Request::Remove { site, tenant } => {
            shared.removes.fetch_add(1, Ordering::Relaxed);
            match store.remove_in(*tenant, *site) {
                Ok(()) => {
                    // A site that left will not say that it settled.
                    shared.pacing.settled(*tenant, *site);
                    Response::Ok
                }
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
        // Acknowledged here, registered by the connection loop once the
        // ack is flushed: no report may reach the socket before it.
        Request::Subscribe { .. } => Response::Subscribed,
        Request::Shutdown => Response::Ok,
    };
    (response, matches!(request, Request::Shutdown))
}

#[cfg(test)]
mod round_tests;

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

    /// A read without a cursor: the tenant's whole view.
    fn fetch(tenant: TenantId) -> Request {
        Request::ChangesSince { tenant, cursor: None }
    }

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
        match talk(addr, &fetch(T0)) {
            Response::Changes { feed: Feed::Join(view), .. } => {
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
        match talk(server.local_addr(), &fetch(T0)) {
            Response::Changes { feed: Feed::Join(view), .. } => assert_eq!(view.len(), 5),
            other => panic!("expected a view, got {other:?}"),
        }
        server.shutdown();
    }

    /// The accept loop blocks in `accept`, and the drain wakes it by
    /// dialling the bound address — loopback in place of a wildcard IP. A
    /// wake that went nowhere would leave `shutdown` joining it for ever.
    #[test]
    fn a_server_bound_to_every_interface_drains() {
        let server = StoredServer::bind("0.0.0.0:0", StoredConfig::default()).unwrap();
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, server.local_addr().port()));
        match talk(addr, &fetch(T0)) {
            Response::Changes { feed: Feed::Join(view), .. } => assert!(view.is_empty()),
            other => panic!("expected a view, got {other:?}"),
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("the drain never woke the accept loop");
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
            match talk(addr, &fetch(tenant)) {
                Response::Changes { feed: Feed::Join(view), .. } => {
                    assert_eq!(view.len(), 1, "exactly the tenant's own partition");
                    assert_eq!(view[0].1.tasks[0].task, TaskId(task));
                }
                other => panic!("expected a view, got {other:?}"),
            }
        }
        // Removing tenant a's partition leaves tenant b's untouched.
        assert_eq!(talk(addr, &Request::Remove { site: SiteId(0), tenant: a }), Response::Ok);
        match talk(addr, &fetch(b)) {
            Response::Changes { feed: Feed::Join(view), .. } => assert_eq!(view.len(), 1),
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
                wire::encode_frame_v2_into(&mut frame, 1, &fetch(T0)).unwrap();
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
        match talk(addr, &fetch(T0)) {
            Response::Changes { feed: Feed::Join(view), .. } => assert!(view.is_empty()),
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

    /// A subscription's ack must be the first frame of its stream (the
    /// client kills the connection otherwise), so nothing may be able to
    /// push a report under its correlation id while the ack still sits in
    /// the reply queue: answering the request registers nothing — the
    /// connection loop does, after the flush.
    #[test]
    fn answering_a_subscribe_registers_nothing_before_its_ack_is_flushed() {
        let server = StoredServer::bind("127.0.0.1:0", StoredConfig::default()).unwrap();
        let frame = wire::Frame { corr: 9, msg: Request::Subscribe { tenant: T0 } };
        assert_eq!(handle(&frame, &server.shared), (Response::Subscribed, false));
        assert_eq!(server.shared.hub.counts().0, 0, "a report could overtake the ack");
        // Through a connection, the same request does subscribe.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(exchange(&mut stream, &Request::Subscribe { tenant: T0 }), Response::Subscribed);
        // The connection registers after the flush, so a metrics read can
        // overtake it: read until it lands.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let Response::Metrics(m) = talk(server.local_addr(), &Request::Metrics) else {
                panic!("expected metrics");
            };
            if m.subscribers == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "{} subscribers after 5 s", m.subscribers);
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
    }

    const PERIOD: Duration = Duration::from_millis(160);
    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A tenant whose subscriber's own round has run: clean, as of `t0`.
    fn watched(t0: Instant) -> TenantPace {
        let mut pace = TenantPace::new(PERIOD, t0);
        assert_eq!(pace.decide(t0), Pace::Park, "nobody has subscribed yet");
        pace.dirty(t0);
        assert_eq!(pace.decide(t0), Pace::Check, "a subscriber wants the standing state");
        pace.ran(pace.seq, t0, t0);
        pace
    }

    #[test]
    fn tenant_pace_parks_while_clean_and_ignores_a_marker_without_dirt() {
        let t0 = Instant::now();
        let mut pace = watched(t0);
        assert_eq!(pace.decide(t0), Pace::Park);
        assert_eq!(pace.decide(t0 + 100 * PERIOD), Pace::Park, "an idle tenant is not checked");
        assert!(!pace.settled(A), "a heartbeat from a site that wrote nothing");
        assert_eq!(pace.decide(t0 + 100 * PERIOD), Pace::Park);
        // Nor does the marker of a site whose writes a round already covered.
        assert!(pace.wrote(A, t0 + 100 * PERIOD));
        pace.ran(pace.seq, t0 + 101 * PERIOD, t0 + 101 * PERIOD);
        assert!(!pace.settled(A));
        assert_eq!(pace.decide(t0 + 102 * PERIOD), Pace::Park);
    }

    #[test]
    fn tenant_pace_runs_a_round_when_every_site_that_wrote_has_settled() {
        let t0 = Instant::now();
        let mut pace = watched(t0);
        // Long after the last round: the period runs from the write, not
        // from there.
        let t1 = t0 + 10 * PERIOD;
        assert!(pace.wrote(A, t1), "the checker learns of its new deadline");
        assert!(!pace.wrote(B, t1 + ms(1)), "which a second write does not move");
        assert_eq!(pace.decide(t1 + ms(1)), Pace::Nap(PERIOD - ms(1)));
        assert!(!pace.settled(A), "B has not settled");
        assert_eq!(pace.decide(t1 + ms(2)), Pace::Nap(PERIOD - ms(2)));
        assert!(pace.settled(B), "the last marker wakes the checker");
        assert_eq!(pace.decide(t1 + ms(3)), Pace::Check);
        pace.ran(pace.seq, t1 + ms(3), t1 + ms(4));
        assert_eq!(pace.decide(t1 + ms(5)), Pace::Park, "exactly one round");
    }

    #[test]
    fn tenant_pace_waits_out_the_period_for_a_site_that_does_not_settle() {
        let t0 = Instant::now();
        let mut pace = watched(t0);
        pace.wrote(A, t0 + ms(20));
        pace.wrote(B, t0 + ms(21));
        assert!(!pace.settled(B));
        // A keeps writing and never says that it stood still.
        let (mut now, mut last_round, mut rounds) = (t0 + ms(21), t0 + ms(20), 0);
        loop {
            pace.wrote(A, now);
            match pace.decide(now) {
                Pace::Nap(left) => now += left.min(ms(5)),
                Pace::Check => {
                    assert_eq!(now - last_round, PERIOD, "round {rounds}: not before, not after");
                    pace.ran(pace.seq, now, now);
                    (last_round, rounds) = (now, rounds + 1);
                    if rounds == 5 {
                        break;
                    }
                }
                Pace::Park => panic!("parked while dirty"),
            }
        }
        // A site that left is not waited for.
        pace.wrote(B, now);
        assert!(!pace.settled(B));
        assert!(pace.settled(A), "A's partition was removed");
        assert_eq!(pace.decide(now + ms(1)), Pace::Check);
    }

    #[test]
    fn tenant_pace_never_starts_a_round_sooner_after_the_last_than_that_one_took() {
        let t0 = Instant::now();
        let mut pace = watched(t0);
        // Isolated bursts, each settled, arriving faster than rounds run:
        // every round took 3 ms, so at least 3 ms lie between two of them.
        let mut now = t0 + ms(10);
        for burst in 0..5 {
            pace.wrote(A, now);
            assert!(pace.settled(A));
            match pace.decide(now) {
                Pace::Check => assert_eq!(burst, 0, "only the first finds the checker rested"),
                Pace::Nap(left) => {
                    assert_eq!(left, ms(2), "burst {burst}");
                    now += left;
                    assert_eq!(pace.decide(now), Pace::Check);
                }
                Pace::Park => panic!("burst {burst}: parked while dirty and settled"),
            }
            pace.ran(pace.seq, now, now + ms(3));
            now += ms(4);
        }
    }

    /// The handshake between a connection thread telling the checker that
    /// a site settled and the checker parking on what it planned, played
    /// by hand: the connection's step is `Pacing::settled`, the checker's
    /// steps are `Pacing::plan` and the second look `Signal::park` takes.
    /// The marker is placed in each window in turn; with an hour-long
    /// period, a marker lost in any of them shows as a time-out.
    #[test]
    fn checker_handshake_keeps_a_marker_told_in_any_window_of_the_park() {
        let hour = Duration::from_secs(3600);
        let tenant = TenantId(7);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (hub, pacing) = (SubHub::default(), Pacing::new(hour));
            let writer: Arc<Signal> = Arc::default();
            hub.subscribe(tenant, 1, &writer);
            pacing.subscribed(tenant, Instant::now());
            // The checker's round for `due`, and a plan that finds nothing
            // to run: some site wrote and has not settled.
            let ran = |pacing: &Pacing, due: &Due| {
                let now = Instant::now();
                pacing.ran(due, &[A], now, now);
            };
            let parked_plan = |pacing: &Pacing| {
                let plan = pacing.plan(&hub, Instant::now());
                assert_eq!(plan.due.len(), 1, "the subscription, or the last window's marker");
                ran(pacing, &plan.due[0]);
                pacing.wrote(tenant, A, Instant::now());
                let plan = pacing.plan(&hub, Instant::now());
                assert!(plan.due.is_empty() && plan.wait.is_some(), "dirty, unsettled: the period");
                plan
            };
            let second_look = |plan: &Plan| pacing.nothing_told(plan);
            // After the plan, before the checker announces the wait:
            // nobody is parked, so the marker leaves no wake-up — the
            // second look finds it.
            let plan = parked_plan(&pacing);
            pacing.settled(tenant, A);
            assert!(!pacing.signal.park(|| second_look(&plan), hour));
            // Between the announcement and the second look: the look finds
            // it (and the marker's wake-up is spare).
            let plan = parked_plan(&pacing);
            let stop = pacing.signal.park(
                || {
                    pacing.settled(tenant, A);
                    second_look(&plan)
                },
                hour,
            );
            assert!(!stop);
            // After the second look, before the wait: the marker found the
            // flag, and its wake-up waits for the wait.
            let plan = parked_plan(&pacing);
            let stop = pacing.signal.park(
                || {
                    let nothing_new = second_look(&plan);
                    pacing.settled(tenant, A);
                    nothing_new
                },
                hour,
            );
            assert!(!stop);
            assert_eq!(pacing.plan(&hub, Instant::now()).due.len(), 1, "and the round is due");
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("the park waited: a marker was lost");
    }

    #[test]
    fn pacing_forgets_a_tenant_with_its_last_subscriber_and_tells_only_watched_ones() {
        let (hub, pacing) = (SubHub::default(), Pacing::new(PERIOD));
        let now = Instant::now();
        // Nobody watches tenant 1: its publishes are nobody's business.
        pacing.wrote(TenantId(1), A, now);
        assert_eq!(pacing.events(), 0);
        assert!(pacing.plan(&hub, now).live.is_empty());
        let writer: Arc<Signal> = Arc::default();
        hub.subscribe(TenantId(1), 1, &writer);
        pacing.subscribed(TenantId(1), now);
        let plan = pacing.plan(&hub, now);
        assert_eq!(plan.live.len(), 1);
        assert_eq!(plan.due.len(), 1, "a subscriber wants the standing state");
        // The connection goes: the checker is told, and its next plan
        // drops the tenant.
        drop(writer);
        pacing.unsubscribed();
        assert_eq!(pacing.events(), plan.events + 1);
        let plan = pacing.plan(&hub, now);
        assert!(plan.live.is_empty() && plan.due.is_empty() && plan.wait.is_none());
        assert!(pacing.state.lock().tenants.is_empty());
        assert!(hub.tenants.lock().is_empty(), "nor does the hub keep its reports");
    }

    /// A report naming `task` alone.
    fn report(task: u64) -> DeadlockReport {
        DeadlockReport {
            tasks: vec![TaskId(task)],
            resources: vec![Resource::new(PhaserId(task), 1)],
            model: armus_core::GraphModel::Wfg,
            witness: armus_core::CycleWitness::Tasks(vec![TaskId(task), TaskId(task)]),
            task_epochs: vec![(TaskId(task), 1)],
        }
    }

    /// What one read of `writer`'s subscriptions (on correlation id 1)
    /// encodes: the writer's step, without its socket.
    pub(super) fn heard(hub: &SubHub, writer: &Arc<Signal>) -> Vec<DeadlockReport> {
        let (mut out, before) = (Vec::new(), hub.streamed.load(Ordering::Relaxed));
        hub.read(writer, &mut out).expect("a cursor inside the window");
        let mut frames = wire::FrameBuffer::new();
        frames.feed(&out);
        let heard: Vec<DeadlockReport> = std::iter::from_fn(|| frames.next_frame().unwrap())
            .map(|frame| match frame {
                wire::Frame { corr: 1, msg: Response::Report(report) } => report,
                other => panic!("expected a report on correlation id 1, got {other:?}"),
            })
            .collect();
        let streamed = hub.streamed.load(Ordering::Relaxed) - before;
        assert_eq!(streamed, heard.len() as u64, "one count per frame");
        heard
    }

    /// A hub whose tenant holds reports 1 to 6 at positions 0 to 5 in a
    /// window of 4 — `[2, 6]` — and one subscription at cursor `at`, with
    /// `standing` unsent.
    fn reading_at(at: u64, standing: Option<DeadlockReport>) -> (SubHub, Arc<Signal>) {
        let (hub, writer) = (SubHub::default(), Arc::default());
        hub.subscribe(T0, 1, &writer);
        let mut tenants = hub.tenants.lock();
        let watched = tenants.get_mut(&T0).unwrap();
        watched.reports = Window::new(4);
        (1..=6).for_each(|task| watched.reports.push(report(task)));
        (watched.subs[0].standing, watched.subs[0].at) = (standing, Some(at));
        drop(tenants);
        (hub, writer)
    }

    #[test]
    fn a_read_sends_the_reports_past_its_cursor_and_moves_it_to_the_head() {
        for at in 2..=6 {
            let (hub, writer) = reading_at(at, None);
            let past: Vec<DeadlockReport> = (at + 1..=6).map(report).collect();
            assert_eq!(heard(&hub, &writer), past, "from {at}");
            assert_eq!(hub.tenants.lock()[&T0].subs[0].at, Some(6), "from {at}: at the head");
            assert_eq!(heard(&hub, &writer), [], "from {at}: caught up");
        }
        // The standing report goes first, once.
        let (hub, writer) = reading_at(5, Some(report(9)));
        assert_eq!(heard(&hub, &writer), [report(9), report(6)]);
        assert_eq!(heard(&hub, &writer), []);
    }

    #[test]
    fn a_cursor_outside_the_window_reads_behind_and_sends_nothing() {
        // Cursors the window dropped, and past the head (another window's).
        for at in [0, 1, 7, 8] {
            let (hub, writer) = reading_at(at, Some(report(9)));
            let mut out = Vec::new();
            assert_eq!(hub.read(&writer, &mut out), Err(Behind), "at {at}: close");
            assert!(out.is_empty(), "at {at}");
        }
        // A subscriber that read nothing while a window and one more grew.
        let hub = SubHub::default();
        let writer: Arc<Signal> = Arc::default();
        hub.subscribe(T0, 1, &writer);
        hub.publish(T0, None);
        for task in 1..=REPORT_CAPACITY as u64 + 1 {
            hub.publish(T0, Some(report(task)));
        }
        assert_eq!(hub.read(&writer, &mut Vec::new()), Err(Behind));
    }

    #[test]
    fn a_joiner_hears_the_standing_report_once_then_only_what_the_window_gains() {
        let hub = SubHub::default();
        let (first, joiner): (Arc<Signal>, Arc<Signal>) = Default::default();
        hub.subscribe(T0, 1, &first);
        assert_eq!(heard(&hub, &first), [], "no round has ended since it subscribed");
        hub.publish(T0, Some(report(1)));
        assert_eq!(heard(&hub, &first), [report(1)]);
        hub.subscribe(T0, 1, &joiner);
        // The round the subscription asked for finds the same report.
        hub.publish(T0, Some(report(1)));
        assert_eq!(heard(&hub, &joiner), [report(1)], "the standing report, once");
        assert_eq!(heard(&hub, &first), [], "the first hears nothing again");
        for _ in 0..3 {
            hub.publish(T0, Some(report(1)));
            hub.publish(T0, None);
        }
        assert_eq!((heard(&hub, &joiner), heard(&hub, &first)), (vec![], vec![]));
        // The window grows: both hear the new report, once.
        hub.publish(T0, Some(report(2)));
        assert_eq!((heard(&hub, &joiner), heard(&hub, &first)), (vec![report(2)], vec![report(2)]));
        // Another tenant's rounds move neither.
        hub.publish(TenantId(3), Some(report(3)));
        assert_eq!((heard(&hub, &joiner), heard(&hub, &first)), (vec![], vec![]));
        // A joiner whose first round finds nothing standing hears nothing.
        let late: Arc<Signal> = Arc::default();
        hub.subscribe(T0, 1, &late);
        hub.publish(T0, None);
        assert_eq!(heard(&hub, &late), []);
        assert_eq!(hub.counts(), (3, vec![(T0, 3)]));
    }
}
