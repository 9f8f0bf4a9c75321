//! The store wire protocol: compact length-prefixed binary frames for the
//! site ↔ `armus-stored` conversation.
//!
//! Every frame is
//! `[u32 LE payload length][u8 version = 2][u64 LE correlation id][u8 kind][flat body]`
//! — a hand-rolled flat layout with fixed-width little-endian headers and
//! contiguous arrays (no intermediate tree on either side, one pass each
//! way). The correlation id lets many requests be in flight per
//! connection: responses carry the id of the request they answer, so a
//! demultiplexer ([`crate::tcp::TcpStore`]) can share one connection
//! between many sites. Encoding appends into a caller-owned reused buffer
//! ([`encode_frame_v2_into`]) so the hot publish path allocates nothing in
//! steady state.
//!
//! Decoding is **total**: truncated frames, oversized length prefixes
//! ([`MAX_FRAME_LEN`]), any other version byte, unknown kinds and tags,
//! hostile element counts and trailing bytes all surface as
//! [`WireError`]s — the server answers by closing the connection, never by
//! panicking (see `tests/wire_props.rs`).

use std::io;

use armus_core::{
    BlockedInfo, CycleWitness, DeadlockReport, Delta, GraphModel, PhaserId, Resource, Snapshot,
    TaskId,
};

use crate::store::{Feed, SiteId, SiteStats, TenantId};

/// The flat pipelined payload version carrying correlation ids — the one
/// version this build speaks. A frame carrying any other version byte is
/// rejected with [`WireError::Version`] (a new version changes the byte,
/// so old peers fail cleanly instead of misparsing).
pub const WIRE_V2: u8 = 2;

/// Upper bound on a frame's payload length. A length prefix beyond this is
/// treated as malformed before any allocation happens, so a garbage or
/// hostile peer cannot make the server reserve gigabytes.
pub const MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Elements the decoder pre-reserves per container at most. Declared
/// counts are peer-controlled; anything beyond this grows organically,
/// bounding the up-front allocation a hostile count can trigger.
const PREALLOC_CAP: usize = 4096;

/// Wire failures. Transport-level ([`WireError::Io`]) and protocol-level
/// ([`WireError::Malformed`], [`WireError::Version`]) failures are
/// distinguished so callers can log precisely, but both end the
/// connection: there is no in-band resync point mid-stream.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes mid-frame EOF).
    Io(io::Error),
    /// The peer announced an unsupported protocol version.
    Version(u8),
    /// The bytes do not decode to a message of the expected shape.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire transport error: {e}"),
            WireError::Version(v) => {
                write!(f, "unsupported wire version {v} (this build speaks v{WIRE_V2})")
            }
            WireError::Malformed(m) => write!(f, "malformed wire frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

// --- requests and responses ------------------------------------------------

/// A client → server message: the [`crate::store::Store`] operations —
/// every data-path op tagged with the caller's [`TenantId`] namespace —
/// plus the observability ops and the administrative drain command.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// [`crate::store::Store::publish_full`].
    PublishFull {
        /// Publishing site.
        site: SiteId,
        /// The caller's namespace.
        tenant: TenantId,
        /// Replacement partition.
        snapshot: Snapshot,
        /// The publisher's journal cursor the partition is at.
        version: u64,
    },
    /// [`crate::store::Store::publish_deltas`].
    PublishDeltas {
        /// Publishing site.
        site: SiteId,
        /// The caller's namespace.
        tenant: TenantId,
        /// Journal version the deltas start from.
        base: u64,
        /// The delta interval `[base, next)`.
        deltas: Vec<Delta>,
        /// Journal version after the interval.
        next: u64,
    },
    /// [`crate::store::Store::changes_since`], scoped to one tenant's
    /// change log; [`crate::store::Store::fetch_all`] is the read without
    /// a cursor.
    ChangesSince {
        /// The caller's namespace.
        tenant: TenantId,
        /// Where the reader stands in the log, if anywhere.
        cursor: Option<u64>,
    },
    /// [`crate::store::Store::remove`].
    Remove {
        /// Site whose partition is dropped.
        site: SiteId,
        /// The caller's namespace.
        tenant: TenantId,
    },
    /// Administrative graceful drain: the server stops accepting, finishes
    /// in-flight requests, and exits — the SIGTERM equivalent of a
    /// containerised deployment, delivered in-band.
    Shutdown,
    /// Observability scrape: answered with [`Response::Metrics`]. Not
    /// tenant-scoped — the metrics surface is operator-facing and reports
    /// on every tenant.
    Metrics,
    /// Turns this connection into a push channel for `tenant`'s deadlock
    /// reports: the server acks with [`Response::Subscribed`] (echoing this
    /// request's correlation id), then streams [`Response::Report`] frames
    /// on the *same* correlation id: the deadlock that stands, then each
    /// new one its checker confirms in the tenant's merged view. The
    /// subscription lives until the connection closes.
    Subscribe {
        /// The namespace whose reports are streamed.
        tenant: TenantId,
    },
    /// [`crate::store::Store::publish_stats`]: a site's observability
    /// counters, folded into the server's metrics surface.
    PublishStats {
        /// Publishing site.
        site: SiteId,
        /// The caller's namespace.
        tenant: TenantId,
        /// The counters.
        stats: SiteStats,
    },
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The operation succeeded with nothing to return.
    Ok,
    /// A delta publish was applied at the new version.
    Applied,
    /// A delta publish was declined: the site must resync with a full
    /// snapshot.
    NeedSnapshot,
    /// What changed since the read's cursor, and the cursor to read from
    /// next.
    Changes {
        /// The log's head, as the feed reflects it.
        cursor: u64,
        /// The tasks written since the cursor, or the whole view.
        feed: Feed,
    },
    /// The server could not serve the request.
    Error(String),
    /// The metrics scrape answering [`Request::Metrics`].
    Metrics(ServerMetrics),
    /// Acknowledges [`Request::Subscribe`]: reports will now stream on
    /// this correlation id.
    Subscribed,
    /// A pushed deadlock report on a subscribed correlation id.
    Report(DeadlockReport),
}

/// Per-tenant slice of the server's metrics surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// The namespace.
    pub tenant: TenantId,
    /// Live (lease-respecting) partitions.
    pub partitions: u64,
    /// Partitions dropped by lease expiry since the server started.
    pub lease_expiries: u64,
    /// Connections currently subscribed to this tenant's reports.
    pub subscribers: u64,
}

impl TenantMetrics {
    /// A zeroed slice for `tenant`.
    pub fn new(tenant: TenantId) -> TenantMetrics {
        TenantMetrics { tenant, ..TenantMetrics::default() }
    }
}

/// The server's observability snapshot, answered to [`Request::Metrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Requests served since the server started.
    pub served: u64,
    /// Connections dropped for undecodable traffic.
    pub protocol_errors: u64,
    /// Connections currently open.
    pub live_connections: u64,
    /// Subscriptions currently live (across all tenants).
    pub subscribers: u64,
    /// Full-snapshot publishes served.
    pub publishes: u64,
    /// Delta publishes served.
    pub delta_publishes: u64,
    /// Whole views served: `ChangesSince` reads answered with a join.
    pub fetches: u64,
    /// `Remove` requests served.
    pub removes: u64,
    /// Deadlock reports pushed to subscribers.
    pub reports_streamed: u64,
    /// High-water mark of any connection's reply queue within a burst.
    pub reply_queue_max: u64,
    /// Per-tenant gauges, sorted by tenant.
    pub tenants: Vec<TenantMetrics>,
    /// The latest [`SiteStats`] each site published, keyed
    /// `(tenant, site)`.
    pub sites: Vec<(TenantId, SiteId, SiteStats)>,
}

// --- flat codec ------------------------------------------------------------

/// Flat fixed-width byte size of a `Resource` / `Registration`: two
/// little-endian `u64`s.
const FLAT_PAIR: usize = 16;
/// Flat header size of a [`BlockedInfo`]: task + epoch + two u32 counts.
const FLAT_INFO_HEADER: usize = 8 + 8 + 4 + 4;
/// Minimum flat size of a [`Delta`]: tag byte + an Unblock task id.
const FLAT_DELTA_MIN: usize = 1 + 8;
/// Minimum flat size of a view entry: site id + empty snapshot count.
const FLAT_VIEW_ENTRY_MIN: usize = 4 + 4;

fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = buf.split_first().ok_or_else(|| malformed("truncated u8"))?;
    *buf = rest;
    Ok(b)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.len() < 4 {
        return Err(malformed("truncated u32"));
    }
    let (bytes, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(malformed("truncated u64"));
    }
    let (bytes, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

/// Reads a flat element count, rejecting counts whose minimum encoding
/// could not fit in the remaining bytes, so a hostile count cannot drive a
/// huge up-front allocation.
fn take_flat_count(buf: &mut &[u8], min_element: usize, what: &str) -> Result<usize, WireError> {
    let n = take_u32(buf)?;
    if u64::from(n) * (min_element as u64) > buf.len() as u64 {
        return Err(malformed(format!("{what} count {n} exceeds remaining {} bytes", buf.len())));
    }
    Ok(n as usize)
}

fn put_flat_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_flat_str(buf: &mut &[u8], what: &str) -> Result<String, WireError> {
    let len = take_flat_count(buf, 1, what)?;
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed(format!("{what} is not UTF-8")))
}

fn put_info(info: &BlockedInfo, out: &mut Vec<u8>) {
    out.extend_from_slice(&info.task.0.to_le_bytes());
    out.extend_from_slice(&info.epoch.to_le_bytes());
    out.extend_from_slice(&(info.waits.len() as u32).to_le_bytes());
    out.extend_from_slice(&(info.registered.len() as u32).to_le_bytes());
    for w in &info.waits {
        out.extend_from_slice(&w.phaser.0.to_le_bytes());
        out.extend_from_slice(&w.phase.to_le_bytes());
    }
    for r in &info.registered {
        out.extend_from_slice(&r.phaser.0.to_le_bytes());
        out.extend_from_slice(&r.local_phase.to_le_bytes());
    }
}

fn take_info(buf: &mut &[u8]) -> Result<BlockedInfo, WireError> {
    use armus_core::{PhaserId, Registration, Resource};
    let task = TaskId(take_u64(buf)?);
    let epoch = take_u64(buf)?;
    let n_waits = take_flat_count(buf, FLAT_PAIR, "waits")?;
    let n_regs = take_flat_count(buf, FLAT_PAIR, "registrations")?;
    let mut waits = Vec::with_capacity(n_waits.min(PREALLOC_CAP));
    for _ in 0..n_waits {
        waits.push(Resource::new(PhaserId(take_u64(buf)?), take_u64(buf)?));
    }
    let mut registered = Vec::with_capacity(n_regs.min(PREALLOC_CAP));
    for _ in 0..n_regs {
        registered.push(Registration::new(PhaserId(take_u64(buf)?), take_u64(buf)?));
    }
    let mut info = BlockedInfo::new(task, waits, registered);
    info.epoch = epoch;
    Ok(info)
}

fn put_snapshot(snap: &Snapshot, out: &mut Vec<u8>) {
    out.extend_from_slice(&(snap.tasks.len() as u32).to_le_bytes());
    for info in &snap.tasks {
        put_info(info, out);
    }
}

fn take_snapshot(buf: &mut &[u8]) -> Result<Snapshot, WireError> {
    let count = take_flat_count(buf, FLAT_INFO_HEADER, "snapshot")?;
    let mut tasks = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        tasks.push(take_info(buf)?);
    }
    // Route through the sorting constructor so the sorted-by-task-id
    // invariant survives a peer that sends entries out of order.
    Ok(Snapshot::from_tasks(tasks))
}

const DELTA_BLOCK: u8 = 0;
const DELTA_UNBLOCK: u8 = 1;

fn put_deltas(deltas: &[Delta], out: &mut Vec<u8>) {
    out.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for delta in deltas {
        match delta {
            Delta::Block(info) => {
                out.push(DELTA_BLOCK);
                put_info(info, out);
            }
            Delta::Unblock(task) => {
                out.push(DELTA_UNBLOCK);
                out.extend_from_slice(&task.0.to_le_bytes());
            }
        }
    }
}

fn put_view(view: &[(SiteId, Snapshot)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(view.len() as u32).to_le_bytes());
    for (site, snapshot) in view {
        out.extend_from_slice(&site.0.to_le_bytes());
        put_snapshot(snapshot, out);
    }
}

fn take_view(buf: &mut &[u8]) -> Result<Vec<(SiteId, Snapshot)>, WireError> {
    let count = take_flat_count(buf, FLAT_VIEW_ENTRY_MIN, "view")?;
    let mut view = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        let site = SiteId(take_u32(buf)?);
        view.push((site, take_snapshot(buf)?));
    }
    Ok(view)
}

fn take_deltas(buf: &mut &[u8]) -> Result<Vec<Delta>, WireError> {
    let count = take_flat_count(buf, FLAT_DELTA_MIN, "deltas")?;
    let mut deltas = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        deltas.push(match take_u8(buf)? {
            DELTA_BLOCK => Delta::Block(take_info(buf)?),
            DELTA_UNBLOCK => Delta::Unblock(TaskId(take_u64(buf)?)),
            other => return Err(malformed(format!("unknown delta tag {other}"))),
        });
    }
    Ok(deltas)
}

// Request kind 0 was the unversioned publish and kind 3 the cursorless
// fetch, response kind 3 the view that answered it: they stay reserved
// (and decode as malformed) so the other kinds keep their numbers.
const REQ_PUBLISH_FULL: u8 = 1;
const REQ_PUBLISH_DELTAS: u8 = 2;
const REQ_REMOVE: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_METRICS: u8 = 6;
const REQ_SUBSCRIBE: u8 = 7;
const REQ_PUBLISH_STATS: u8 = 8;
const REQ_CHANGES_SINCE: u8 = 9;

const RESP_OK: u8 = 0;
const RESP_APPLIED: u8 = 1;
const RESP_NEED_SNAPSHOT: u8 = 2;
const RESP_ERROR: u8 = 4;
const RESP_METRICS: u8 = 5;
const RESP_SUBSCRIBED: u8 = 6;
const RESP_REPORT: u8 = 7;
const RESP_CHANGES: u8 = 8;

/// Feed tags of a `Changes` response.
const FEED_JOIN: u8 = 0;
const FEED_DELTAS: u8 = 1;

/// Flat size of a [`SiteStats`] record: nine `u64` counters.
const FLAT_SITE_STATS: usize = 9 * 8;
/// Flat size of a [`TenantMetrics`] entry: tenant + three `u64` gauges.
const FLAT_TENANT_METRICS: usize = 4 + 3 * 8;
/// Flat size of a `sites` entry: tenant + site + the stats record.
const FLAT_SITE_ENTRY: usize = 4 + 4 + FLAT_SITE_STATS;
/// Witness graph-model tags.
const MODEL_WFG: u8 = 0;
const MODEL_SG: u8 = 1;
/// Witness shape tags.
const WITNESS_TASKS: u8 = 0;
const WITNESS_RESOURCES: u8 = 1;

fn put_site_stats(stats: &SiteStats, out: &mut Vec<u8>) {
    for n in [
        stats.blocks,
        stats.unblocks,
        stats.fastpath_skips,
        stats.publish_resyncs,
        stats.async_waits,
        stats.waker_wakes,
        stats.checker_rounds,
        stats.incremental_detections,
        stats.reports_dropped,
    ] {
        out.extend_from_slice(&n.to_le_bytes());
    }
}

fn take_site_stats(buf: &mut &[u8]) -> Result<SiteStats, WireError> {
    Ok(SiteStats {
        blocks: take_u64(buf)?,
        unblocks: take_u64(buf)?,
        fastpath_skips: take_u64(buf)?,
        publish_resyncs: take_u64(buf)?,
        async_waits: take_u64(buf)?,
        waker_wakes: take_u64(buf)?,
        checker_rounds: take_u64(buf)?,
        incremental_detections: take_u64(buf)?,
        reports_dropped: take_u64(buf)?,
    })
}

fn put_metrics(metrics: &ServerMetrics, out: &mut Vec<u8>) {
    for n in [
        metrics.served,
        metrics.protocol_errors,
        metrics.live_connections,
        metrics.subscribers,
        metrics.publishes,
        metrics.delta_publishes,
        metrics.fetches,
        metrics.removes,
        metrics.reports_streamed,
        metrics.reply_queue_max,
    ] {
        out.extend_from_slice(&n.to_le_bytes());
    }
    out.extend_from_slice(&(metrics.tenants.len() as u32).to_le_bytes());
    for t in &metrics.tenants {
        out.extend_from_slice(&t.tenant.0.to_le_bytes());
        out.extend_from_slice(&t.partitions.to_le_bytes());
        out.extend_from_slice(&t.lease_expiries.to_le_bytes());
        out.extend_from_slice(&t.subscribers.to_le_bytes());
    }
    out.extend_from_slice(&(metrics.sites.len() as u32).to_le_bytes());
    for (tenant, site, stats) in &metrics.sites {
        out.extend_from_slice(&tenant.0.to_le_bytes());
        out.extend_from_slice(&site.0.to_le_bytes());
        put_site_stats(stats, out);
    }
}

fn take_metrics(buf: &mut &[u8]) -> Result<ServerMetrics, WireError> {
    let mut metrics = ServerMetrics {
        served: take_u64(buf)?,
        protocol_errors: take_u64(buf)?,
        live_connections: take_u64(buf)?,
        subscribers: take_u64(buf)?,
        publishes: take_u64(buf)?,
        delta_publishes: take_u64(buf)?,
        fetches: take_u64(buf)?,
        removes: take_u64(buf)?,
        reports_streamed: take_u64(buf)?,
        reply_queue_max: take_u64(buf)?,
        ..ServerMetrics::default()
    };
    let n_tenants = take_flat_count(buf, FLAT_TENANT_METRICS, "tenant metrics")?;
    metrics.tenants.reserve(n_tenants.min(PREALLOC_CAP));
    for _ in 0..n_tenants {
        metrics.tenants.push(TenantMetrics {
            tenant: TenantId(take_u32(buf)?),
            partitions: take_u64(buf)?,
            lease_expiries: take_u64(buf)?,
            subscribers: take_u64(buf)?,
        });
    }
    let n_sites = take_flat_count(buf, FLAT_SITE_ENTRY, "site stats")?;
    metrics.sites.reserve(n_sites.min(PREALLOC_CAP));
    for _ in 0..n_sites {
        let tenant = TenantId(take_u32(buf)?);
        let site = SiteId(take_u32(buf)?);
        metrics.sites.push((tenant, site, take_site_stats(buf)?));
    }
    Ok(metrics)
}

fn put_report(report: &DeadlockReport, out: &mut Vec<u8>) {
    out.extend_from_slice(&(report.tasks.len() as u32).to_le_bytes());
    for t in &report.tasks {
        out.extend_from_slice(&t.0.to_le_bytes());
    }
    out.extend_from_slice(&(report.resources.len() as u32).to_le_bytes());
    for r in &report.resources {
        out.extend_from_slice(&r.phaser.0.to_le_bytes());
        out.extend_from_slice(&r.phase.to_le_bytes());
    }
    out.push(match report.model {
        GraphModel::Wfg => MODEL_WFG,
        GraphModel::Sg => MODEL_SG,
    });
    match &report.witness {
        CycleWitness::Tasks(tasks) => {
            out.push(WITNESS_TASKS);
            out.extend_from_slice(&(tasks.len() as u32).to_le_bytes());
            for t in tasks {
                out.extend_from_slice(&t.0.to_le_bytes());
            }
        }
        CycleWitness::Resources(resources) => {
            out.push(WITNESS_RESOURCES);
            out.extend_from_slice(&(resources.len() as u32).to_le_bytes());
            for r in resources {
                out.extend_from_slice(&r.phaser.0.to_le_bytes());
                out.extend_from_slice(&r.phase.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(report.task_epochs.len() as u32).to_le_bytes());
    for (task, epoch) in &report.task_epochs {
        out.extend_from_slice(&task.0.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
    }
}

fn take_report(buf: &mut &[u8]) -> Result<DeadlockReport, WireError> {
    let n_tasks = take_flat_count(buf, 8, "report tasks")?;
    let mut tasks = Vec::with_capacity(n_tasks.min(PREALLOC_CAP));
    for _ in 0..n_tasks {
        tasks.push(TaskId(take_u64(buf)?));
    }
    let n_resources = take_flat_count(buf, FLAT_PAIR, "report resources")?;
    let mut resources = Vec::with_capacity(n_resources.min(PREALLOC_CAP));
    for _ in 0..n_resources {
        resources.push(Resource::new(PhaserId(take_u64(buf)?), take_u64(buf)?));
    }
    let model = match take_u8(buf)? {
        MODEL_WFG => GraphModel::Wfg,
        MODEL_SG => GraphModel::Sg,
        other => return Err(malformed(format!("unknown graph model tag {other}"))),
    };
    let witness = match take_u8(buf)? {
        WITNESS_TASKS => {
            let n = take_flat_count(buf, 8, "witness tasks")?;
            let mut cycle = Vec::with_capacity(n.min(PREALLOC_CAP));
            for _ in 0..n {
                cycle.push(TaskId(take_u64(buf)?));
            }
            CycleWitness::Tasks(cycle)
        }
        WITNESS_RESOURCES => {
            let n = take_flat_count(buf, FLAT_PAIR, "witness resources")?;
            let mut cycle = Vec::with_capacity(n.min(PREALLOC_CAP));
            for _ in 0..n {
                cycle.push(Resource::new(PhaserId(take_u64(buf)?), take_u64(buf)?));
            }
            CycleWitness::Resources(cycle)
        }
        other => return Err(malformed(format!("unknown witness tag {other}"))),
    };
    let n_epochs = take_flat_count(buf, FLAT_PAIR, "task epochs")?;
    let mut task_epochs = Vec::with_capacity(n_epochs.min(PREALLOC_CAP));
    for _ in 0..n_epochs {
        task_epochs.push((TaskId(take_u64(buf)?), take_u64(buf)?));
    }
    Ok(DeadlockReport { tasks, resources, model, witness, task_epochs })
}

/// A message with a hand-rolled flat body: one kind byte followed by
/// fixed-width little-endian fields and contiguous arrays. Implemented by
/// [`Request`] and [`Response`]; see the module docs for the layout.
pub trait FlatMessage: Sized {
    /// Appends `kind byte + flat body` to `out`.
    fn encode_flat(&self, out: &mut Vec<u8>);
    /// Decodes `kind byte + flat body` from the front of `buf`.
    fn decode_flat(buf: &mut &[u8]) -> Result<Self, WireError>;
}

impl FlatMessage for Request {
    fn encode_flat(&self, out: &mut Vec<u8>) {
        match self {
            Request::PublishFull { site, tenant, snapshot, version } => {
                out.push(REQ_PUBLISH_FULL);
                out.extend_from_slice(&site.0.to_le_bytes());
                out.extend_from_slice(&tenant.0.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                put_snapshot(snapshot, out);
            }
            Request::PublishDeltas { site, tenant, base, deltas, next } => {
                out.push(REQ_PUBLISH_DELTAS);
                out.extend_from_slice(&site.0.to_le_bytes());
                out.extend_from_slice(&tenant.0.to_le_bytes());
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&next.to_le_bytes());
                put_deltas(deltas, out);
            }
            Request::ChangesSince { tenant, cursor } => {
                out.push(REQ_CHANGES_SINCE);
                out.extend_from_slice(&tenant.0.to_le_bytes());
                match cursor {
                    Some(cursor) => {
                        out.push(1);
                        out.extend_from_slice(&cursor.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            Request::Remove { site, tenant } => {
                out.push(REQ_REMOVE);
                out.extend_from_slice(&site.0.to_le_bytes());
                out.extend_from_slice(&tenant.0.to_le_bytes());
            }
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Metrics => out.push(REQ_METRICS),
            Request::Subscribe { tenant } => {
                out.push(REQ_SUBSCRIBE);
                out.extend_from_slice(&tenant.0.to_le_bytes());
            }
            Request::PublishStats { site, tenant, stats } => {
                out.push(REQ_PUBLISH_STATS);
                out.extend_from_slice(&site.0.to_le_bytes());
                out.extend_from_slice(&tenant.0.to_le_bytes());
                put_site_stats(stats, out);
            }
        }
    }

    fn decode_flat(buf: &mut &[u8]) -> Result<Request, WireError> {
        Ok(match take_u8(buf)? {
            REQ_PUBLISH_FULL => {
                let site = SiteId(take_u32(buf)?);
                let tenant = TenantId(take_u32(buf)?);
                let version = take_u64(buf)?;
                Request::PublishFull { site, tenant, snapshot: take_snapshot(buf)?, version }
            }
            REQ_PUBLISH_DELTAS => {
                let site = SiteId(take_u32(buf)?);
                let tenant = TenantId(take_u32(buf)?);
                let base = take_u64(buf)?;
                let next = take_u64(buf)?;
                Request::PublishDeltas { site, tenant, base, deltas: take_deltas(buf)?, next }
            }
            REQ_CHANGES_SINCE => {
                let tenant = TenantId(take_u32(buf)?);
                let cursor = match take_u8(buf)? {
                    0 => None,
                    1 => Some(take_u64(buf)?),
                    other => return Err(malformed(format!("unknown cursor tag {other}"))),
                };
                Request::ChangesSince { tenant, cursor }
            }
            REQ_REMOVE => {
                let site = SiteId(take_u32(buf)?);
                let tenant = TenantId(take_u32(buf)?);
                Request::Remove { site, tenant }
            }
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_METRICS => Request::Metrics,
            REQ_SUBSCRIBE => Request::Subscribe { tenant: TenantId(take_u32(buf)?) },
            REQ_PUBLISH_STATS => {
                let site = SiteId(take_u32(buf)?);
                let tenant = TenantId(take_u32(buf)?);
                Request::PublishStats { site, tenant, stats: take_site_stats(buf)? }
            }
            other => return Err(malformed(format!("unknown request kind {other}"))),
        })
    }
}

impl FlatMessage for Response {
    fn encode_flat(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Applied => out.push(RESP_APPLIED),
            Response::NeedSnapshot => out.push(RESP_NEED_SNAPSHOT),
            Response::Changes { cursor, feed } => {
                out.push(RESP_CHANGES);
                out.extend_from_slice(&cursor.to_le_bytes());
                match feed {
                    Feed::Join(view) => {
                        out.push(FEED_JOIN);
                        put_view(view, out);
                    }
                    Feed::Deltas(deltas) => {
                        out.push(FEED_DELTAS);
                        put_deltas(deltas, out);
                    }
                }
            }
            Response::Error(message) => {
                out.push(RESP_ERROR);
                put_flat_str(message, out);
            }
            Response::Metrics(metrics) => {
                out.push(RESP_METRICS);
                put_metrics(metrics, out);
            }
            Response::Subscribed => out.push(RESP_SUBSCRIBED),
            Response::Report(report) => {
                out.push(RESP_REPORT);
                put_report(report, out);
            }
        }
    }

    fn decode_flat(buf: &mut &[u8]) -> Result<Response, WireError> {
        Ok(match take_u8(buf)? {
            RESP_OK => Response::Ok,
            RESP_APPLIED => Response::Applied,
            RESP_NEED_SNAPSHOT => Response::NeedSnapshot,
            RESP_CHANGES => {
                let cursor = take_u64(buf)?;
                let feed = match take_u8(buf)? {
                    FEED_JOIN => Feed::Join(take_view(buf)?),
                    FEED_DELTAS => Feed::Deltas(take_deltas(buf)?),
                    other => return Err(malformed(format!("unknown feed tag {other}"))),
                };
                Response::Changes { cursor, feed }
            }
            RESP_ERROR => Response::Error(take_flat_str(buf, "error message")?),
            RESP_METRICS => Response::Metrics(take_metrics(buf)?),
            RESP_SUBSCRIBED => Response::Subscribed,
            RESP_REPORT => Response::Report(take_report(buf)?),
            other => return Err(malformed(format!("unknown response kind {other}"))),
        })
    }
}

// --- pipelined framing -----------------------------------------------------

/// A decoded frame: the message plus the correlation id a pipelining
/// peer echoes when it answers.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame<T> {
    /// Correlation id.
    pub corr: u64,
    /// The decoded message.
    pub msg: T,
}

/// Appends one complete frame (length prefix included) for `msg`
/// to `out`, tagged with correlation id `corr`. Appending to a
/// caller-owned buffer is what lets the write-side coalescer pack many
/// frames into one flush without allocating per frame. On overflow the
/// buffer is restored and [`WireError::Malformed`] returned — a frame no
/// receiver would accept must never be sent.
pub fn encode_frame_v2_into<T: FlatMessage>(
    out: &mut Vec<u8>,
    corr: u64,
    msg: &T,
) -> Result<(), WireError> {
    let frame_start = out.len();
    out.extend_from_slice(&[0; 4]); // length prefix, patched below
    out.push(WIRE_V2);
    out.extend_from_slice(&corr.to_le_bytes());
    msg.encode_flat(out);
    let payload_len = out.len() - frame_start - 4;
    if payload_len as u64 > MAX_FRAME_LEN as u64 {
        out.truncate(frame_start);
        return Err(malformed(format!(
            "message encodes to {payload_len} bytes, over MAX_FRAME_LEN"
        )));
    }
    out[frame_start..frame_start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Decodes a frame payload (the length prefix already stripped). Any
/// version byte other than [`WIRE_V2`] is a clean [`WireError::Version`].
pub fn decode_frame_payload<T: FlatMessage>(payload: &[u8]) -> Result<Frame<T>, WireError> {
    let (&version, mut rest) =
        payload.split_first().ok_or_else(|| malformed("empty frame payload"))?;
    if version != WIRE_V2 {
        return Err(WireError::Version(version));
    }
    let corr = take_u64(&mut rest)?;
    let msg = T::decode_flat(&mut rest)?;
    if !rest.is_empty() {
        return Err(malformed(format!("{} trailing bytes after flat body", rest.len())));
    }
    Ok(Frame { corr, msg })
}

/// Incremental frame extraction over a byte stream: feed raw reads in,
/// pull complete frames out. This is how both ends read **bursts** — one
/// `read(2)` can deliver many pipelined frames (or half of one), and the
/// buffer hands them over one by one without ever blocking mid-frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes (compacting consumed space first).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether bytes of an incomplete frame are pending — the receiver is
    /// mid-frame, so a read timeout now means a stalled peer rather than a
    /// quiet one.
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Extracts the next complete frame; `Ok(None)` when more bytes are
    /// needed. Errors (oversized prefix, undecodable payload) are
    /// unrecoverable for the connection — there is no resync point
    /// mid-stream.
    pub fn next_frame<T: FlatMessage>(&mut self) -> Result<Option<Frame<T>>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(malformed(format!("length prefix {len} exceeds MAX_FRAME_LEN")));
        }
        let end = 4 + len as usize;
        if avail.len() < end {
            return Ok(None);
        }
        let frame = decode_frame_payload(&avail[4..end])?;
        self.start += end;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, TaskId};

    fn snap() -> Snapshot {
        Snapshot::from_tasks(vec![BlockedInfo::new(
            TaskId(3).with_site(1),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 4)],
        )])
    }

    fn stats() -> SiteStats {
        SiteStats {
            blocks: 10,
            unblocks: 9,
            fastpath_skips: 8,
            publish_resyncs: 7,
            async_waits: 6,
            waker_wakes: 5,
            checker_rounds: 4,
            incremental_detections: 3,
            reports_dropped: 2,
        }
    }

    fn metrics() -> ServerMetrics {
        ServerMetrics {
            served: 100,
            protocol_errors: 1,
            live_connections: 4,
            subscribers: 2,
            publishes: 40,
            delta_publishes: 50,
            fetches: 9,
            removes: 3,
            reports_streamed: 6,
            reply_queue_max: 12,
            tenants: vec![
                TenantMetrics {
                    tenant: TenantId(1),
                    partitions: 2,
                    lease_expiries: 1,
                    subscribers: 1,
                },
                TenantMetrics::new(TenantId(9)),
            ],
            sites: vec![(TenantId(1), SiteId(0), stats()), (TenantId(9), SiteId(4), stats())],
        }
    }

    fn report(witness: CycleWitness) -> DeadlockReport {
        let model = if matches!(witness, CycleWitness::Tasks(_)) {
            GraphModel::Wfg
        } else {
            GraphModel::Sg
        };
        DeadlockReport {
            tasks: vec![TaskId(1), TaskId(2)],
            resources: vec![Resource::new(PhaserId(1), 1), Resource::new(PhaserId(2), 0)],
            model,
            witness,
            task_epochs: vec![(TaskId(1), 3), (TaskId(2), 0)],
        }
    }

    /// One frame through the streaming entry point: encode, feed, extract.
    fn roundtrip<T: FlatMessage + Clone + PartialEq + std::fmt::Debug>(corr: u64, msg: &T) {
        let mut out = Vec::new();
        encode_frame_v2_into(&mut out, corr, msg).unwrap();
        let len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, out.len(), "one exact frame");
        let mut fb = FrameBuffer::new();
        fb.feed(&out);
        assert_eq!(fb.next_frame::<T>().unwrap(), Some(Frame { corr, msg: msg.clone() }));
        assert!(!fb.has_partial());
    }

    /// A payload (no length prefix) with the given version, correlation id
    /// 0, and `body` as kind byte + flat body.
    fn payload(version: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![version];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(body);
        payload
    }

    #[test]
    fn requests_round_trip() {
        roundtrip(
            1,
            &Request::PublishFull {
                site: SiteId(7),
                tenant: TenantId::DEFAULT,
                snapshot: snap(),
                version: 42,
            },
        );
        roundtrip(
            2,
            &Request::PublishDeltas {
                site: SiteId(1),
                tenant: TenantId(3),
                base: 5,
                deltas: vec![Delta::Block(snap().tasks[0].clone()), Delta::Unblock(TaskId(9))],
                next: 7,
            },
        );
        roundtrip(3, &Request::ChangesSince { tenant: TenantId(4), cursor: None });
        roundtrip(9, &Request::ChangesSince { tenant: TenantId(4), cursor: Some(u64::MAX) });
        roundtrip(4, &Request::Remove { site: SiteId(3), tenant: TenantId(1) });
        roundtrip(5, &Request::Shutdown);
        roundtrip(6, &Request::Metrics);
        roundtrip(7, &Request::Subscribe { tenant: TenantId(5) });
        roundtrip(
            8,
            &Request::PublishStats { site: SiteId(2), tenant: TenantId(1), stats: stats() },
        );
    }

    #[test]
    fn responses_round_trip() {
        roundtrip(1, &Response::Ok);
        roundtrip(2, &Response::Applied);
        roundtrip(3, &Response::NeedSnapshot);
        let view = vec![(SiteId(0), snap()), (SiteId(1), Snapshot::empty())];
        roundtrip(4, &Response::Changes { cursor: 3, feed: Feed::Join(view) });
        let deltas = vec![Delta::Block(snap().tasks[0].clone()), Delta::Unblock(TaskId(9))];
        roundtrip(11, &Response::Changes { cursor: u64::MAX, feed: Feed::Deltas(deltas) });
        roundtrip(5, &Response::Error("partition store on fire".into()));
        roundtrip(6, &Response::Metrics(metrics()));
        roundtrip(7, &Response::Metrics(ServerMetrics::default()));
        roundtrip(8, &Response::Subscribed);
        roundtrip(
            9,
            &Response::Report(report(CycleWitness::Tasks(vec![TaskId(1), TaskId(2), TaskId(1)]))),
        );
        roundtrip(
            10,
            &Response::Report(report(CycleWitness::Resources(vec![
                Resource::new(PhaserId(1), 1),
                Resource::new(PhaserId(2), 0),
                Resource::new(PhaserId(1), 1),
            ]))),
        );
    }

    #[test]
    fn flat_frames_round_trip_with_correlation_ids() {
        // The id is opaque to the codec: every value, the extremes
        // included, comes back on the frame it went out on.
        for corr in [0, 1, 0x0102_0304_0506_0708, u64::MAX] {
            let mut out = Vec::new();
            let msg = Request::ChangesSince { tenant: TenantId(1), cursor: None };
            encode_frame_v2_into(&mut out, corr, &msg).unwrap();
            let request: Frame<Request> = decode_frame_payload(&out[4..]).unwrap();
            assert_eq!(request, Frame { corr, msg });
            out.clear();
            encode_frame_v2_into(&mut out, corr, &Response::Applied).unwrap();
            let response: Frame<Response> = decode_frame_payload(&out[4..]).unwrap();
            assert_eq!(response, Frame { corr, msg: Response::Applied });
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut fb = FrameBuffer::new();
        fb.feed(&u32::MAX.to_le_bytes());
        assert!(matches!(fb.next_frame::<Request>(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn future_versions_are_rejected_cleanly() {
        let mut frame = Vec::new();
        let fetch = Request::ChangesSince { tenant: TenantId::DEFAULT, cursor: None };
        encode_frame_v2_into(&mut frame, 1, &fetch).unwrap();
        frame[4] = WIRE_V2 + 1; // the version byte follows the length
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        assert!(matches!(
            fb.next_frame::<Request>(),
            Err(WireError::Version(v)) if v == WIRE_V2 + 1
        ));
    }

    #[test]
    fn legacy_v1_frames_are_rejected_with_their_version() {
        // A well-formed frame of the retired serde-tree protocol, written
        // out by hand (its encoder is gone): version 1, then the unit
        // variant `Request::Shutdown` as a tagged string — tag 6, varint
        // length 8, "Shutdown". A peer still speaking it must be told so,
        // not misparsed as a flat frame.
        let mut frame = 11u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 6, 8]);
        frame.extend_from_slice(b"Shutdown");
        assert!(matches!(decode_frame_payload::<Request>(&frame[4..]), Err(WireError::Version(1))));
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        assert!(matches!(fb.next_frame::<Request>(), Err(WireError::Version(1))));
    }

    #[test]
    fn unknown_message_variants_are_malformed_not_panics() {
        // Every kind byte without a message behind it — 0, the retired
        // unversioned publish, and 3, the retired fetch and its view,
        // included — is malformed for that direction.
        for kind in (0..=u8::MAX).filter(|k| ![1, 2, 4, 5, 6, 7, 8, 9].contains(k)) {
            assert!(
                matches!(
                    decode_frame_payload::<Request>(&payload(WIRE_V2, &[kind])),
                    Err(WireError::Malformed(_))
                ),
                "request kind {kind}"
            );
        }
        for kind in (0..=u8::MAX).filter(|k| ![0, 1, 2, 4, 5, 6, 7, 8].contains(k)) {
            assert!(
                matches!(
                    decode_frame_payload::<Response>(&payload(WIRE_V2, &[kind])),
                    Err(WireError::Malformed(_))
                ),
                "response kind {kind}"
            );
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // Each declared count is peer-controlled; one claiming u32::MAX
        // elements in a body that holds none must be refused up front.
        let max = u32::MAX.to_le_bytes();
        // A PublishFull whose snapshot claims u32::MAX tasks.
        let mut publish = vec![REQ_PUBLISH_FULL];
        publish.extend_from_slice(&[0; 4 + 4 + 8]); // site, tenant, version
        publish.extend_from_slice(&max);
        assert!(matches!(
            decode_frame_payload::<Request>(&payload(WIRE_V2, &publish)),
            Err(WireError::Malformed(_))
        ));
        // A joining and a delta feed claiming u32::MAX entries, an Error
        // claiming a u32::MAX-byte message, a Report claiming u32::MAX
        // tasks.
        let feed = |tag| [&[RESP_CHANGES][..], &[0; 8], &[tag]].concat();
        for head in [feed(FEED_JOIN), feed(FEED_DELTAS), vec![RESP_ERROR], vec![RESP_REPORT]] {
            let body = [head, max.to_vec()].concat();
            assert!(
                matches!(
                    decode_frame_payload::<Response>(&payload(WIRE_V2, &body)),
                    Err(WireError::Malformed(_))
                ),
                "response {body:?}"
            );
        }
    }

    #[test]
    fn hostile_metrics_counts_do_not_allocate() {
        // A v2 Metrics response claiming u32::MAX tenant entries in a
        // body that only holds the fixed counters.
        let mut payload = vec![WIRE_V2];
        payload.extend_from_slice(&0u64.to_le_bytes()); // corr
        payload.push(RESP_METRICS);
        for _ in 0..10 {
            payload.extend_from_slice(&0u64.to_le_bytes()); // fixed counters
        }
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // tenant count
        assert!(matches!(decode_frame_payload::<Response>(&payload), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_witness_tags_are_malformed_not_panics() {
        let mut out = Vec::new();
        encode_frame_v2_into(
            &mut out,
            1,
            &Response::Report(report(CycleWitness::Tasks(vec![TaskId(1)]))),
        )
        .unwrap();
        // Corrupt the witness tag, whose offset is fixed by the flat
        // layout: prefix+version+corr+kind, then 2 tasks, 2 resources,
        // and the model byte.
        let witness_tag_at = (4 + 1 + 8 + 1) + (4 + 2 * 8) + (4 + 2 * 16) + 1;
        assert_eq!(out[witness_tag_at], WITNESS_TASKS);
        out[witness_tag_at] = 0x7F;
        assert!(matches!(
            decode_frame_payload::<Response>(&out[4..]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn flat_encoding_appends_and_restores_on_overflow() {
        // Appending leaves earlier frames in the buffer intact…
        let mut out = Vec::new();
        let fetch = Request::ChangesSince { tenant: TenantId::DEFAULT, cursor: None };
        encode_frame_v2_into(&mut out, 1, &fetch).unwrap();
        let first = out.clone();
        encode_frame_v2_into(
            &mut out,
            2,
            &Request::Remove { site: SiteId(9), tenant: TenantId::DEFAULT },
        )
        .unwrap();
        assert_eq!(&out[..first.len()], &first[..], "first frame untouched");
        // …and an oversized message truncates back to the prior frames.
        let huge = Response::Error("x".repeat(MAX_FRAME_LEN as usize + 1));
        let len_before = out.len();
        assert!(matches!(encode_frame_v2_into(&mut out, 3, &huge), Err(WireError::Malformed(_))));
        assert_eq!(out.len(), len_before);
    }

    #[test]
    fn frame_buffer_extracts_bursts_and_waits_on_partials() {
        let mut wire_bytes = Vec::new();
        let fetch = Request::ChangesSince { tenant: TenantId(4), cursor: None };
        encode_frame_v2_into(&mut wire_bytes, 11, &fetch).unwrap();
        encode_frame_v2_into(
            &mut wire_bytes,
            12,
            &Request::Remove { site: SiteId(2), tenant: TenantId(4) },
        )
        .unwrap();
        encode_frame_v2_into(&mut wire_bytes, 13, &Request::Shutdown).unwrap();

        let mut fb = FrameBuffer::new();
        // Feed in awkward 7-byte chunks: frames must come out whole anyway.
        let mut got: Vec<Frame<Request>> = Vec::new();
        for chunk in wire_bytes.chunks(7) {
            fb.feed(chunk);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert!(!fb.has_partial());
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Frame { corr: 11, msg: fetch });
        assert_eq!(
            got[1],
            Frame { corr: 12, msg: Request::Remove { site: SiteId(2), tenant: TenantId(4) } }
        );
        assert_eq!(got[2], Frame { corr: 13, msg: Request::Shutdown });
    }

    #[test]
    fn flat_trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        let fetch = Request::ChangesSince { tenant: TenantId::DEFAULT, cursor: None };
        encode_frame_v2_into(&mut out, 1, &fetch).unwrap();
        out.push(0xEE); // a trailing byte inside the *payload* …
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes()); // … the prefix covers
        assert!(matches!(decode_frame_payload::<Request>(&out[4..]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn flat_hostile_counts_do_not_allocate() {
        // A v2 PublishDeltas claiming u32::MAX deltas in a tiny body.
        let mut payload = vec![WIRE_V2];
        payload.extend_from_slice(&0u64.to_le_bytes()); // corr
        payload.push(REQ_PUBLISH_DELTAS);
        payload.extend_from_slice(&3u32.to_le_bytes()); // site
        payload.extend_from_slice(&0u32.to_le_bytes()); // tenant
        payload.extend_from_slice(&0u64.to_le_bytes()); // base
        payload.extend_from_slice(&1u64.to_le_bytes()); // next
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // delta count
        assert!(matches!(decode_frame_payload::<Request>(&payload), Err(WireError::Malformed(_))));
    }

    #[test]
    fn flat_unknown_kinds_are_malformed_not_panics() {
        let mut payload = vec![WIRE_V2];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0xAB);
        assert!(matches!(decode_frame_payload::<Request>(&payload), Err(WireError::Malformed(_))));
        assert!(matches!(decode_frame_payload::<Response>(&payload), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_versions_are_rejected_by_both_entry_points() {
        // `decode_frame_payload` on a bare payload, `FrameBuffer` on the
        // framed stream: both name the offending version byte.
        for version in [0, 0x7f, u8::MAX] {
            let payload = payload(version, &[REQ_SHUTDOWN]);
            assert!(matches!(
                decode_frame_payload::<Request>(&payload),
                Err(WireError::Version(v)) if v == version
            ));
            let mut fb = FrameBuffer::new();
            fb.feed(&(payload.len() as u32).to_le_bytes());
            fb.feed(&payload);
            assert!(matches!(
                fb.next_frame::<Request>(),
                Err(WireError::Version(v)) if v == version
            ));
        }
    }
}
