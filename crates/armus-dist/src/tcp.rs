//! [`TcpStore`]: the networked [`Store`] client — one multiplexed,
//! pipelined connection shared by every site in the process.
//!
//! The client speaks the flat [`crate::wire`] protocol. Three layers
//! close the gap to the in-process store:
//!
//! * **Batching** — operations append their encoded frame to a shared
//!   *outbox* under a short lock; the first submitter becomes the flusher
//!   and keeps writing swapped-out batches until the outbox is empty
//!   (flat combining, the way lamellar coalesces active messages). Frames
//!   that arrive while a flush is in flight ride the next `write(2)`
//!   instead of paying their own syscall.
//! * **Pipelining** — every frame carries a correlation id, so callers do
//!   not serialize on request/response round trips: many requests are in
//!   flight at once and a dedicated demux reader thread completes each
//!   waiting caller as its response arrives, in whatever order.
//! * **Multiplexing** — because calls never hold the connection, one
//!   `TcpStore` (one socket, one reader thread) serves any number of
//!   [`crate::site::Site`]s concurrently; sharing the client via `Arc` is
//!   the intended deployment shape, replacing connection-per-site.
//!
//! The failure model is one error: every transport failure — connect
//! refusal, timeout, mid-frame hangup, protocol desync — maps onto
//! [`StoreError::Unavailable`], the exact error the sites' publisher and
//! checker loops already tolerate by skipping the round. When a
//! connection dies, **every** in-flight and batched-but-unsent operation
//! on it fails to `Unavailable`: the coalescer never drops a delta
//! silently and never acknowledges one it cannot prove the server applied
//! (the publisher's NACK/resync protocol recovers state, exercised by the
//! chaos tests in `tests/net.rs`).
//! Reconnects are paced by a bounded exponential backoff: while the
//! backoff window is open, operations fail fast instead of hammering a
//! dead server with connect attempts every publish period.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use armus_core::{DeadlockReport, Delta, Snapshot};
use parking_lot::{Condvar, Mutex};

use crate::store::{DeltaAck, Feed, SiteId, SiteStats, Store, StoreError, TenantId};
use crate::wire::{self, Request, Response, ServerMetrics};

/// Tuning of a [`TcpStore`].
#[derive(Clone, Copy, Debug)]
pub struct TcpStoreConfig {
    /// Bound on one connect attempt.
    pub connect_timeout: Duration,
    /// Bound on waiting for one response (and on writing one batch).
    pub io_timeout: Duration,
    /// First reconnect backoff after a failure.
    pub backoff_initial: Duration,
    /// Backoff ceiling (exponential doubling stops here).
    pub backoff_max: Duration,
}

impl Default for TcpStoreConfig {
    fn default() -> Self {
        TcpStoreConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// Where the responses on one correlation id land: the demux reader
/// appends, the caller drains in order, and a connection death fails it.
/// A one-shot call registers it in `pending` and reads it once; a
/// [`Subscription`] registers it in `streams` and reads it for as long as
/// the server pushes.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    queue: VecDeque<Response>,
    dead: bool,
}

impl Slot {
    /// Stores the response without waking the reader — the demux reader
    /// fills every call's slot of a burst first and notifies afterwards,
    /// so the woken callers' next frames coalesce into one flush instead
    /// of the first waker preempting the burst.
    fn push(&self, response: Response) {
        self.state.lock().queue.push_back(response);
    }

    /// Wakes the reader of a previously [`Slot::push`]ed slot. Safe to
    /// call without the lock: a reader that races in between sees the
    /// queued response and never parks.
    fn notify(&self) {
        self.cv.notify_all();
    }

    fn fail(&self) {
        self.state.lock().dead = true;
        self.cv.notify_all();
    }

    /// Next response, in arrival order; `None` on timeout or connection
    /// death (queued responses drain before death surfaces).
    fn recv(&self, timeout: Duration) -> Option<Response> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if let Some(response) = state.queue.pop_front() {
                return Some(response);
            }
            if state.dead {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut state, deadline - now);
        }
    }
}

/// Write-side coalescer: frames accumulate in `buf`; `spare` is the
/// recycled second buffer the flusher swaps in, so steady state allocates
/// nothing. `flushing` elects exactly one flusher at a time.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    spare: Vec<u8>,
    flushing: bool,
}

/// Wire-level traffic counters, shared between the live connection and
/// the owning [`TcpStore`] so they survive reconnects.
#[derive(Default)]
struct WireStats {
    frames: AtomicU64,
    flushes: AtomicU64,
}

/// State shared between callers and the demux reader of one connection.
struct MuxShared {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// One-shot demux routes: a call's slot, removed before it is filled.
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Long-lived demux routes: correlation ids claimed by subscriptions.
    /// Checked before `pending` so a pushed frame can never complete a
    /// one-shot slot.
    streams: Mutex<HashMap<u64, Arc<Slot>>>,
    next_corr: AtomicU64,
    dead: AtomicBool,
    stats: Arc<WireStats>,
}

impl MuxShared {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// One pipelined exchange: register a slot, coalesce the frame into
    /// the outbox (flushing if no flusher is active), wait for the demux
    /// reader to fill the slot.
    fn call(&self, request: &Request, io_timeout: Duration) -> Result<Response, StoreError> {
        if self.is_dead() {
            return Err(StoreError::Unavailable);
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::default());
        self.pending.lock().insert(corr, Arc::clone(&slot));
        if self.is_dead() {
            // The reader may have drained `pending` before our insert
            // landed; don't wait a full timeout on a corpse.
            self.pending.lock().remove(&corr);
            return Err(StoreError::Unavailable);
        }
        if let Err(_e) = self.submit(corr, request) {
            self.fail_all();
            self.pending.lock().remove(&corr);
            return Err(StoreError::Unavailable);
        }
        match slot.recv(io_timeout) {
            Some(response) => Ok(response),
            None => {
                self.pending.lock().remove(&corr);
                Err(StoreError::Unavailable)
            }
        }
    }

    /// Opens a long-lived push stream: registers a [`Slot`] route
    /// **before** the request goes out (so no pushed frame can race past
    /// the registration and be dropped), then requires the first frame on
    /// the route to be the server's [`Response::Subscribed`] ack.
    fn open_stream(
        &self,
        request: &Request,
        io_timeout: Duration,
    ) -> Result<(u64, Arc<Slot>), StoreError> {
        if self.is_dead() {
            return Err(StoreError::Unavailable);
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::default());
        self.streams.lock().insert(corr, Arc::clone(&slot));
        if self.is_dead() {
            self.streams.lock().remove(&corr);
            return Err(StoreError::Unavailable);
        }
        if self.submit(corr, request).is_err() {
            self.fail_all();
            self.streams.lock().remove(&corr);
            return Err(StoreError::Unavailable);
        }
        match slot.recv(io_timeout) {
            Some(Response::Subscribed) => Ok((corr, slot)),
            _ => {
                self.streams.lock().remove(&corr);
                Err(StoreError::Unavailable)
            }
        }
    }

    /// Appends the encoded frame to the outbox; becomes the flusher when
    /// none is active and drains swapped-out batches until the outbox is
    /// empty. Returning `Ok` does **not** mean "sent": it means the frame
    /// is on the wire or owned by a live flusher — whose failure fails
    /// every pending slot, ours included.
    fn submit(&self, corr: u64, request: &Request) -> Result<(), wire::WireError> {
        let mut outbox = self.outbox.lock();
        wire::encode_frame_v2_into(&mut outbox.buf, corr, request)?;
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        if outbox.flushing {
            return Ok(());
        }
        outbox.flushing = true;
        // Flat-combining window: before the first sweep, briefly release
        // the outbox and yield so concurrent callers (typically a burst
        // of sites woken by the previous reply batch) can enqueue their
        // frames into this flush. On an idle connection the yield is a
        // no-op; under fan-in it turns k wakeups into one k-frame write.
        drop(outbox);
        std::thread::yield_now();
        outbox = self.outbox.lock();
        loop {
            let spare = std::mem::take(&mut outbox.spare);
            let mut batch = std::mem::replace(&mut outbox.buf, spare);
            drop(outbox);
            let wrote = (&self.stream).write_all(&batch);
            self.stats.flushes.fetch_add(1, Ordering::Relaxed);
            batch.clear();
            outbox = self.outbox.lock();
            outbox.spare = batch;
            match wrote {
                Err(e) => {
                    outbox.flushing = false;
                    return Err(wire::WireError::Io(e));
                }
                Ok(()) => {
                    if outbox.buf.is_empty() {
                        outbox.flushing = false;
                        return Ok(());
                    }
                    // Frames landed while we were writing: sweep again.
                }
            }
        }
    }

    /// Marks the connection dead and fails every pending caller — the
    /// "re-send or fail" reconnect contract resolves to *fail*: a frame
    /// whose response we cannot correlate must surface as
    /// [`StoreError::Unavailable`], never as a silent drop or a false ack.
    fn fail_all(&self) {
        self.dead.store(true, Ordering::Release);
        let drained: Vec<Arc<Slot>> = self.pending.lock().drain().map(|(_, slot)| slot).collect();
        for slot in drained {
            slot.fail();
        }
        // Streams are failed but not drained: subscribers consume any
        // frames queued before the death, then observe `None`.
        let streams: Vec<Arc<Slot>> = self.streams.lock().values().map(Arc::clone).collect();
        for stream in streams {
            stream.fail();
        }
    }

    /// `fail_all` plus a socket shutdown so the demux reader unblocks
    /// promptly.
    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.fail_all();
    }
}

/// The demux reader: extracts response bursts and completes the matching
/// slot per correlation id. Exits (failing all pending callers) on EOF,
/// transport error, or protocol desync.
fn demux_loop(shared: Arc<MuxShared>) {
    let mut frames = wire::FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if shared.is_dead() {
            break;
        }
        match (&shared.stream).read(&mut chunk) {
            Ok(0) => break, // server hung up
            Ok(n) => {
                frames.feed(&chunk[..n]);
                // Two passes over the burst: fill every slot first, wake
                // the callers after. Waking as we decode would let the
                // first caller preempt this thread (wake-preemption) and
                // flush a one-frame batch while its peers are still
                // asleep; deferring the wakeups lets the whole cohort
                // enqueue into one combined write.
                let mut woken = Vec::new();
                loop {
                    match frames.next_frame::<Response>() {
                        Ok(Some(frame)) => {
                            let stream = shared.streams.lock().get(&frame.corr).map(Arc::clone);
                            if let Some(stream) = stream {
                                stream.push(frame.msg);
                                stream.notify();
                            } else if let Some(slot) = shared.pending.lock().remove(&frame.corr) {
                                slot.push(frame.msg);
                                woken.push(slot);
                            }
                            // An unmatched id is a caller that timed out
                            // and moved on: the late response is dropped.
                        }
                        Ok(None) => break,
                        Err(_) => {
                            for slot in woken {
                                slot.notify();
                            }
                            shared.kill();
                            return;
                        }
                    }
                }
                for slot in woken {
                    slot.notify();
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll tick: re-check the dead flag and keep waiting.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    shared.fail_all();
}

/// One live multiplexed connection: the shared state plus the demux
/// reader's handle, joined on drop.
struct MuxConn {
    shared: Arc<MuxShared>,
    reader: Mutex<Option<thread::JoinHandle<()>>>,
}

impl MuxConn {
    fn open(stream: TcpStream, stats: Arc<WireStats>) -> MuxConn {
        let shared = Arc::new(MuxShared {
            stream,
            outbox: Mutex::new(Outbox::default()),
            pending: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            dead: AtomicBool::new(false),
            stats,
        });
        let reader = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("tcpstore-demux".into())
                .spawn(move || demux_loop(shared))
                .expect("spawn tcpstore demux reader")
        };
        MuxConn { shared, reader: Mutex::new(Some(reader)) }
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        self.shared.kill();
        if let Some(handle) = self.reader.lock().take() {
            let _ = handle.join();
        }
    }
}

/// A live report stream from the server: the server-side checker pushes
/// a [`DeadlockReport`] frame whenever it finds a *new* deadlock in the
/// subscriber's tenant — no polling, no [`Store::fetch_all`] round trips.
///
/// The handle pins its connection alive (it holds the `Arc<MuxConn>`),
/// and dropping it unregisters the demux route. Subscriptions do **not**
/// survive reconnects, and the server disconnects a subscriber that falls
/// a report window behind: when the connection dies, [`Subscription::recv`]
/// drains any already-received reports and then returns `None` forever —
/// re-subscribe via [`TcpStore::subscribe`] to resume.
pub struct Subscription {
    conn: Arc<MuxConn>,
    corr: u64,
    slot: Arc<Slot>,
}

impl Subscription {
    /// The next pushed report, in arrival order; `None` on timeout or
    /// after the connection died and the queue drained.
    pub fn recv(&self, timeout: Duration) -> Option<DeadlockReport> {
        match self.slot.recv(timeout)? {
            Response::Report(report) => Some(report),
            // Anything but a report on a subscribed stream is protocol
            // desync: stop trusting the stream.
            _ => None,
        }
    }

    /// Whether the underlying connection is still alive. A dead
    /// subscription never yields new reports (queued ones still drain).
    pub fn is_live(&self) -> bool {
        !self.conn.shared.is_dead()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.conn.shared.streams.lock().remove(&self.corr);
    }
}

/// The client's connection state: a live multiplexed connection, or the
/// backoff schedule for the next dial.
struct ClientState {
    conn: Option<Arc<MuxConn>>,
    /// Next backoff delay to impose after a failure.
    backoff: Duration,
    /// Operations fail fast until this instant.
    retry_at: Option<Instant>,
}

/// A [`Store`] over TCP. Share one instance (behind `Arc`) between all
/// the sites of a process: calls multiplex over a single connection.
pub struct TcpStore {
    addr: String,
    cfg: TcpStoreConfig,
    tenant: TenantId,
    state: Mutex<ClientState>,
    reconnects: AtomicU64,
    failures: AtomicU64,
    stats: Arc<WireStats>,
}

impl TcpStore {
    /// A store client for the server at `addr` (e.g. `127.0.0.1:7007`).
    /// Connection is lazy: the first operation dials.
    pub fn new(addr: impl Into<String>) -> TcpStore {
        TcpStore::with_config(addr, TcpStoreConfig::default())
    }

    /// A store client with explicit timeouts and backoff bounds.
    pub fn with_config(addr: impl Into<String>, cfg: TcpStoreConfig) -> TcpStore {
        TcpStore {
            addr: addr.into(),
            cfg,
            tenant: TenantId::DEFAULT,
            state: Mutex::new(ClientState {
                conn: None,
                backoff: cfg.backoff_initial,
                retry_at: None,
            }),
            reconnects: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            stats: Arc::new(WireStats::default()),
        }
    }

    /// Scopes every operation of this client to `tenant`. Tenants are
    /// disjoint namespaces on the server: publishes land in the tenant's
    /// partition space, `fetch_all` sees only that tenant's partitions,
    /// and subscriptions stream only that tenant's reports. Two clients
    /// with different tenants can reuse the same [`SiteId`]s freely.
    pub fn for_tenant(mut self, tenant: TenantId) -> TcpStore {
        self.tenant = tenant;
        self
    }

    /// The tenant namespace this client operates in.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Successful (re)connects so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Operations that failed as [`StoreError::Unavailable`] so far
    /// (fast-failed backoff windows included).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Request frames submitted to the coalescer so far (across
    /// reconnects).
    pub fn frames_sent(&self) -> u64 {
        self.stats.frames.load(Ordering::Relaxed)
    }

    /// `write(2)` flushes so far. Under concurrent load this stays below
    /// [`Self::frames_sent`]: the difference is frames that rode another
    /// caller's flush.
    pub fn flushes(&self) -> u64 {
        self.stats.flushes.load(Ordering::Relaxed)
    }

    /// Sends the in-band drain command ([`Request::Shutdown`]) to the
    /// server — the administrative stop used by cluster teardown.
    pub fn shutdown_server(&self) -> Result<(), StoreError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(StoreError::Unavailable),
        }
    }

    /// Scrapes the server's live [`ServerMetrics`] counters — the
    /// observability endpoint for service deployments.
    pub fn metrics(&self) -> Result<ServerMetrics, StoreError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(metrics) => Ok(metrics),
            _ => Err(StoreError::Unavailable),
        }
    }

    /// Subscribes to streamed deadlock reports for this client's tenant.
    /// The server pushes each newly detected (deduplicated) report to the
    /// returned handle; see [`Subscription`] for the delivery and
    /// reconnect semantics.
    pub fn subscribe(&self) -> Result<Subscription, StoreError> {
        let conn = self.connection()?;
        let request = Request::Subscribe { tenant: self.tenant };
        match conn.shared.open_stream(&request, self.cfg.io_timeout) {
            Ok((corr, slot)) => Ok(Subscription { conn, corr, slot }),
            Err(e) => {
                // Same contract as try_call: a failed exchange means the
                // pipelined stream can no longer be trusted.
                conn.shared.kill();
                self.retire(&conn);
                self.failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.cfg.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    // The demux reader polls with this as its tick; socket
                    // shutdown (not the timeout) is what unblocks it on
                    // teardown, so idle ticks only gate dead-flag checks.
                    stream.set_read_timeout(Some(self.cfg.io_timeout))?;
                    stream.set_write_timeout(Some(self.cfg.io_timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The live connection, dialing if necessary. Honors the fail-fast
    /// backoff window; a successful dial resets the backoff.
    fn connection(&self) -> Result<Arc<MuxConn>, StoreError> {
        let mut state = self.state.lock();
        let mut carcass = None;
        if let Some(conn) = &state.conn {
            if !conn.shared.is_dead() {
                return Ok(Arc::clone(conn));
            }
            // The demux reader noticed the death before any caller did
            // (e.g. a server restart while we were idle): retire the
            // connection and open the backoff window.
            carcass = state.conn.take();
            self.open_backoff(&mut state);
        }
        let result = (|| {
            if let Some(retry_at) = state.retry_at {
                if Instant::now() < retry_at {
                    return Err(StoreError::Unavailable); // fail fast in the window
                }
            }
            match self.dial() {
                Ok(stream) => {
                    let conn = Arc::new(MuxConn::open(stream, Arc::clone(&self.stats)));
                    state.conn = Some(Arc::clone(&conn));
                    state.backoff = self.cfg.backoff_initial;
                    state.retry_at = None;
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                    Ok(conn)
                }
                Err(_) => {
                    self.open_backoff(&mut state);
                    Err(StoreError::Unavailable)
                }
            }
        })();
        drop(state);
        drop(carcass); // outside the state lock: may join the demux reader
        result
    }

    fn open_backoff(&self, state: &mut ClientState) {
        state.retry_at = Some(Instant::now() + state.backoff);
        state.backoff = (state.backoff * 2).min(self.cfg.backoff_max);
    }

    /// Retires `failed` if it is still the current connection, opening
    /// the backoff window. Concurrent callers failing on the same
    /// connection retire it once (and double the backoff once).
    fn retire(&self, failed: &Arc<MuxConn>) {
        let mut state = self.state.lock();
        let mut carcass = None;
        if let Some(current) = &state.conn {
            if Arc::ptr_eq(current, failed) {
                carcass = state.conn.take();
                self.open_backoff(&mut state);
            }
        }
        drop(state);
        drop(carcass);
    }

    /// One pipelined exchange. On any failure the connection is retired,
    /// the backoff window opens (doubling up to the ceiling), every
    /// in-flight operation on it — batched or awaiting a response — fails
    /// as [`StoreError::Unavailable`], and the next operation after the
    /// window redials.
    fn call(&self, request: &Request) -> Result<Response, StoreError> {
        let result = self.try_call(request);
        if result.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn try_call(&self, request: &Request) -> Result<Response, StoreError> {
        let conn = self.connection()?;
        match conn.shared.call(request, self.cfg.io_timeout) {
            Ok(response) => Ok(response),
            Err(e) => {
                // Timeout, transport error, or desync: the pipelined
                // stream cannot be trusted to correlate anything further.
                conn.shared.kill();
                self.retire(&conn);
                Err(e)
            }
        }
    }
}

impl Drop for TcpStore {
    fn drop(&mut self) {
        // Retire the connection explicitly so the demux reader is joined
        // even when callers still hold clones of the Arc.
        if let Some(conn) = self.state.lock().conn.take() {
            conn.shared.kill();
        }
    }
}

impl Store for TcpStore {
    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        let request =
            Request::PublishFull { site, tenant: self.tenant, snapshot: partition, version };
        match self.call(&request)? {
            Response::Ok => Ok(()),
            _ => Err(StoreError::Unavailable),
        }
    }

    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        let request = Request::PublishDeltas {
            site,
            tenant: self.tenant,
            base,
            deltas: deltas.to_vec(),
            next,
        };
        match self.call(&request)? {
            Response::Applied => Ok(DeltaAck::Applied),
            Response::NeedSnapshot => Ok(DeltaAck::NeedSnapshot),
            _ => Err(StoreError::Unavailable),
        }
    }

    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        match self.call(&Request::PublishStats { site, tenant: self.tenant, stats })? {
            Response::Ok => Ok(()),
            _ => Err(StoreError::Unavailable),
        }
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        match self.changes_since(None)? {
            (_, Feed::Join(view)) => Ok(view),
            _ => Err(StoreError::Unavailable),
        }
    }

    fn changes_since(&self, cursor: Option<u64>) -> Result<(u64, Feed), StoreError> {
        match self.call(&Request::ChangesSince { tenant: self.tenant, cursor })? {
            Response::Changes { cursor, feed } => Ok((cursor, feed)),
            _ => Err(StoreError::Unavailable),
        }
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        match self.call(&Request::Remove { site, tenant: self.tenant })? {
            Response::Ok => Ok(()),
            _ => Err(StoreError::Unavailable),
        }
    }
}
