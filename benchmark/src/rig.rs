//! A workload, set up and ready to measure: the unchecked and the checked
//! instance of the same generated program, the verifier(s) the checked
//! one runs under, and — for `dist-tcp` — the loopback server, the two
//! sites and their store connections.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    kernels, Kernel, OnDeadlock, Runtime, RuntimeConfig, Scale, Site, SiteConfig, SiteId, Store,
    StoredConfig, StoredServer, Subscription, TaskId, TcpStore, VerifierConfig,
};
use crate::gen::{Inputs, Size, Spec, Workload};
use crate::program::{AsyncProgram, Part};

/// Period of the `stencil-detect` monitor.
pub const DETECT_PERIOD: Duration = Duration::from_millis(20);
/// `dist-tcp`: how often a site ships its deltas.
pub const DIST_PUBLISH_PERIOD: Duration = Duration::from_millis(5);
/// `dist-tcp`: how often a site's own checker and the server's checker run.
pub const DIST_CHECK_PERIOD: Duration = Duration::from_millis(10);

/// OS threads a kernel solve runs on: the SPMD width of `npb-spmd`, fixed
/// (one thread never blocks, so there would be nothing to verify). The
/// kernels spawn their own short-lived threads, which inherit the harness
/// thread's one core (`host::confine_harness`): left to the guest
/// scheduler the two threads of a solve share a core or not for a whole
/// run at a time (29 ms or 47 ms a suite pass); on one core they still
/// park and wake at every barrier, and the times repeat.
pub const SPMD_THREADS: usize = 2;

/// How the checked instance is verified, which fixes how a verdict
/// reaches the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Avoidance,
    Detection,
    Dist,
}

pub fn mode(workload: Workload) -> Mode {
    match workload {
        Workload::NpbSpmd | Workload::StencilAvoid | Workload::FaninAvoid => Mode::Avoidance,
        Workload::StencilDetect => Mode::Detection,
        Workload::DistTcp => Mode::Dist,
    }
}

/// The verifier configuration a workload's checked instance runs under.
/// `journal_capacity` widens the delta journal for the traced run's
/// stream capture; measurement runs leave it at the product default.
pub fn checked_runtime(workload: Workload, journal_capacity: Option<usize>) -> Arc<Runtime> {
    let (cfg, verifier) = match mode(workload) {
        Mode::Avoidance => (RuntimeConfig::avoidance(), VerifierConfig::avoidance()),
        Mode::Detection => (
            RuntimeConfig::detection().with_on_deadlock(OnDeadlock::Break),
            VerifierConfig::detection_every(DETECT_PERIOD),
        ),
        // What `Site::start` builds for its own runtime.
        Mode::Dist => (RuntimeConfig::unchecked(), VerifierConfig::publish_only()),
    };
    let verifier = match journal_capacity {
        Some(capacity) => verifier.with_journal_capacity(capacity),
        None => verifier,
    };
    Runtime::new(cfg.with_verifier(verifier))
}

/// The six §6.1 kernels as one unit of work: `passes` suite passes in the
/// seeded order on `threads` OS threads, every checksum validated against
/// the sequential reference.
pub struct KernelWork {
    runtime: Arc<Runtime>,
    kernels: Vec<Kernel>,
    reference: Arc<Vec<f64>>,
    threads: usize,
    scale: Scale,
    passes: usize,
    /// Checksums that missed the reference so far.
    pub mismatches: u64,
    /// Wall milliseconds of every solve so far, per kernel (suite order).
    pub solve_ms: Vec<Vec<f64>>,
}

impl KernelWork {
    pub fn new(
        runtime: Arc<Runtime>,
        order: &[usize],
        reference: Arc<Vec<f64>>,
        threads: usize,
        scale: Scale,
        passes: usize,
    ) -> KernelWork {
        let all = kernels::all();
        KernelWork {
            runtime,
            kernels: order.iter().map(|&i| all[i]).collect(),
            reference,
            threads,
            scale,
            passes,
            mismatches: 0,
            solve_ms: vec![Vec::new(); order.len()],
        }
    }

    /// Sequential-reference checksums, in suite order.
    pub fn reference(order: &[usize], scale: Scale) -> Vec<f64> {
        let all = kernels::all();
        let rt = Runtime::unchecked();
        order.iter().map(|&i| (all[i].run)(&rt, 1, scale)).collect()
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name).collect()
    }

    fn round(&mut self) -> Duration {
        let started = Instant::now();
        for _ in 0..self.passes {
            for (i, kernel) in self.kernels.iter().enumerate() {
                let t0 = Instant::now();
                let sum = (kernel.run)(&self.runtime, self.threads, self.scale);
                self.solve_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
                if !kernels::relative_close(sum, self.reference[i], 1e-6) {
                    self.mismatches += 1;
                }
            }
        }
        started.elapsed()
    }

    fn ops_per_round(&self) -> u64 {
        (self.passes * self.kernels.len()) as u64
    }
}

/// One instance of the workload's program.
pub enum Work {
    Kernels(KernelWork),
    Async(AsyncProgram),
}

impl Work {
    /// Runs one round of fixed work and returns its wall time.
    pub fn round(&mut self) -> Result<Duration, String> {
        match self {
            Work::Kernels(k) => Ok(k.round()),
            Work::Async(p) => p.round(),
        }
    }

    pub fn ops_per_round(&self) -> u64 {
        match self {
            Work::Kernels(k) => k.ops_per_round(),
            Work::Async(p) => p.ops_per_round(),
        }
    }

    /// Tasks left parked (blocked, under a checked runtime) between rounds.
    pub fn population(&self) -> usize {
        match self {
            Work::Kernels(_) => 0,
            Work::Async(p) => p.tasks(),
        }
    }

    /// Ends the instance; returns the failures it accumulated (checksum
    /// mismatches, tasks that ended in an error).
    fn finish(self) -> u64 {
        match self {
            Work::Kernels(k) => k.mismatches,
            Work::Async(p) => p.shutdown() as u64,
        }
    }
}

/// The networked half of `dist-tcp`.
pub struct DistRig {
    pub server: StoredServer,
    pub sites: Vec<Site>,
    pub stores: Vec<Arc<TcpStore>>,
    pub subscription: Subscription,
}

pub struct Rig {
    pub mode: Mode,
    pub unchecked: Work,
    pub checked: Work,
    /// The runtimes the checked instance blocks on (one per site on
    /// `dist-tcp`, otherwise one).
    pub runtimes: Vec<Arc<Runtime>>,
    /// Detection verdicts, stamped on the monitor thread as the
    /// `Verifier::subscribe` callback runs.
    pub detections: Option<mpsc::Receiver<(Instant, Vec<TaskId>)>>,
    pub dist: Option<DistRig>,
}

pub fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Full,
        Size::Smoke => Scale::Quick,
    }
}

fn start_dist() -> Result<DistRig, String> {
    let server = StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: DIST_CHECK_PERIOD, ..StoredConfig::default() },
    )
    .map_err(|e| format!("bind loopback server: {e}"))?;
    let addr = server.local_addr().to_string();
    let stores: Vec<Arc<TcpStore>> =
        (0..2).map(|_| Arc::new(TcpStore::new(addr.clone()))).collect();
    // Subscribe before any site exists, so no report can precede the
    // push channel — and dial every store at once while doing so. The
    // server's accept loop polls every 25 ms; connections that are all
    // waiting at its first poll are all accepted by it, whereas a site
    // dialling lazily from its first publish lands before or after the
    // next poll by chance, and the set-up time is one poll or two at
    // random.
    let subscription = std::thread::scope(|scope| {
        let dials: Vec<_> =
            stores[1..].iter().map(|store| scope.spawn(|| store.fetch_all())).collect();
        let subscription = stores[0].subscribe();
        for dial in dials {
            dial.join()
                .expect("dial thread")
                .map_err(|e| format!("connect to loopback server: {e}"))?;
        }
        subscription.map_err(|e| format!("subscribe to loopback server: {e}"))
    })?;
    let cfg = SiteConfig {
        publish_period: DIST_PUBLISH_PERIOD,
        check_period: DIST_CHECK_PERIOD,
        ..SiteConfig::default()
    };
    let sites = stores
        .iter()
        .enumerate()
        .map(|(i, store)| Site::start(SiteId(i as u32), Arc::clone(store) as Arc<dyn Store>, cfg))
        .collect();
    Ok(DistRig { server, sites, stores, subscription })
}

/// Sets the workload up: generates nothing (the inputs arrive generated),
/// starts runtimes, executors, server and sites, spawns every task and
/// returns once both instances are parked and — on `dist-tcp` — each
/// site's first full publish has been acknowledged.
pub fn setup(
    workload: Workload,
    inputs: &Inputs,
    spec: &Spec,
    size: Size,
    workers: usize,
) -> Result<Rig, String> {
    let mode = mode(workload);
    if workload == Workload::NpbSpmd {
        let reference = Arc::new(KernelWork::reference(&inputs.kernel_order, scale(size)));
        let checked_rt = checked_runtime(workload, None);
        let work = |rt: Arc<Runtime>| {
            Work::Kernels(KernelWork::new(
                rt,
                &inputs.kernel_order,
                Arc::clone(&reference),
                SPMD_THREADS,
                scale(size),
                spec.suite_passes,
            ))
        };
        return Ok(Rig {
            mode,
            unchecked: work(Runtime::unchecked()),
            checked: work(Arc::clone(&checked_rt)),
            runtimes: vec![checked_rt],
            detections: None,
            dist: None,
        });
    }

    let dist = if mode == Mode::Dist { Some(start_dist()?) } else { None };
    let runtimes: Vec<Arc<Runtime>> = match &dist {
        Some(d) => d.sites.iter().map(|s| Arc::clone(s.runtime())).collect(),
        None => vec![checked_runtime(workload, None)],
    };
    // One part per runtime (`dist-tcp`: one per site).
    let topologies = inputs.topology.split(runtimes.len());
    let parts = |rts: Vec<Arc<Runtime>>| -> Vec<Part> {
        rts.into_iter()
            .zip(topologies.iter().cloned())
            .map(|(runtime, topology)| Part { runtime, topology })
            .collect()
    };
    let unchecked_rts = (0..runtimes.len()).map(|_| Runtime::unchecked()).collect();
    let unchecked = AsyncProgram::spawn(parts(unchecked_rts), workers, spec.advances)?;
    let checked = AsyncProgram::spawn(parts(runtimes.clone()), workers, spec.advances)?;

    let detections = (mode == Mode::Detection).then(|| {
        let (tx, rx) = mpsc::channel();
        runtimes[0].verifier().subscribe(move |report| {
            let _ = tx.send((Instant::now(), report.tasks.clone()));
        });
        rx
    });

    if let Some(d) = &dist {
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.sites.iter().any(|s| s.publish_resyncs() == 0) {
            if Instant::now() > deadline {
                return Err("a site's first full publish was not acknowledged within 5 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    Ok(Rig {
        mode,
        unchecked: Work::Async(unchecked),
        checked: Work::Async(checked),
        runtimes,
        detections,
        dist,
    })
}

impl Rig {
    /// Stops everything the set-up started and waits for it; returns the
    /// failures the two instances accumulated.
    pub fn teardown(self) -> u64 {
        let failed = self.unchecked.finish() + self.checked.finish();
        for rt in &self.runtimes {
            rt.shutdown();
        }
        if let Some(d) = self.dist {
            for site in d.sites {
                site.stop();
            }
            drop(d.subscription);
            drop(d.stores);
            d.server.shutdown();
        }
        failed
    }
}
