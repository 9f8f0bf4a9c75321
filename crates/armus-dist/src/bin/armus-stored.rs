//! `armus-stored` — the standalone networked global store (paper §5.2's
//! Redis role), serving the Armus wire protocol.
//!
//! ```text
//! armus-stored [--listen ADDR] [--lease-ms N | --no-lease]
//!              [--read-timeout-ms N] [--write-timeout-ms N]
//!              [--check-period-ms N] [--metrics-period-ms N]
//!
//!   --listen ADDR          bind address (default 127.0.0.1:7007; use
//!                          port 0 for an ephemeral port)
//!   --lease-ms N           partition lease TTL (default 5000); a site
//!                          that stops publishing for N ms expires
//!   --no-lease             disable partition expiry
//!   --read-timeout-ms N    reap connections idle for N ms (default 30000)
//!   --write-timeout-ms N   bound on writing one response (default 5000)
//!   --check-period-ms N    the longest a subscribed tenant's changed view
//!                          waits for the server-side checker (default
//!                          100); sites that say when they went quiet are
//!                          checked then, an idle store not at all
//!   --metrics-period-ms N  log a metrics line to stderr every N ms
//!                          (default off)
//! ```
//!
//! The server speaks one wire protocol version (flat frames, pipelined
//! with correlation ids): every connection can carry bursts of in-flight
//! requests and is answered out of a per-connection reply queue, so one
//! socket serves a whole multi-site client process.
//!
//! On startup the server prints `armus-stored listening on ADDR` to
//! stdout (parents scrape the ephemeral port from it) and logs to stderr.
//! It exits on the in-band [`Request::Shutdown`] drain command — the
//! SIGTERM equivalent — finishing in-flight requests first.
//!
//! [`Request::Shutdown`]: armus_dist::wire::Request::Shutdown

use std::io::Write;
use std::time::Duration;

use armus_dist::server::{StoredConfig, StoredServer};

fn usage(err: &str) -> ! {
    eprintln!("armus-stored: {err}");
    eprintln!(
        "usage: armus-stored [--listen ADDR] [--lease-ms N | --no-lease] \
         [--read-timeout-ms N] [--write-timeout-ms N] \
         [--check-period-ms N] [--metrics-period-ms N]"
    );
    std::process::exit(2);
}

fn millis(args: &mut impl Iterator<Item = String>, flag: &str) -> Duration {
    match args.next().and_then(|v| v.parse::<u64>().ok()) {
        Some(n) => Duration::from_millis(n),
        None => usage(&format!("{flag} needs a millisecond count")),
    }
}

fn main() {
    let mut listen = "127.0.0.1:7007".to_string();
    let mut cfg = StoredConfig::default();
    let mut metrics_period: Option<Duration> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(addr) => listen = addr,
                None => usage("--listen needs an address"),
            },
            "--lease-ms" => cfg.lease = Some(millis(&mut args, "--lease-ms")),
            "--no-lease" => cfg.lease = None,
            "--read-timeout-ms" => cfg.read_timeout = millis(&mut args, "--read-timeout-ms"),
            "--write-timeout-ms" => cfg.write_timeout = millis(&mut args, "--write-timeout-ms"),
            "--check-period-ms" => cfg.check_period = millis(&mut args, "--check-period-ms"),
            "--metrics-period-ms" => {
                metrics_period = Some(millis(&mut args, "--metrics-period-ms"));
            }
            other => usage(&format!("unknown option {other}")),
        }
    }

    let server = match StoredServer::bind(listen.as_str(), cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("armus-stored: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    // The banner parents scrape the (possibly ephemeral) port from.
    println!("armus-stored listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "armus-stored: serving on {} (protocol v2 pipelined, lease {:?}, read timeout {:?})",
        server.local_addr(),
        cfg.lease,
        cfg.read_timeout
    );
    if let Some(period) = metrics_period {
        // In-process sampling (no wire round trip), so the scrape itself
        // does not inflate the served-request counters it reports.
        let handle = server.metrics_handle();
        std::thread::Builder::new()
            .name("armus-stored-metrics".into())
            .spawn(move || {
                while !handle.is_shutdown() {
                    std::thread::sleep(period);
                    let m = handle.sample();
                    let tenants: Vec<String> = m
                        .tenants
                        .iter()
                        .map(|t| {
                            format!(
                                "{}: {} partitions, {} expiries, {} subscribers",
                                t.tenant, t.partitions, t.lease_expiries, t.subscribers
                            )
                        })
                        .collect();
                    eprintln!(
                        "armus-stored: metrics served={} errors={} conns={} subs={} \
                         publishes={}+{}Δ fetches={} removes={} streamed={} \
                         reply-queue-max={} [{}]",
                        m.served,
                        m.protocol_errors,
                        m.live_connections,
                        m.subscribers,
                        m.publishes,
                        m.delta_publishes,
                        m.fetches,
                        m.removes,
                        m.reports_streamed,
                        m.reply_queue_max,
                        tenants.join("; ")
                    );
                }
            })
            .expect("spawn metrics logger");
    }
    server.wait();
    eprintln!("armus-stored: drained, exiting");
}
