//! What the harness reads off the host: core count, load, and this
//! process's CPU time and peak memory (Linux `/proc`; the benchmark is
//! defined on the Linux sandbox it gates PRs in).

use std::fs;
use std::sync::OnceLock;

/// Cores the process may run on.
pub fn cores() -> usize {
    allowed_cpus().len().max(1)
}

/// The 1-minute load average, recorded with every result so a noisy host
/// can be told from a slow change.
pub fn load_average_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Busy async worker threads. The untraced run measures on one: two
/// workers sharing an executor's queue and the engine lock made every
/// round's time a matter of how the wakes happened to interleave
/// (`fanin-avoid` unchecked: 18-28 ms a round on two workers, 15.8-16.5 ms
/// on one) and were slower besides, so no bound could sit on them. The
/// traced run, whose metrics carry no bound, keeps `min(2, cores)` — it is
/// where contention is read. A request for more workers than cores is
/// refused — two busy threads on one core time the scheduler, not the
/// verifier.
pub fn workers(requested: Option<usize>, traced: bool, cores: usize) -> Result<usize, String> {
    let workers = requested.unwrap_or_else(|| if traced { cores.min(2) } else { 1 });
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if workers > cores {
        return Err(format!("--workers {workers} exceeds the host's {cores} core(s)"));
    }
    Ok(workers)
}

/// The CPUs the process was started on (`Cpus_allowed_list` of its main
/// thread), in order — read once, before the harness confines itself.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| cpus_allowed(&fs::read_to_string("/proc/self/status").unwrap_or_default()))
}

/// Confines the calling (harness) thread, and so every thread started
/// from it afterwards — monitor, publishers, site and server checkers,
/// connection handlers, the kernels' SPMD threads — to the last allowed
/// core; async workers are then pinned from the first core up
/// (`AsyncProgram::spawn`). On two cores that is one core for the
/// program's worker and one for everything that verifies it, the same in
/// every run.
pub fn confine_harness() {
    if let Some(&cpu) = allowed_cpus().last() {
        pin(0, cpu);
    }
}

/// The `Cpus_allowed_list` line of a `/proc/.../status` file, expanded.
fn cpus_allowed(status: &str) -> Vec<usize> {
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
    let mut cpus = Vec::new();
    for range in list.trim().split(',').filter(|r| !r.is_empty()) {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Ids of this process's threads whose name starts with `prefix`, sorted.
pub fn threads_named(prefix: &str) -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|entry| {
                let path = entry.ok()?.path();
                let name = fs::read_to_string(path.join("comm")).ok()?;
                name.starts_with(prefix).then(|| path.file_name()?.to_str()?.parse().ok())?
            })
            .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

#[cfg(target_os = "linux")]
extern "C" {
    /// `sched_setaffinity(2)`, from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    /// `clock_gettime(2)`; `timespec` is two 64-bit words on the 64-bit
    /// Linux ABIs the benchmark is defined on.
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
}

/// Confines thread `tid` (0: the calling thread, and every thread it
/// spawns afterwards) to `cpu`. Placement is the largest noise source on
/// a two-core sandbox — the guest scheduler decides, per process and for
/// seconds at a time, whether two threads that wake each other share a
/// core — so the harness fixes it: worker `k` runs on the `k`-th allowed
/// core. Returns whether the kernel accepted; on refusal (or off Linux)
/// the thread simply stays where the scheduler puts it.
pub fn pin(tid: u32, cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let Some(word) = mask.get_mut(cpu / 64) else { return false };
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised array of the byte length
        // passed beside it, the call only reads it, and it has no effect
        // on memory — it asks the scheduler to move a thread.
        unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (tid, cpu);
        false
    }
}

/// User + system CPU seconds of the whole process so far — every thread,
/// exited ones included, which is what makes monitor, publisher, checker
/// and server threads visible where wall time on an idle core hides them.
/// Read from the process CPU clock: `/proc/self/stat` counts in 10 ms
/// ticks, coarser than a round.
pub fn cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut time = [0i64; 2];
        // SAFETY: `time` is a live, writable `timespec`-sized buffer and
        // the call writes nothing else.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } == 0 {
            return time[0] as f64 + time[1] as f64 / 1e9;
        }
    }
    f64::NAN
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_default_to_one_untraced_and_two_or_the_core_count_traced() {
        assert_eq!(workers(None, false, 8), Ok(1));
        assert_eq!(workers(None, false, 1), Ok(1));
        assert_eq!(workers(None, true, 8), Ok(2));
        assert_eq!(workers(None, true, 2), Ok(2));
        assert_eq!(workers(None, true, 1), Ok(1));
    }

    #[test]
    fn more_workers_than_cores_is_refused() {
        assert!(workers(Some(3), false, 2).is_err());
        assert!(workers(Some(2), true, 1).is_err());
        assert!(workers(Some(0), false, 4).is_err());
        assert_eq!(workers(Some(2), false, 2), Ok(2));
        assert_eq!(workers(Some(1), true, 2), Ok(1));
    }

    #[test]
    fn a_thread_can_be_pinned_to_an_allowed_cpu() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        let cpu = *allowed.last().unwrap();
        // Pin a scratch thread, not the test runner's.
        let pinned = std::thread::spawn(move || {
            let accepted = pin(0, cpu);
            (accepted, cpus_allowed(&fs::read_to_string("/proc/thread-self/status").unwrap()))
        });
        assert_eq!(pinned.join().unwrap(), (true, vec![cpu]));
    }

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(
            cpus_allowed("Name:\tx\nCpus_allowed_list:\t0-2,5,7-8\n"),
            vec![0, 1, 2, 5, 7, 8]
        );
        assert_eq!(cpus_allowed("Cpus_allowed_list:\t3\n"), vec![3]);
        assert!(cpus_allowed("").is_empty());
    }

    #[test]
    fn threads_are_found_by_name() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("pin-me-0".into())
            .spawn(move || {
                ready_tx.send(()).unwrap();
                let _ = done_rx.recv();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        assert_eq!(threads_named("pin-me-").len(), 1);
        assert!(threads_named("no-such-thread").is_empty());
        drop(done_tx);
        worker.join().unwrap();
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cores() >= 1);
        let before = cpu_seconds();
        assert!(before >= 0.0);
        let mut x = 0u64;
        while cpu_seconds() == before {
            x = std::hint::black_box(x + 1);
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
