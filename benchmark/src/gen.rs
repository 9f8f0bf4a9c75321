//! The workload generator: everything a run's inputs depend on is derived
//! here from `--seed`, and the program under test receives only what this
//! module produces (a topology, a kernel order, a stream of trial shapes).
//! Totals are fixed per workload — the seed moves *where* the work sits
//! (group sizes, kernel order, cycle lengths), never how much there is, so
//! a per-op metric of one seed is comparable with another's.

/// SplitMix64: small, seedable, and identical on every host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one consumer (`salt` names it).
    pub fn fork(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The five workloads (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NpbSpmd,
    StencilAvoid,
    StencilDetect,
    FaninAvoid,
    DistTcp,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::NpbSpmd,
        Workload::StencilAvoid,
        Workload::StencilDetect,
        Workload::FaninAvoid,
        Workload::DistTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbSpmd => "npb-spmd",
            Workload::StencilAvoid => "stencil-avoid",
            Workload::StencilDetect => "stencil-detect",
            Workload::FaninAvoid => "fanin-avoid",
            Workload::DistTcp => "dist-tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A phaser program's shape: group `g` is one phaser with `members[g]`
/// tasks; with `halo`, member 0 of every group but the last is also
/// registered on the next group's phaser and advances it after its own
/// (a chain, so the program is deadlock-free, but blocked tasks of
/// neighbouring groups are joined by real SG/WFG edges).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    pub members: Vec<usize>,
    pub halo: bool,
}

impl Topology {
    pub fn tasks(&self) -> usize {
        self.members.iter().sum()
    }

    /// Tasks registered on two phasers.
    pub fn links(&self) -> usize {
        if self.halo {
            self.members.len().saturating_sub(1)
        } else {
            0
        }
    }

    /// Blocking phaser operations one round issues: every task awaits the
    /// gate once and advances its group phaser `advances` times; a halo
    /// member also advances its neighbour's.
    pub fn ops_per_round(&self, advances: usize) -> u64 {
        (self.tasks() * (1 + advances) + self.links() * advances) as u64
    }

    /// Cuts the program into `parts` runs of consecutive groups (the halo
    /// link across each cut is dropped: a phaser lives on one site).
    pub fn split(&self, parts: usize) -> Vec<Topology> {
        let per = self.members.len().div_ceil(parts.max(1));
        self.members
            .chunks(per.max(1))
            .map(|c| Topology { members: c.to_vec(), halo: self.halo })
            .collect()
    }

    /// The group size the front-end micro-rungs use: the median group.
    pub fn typical_group(&self) -> usize {
        let mut sizes = self.members.clone();
        sizes.sort_unstable();
        sizes.get(sizes.len() / 2).copied().unwrap_or(1).max(2)
    }
}

/// `groups` sizes drawn uniformly within `±jitter` of `mean`, then nudged
/// (one member at a time, seeded) until they sum to exactly
/// `groups * mean`, staying inside the band.
pub fn group_sizes(rng: &mut Rng, groups: usize, mean: usize, jitter: f64) -> Vec<usize> {
    let lo = ((mean as f64 * (1.0 - jitter)).round() as usize).max(1);
    let hi = ((mean as f64 * (1.0 + jitter)).round() as usize).max(lo);
    let mut sizes: Vec<usize> = (0..groups).map(|_| rng.range(lo, hi)).collect();
    let target = groups * mean;
    let mut total: usize = sizes.iter().sum();
    while total != target {
        let g = rng.range(0, groups - 1);
        if total < target && sizes[g] < hi {
            sizes[g] += 1;
            total += 1;
        } else if total > target && sizes[g] > lo {
            sizes[g] -= 1;
            total -= 1;
        }
    }
    sizes
}

/// How big a workload runs. `Full` is what `BENCHMARK.json` measures;
/// `Smoke` is the < 20 s local check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The fixed sizes of one workload. Everything here is frozen: a run's
/// length is set by `--seconds` through the *number* of rounds and trials,
/// never by their size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub groups: usize,
    pub mean_members: usize,
    pub jitter: f64,
    pub halo: bool,
    /// Group-phaser advances per task per round.
    pub advances: usize,
    /// Kernel-suite passes per round (`npb-spmd` only).
    pub suite_passes: usize,
}

pub fn spec(workload: Workload, size: Size) -> Spec {
    let full = size == Size::Full;
    match workload {
        Workload::NpbSpmd => Spec {
            groups: 1,
            mean_members: 2,
            jitter: 0.0,
            halo: false,
            advances: 8,
            suite_passes: if full { 2 } else { 1 },
        },
        Workload::StencilAvoid | Workload::StencilDetect | Workload::DistTcp => Spec {
            groups: if full { 64 } else { 8 },
            mean_members: if full { 32 } else { 8 },
            jitter: 0.25,
            halo: true,
            // `dist-tcp` runs beside publishers and checkers that wake
            // every 5-10 ms: its rounds are made long enough to span
            // several of their periods, or a round's time would say
            // mostly whether a check happened to land in it.
            advances: match (workload, full) {
                (Workload::DistTcp, true) => 24,
                (_, true) => 6,
                (_, false) => 4,
            },
            suite_passes: 0,
        },
        Workload::FaninAvoid => Spec {
            groups: 2,
            mean_members: if full { 512 } else { 48 },
            jitter: 0.125,
            halo: false,
            // One advance makes a 0.2 s checked round; with two the run
            // held half as many turns and its fastest was less steady.
            advances: 1,
            suite_passes: 0,
        },
    }
}

/// What one `(workload, seed)` hands the program under test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub topology: Topology,
    /// Order the suite's kernels run in within a pass (indices into
    /// `armus_workloads::kernels::all()`).
    pub kernel_order: Vec<usize>,
}

/// The kernels `npb-spmd` times end to end: the §6.1 suite without MG.
/// At two threads MG blocks ~340 times in a 20 ms solve, so its wall time
/// is set by whether the scheduler happens to co-locate the two threads
/// (20 ms) or spread them (34 ms, a cross-core wake per barrier) — a
/// bimodal 25 % swing between back-to-back runs of the same binary that
/// no bound could sit on. The traced run still solves all six and reports
/// MG's time, where that swing is the host-noise canary.
pub const SUITE: [usize; 5] = [0, 1, 2, 4, 5];

pub fn inputs(workload: Workload, size: Size, seed: u64) -> Inputs {
    let spec = spec(workload, size);
    let mut rng = Rng::fork(seed, 1);
    let members = group_sizes(&mut rng, spec.groups, spec.mean_members, spec.jitter);
    let mut kernel_order = SUITE.to_vec();
    for i in (1..kernel_order.len()).rev() {
        kernel_order.swap(i, rng.range(0, i));
    }
    Inputs { topology: Topology { members, halo: spec.halo }, kernel_order }
}

/// The shape of one verdict trial: how many tasks the planted cycle has
/// and where in the checker's period the closing call lands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialShape {
    pub cycle: usize,
    /// Share of one detection period to wait before planting.
    pub phase: f64,
}

/// The seeded stream of trial shapes. Cycle lengths are uniform in 2–4.
/// Phase offsets walk the period by the golden ratio from a seeded start:
/// a periodic checker's time-to-verdict is uniform over the phase the
/// cycle closes at, and an even sweep of that phase reads the
/// distribution's median with far less run-to-run noise than independent
/// draws would.
pub struct Trials {
    rng: Rng,
    phase: f64,
}

impl Trials {
    pub fn new(seed: u64) -> Trials {
        let mut rng = Rng::fork(seed, 2);
        let phase = rng.unit();
        Trials { rng, phase }
    }
}

impl Iterator for Trials {
    type Item = TrialShape;

    fn next(&mut self) -> Option<TrialShape> {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        self.phase = (self.phase + GOLDEN).fract();
        Some(TrialShape { cycle: self.rng.range(2, 4), phase: self.phase })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_op_count() {
        for w in Workload::ALL {
            let a = inputs(w, Size::Full, 7);
            let b = inputs(w, Size::Full, 7);
            assert_eq!(a, b, "{}", w.name());
            let k = spec(w, Size::Full).advances;
            assert_eq!(a.topology.ops_per_round(k), b.topology.ops_per_round(k));
        }
        let a: Vec<TrialShape> = Trials::new(7).take(50).collect();
        let b: Vec<TrialShape> = Trials::new(7).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_topology_same_totals() {
        let a = inputs(Workload::StencilAvoid, Size::Full, 1);
        let b = inputs(Workload::StencilAvoid, Size::Full, 2);
        assert_ne!(a.topology, b.topology);
        assert_eq!(a.topology.tasks(), 64 * 32);
        assert_eq!(b.topology.tasks(), 64 * 32);
        assert_eq!(a.topology.ops_per_round(6), b.topology.ops_per_round(6));
        let a: Vec<TrialShape> = Trials::new(1).take(50).collect();
        let b: Vec<TrialShape> = Trials::new(2).take(50).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn group_sizes_stay_in_band_and_hit_the_total() {
        for seed in 0..20 {
            let sizes = group_sizes(&mut Rng::fork(seed, 0), 64, 32, 0.25);
            assert_eq!(sizes.iter().sum::<usize>(), 64 * 32);
            assert!(sizes.iter().all(|&s| (24..=40).contains(&s)), "{sizes:?}");
        }
    }

    #[test]
    fn ops_per_round_counts_gate_advances_and_halo() {
        let t = Topology { members: vec![3, 2, 4], halo: true };
        // 9 tasks x (1 gate await + 5 advances) + 2 halo members x 5.
        assert_eq!(t.ops_per_round(5), 9 * 6 + 2 * 5);
        let flat = Topology { members: vec![3, 2, 4], halo: false };
        assert_eq!(flat.ops_per_round(5), 9 * 6);
    }

    #[test]
    fn split_drops_the_link_across_the_cut() {
        let t = Topology { members: vec![2, 3, 4, 5], halo: true };
        let parts = t.split(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].members, vec![2, 3]);
        assert_eq!(parts[1].members, vec![4, 5]);
        assert_eq!(parts.iter().map(Topology::links).sum::<usize>(), 2);
        assert_eq!(parts.iter().map(Topology::tasks).sum::<usize>(), t.tasks());
    }

    #[test]
    fn trial_shapes_are_in_range() {
        for shape in Trials::new(3).take(500) {
            assert!((2..=4).contains(&shape.cycle));
            assert!((0.0..1.0).contains(&shape.phase));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
