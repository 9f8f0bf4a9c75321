//! Identifier newtypes for tasks and phasers.
//!
//! Tasks and phasers are referred to throughout the verifier by small opaque
//! ids rather than by reference, mirroring the paper's task names `t ∈ T` and
//! phaser names `p ∈ P`. Fresh ids are drawn from process-wide atomic
//! counters so that ids are unique across runtimes, sites and tests.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Name of a task (`t` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u64);

/// Name of a phaser (`p` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhaserId(pub u64);

/// A phase number (`n` in the paper): the timestamp of the logical clock
/// associated with a phaser.
pub type Phase = u64;

static NEXT_TASK: AtomicU64 = AtomicU64::new(1);
static NEXT_PHASER: AtomicU64 = AtomicU64::new(1);

/// Number of low bits of a [`TaskId`] that hold the site-local id when the
/// id is site-namespaced (see [`TaskId::with_site`]). The high bits hold
/// the site tag.
pub const SITE_TAG_SHIFT: u32 = 48;

/// Largest site-local task id that can be site-namespaced.
pub const MAX_LOCAL_TASK: u64 = (1 << SITE_TAG_SHIFT) - 1;

/// Largest site number that can be encoded in a namespaced [`TaskId`]
/// (the tag stores `site + 1` so that tag `0` means "not namespaced").
pub const MAX_SITE_TAG: u32 = (u16::MAX - 1) as u32;

impl TaskId {
    /// Returns a process-wide fresh task id.
    pub fn fresh() -> TaskId {
        TaskId(NEXT_TASK.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw numeric value; useful for dense indexing in workloads.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Site-namespaces this task id: an **injective** renaming of
    /// `(site, local)` pairs into the task-id space, used when merging
    /// partitions published by independent processes whose local ids may
    /// collide. The site tag (`site + 1`, so plain ids read as tag `0`)
    /// lands in the bits above [`SITE_TAG_SHIFT`].
    ///
    /// Panics when the renaming cannot be injective: a local id wider than
    /// [`MAX_LOCAL_TASK`], an already-namespaced id, or a site beyond
    /// [`MAX_SITE_TAG`]. Loud beats unsound — a silent wrap would let two
    /// distinct tasks alias and manufacture (or hide) deadlock cycles.
    /// Code handling ids from an untrusted source (the wire) must use
    /// [`TaskId::checked_with_site`] instead.
    pub fn with_site(self, site: u32) -> TaskId {
        self.checked_with_site(site).unwrap_or_else(|| {
            panic!("cannot site-namespace task id {:#x} under site {site}", self.0)
        })
    }

    /// Non-panicking form of [`TaskId::with_site`]: `None` when the
    /// renaming could not be injective (id too wide or already
    /// namespaced, site beyond [`MAX_SITE_TAG`]). The form to use on ids
    /// a remote peer supplied.
    pub fn checked_with_site(self, site: u32) -> Option<TaskId> {
        if self.0 > MAX_LOCAL_TASK || site > MAX_SITE_TAG {
            return None;
        }
        Some(TaskId(((site as u64 + 1) << SITE_TAG_SHIFT) | self.0))
    }

    /// The site a namespaced id was tagged with, or `None` for plain ids.
    pub fn site_tag(self) -> Option<u32> {
        let tag = self.0 >> SITE_TAG_SHIFT;
        if tag == 0 {
            None
        } else {
            Some((tag - 1) as u32)
        }
    }

    /// Strips the site tag, recovering the site-local id (identity for
    /// plain ids).
    pub fn local(self) -> TaskId {
        TaskId(self.0 & MAX_LOCAL_TASK)
    }
}

impl PhaserId {
    /// Returns a process-wide fresh phaser id.
    pub fn fresh() -> PhaserId {
        PhaserId(NEXT_PHASER.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A hash map keyed by ids ([`TaskId`], [`PhaserId`], or a struct of
/// them such as `Resource`) — the one map type of `armus-core`'s hot paths.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// The set counterpart of [`IdMap`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

/// Builds [`IdHasher`]s that all share one per-process random key.
///
/// Ids are 8-byte words, so SipHash's per-byte strength buys nothing the
/// tables need, but ids also reach the distributed checker's engine from
/// remote peers, so the hash must stay unpredictable: the key is derived
/// once per process from the OS-seeded [`RandomState`] and copied into
/// every map.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IdBuildHasher {
    seed: u64,
    /// Odd, so multiplying by it permutes the 64-bit words.
    multiplier: u64,
}

impl fmt::Debug for IdBuildHasher {
    /// Like `RandomState`'s: the key stays out of logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdBuildHasher").finish_non_exhaustive()
    }
}

impl IdBuildHasher {
    /// Derives a key from `random`: two words of its keyed SipHash.
    fn keyed_by(random: &RandomState) -> IdBuildHasher {
        IdBuildHasher { seed: random.hash_one(0u64), multiplier: random.hash_one(1u64) | 1 }
    }
}

impl Default for IdBuildHasher {
    /// The process's key, drawn on first use.
    fn default() -> IdBuildHasher {
        static KEY: OnceLock<IdBuildHasher> = OnceLock::new();
        *KEY.get_or_init(|| IdBuildHasher::keyed_by(&RandomState::new()))
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed, multiplier: self.multiplier }
    }
}

/// One folded 64×64→128-bit multiply per word, then one xor-shift /
/// multiply round at [`finish`](Hasher::finish): every input bit reaches
/// both the low bits (hashbrown's bucket index) and the top seven (its
/// control-byte tag), which a plain multiply or an identity hash of
/// sequential or high-bit-tagged ids does not give. The folded multiply
/// alone maps an arithmetic progression of ids to a lattice, which about
/// one key in ten lines up with the 7-bit buckets; the final round is
/// what breaks the lattice.
pub struct IdHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Ids hash through `write_u64`; anything else is folded in a word
    /// at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        let mixed = (self.state ^ (self.state >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mixed ^ (mixed >> 32)
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for TaskId {
    /// Plain ids render as `t7`; site-namespaced ids render as `s2:t7`
    /// so distributed reports name the owning site.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site_tag() {
            None => write!(f, "t{}", self.0),
            Some(site) => write!(f, "s{site}:t{}", self.local().0),
        }
    }
}

impl fmt::Debug for PhaserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PhaserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resource;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn fresh_task_ids_are_unique() {
        let ids: HashSet<TaskId> = (0..1000).map(|_| TaskId::fresh()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn fresh_phaser_ids_are_unique() {
        let ids: HashSet<PhaserId> = (0..1000).map(|_| PhaserId::fresh()).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn fresh_ids_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..250).map(|_| TaskId::fresh()).collect::<Vec<_>>()))
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(7).to_string(), "t7");
        assert_eq!(PhaserId(9).to_string(), "p9");
        assert_eq!(format!("{:?}", TaskId(7)), "t7");
        assert_eq!(format!("{:?}", PhaserId(9)), "p9");
    }

    #[test]
    fn site_namespacing_is_injective_and_invertible() {
        let mut seen = HashSet::new();
        for site in [0u32, 1, 2, 77, MAX_SITE_TAG] {
            for local in [1u64, 2, 1000, MAX_LOCAL_TASK] {
                let global = TaskId(local).with_site(site);
                assert!(seen.insert(global), "collision at ({site}, {local})");
                assert_eq!(global.site_tag(), Some(site));
                assert_eq!(global.local(), TaskId(local));
            }
        }
    }

    #[test]
    fn plain_ids_never_alias_namespaced_ids() {
        assert_eq!(TaskId(7).site_tag(), None);
        assert_eq!(TaskId(7).local(), TaskId(7));
        assert_ne!(TaskId(7).with_site(0), TaskId(7));
    }

    #[test]
    fn namespaced_display_names_the_site() {
        assert_eq!(TaskId(7).with_site(2).to_string(), "s2:t7");
        assert_eq!(format!("{:?}", TaskId(7).with_site(0)), "s0:t7");
    }

    #[test]
    #[should_panic(expected = "cannot site-namespace")]
    fn renaming_an_already_namespaced_id_panics() {
        let _ = TaskId(7).with_site(1).with_site(2);
    }

    /// Worst bucket load of `hashes` over 128 buckets, relative to the
    /// mean, for a 7-bit slice of the hash taken at `shift`.
    fn worst_load(hashes: &[u64], shift: u32) -> f64 {
        let mut buckets = [0usize; 128];
        for h in hashes {
            buckets[((h >> shift) & 127) as usize] += 1;
        }
        let mean = hashes.len() as f64 / 128.0;
        *buckets.iter().max().unwrap() as f64 / mean
    }

    /// 64 fixed keys: the property below holds or fails per key, so a
    /// failure must name a key that reproduces.
    fn fixed_keys() -> Vec<IdBuildHasher> {
        let mut rng = SmallRng::seed_from_u64(0);
        (0..64)
            .map(|_| IdBuildHasher { seed: rng.next_u64(), multiplier: rng.next_u64() | 1 })
            .collect()
    }

    #[test]
    fn id_hasher_spreads_ids_over_the_bits_hashbrown_reads() {
        // hashbrown indexes buckets with the low bits of a hash and tags
        // control bytes with its top seven; ids are sequential, or carry a
        // site tag in their high bits, or are (phaser, phase) pairs whose
        // phases advance in lockstep.
        let n = 1u64 << 14;
        for (k, key) in fixed_keys().into_iter().enumerate() {
            let families: [(&str, Vec<u64>); 4] = [
                ("sequential", (0..n).map(|i| key.hash_one(TaskId(i))).collect()),
                (
                    "site-tagged",
                    (0..n).map(|i| key.hash_one(TaskId(7).with_site(i as u32))).collect(),
                ),
                (
                    "phases of one phaser",
                    (0..n).map(|i| key.hash_one(Resource::new(PhaserId(3), i))).collect(),
                ),
                (
                    "phasers at one phase",
                    (0..n).map(|i| key.hash_one(Resource::new(PhaserId(i), 1))).collect(),
                ),
            ];
            for (name, hashes) in families {
                let at = format!(
                    "key {k} (seed {:#x}, multiplier {:#x}), {name}",
                    key.seed, key.multiplier
                );
                // 128 keys a bucket on average: a uniform spread stays
                // within a few standard deviations (σ ≈ 11) of it.
                for (bits, shift) in [("low", 0), ("top", 57)] {
                    let worst = worst_load(&hashes, shift);
                    assert!(worst < 1.5, "{at}: {bits} 7 bits load a bucket {worst:.2}× the mean");
                }
                let mut distinct = hashes;
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len() as u64, n, "{at}: 64-bit collision");
            }
        }
    }

    #[test]
    fn id_hasher_key_is_drawn_once_from_the_os_seeded_random_state() {
        // One key per process: every map hashes alike...
        assert_eq!(IdBuildHasher::default(), IdBuildHasher::default());
        let there = std::thread::spawn(IdBuildHasher::default).join().unwrap();
        assert_eq!(IdBuildHasher::default(), there);
        // ...and it is a function of the `RandomState` it is drawn from,
        // not a constant (each `RandomState::new()` is keyed differently).
        assert_ne!(
            IdBuildHasher::keyed_by(&RandomState::new()),
            IdBuildHasher::keyed_by(&RandomState::new())
        );
        assert_eq!(IdBuildHasher::default().multiplier % 2, 1);
    }

    #[test]
    fn checked_namespacing_refuses_instead_of_panicking() {
        assert_eq!(TaskId(7).checked_with_site(0), Some(TaskId(7).with_site(0)));
        assert_eq!(TaskId(7).with_site(1).checked_with_site(2), None, "already namespaced");
        assert_eq!(TaskId(MAX_LOCAL_TASK + 1).checked_with_site(0), None, "id too wide");
        assert_eq!(TaskId(7).checked_with_site(MAX_SITE_TAG + 1), None, "site too large");
    }
}
