//! A concurrent, capacity-bounded cache of optimal bases for LP families.
//!
//! The batched-LP successor papers (PAPERS.md §1–§2) observe that real
//! batches are *families* of structurally related LPs: most of the simplex
//! work for member k is re-derivable from member j's optimal basis. The
//! [`BasisCache`] connects the per-solve warm-start machinery
//! ([`crate::Start::Warm`]) to [`crate::BatchSolver`]:
//!
//! * **Keying.** Instances are keyed by a structural FNV-1a fingerprint of
//!   the standardized form, computed by [`cache_key`] under a
//!   [`WarmStartPolicy`]: dimensions, the column-kind pattern, and the
//!   constraint matrix quantized to a perturbation tolerance under
//!   `Family { tol }` (with `b`/`c` excluded, so perturbed-RHS/objective
//!   family members share one key).
//! * **Validation.** A cached basis is never trusted: [`BasisCache::lookup`]
//!   checks shape/compatibility cheaply, and the solver's warm-start path
//!   refactorizes the candidate and checks primal feasibility before using
//!   it — an invalid candidate is a *recorded cold fallback*
//!   ([`crate::SolveStats::warm_start_rejected`]), never a wrong answer.
//! * **Eviction.** Capacity-bounded LRU: every hit refreshes an entry's
//!   stamp; inserts beyond capacity evict the least-recently-used key.
//!
//! Entries also carry the *cold* iteration cost of the family, so a warm
//! solve can report how many iterations the cache saved
//! ([`crate::SolveStats::warm_iterations_saved`]) — the W1 experiment's
//! headline number. The cost is carried forward through warm inserts: the
//! baseline stays the original cold solve, not the (cheap) warm re-solve.

use std::collections::BTreeMap;

use linalg::Scalar;
use lp::{ColKind, StandardForm};
use parking_lot::Mutex;

use super::policy::WarmStartPolicy;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Structural cache key for a standardized instance under `policy`, or
/// `None` when the policy is [`WarmStartPolicy::Off`].
///
/// The key folds in the dimensions and the column-kind pattern, so
/// instances of different shape can never collide into each other's bases
/// by quantization alone, then each nonzero `A` entry rounded to the
/// nearest multiple of `tol`; `b` and `c` stay out.
pub fn cache_key<T: Scalar>(sf: &StandardForm<T>, policy: &WarmStartPolicy) -> Option<u64> {
    let tol = match policy {
        WarmStartPolicy::Off => return None,
        WarmStartPolicy::Family { tol } => tol.abs().max(f64::MIN_POSITIVE),
    };
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let m = sf.num_rows();
    let n = sf.num_cols();
    mix(m as u64);
    mix(n as u64);
    mix(sf.num_artificials as u64);
    for kind in &sf.col_kinds {
        let tag = match kind {
            ColKind::Structural => 0u64,
            ColKind::Slack(r) => 1 | ((*r as u64) << 2),
            ColKind::Surplus(r) => 2 | ((*r as u64) << 2),
            ColKind::Artificial(r) => 3 | ((*r as u64) << 2),
        };
        mix(tag);
    }
    for j in 0..n {
        for (i, v) in sf.a.col(j) {
            mix(i as u64);
            mix(j as u64);
            mix((v.to_f64() / tol).round() as i64 as u64);
        }
    }
    Some(h)
}

/// A basis handed out by [`BasisCache::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedBasis {
    /// The stored optimal basis (one column index per row).
    pub basis: Vec<usize>,
    /// Iterations the family's original *cold* solve took — the baseline
    /// against which a warm solve's savings are measured.
    pub cold_iterations: u64,
}

/// Point-in-time counters for one [`BasisCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a (structurally compatible) basis.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written (first inserts and overwrites alike).
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    basis: Vec<usize>,
    cold_iterations: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: BTreeMap<u64, Entry>,
    stamp: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// Concurrent LRU cache of optimal bases keyed by [`cache_key`]. One lock
/// around a small map: the critical sections are basis clones, orders of
/// magnitude cheaper than the solves they amortize.
#[derive(Debug)]
pub struct BasisCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl BasisCache {
    /// A cache holding at most `capacity` bases (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BasisCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Look up a basis for `key`, for an instance with `m` rows and
    /// `n_active` non-artificial columns. A stored basis that is not even
    /// shape-compatible (a quantization collision across instances) is
    /// dropped and counted as a miss — the solver-side refactorization
    /// covers the deep (rank/feasibility) validation.
    pub fn lookup(&self, key: u64, m: usize, n_active: usize) -> Option<CachedBasis> {
        let mut inner = self.inner.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(entry) = inner.map.get_mut(&key) {
            if compatible(&entry.basis, m, n_active) {
                entry.last_used = stamp;
                let hit = CachedBasis {
                    basis: entry.basis.clone(),
                    cold_iterations: entry.cold_iterations,
                };
                inner.hits += 1;
                return Some(hit);
            }
            inner.map.remove(&key);
        }
        inner.misses += 1;
        None
    }

    /// Store `basis` for `key` with its family's cold iteration cost,
    /// evicting the least-recently-used entry when full. Call on
    /// `Status::Optimal` only — a non-optimal terminal basis is not a
    /// useful family start.
    pub fn insert(&self, key: u64, basis: Vec<usize>, cold_iterations: u64) {
        let mut inner = self.inner.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        inner.insertions += 1;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some((&lru, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) {
                inner.map.remove(&lru);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                basis,
                cold_iterations,
                last_used: stamp,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            len: inner.map.len(),
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cheap structural screen: right length, every column a real (non-
/// artificial, in-range) one, no column twice.
fn compatible(basis: &[usize], m: usize, n_active: usize) -> bool {
    if basis.len() != m {
        return false;
    }
    let mut seen = vec![false; n_active];
    for &j in basis {
        if j >= n_active || seen[j] {
            return false;
        }
        seen[j] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp::generator;

    fn sf_of(m: usize, n: usize, seed: u64) -> StandardForm<f64> {
        StandardForm::from_lp(&generator::dense_random(m, n, seed)).unwrap()
    }

    #[test]
    fn off_policy_yields_no_key() {
        let sf = sf_of(4, 6, 0);
        assert_eq!(cache_key(&sf, &WarmStartPolicy::Off), None);
        assert!(cache_key(&sf, &WarmStartPolicy::Family { tol: 1e-6 }).is_some());
    }

    #[test]
    fn family_key_ignores_rhs_and_objective() {
        let family = generator::perturbed_family(2, 6, 8, 3, 0.01);
        let sf0 = StandardForm::<f64>::from_lp(&family[0]).unwrap();
        let sf1 = StandardForm::<f64>::from_lp(&family[1]).unwrap();
        assert_ne!(sf0.b, sf1.b, "the siblings differ in b");
        let fam = WarmStartPolicy::Family { tol: 1e-6 };
        assert_eq!(cache_key(&sf0, &fam), cache_key(&sf1, &fam));
        // A different A lands in a different family.
        let other = sf_of(6, 8, 4);
        assert_ne!(cache_key(&sf0, &fam), cache_key(&other, &fam));
        // Different dims always differ, even with A all-zero quantized.
        let small = sf_of(4, 8, 3);
        assert_ne!(cache_key(&sf0, &fam), cache_key(&small, &fam));
    }

    #[test]
    fn lookup_validates_and_tracks_hit_rate() {
        let cache = BasisCache::new(8);
        assert!(cache.lookup(1, 3, 10).is_none());
        cache.insert(1, vec![0, 4, 7], 25);
        let hit = cache.lookup(1, 3, 10).expect("hit");
        assert_eq!(hit.basis, vec![0, 4, 7]);
        assert_eq!(hit.cold_iterations, 25);
        // Wrong row count, out-of-range column, duplicate column: all drop
        // the entry rather than hand out garbage.
        cache.insert(2, vec![0, 1], 5);
        assert!(cache.lookup(2, 3, 10).is_none(), "wrong length");
        cache.insert(3, vec![0, 1, 12], 5);
        assert!(cache.lookup(3, 3, 10).is_none(), "column out of range");
        cache.insert(4, vec![0, 1, 1], 5);
        assert!(cache.lookup(4, 3, 10).is_none(), "duplicate column");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 4);
        assert!((stats.hit_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let cache = BasisCache::new(2);
        cache.insert(1, vec![0], 1);
        cache.insert(2, vec![1], 1);
        // Touch key 1 so key 2 is the LRU when 3 arrives.
        assert!(cache.lookup(1, 1, 4).is_some());
        cache.insert(3, vec![2], 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, 1, 4).is_some(), "recently used survives");
        assert!(cache.lookup(2, 1, 4).is_none(), "LRU evicted");
        assert!(cache.lookup(3, 1, 4).is_some());
        assert_eq!(cache.stats().evictions, 1);
        // Overwriting a resident key never evicts.
        cache.insert(3, vec![3], 9);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.lookup(3, 1, 4).unwrap().cold_iterations, 9);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = BasisCache::new(0);
        cache.insert(1, vec![0], 1);
        cache.insert(2, vec![1], 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }
}
