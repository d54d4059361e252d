//! Cross-trial roster cache.
//!
//! Every experiment cell runs hundreds of independent trials over the *same*
//! sequential population, and (for fixed-manufacture-seed configurations)
//! the same preloaded code array. Before this cache, each trial rebuilt the
//! `TagPopulation`, re-hashed every key, and re-sorted the codes from
//! scratch. The cache shares two immutable artifacts across trials and
//! cells, behind `Arc`s so concurrent trial workers clone pointers, not
//! arrays:
//!
//! - **Sequential key vectors** keyed by `n` — the EPC-derived `u64` keys of
//!   `TagPopulation::sequential(n)`, which every sweep reuses for each of
//!   its round counts and runs.
//! - **Passive code arrays** keyed by `(n, manufacture_seed, family, mode,
//!   height)` — hashed and radix-sorted once, then shared by every trial of
//!   every cell with the same configuration.
//!
//! Reuse rules: cached codes are immutable and only valid for
//! `TagMode::PassivePreloaded` banks (active mode re-hashes per round and
//! never caches codes — each trial gets its own rebuild buffers). Trials
//! with per-trial manufacture seeds (e.g. fig4's fresh-deployment model)
//! miss by construction — the key includes the seed — and fall through to a
//! bounded insert, so the cache never changes any experiment's output, only
//! its cost. Both maps are FIFO-bounded, so paper-scale sweeps with unique
//! seeds cannot grow memory without bound.

use pet_core::config::{PetConfig, TagMode};
use pet_core::kernel::CodeBank;
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::{AnyFamily, HashKind};
use pet_tags::population::TagPopulation;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key for a passive preloaded code array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CodesKey {
    n: usize,
    seed: u64,
    family: HashKind,
    mode: TagMode,
    height: u32,
}

/// Hit/miss/eviction counters (for tests and tuning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Entries pushed out by the FIFO bound.
    pub evictions: u64,
}

/// Result of one shelf lookup.
struct Lookup<V> {
    value: V,
    hit: bool,
    evicted: bool,
}

struct Shelf<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

// Manual impl: the derive would demand `K: Default` needlessly.
impl<K, V> Default for Shelf<K, V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Clone + Eq + std::hash::Hash, V: Clone> Shelf<K, V> {
    fn get_or_insert_with(&mut self, key: K, cap: usize, build: impl FnOnce() -> V) -> Lookup<V> {
        if let Some(v) = self.map.get(&key) {
            return Lookup {
                value: v.clone(),
                hit: true,
                evicted: false,
            };
        }
        let v = build();
        // Capacity 0 disables storage entirely: without this guard the old
        // FIFO logic would insert then immediately evict on every lookup,
        // silently thrashing (build + churn) while caching nothing.
        if cap == 0 {
            return Lookup {
                value: v,
                hit: false,
                evicted: false,
            };
        }
        let mut evicted = false;
        if self.order.len() >= cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                evicted = true;
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, v.clone());
        Lookup {
            value: v,
            hit: false,
            evicted,
        }
    }
}

/// The process-wide roster cache. Obtain it with [`RosterCache::global`],
/// or build a locally scoped one with [`RosterCache::with_capacities`].
pub struct RosterCache {
    keys_cap: usize,
    codes_cap: usize,
    keys: Mutex<Shelf<usize, Arc<Vec<u64>>>>,
    codes: Mutex<Shelf<CodesKey, Arc<Vec<u64>>>>,
    stats: Mutex<CacheStats>,
}

/// Distinct key vectors kept (keys are ~8 B × n each).
const KEYS_CAP: usize = 8;
/// Distinct code arrays kept. Unique-seed workloads churn through this
/// FIFO without benefit, but also without unbounded growth.
const CODES_CAP: usize = 32;

impl Default for RosterCache {
    fn default() -> Self {
        Self::with_capacities(KEYS_CAP, CODES_CAP)
    }
}

impl RosterCache {
    /// The process-wide instance.
    pub fn global() -> &'static RosterCache {
        static CACHE: OnceLock<RosterCache> = OnceLock::new();
        CACHE.get_or_init(RosterCache::default)
    }

    /// A cache bounded to `keys_cap` key vectors and `codes_cap` code
    /// arrays. A capacity of 0 disables that shelf: every lookup builds
    /// fresh and nothing is stored (no FIFO churn).
    #[must_use]
    pub fn with_capacities(keys_cap: usize, codes_cap: usize) -> Self {
        Self {
            keys_cap,
            codes_cap,
            keys: Mutex::default(),
            codes: Mutex::default(),
            stats: Mutex::default(),
        }
    }

    /// The `u64` hashing keys of `TagPopulation::sequential(n)`, shared.
    pub fn sequential_keys(&self, n: usize) -> Arc<Vec<u64>> {
        let lookup = self
            .keys
            .lock()
            .expect("cache poisoned")
            .get_or_insert_with(n, self.keys_cap, || {
                Arc::new(TagPopulation::sequential(n).keys().collect())
            });
        if pet_obs::enabled() {
            pet_obs::counter(
                if lookup.hit {
                    "cache.keys.hit"
                } else {
                    "cache.keys.miss"
                },
                1,
            );
            if lookup.evicted {
                pet_obs::counter("cache.keys.evict", 1);
            }
        }
        lookup.value
    }

    /// A [`CodeBank`] for `n` sequential tags under `config`: passive banks
    /// share one cached hash+sort; active banks share only the key vector.
    pub fn sequential_bank(&self, n: usize, config: &PetConfig, family: AnyFamily) -> CodeBank {
        let keys = self.sequential_keys(n);
        match config.tag_mode() {
            TagMode::PassivePreloaded => {
                let cache_key = CodesKey {
                    n,
                    seed: config.manufacture_seed(),
                    family: family.kind(),
                    mode: config.tag_mode(),
                    height: config.height(),
                };
                let lookup = self
                    .codes
                    .lock()
                    .expect("cache poisoned")
                    .get_or_insert_with(cache_key, self.codes_cap, || {
                        // Sequential hashing: trial workers already saturate
                        // the cores, so nested fan-out would oversubscribe
                        // (the SIMD lane dispatch still applies).
                        let mut codes = Vec::new();
                        let mut scratch = RadixScratch::new();
                        hash_codes_into(
                            &family,
                            config.manufacture_seed(),
                            &keys,
                            config.height(),
                            &mut codes,
                        );
                        radix_sort_codes(&mut codes, config.height(), &mut scratch);
                        Arc::new(codes)
                    });
                {
                    let mut stats = self.stats.lock().expect("cache poisoned");
                    if lookup.hit {
                        stats.hits += 1;
                    } else {
                        stats.misses += 1;
                    }
                    if lookup.evicted {
                        stats.evictions += 1;
                    }
                }
                if pet_obs::enabled() {
                    pet_obs::counter(
                        if lookup.hit {
                            "cache.codes.hit"
                        } else {
                            "cache.codes.miss"
                        },
                        1,
                    );
                    if lookup.evicted {
                        pet_obs::counter("cache.codes.evict", 1);
                    }
                }
                CodeBank::passive_shared(lookup.value)
            }
            TagMode::ActivePerRound => CodeBank::Active {
                keys,
                codes: Vec::new(),
                scratch: RadixScratch::new(),
            },
        }
    }

    /// Snapshot of the hit/miss/eviction counters (passive code lookups
    /// only).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_core::config::Backend;
    use pet_core::front::Estimator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cached_bank_estimates_match_oracle_path() {
        let build = |backend| {
            let config = PetConfig::builder()
                .manufacture_seed(0xCAFE)
                .backend(backend)
                .build()
                .unwrap();
            Estimator::new(config)
        };
        let (session, engine) = (build(Backend::Oracle), build(Backend::Kernel));
        let cache = RosterCache::default();
        let pop = TagPopulation::sequential(1_500);
        for round in 0..3 {
            let mut bank = cache.sequential_bank(1_500, engine.config(), engine.family());
            let mut rng_a = StdRng::seed_from_u64(round);
            let mut rng_b = StdRng::seed_from_u64(round);
            let slow = session.estimate_population_rounds(&pop, 16, &mut rng_a);
            let fast = engine.run_bank(&mut bank, 16, &mut rng_b);
            assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
            assert_eq!(slow.metrics, fast.metrics);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn distinct_seeds_do_not_share_codes() {
        let cache = RosterCache::default();
        let fam = AnyFamily::default();
        let a = PetConfig::builder().manufacture_seed(1).build().unwrap();
        let b = PetConfig::builder().manufacture_seed(2).build().unwrap();
        let bank_a = cache.sequential_bank(500, &a, fam);
        let bank_b = cache.sequential_bank(500, &b, fam);
        assert_ne!(bank_a.codes(), bank_b.codes());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_bounds_the_cache() {
        let cache = RosterCache::default();
        let fam = AnyFamily::default();
        for seed in 0..(CODES_CAP as u64 + 10) {
            let config = PetConfig::builder().manufacture_seed(seed).build().unwrap();
            let _ = cache.sequential_bank(64, &config, fam);
        }
        {
            let shelf = cache.codes.lock().unwrap();
            assert!(shelf.map.len() <= CODES_CAP);
            assert_eq!(shelf.map.len(), shelf.order.len());
        }
        assert_eq!(
            cache.stats().evictions,
            10,
            "one eviction per overflow insert"
        );
    }

    /// FIFO order: filling a capacity-2 cache with a third key must evict
    /// the *oldest* entry, not the most recent one.
    #[test]
    fn eviction_is_fifo_ordered() {
        let cache = RosterCache::with_capacities(KEYS_CAP, 2);
        let fam = AnyFamily::default();
        let config_for = |seed: u64| PetConfig::builder().manufacture_seed(seed).build().unwrap();
        let _ = cache.sequential_bank(64, &config_for(1), fam); // miss, stored
        let _ = cache.sequential_bank(64, &config_for(2), fam); // miss, stored
        let _ = cache.sequential_bank(64, &config_for(3), fam); // miss, evicts seed 1
        let _ = cache.sequential_bank(64, &config_for(2), fam); // hit (still resident)
        let _ = cache.sequential_bank(64, &config_for(3), fam); // hit (newest)
        let _ = cache.sequential_bank(64, &config_for(1), fam); // miss again (was evicted)
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions),
            (2, 4, 2),
            "seed 1 must be the FIFO victim"
        );
    }

    /// Capacity 0 disables the shelf instead of thrashing insert/evict on
    /// every trial: lookups all miss, nothing is stored, nothing is
    /// evicted, and the results stay correct.
    #[test]
    fn zero_capacity_disables_storage_without_thrash() {
        let cache = RosterCache::with_capacities(0, 0);
        let fam = AnyFamily::default();
        let config = PetConfig::builder().manufacture_seed(9).build().unwrap();
        let expect = RosterCache::default()
            .sequential_bank(200, &config, fam)
            .codes()
            .to_vec();
        for _ in 0..3 {
            let bank = cache.sequential_bank(200, &config, fam);
            assert_eq!(bank.codes(), expect, "disabled cache must stay correct");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 0));
        assert!(cache.codes.lock().unwrap().map.is_empty(), "nothing stored");
        assert!(
            cache.codes.lock().unwrap().order.is_empty(),
            "no FIFO churn"
        );
        assert!(cache.keys.lock().unwrap().map.is_empty());
    }

    /// Concurrent trial workers share one cached artifact: every thread
    /// gets a pointer to the same allocation, and the build happens at
    /// most a handful of times (once per losing racer at worst).
    #[test]
    fn cross_thread_sharing_returns_one_allocation() {
        let cache = std::sync::Arc::new(RosterCache::default());
        let config = PetConfig::builder()
            .manufacture_seed(0xBEEF)
            .build()
            .unwrap();
        let fam = AnyFamily::default();
        let reference = cache.sequential_keys(512);
        let banks: Vec<CodeBank> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = std::sync::Arc::clone(&cache);
                    scope.spawn(move || cache.sequential_bank(512, &config, fam))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for bank in &banks {
            assert_eq!(bank.codes(), banks[0].codes());
        }
        // The keys shelf is shared: same Arc for every later request.
        assert!(Arc::ptr_eq(&reference, &cache.sequential_keys(512)));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.misses >= 1, "someone built it");
    }

    #[test]
    fn sequential_keys_match_population() {
        let cache = RosterCache::default();
        let keys = cache.sequential_keys(123);
        let expect: Vec<u64> = TagPopulation::sequential(123).keys().collect();
        assert_eq!(*keys, expect);
        // Second lookup shares the same allocation.
        let again = cache.sequential_keys(123);
        assert!(Arc::ptr_eq(&keys, &again));
    }
}
