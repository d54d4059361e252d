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
//! miss by construction — the key includes the seed — and are stored like
//! any other miss (store on first miss), so the cache never changes any
//! experiment's output, only its cost. Both shelves are FIFO-bounded, so
//! paper-scale sweeps with unique seeds cannot grow memory without bound.
//!
//! Lock discipline: each shelf's mutex guards only its map and FIFO order,
//! never a build. A lookup locks, gets or inserts the key's
//! `Arc<OnceLock<_>>` cell (evicting the oldest when full), clones the
//! `Arc` and unlocks; the build then runs in `OnceLock::get_or_init` with
//! no lock held. So concurrent misses on different keys build in parallel,
//! racers on one key wait on that key's cell alone and share one
//! allocation, and a panicking build leaves its cell empty for the next
//! lookup to rebuild instead of poisoning the shelf. The hit/miss/eviction
//! counters are relaxed atomics: they publish no other data.

use pet_core::config::{PetConfig, TagMode};
use pet_core::kernel::CodeBank;
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::{AnyFamily, HashKind};
use pet_tags::population::TagPopulation;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// False when this caller ran the build.
    hit: bool,
    evicted: bool,
}

/// One key's slot: filled once by whichever lookup builds first.
type Cell<V> = Arc<OnceLock<V>>;

/// The map and FIFO order behind a shelf's lock.
struct Slots<K, V> {
    map: HashMap<K, Cell<V>>,
    order: VecDeque<K>,
}

/// A FIFO-bounded map from keys to lazily built, shared values.
struct Shelf<K, V> {
    cap: usize,
    slots: Mutex<Slots<K, V>>,
}

impl<K: Clone + Eq + std::hash::Hash, V: Clone> Shelf<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// The value for `key`, running `build` outside the lock if no other
    /// lookup has filled the key's cell yet.
    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Lookup<V> {
        // Capacity 0 disables storage entirely: every lookup builds and
        // nothing enters the map or the FIFO.
        if self.cap == 0 {
            return Lookup {
                value: build(),
                hit: false,
                evicted: false,
            };
        }
        let mut evicted = false;
        let cell = {
            // No build runs under this lock, so only a bug in the map
            // bookkeeping itself could poison it.
            let mut slots = self.slots.lock().expect("roster cache shelf poisoned");
            if let Some(cell) = slots.map.get(&key) {
                Arc::clone(cell)
            } else {
                if slots.order.len() >= self.cap {
                    if let Some(old) = slots.order.pop_front() {
                        slots.map.remove(&old);
                        evicted = true;
                    }
                }
                let cell = Cell::default();
                slots.order.push_back(key.clone());
                slots.map.insert(key, Arc::clone(&cell));
                cell
            }
        };
        let mut hit = true;
        let value = cell
            .get_or_init(|| {
                hit = false;
                build()
            })
            .clone();
        Lookup {
            value,
            hit,
            evicted,
        }
    }
}

thread_local! {
    /// Radix-sort scratch for code builds on this thread, kept across
    /// misses so a sweep's trials do not each allocate a fresh ping-pong
    /// buffer.
    static SORT_SCRATCH: RefCell<RadixScratch> = RefCell::new(RadixScratch::new());
}

/// The process-wide roster cache. Obtain it with [`RosterCache::global`],
/// or build a locally scoped one with [`RosterCache::with_capacities`].
pub struct RosterCache {
    keys: Shelf<usize, Arc<Vec<u64>>>,
    codes: Shelf<CodesKey, Arc<Vec<u64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
            keys: Shelf::new(keys_cap),
            codes: Shelf::new(codes_cap),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The `u64` hashing keys of `TagPopulation::sequential(n)`, shared.
    pub fn sequential_keys(&self, n: usize) -> Arc<Vec<u64>> {
        let lookup = self.keys.get_or_build(n, || {
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
                let lookup = self.codes.get_or_build(cache_key, || {
                    // Sequential hashing: trial workers already saturate
                    // the cores, so nested fan-out would oversubscribe
                    // (the SIMD lane dispatch still applies).
                    let mut codes = Vec::new();
                    hash_codes_into(
                        &family,
                        config.manufacture_seed(),
                        &keys,
                        config.height(),
                        &mut codes,
                    );
                    SORT_SCRATCH.with(|scratch| {
                        radix_sort_codes(&mut codes, config.height(), &mut scratch.borrow_mut());
                    });
                    Arc::new(codes)
                });
                let counter = if lookup.hit { &self.hits } else { &self.misses };
                counter.fetch_add(1, Ordering::Relaxed);
                if lookup.evicted {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
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
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_core::config::Backend;
    use pet_core::front::Estimator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

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
            let shelf = cache.codes.slots.lock().unwrap();
            assert!(shelf.map.len() <= CODES_CAP);
            assert_eq!(shelf.map.len(), shelf.order.len());
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 10, "one eviction per overflow insert");
        assert_eq!((stats.hits, stats.misses), (0, CODES_CAP as u64 + 10));
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
        assert!(
            cache.codes.slots.lock().unwrap().map.is_empty(),
            "nothing stored"
        );
        assert!(
            cache.codes.slots.lock().unwrap().order.is_empty(),
            "no FIFO churn"
        );
        assert!(cache.keys.slots.lock().unwrap().map.is_empty());
    }

    /// Concurrent trial workers share one cached artifact: exactly one
    /// thread builds it, and every thread gets a pointer to that one
    /// allocation.
    #[test]
    fn cross_thread_sharing_returns_one_allocation() {
        let cache = RosterCache::default();
        let config = PetConfig::builder()
            .manufacture_seed(0xBEEF)
            .build()
            .unwrap();
        let fam = AnyFamily::default();
        let reference = cache.sequential_keys(512);
        let start = Barrier::new(8);
        let banks: Vec<CodeBank> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.sequential_bank(512, &config, fam)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for bank in &banks {
            assert!(std::ptr::eq(bank.codes(), banks[0].codes()));
        }
        // The keys shelf is shared: same Arc for every later request.
        assert!(Arc::ptr_eq(&reference, &cache.sequential_keys(512)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1));
    }

    /// N threads racing on one key run the build closure once between
    /// them; the rest wait on the key's cell and count as hits.
    #[test]
    fn racers_on_one_key_build_once() {
        const RACERS: usize = 8;
        let shelf: Shelf<u32, Arc<u64>> = Shelf::new(4);
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(RACERS);
        let lookups: Vec<Lookup<Arc<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        shelf.get_or_build(7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            Arc::new(49)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(lookups.iter().filter(|l| !l.hit).count(), 1);
        for lookup in &lookups {
            assert!(Arc::ptr_eq(&lookup.value, &lookups[0].value));
        }
    }

    /// A build in progress holds no lock: while one thread's build of key
    /// A is parked on a channel, a lookup of a resident key and a build of
    /// another key both complete.
    #[test]
    fn a_build_blocks_only_its_own_key() {
        let shelf: Shelf<u32, u32> = Shelf::new(4);
        assert!(!shelf.get_or_build(1, || 10).hit);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let shelf = &shelf;
        std::thread::scope(|scope| {
            let slow = scope.spawn(move || {
                shelf.get_or_build(2, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    20
                })
            });
            started_rx.recv().unwrap();
            scope.spawn(move || {
                let resident = shelf.get_or_build(1, || unreachable!("resident"));
                let other = shelf.get_or_build(3, || 30);
                done_tx
                    .send((resident.hit, resident.value, other.hit, other.value))
                    .unwrap();
            });
            // Under a lock held across builds the lookups above would wait
            // for key 2's build forever; the timeout turns that into a
            // failure instead of a hang.
            let done = done_rx.recv_timeout(Duration::from_secs(30));
            release_tx.send(()).unwrap();
            assert_eq!(done, Ok((true, 10, false, 30)));
            let slow = slow.join().unwrap();
            assert_eq!((slow.hit, slow.value), (false, 20));
        });
    }

    /// A panicking build poisons nothing: the next lookup of the same key
    /// rebuilds it, and other keys are untouched.
    #[test]
    fn a_panicking_build_leaves_the_shelf_usable() {
        let shelf: Shelf<u32, u32> = Shelf::new(4);
        assert!(!shelf.get_or_build(1, || 10).hit);
        let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shelf.get_or_build(2, || panic!("build failed"))
        }));
        assert!(crashed.is_err());
        let retry = shelf.get_or_build(2, || 20);
        assert_eq!((retry.hit, retry.value), (false, 20));
        let again = shelf.get_or_build(2, || unreachable!("stored"));
        assert_eq!((again.hit, again.value), (true, 20));
        let resident = shelf.get_or_build(1, || unreachable!("resident"));
        assert_eq!((resident.hit, resident.value), (true, 10));
        let fresh = shelf.get_or_build(3, || 30);
        assert_eq!((fresh.hit, fresh.value), (false, 30));
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
