//! The schedule cache: full-problem identity in, scheduling work out.
//!
//! The cache key is the [`BroadcastProblem::content_digest`] — a 64-bit
//! content hash over the root, the payload and every entry of the
//! latency/gap/intra matrices. The grid alone is **not** a key: the same
//! topology broadcast from a different root or with a different payload is
//! a different problem and caching it under the grid would serve wrong
//! answers. And because a 64-bit digest is an index rather than a proof,
//! every lookup re-verifies **full problem equality** against the stored
//! problem before serving; distinct problems that happen to collide coexist
//! in one bucket.
//!
//! Cold runs store their per-heuristic [`CommitLog`]s. A later request for a
//! *perturbed neighbour* of a cached problem (one degraded link, a slowed
//! site) finds the baseline through the unperturbed problem's digest and
//! warm-replays the logs under the perturbation delta instead of scheduling
//! from scratch — the serving counterpart of the what-if runner's warm
//! sweep, with the engine's bit-identity invariant carrying over unchanged.

use gridcast_core::{BroadcastProblem, CommitLog, HeuristicKind, ScheduleEvent};
use gridcast_plogp::Time;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How a response was produced, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served entirely from the cache.
    Hit,
    /// Scheduled by warm-replaying a cached neighbour's commit logs.
    Warm,
    /// Scheduled from scratch.
    Cold,
}

impl CacheOutcome {
    /// The wire label (`"hit"`, `"warm"`, `"cold"`).
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Cold => "cold",
        }
    }
}

/// One materialised schedule of a cached problem: the chosen heuristic's
/// events plus, when a request asked for execution, the simulated completion
/// and event count.
#[derive(Debug, Clone)]
pub struct ScheduleRecord {
    /// Inter-cluster transfer events, in commit order.
    pub events: Vec<ScheduleEvent>,
    /// Simulated `(completion, events_processed)`, filled on first execute.
    pub simulated: Option<(Time, usize)>,
}

/// Everything cached for one problem identity.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The full problem, kept for digest-collision verification.
    pub problem: BroadcastProblem,
    /// Predicted makespans, one per [`HeuristicKind::all`] slot.
    pub makespans: Vec<Time>,
    /// Materialised schedules per heuristic slot (filled on demand).
    pub records: Vec<Option<ScheduleRecord>>,
    /// Commit logs per slot from a cold run — the warm-start baseline for
    /// perturbed neighbours. `None` when the entry was itself produced by a
    /// warm replay (its baseline lives elsewhere).
    pub logs: Option<Arc<Vec<CommitLog>>>,
    /// Recency stamp maintained by [`ScheduleCache`]: the cache's logical
    /// clock at the entry's last insert or lookup.
    last_used: u64,
}

impl CacheEntry {
    /// An entry with predicted makespans and no materialised schedules yet.
    pub fn new(
        problem: BroadcastProblem,
        makespans: Vec<Time>,
        logs: Option<Arc<Vec<CommitLog>>>,
    ) -> Self {
        assert_eq!(makespans.len(), HeuristicKind::COUNT);
        let records = (0..HeuristicKind::COUNT).map(|_| None).collect();
        CacheEntry {
            problem,
            makespans,
            records,
            logs,
            last_used: 0,
        }
    }
}

/// A bounded LRU cache from problem identity to [`CacheEntry`], with
/// warm-start bases pinned.
///
/// Every lookup and insert stamps the entry with a logical clock, and
/// eviction removes the least-recently-used entry — but in two tiers:
/// entries **without** commit logs (produced by a warm replay; cheap to
/// recompute, never warm-started from) are evicted first, and entries
/// **holding** cold-run [`CommitLog`]s — the warm-start bases every perturbed
/// neighbour replays from, each such replay re-stamping the base through its
/// lookup — only start competing (by recency, among themselves) once no
/// unpinned entry is left. A flood of replay-produced entries therefore can
/// never push out a warm base, and a flood of fresh cold problems only
/// displaces bases that stopped being used.
///
/// The victim is the first key of a recency index ordered by
/// `(holds_logs, last_used)`, so eviction costs `O(log len)` at any
/// capacity: the daemon's default of 4096 entries, scattered over as many
/// buckets, makes a scan of every entry cost more than a cache hit. Stamps
/// are unique, so the victim is deterministic, preserving the daemon's
/// bit-identical transcript invariant.
#[derive(Debug)]
pub struct ScheduleCache {
    capacity: usize,
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// One key per entry, `(holds_logs, last_used)`, mapped to the digest
    /// of its bucket; the first key is the eviction victim.
    recency: BTreeMap<(bool, u64), u64>,
    /// The entry [`ScheduleCache::get_mut`] last lent out, as
    /// `(digest, last_used)`: its caller may have changed its `logs`, so its
    /// tier is re-read before the index is next used.
    lent: Option<(u64, u64)>,
    tick: u64,
}

impl ScheduleCache {
    /// An empty cache holding at most `capacity` entries (capacity 0 caches
    /// nothing and every lookup misses).
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            capacity,
            buckets: HashMap::new(),
            recency: BTreeMap::new(),
            lent: None,
            tick: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.recency.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.recency.is_empty()
    }

    /// Looks up the entry for `problem`, verifying full equality — a digest
    /// collision between distinct problems misses (or finds its own
    /// co-resident entry) instead of serving the wrong schedule. A hit
    /// refreshes the entry's recency stamp (warm-starting from a base goes
    /// through here, which is what keeps hot bases resident).
    pub fn get_mut(&mut self, digest: u64, problem: &BroadcastProblem) -> Option<&mut CacheEntry> {
        self.settle_lent();
        self.tick += 1;
        let tick = self.tick;
        let entry = self
            .buckets
            .get_mut(&digest)?
            .iter_mut()
            .find(|e| e.problem == *problem)?;
        let tier = entry.logs.is_some();
        self.recency.remove(&(tier, entry.last_used));
        self.recency.insert((tier, tick), digest);
        entry.last_used = tick;
        self.lent = Some((digest, tick));
        Some(entry)
    }

    /// Inserts an entry under `digest`, evicting per the two-tier LRU rule
    /// once over capacity. The caller has already checked no equal entry
    /// exists.
    pub fn insert(&mut self, digest: u64, mut entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        self.settle_lent();
        self.tick += 1;
        entry.last_used = self.tick;
        self.recency
            .insert((entry.logs.is_some(), entry.last_used), digest);
        self.buckets.entry(digest).or_default().push(entry);
        while self.recency.len() > self.capacity {
            self.evict_one();
        }
    }

    /// Moves the last lent-out entry to the tier its `logs` now say, so the
    /// index orders every entry exactly as a scan of the entries would.
    fn settle_lent(&mut self) {
        let Some((digest, stamp)) = self.lent.take() else {
            return;
        };
        let tier = self.buckets[&digest]
            .iter()
            .find(|e| e.last_used == stamp)
            .expect("a lent entry stays resident until the next cache call")
            .logs
            .is_some();
        if self.recency.remove(&(!tier, stamp)).is_some() {
            self.recency.insert((tier, stamp), digest);
        }
    }

    /// Removes the least-recently-used entry, preferring unpinned (log-less)
    /// entries over warm-start bases: the lexicographic minimum of
    /// `(holds_logs, last_used)`, the first key of the recency index.
    fn evict_one(&mut self) {
        let ((_, stamp), digest) = self
            .recency
            .pop_first()
            .expect("eviction runs only on a non-empty cache");
        let bucket = self.buckets.get_mut(&digest).expect("victim bucket exists");
        let slot = bucket
            .iter()
            .position(|e| e.last_used == stamp)
            .expect("every indexed stamp names a resident entry");
        bucket.remove(slot);
        if bucket.is_empty() {
            self.buckets.remove(&digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_plogp::MessageSize;
    use gridcast_topology::{ClusterId, GridGenerator};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> BroadcastProblem {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(5, &mut ChaCha8Rng::seed_from_u64(seed));
        BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1))
    }

    fn entry(p: &BroadcastProblem) -> CacheEntry {
        CacheEntry::new(
            p.clone(),
            vec![Time::from_millis(1.0); HeuristicKind::COUNT],
            None,
        )
    }

    /// An entry as a cold run produces it: commit logs attached, making it a
    /// warm-start base.
    fn base_entry(p: &BroadcastProblem) -> CacheEntry {
        CacheEntry::new(
            p.clone(),
            vec![Time::from_millis(1.0); HeuristicKind::COUNT],
            Some(Arc::new(Vec::new())),
        )
    }

    #[test]
    fn lookup_verifies_full_equality_not_just_the_digest() {
        let a = problem(1);
        let b = problem(2);
        assert_ne!(a.content_digest(), b.content_digest());

        let mut cache = ScheduleCache::new(8);
        let digest = a.content_digest();
        cache.insert(digest, entry(&a));

        assert!(cache.get_mut(digest, &a).is_some());
        // Simulate a digest collision: probe `a`'s digest with problem `b`.
        // Equality verification must refuse to serve `a`'s entry for `b`.
        assert!(cache.get_mut(digest, &b).is_none());

        // Colliding distinct problems coexist in one bucket.
        cache.insert(digest, entry(&b));
        assert_eq!(cache.len(), 2);
        assert!(cache.get_mut(digest, &a).is_some());
        assert!(cache.get_mut(digest, &b).is_some());
    }

    #[test]
    fn lru_eviction_removes_the_least_recently_used() {
        let mut cache = ScheduleCache::new(2);
        let problems: Vec<_> = (0..3).map(problem).collect();
        cache.insert(problems[0].content_digest(), entry(&problems[0]));
        cache.insert(problems[1].content_digest(), entry(&problems[1]));
        // Touch the older entry so the younger one becomes the LRU victim —
        // exactly where FIFO would have evicted `problems[0]`.
        assert!(cache
            .get_mut(problems[0].content_digest(), &problems[0])
            .is_some());
        cache.insert(problems[2].content_digest(), entry(&problems[2]));
        assert_eq!(cache.len(), 2);
        assert!(cache
            .get_mut(problems[0].content_digest(), &problems[0])
            .is_some());
        assert!(cache
            .get_mut(problems[1].content_digest(), &problems[1])
            .is_none());
        assert!(cache
            .get_mut(problems[2].content_digest(), &problems[2])
            .is_some());
    }

    #[test]
    fn hot_warm_base_survives_a_cold_entry_flood() {
        // A warm-start base that keeps getting replayed from (every warm run
        // looks it up, refreshing its stamp) must stay resident through an
        // arbitrarily long flood of fresh entries — both replay-produced ones
        // (unpinned, evicted first regardless of age) and new cold bases
        // (older stamps lose, and the hot base's stamp is always fresher).
        let mut cache = ScheduleCache::new(3);
        let hot = problem(100);
        cache.insert(hot.content_digest(), base_entry(&hot));

        for seed in 0..16 {
            let warm_result = problem(seed);
            cache.insert(warm_result.content_digest(), entry(&warm_result));
            // The hot base is warm-started from between insertions.
            assert!(
                cache.get_mut(hot.content_digest(), &hot).is_some(),
                "hot warm base evicted by replay-produced entry {seed}"
            );
            let cold = problem(1000 + seed);
            cache.insert(cold.content_digest(), base_entry(&cold));
            assert!(
                cache.get_mut(hot.content_digest(), &hot).is_some(),
                "hot warm base evicted by cold base {seed}"
            );
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn unpinned_entries_are_evicted_before_stale_warm_bases() {
        // Even a *stale* warm base outranks a freshly inserted replay-produced
        // entry: the log-less tier empties first.
        let mut cache = ScheduleCache::new(2);
        let base = problem(200);
        cache.insert(base.content_digest(), base_entry(&base));
        let fresh: Vec<_> = (0..3).map(problem).collect();
        for p in &fresh {
            cache.insert(p.content_digest(), entry(p));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get_mut(base.content_digest(), &base).is_some());
        // Only the newest unpinned entry shares the cache with the base.
        assert!(cache
            .get_mut(fresh[2].content_digest(), &fresh[2])
            .is_some());
    }

    /// The O(len) victim scan the recency index replaced, kept verbatim as
    /// the eviction oracle; it records each victim's stamp.
    struct ScanCache {
        capacity: usize,
        buckets: HashMap<u64, Vec<CacheEntry>>,
        tick: u64,
        len: usize,
        victims: Vec<u64>,
    }

    impl ScanCache {
        fn get_mut(&mut self, digest: u64, problem: &BroadcastProblem) -> Option<&mut CacheEntry> {
            self.tick += 1;
            let tick = self.tick;
            let entry = self
                .buckets
                .get_mut(&digest)?
                .iter_mut()
                .find(|e| e.problem == *problem)?;
            entry.last_used = tick;
            Some(entry)
        }

        fn insert(&mut self, digest: u64, mut entry: CacheEntry) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            entry.last_used = self.tick;
            self.buckets.entry(digest).or_default().push(entry);
            self.len += 1;
            while self.len > self.capacity {
                self.evict_one();
            }
        }

        fn evict_one(&mut self) {
            let mut victim: Option<(u64, usize, (bool, u64))> = None;
            for (&digest, bucket) in &self.buckets {
                for (i, e) in bucket.iter().enumerate() {
                    let rank = (e.logs.is_some(), e.last_used);
                    if victim.is_none_or(|(_, _, best)| rank < best) {
                        victim = Some((digest, i, rank));
                    }
                }
            }
            let (digest, slot, (_, stamp)) = victim.expect("non-empty");
            let bucket = self.buckets.get_mut(&digest).expect("victim bucket exists");
            bucket.remove(slot);
            if bucket.is_empty() {
                self.buckets.remove(&digest);
            }
            self.len -= 1;
            self.victims.push(stamp);
        }
    }

    /// `(digest, last_used, holds_logs, problem id)` of every entry, sorted.
    fn contents(buckets: &HashMap<u64, Vec<CacheEntry>>) -> Vec<(u64, u64, bool, u64)> {
        let mut all: Vec<_> = buckets
            .iter()
            .flat_map(|(&d, b)| {
                b.iter()
                    .map(move |e| (d, e.last_used, e.logs.is_some(), id_of(e)))
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// The problem id a differential-test entry carries in its makespans.
    fn id_of(e: &CacheEntry) -> u64 {
        e.makespans[0].as_secs() as u64
    }

    #[test]
    fn indexed_eviction_matches_the_scan_oracle() {
        // 100 distinct problems (one grid, five roots, twenty payloads) under
        // 16 digests, so buckets hold several colliding problems each.
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(5, &mut ChaCha8Rng::seed_from_u64(9));
        let problems: Vec<_> = (0..100u64)
            .map(|i| {
                BroadcastProblem::from_grid(
                    &grid,
                    ClusterId((i % 5) as usize),
                    MessageSize::from_kib(1 + i / 5),
                )
            })
            .collect();
        let digest = |id: u64| id % 16;
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for capacity in 1..=64 {
            let mut cache = ScheduleCache::new(capacity);
            let mut oracle = ScanCache {
                capacity,
                buckets: HashMap::new(),
                tick: 0,
                len: 0,
                victims: Vec::new(),
            };
            let mut victims = Vec::new();
            for _ in 0..400 {
                let id = rng.gen_range_u64(0, problems.len() as u64);
                let problem = &problems[id as usize];
                let present = oracle
                    .buckets
                    .get(&digest(id))
                    .is_some_and(|b| b.iter().any(|e| id_of(e) == id));
                // Inserts of absent problems follow any operation, including
                // a hit whose caller just changed the entry's tier.
                if !present && rng.gen_f64() < 0.5 {
                    let logs = (rng.gen_f64() < 0.5).then(|| Arc::new(Vec::new()));
                    let tagged = || {
                        let makespans = vec![Time::from_secs(id as f64); HeuristicKind::COUNT];
                        CacheEntry::new(problem.clone(), makespans, logs.clone())
                    };
                    let before = contents(&cache.buckets);
                    cache.insert(digest(id), tagged());
                    oracle.insert(digest(id), tagged());
                    let after = contents(&cache.buckets);
                    victims.extend(
                        before
                            .iter()
                            .chain([&(digest(id), cache.tick, logs.is_some(), id)])
                            .filter(|e| !after.contains(e))
                            .map(|e| e.1),
                    );
                } else {
                    // A tenth of the probes use a neighbouring digest: a
                    // collision that equality verification must turn away.
                    let probe = digest(id + u64::from(rng.gen_f64() < 0.1));
                    let toggle = rng.gen_f64() < 0.25;
                    let flip = |e: &mut CacheEntry| {
                        if toggle {
                            e.logs = e.logs.take().xor(Some(Arc::new(Vec::new())));
                        }
                    };
                    let hit = cache.get_mut(probe, problem).map(flip);
                    let oracle_hit = oracle.get_mut(probe, problem).map(flip);
                    assert_eq!(hit.is_some(), oracle_hit.is_some(), "capacity {capacity}");
                }
                assert_eq!(victims, oracle.victims, "capacity {capacity}");
                assert_eq!(
                    contents(&cache.buckets),
                    contents(&oracle.buckets),
                    "capacity {capacity}"
                );
                assert_eq!(cache.len(), oracle.len);
            }
            assert!(
                capacity >= 48 || victims.len() > 20,
                "capacity {capacity} evicted only {} times",
                victims.len()
            );
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ScheduleCache::new(0);
        let p = problem(3);
        cache.insert(p.content_digest(), entry(&p));
        assert!(cache.is_empty());
        assert!(cache.get_mut(p.content_digest(), &p).is_none());
    }
}
