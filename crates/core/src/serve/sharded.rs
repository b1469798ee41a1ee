//! Entity-sharded serving for KGE scorers: one [`ShardedReasoner`]
//! range-splits exhaustive object scoring behind the same [`KgReasoner`]
//! trait the registry and HTTP front end already speak, so sharding is
//! invisible above this module.
//!
//! Shard `i` scores objects in `bounds[i]..bounds[i+1]` on its own
//! thread, ranks and truncates its slice locally, and the merger
//! re-sorts the per-shard top-k unions. This is exact: `score(s, r, o)`
//! does not depend on which shard evaluates it, and the global top-k is
//! always a subset of the union of per-shard top-ks, so the merged
//! ranking is bit-identical to an unsharded [`super::ScorerReasoner`]
//! pass (both use [`super::sort_candidates`]'s descending-score /
//! ascending-id order).
//!
//! Path reasoners are not sharded. A beam walks the whole graph from one
//! source, so it cannot be range-split; they are served unsharded, and
//! batches fan out on [`super::WorkerPool`].
//!
//! # Supervision
//!
//! Fan-out runs on the reasoner's own `Executor`, spawned once at
//! construction: every shard task runs under the executor's unwind
//! guard, waits are bounded by the caller's [`Budget`], and a failed
//! shard — one whose task panicked, or died with its executor thread —
//! is retried **once** after a jittered backoff. A shard that still
//! fails is dropped from the merge — the answer is the exact merged
//! top-k of the survivors, annotated with [`Degraded`]
//! so clients can tell a partial ranking from a full one. An exhausted
//! budget wins over degradation: the caller gets
//! [`ApiError::DeadlineExceeded`], never a late answer.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mmkgr_embed::TripleScorer;
use mmkgr_kg::{EntityId, RelationId, RelationSpace};

use super::executor::{self, Executor};
use super::{
    candidates_from_scores, faults, rank_top_k, Answer, ApiError, Budget, Candidate, Coverage,
    Degraded, KgReasoner, Query,
};

/// Why a [`ShardedReasoner`] could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards requested.
    NoShards,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "ShardedReasoner needs at least one shard"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Object-safe view of a [`TripleScorer`] for range scoring — lets the
/// sharded reasoner stay non-generic (it is always held as
/// `Arc<dyn KgReasoner>`).
trait ObjectScorer: Send + Sync {
    /// Scores for `lo..hi`, via the scorer's vectorized range path.
    fn score_range(&self, s: EntityId, r: RelationId, lo: usize, hi: usize, out: &mut Vec<f32>);
}

impl<S: TripleScorer + Send + Sync> ObjectScorer for S {
    fn score_range(&self, s: EntityId, r: RelationId, lo: usize, hi: usize, out: &mut Vec<f32>) {
        self.score_objects_range(s, r, lo, hi, out);
    }
}

/// N entity-range shards of one scorer behind one [`KgReasoner`] (see
/// the module docs for the exactness argument).
pub struct ShardedReasoner {
    name: String,
    scorer: Arc<dyn ObjectScorer>,
    num_entities: usize,
    relations: RelationSpace,
    /// `bounds[i]..bounds[i+1]` is shard `i`'s entity range;
    /// `bounds.len() == shards + 1`, `bounds[0] == 0`, last == entities.
    bounds: Vec<usize>,
    /// Persistent fan-out threads, `shards.min(16)` of them.
    executor: Executor,
}

impl std::fmt::Debug for ShardedReasoner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReasoner")
            .field("name", &self.name)
            .field("num_entities", &self.num_entities)
            .field("bounds", &self.bounds)
            .finish()
    }
}

/// Contiguous near-equal split of `0..n` into `shards` ranges.
fn uniform_bounds(n: usize, shards: usize) -> Vec<usize> {
    (0..=shards).map(|i| i * n / shards).collect()
}

/// Score shard `lo..hi`, returning its slice of the ranking already
/// sorted and truncated to `top_k`.
fn score_shard(scorer: &dyn ObjectScorer, query: &Query, lo: usize, hi: usize) -> Vec<Candidate> {
    let mut scores = Vec::new();
    scorer.score_range(query.source, query.relation, lo, hi, &mut scores);
    candidates_from_scores(&scores, lo, query.top_k)
}

impl ShardedReasoner {
    /// Shard an exhaustive [`TripleScorer`] by entity range. The scorer
    /// is shared (`Arc`-cloned) across shards — only the score loop is
    /// partitioned. Errors on `shards == 0`.
    pub fn from_scorer<S>(
        name: impl Into<String>,
        scorer: S,
        num_entities: usize,
        relations: RelationSpace,
        shards: usize,
    ) -> Result<Self, ShardError>
    where
        S: TripleScorer + Send + Sync + 'static,
    {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        Ok(ShardedReasoner {
            name: name.into(),
            scorer: Arc::new(scorer),
            num_entities,
            relations,
            bounds: uniform_bounds(num_entities, shards),
            executor: Executor::new(shards.min(16)),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Run one wave of shard attempts on the executor, returning each
    /// successful shard's slice. Waits are bounded by the remaining
    /// `budget`; a shard that panicked, died with its thread or did not
    /// reply before the deadline has no entry in the returned list.
    fn run_wave(
        &self,
        query: &Query,
        pending: &[(usize, usize, usize)],
        budget: Budget,
    ) -> Vec<(usize, Vec<Candidate>)> {
        let replies = self.executor.submit(pending.iter().map(|&(shard, lo, hi)| {
            let scorer = Arc::clone(&self.scorer);
            let query = *query;
            move || {
                // Chaos hook inside the unwind guard: injected latency
                // and panics land where a real scorer failure would.
                faults::on_shard_task(shard);
                (shard, score_shard(&*scorer, &query, lo, hi))
            }
        }));
        let mut scored = Vec::with_capacity(pending.len());
        for _ in 0..pending.len() {
            match executor::next_reply(&replies, budget) {
                Ok(Ok(slice)) => scored.push(slice),
                Ok(Err(_panic)) => {} // the shard stays pending
                // Deadline, or every remaining task died with its thread.
                Err(_) => break,
            }
        }
        scored
    }

    /// Exhaustive answer, fanned across shards under supervision: waits
    /// are budget-bounded, and a failed shard gets exactly one retry
    /// after a jittered backoff. Survivor results merge into the exact
    /// top-k over their ranges; if any shard stayed down the answer
    /// carries a [`Degraded`] annotation. An exhausted budget is an
    /// error, not a late answer.
    fn answer_scored_within(&self, query: &Query, budget: Budget) -> Result<Answer, ApiError> {
        if budget.expired() {
            return Err(budget.exceeded());
        }
        let mut pending: Vec<(usize, usize, usize)> = self
            .bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, w[0], w[1]))
            .filter(|&(_, lo, hi)| lo < hi)
            .collect();
        let mut merged: Vec<Candidate> = Vec::new();
        for attempt in 0..2 {
            if pending.is_empty() {
                break;
            }
            if attempt > 0 {
                if budget.expired() {
                    break;
                }
                faults::SHARD_RETRIES.fetch_add(pending.len() as u64, Ordering::Relaxed);
                std::thread::sleep(budget.clamp(Duration::from_millis(1) + faults::jitter(8)));
            }
            let wave = self.run_wave(query, &pending, budget);
            pending.retain(|&(shard, _, _)| !wave.iter().any(|&(s, _)| s == shard));
            for (_, cands) in wave {
                merged.extend(cands);
            }
        }
        if budget.expired() {
            return Err(budget.exceeded());
        }
        // Per-shard slices are each sorted, but the union is not; the
        // final order must match the unsharded single sort exactly
        // (restricted to the surviving ranges when degraded).
        rank_top_k(&mut merged, query.top_k);
        Ok(Answer {
            query: *query,
            coverage: Coverage::Exhaustive,
            ranked: merged,
            degraded: (!pending.is_empty()).then(|| Degraded {
                shards_failed: pending.iter().map(|&(shard, _, _)| shard).collect(),
                shards_total: self.num_shards(),
            }),
        })
    }
}

impl KgReasoner for ShardedReasoner {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn relations(&self) -> RelationSpace {
        self.relations
    }

    fn answer(&self, query: &Query) -> Answer {
        self.answer_scored_within(query, Budget::none())
            .expect("an unlimited budget cannot exceed its deadline")
    }

    fn answer_within(&self, query: &Query, budget: Budget) -> Result<Answer, ApiError> {
        self.answer_scored_within(query, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScorerReasoner;
    use super::*;
    use mmkgr_embed::TransE;

    fn shape() -> (usize, RelationSpace) {
        (23, RelationSpace::new(3))
    }

    fn transe(n: usize, rs: RelationSpace) -> Arc<TransE> {
        Arc::new(TransE::new(n, rs.total(), 8, 7))
    }

    #[test]
    fn uniform_bounds_cover_and_partition() {
        let b = uniform_bounds(23, 4);
        assert_eq!(b, vec![0, 5, 11, 17, 23]);
        assert_eq!(uniform_bounds(3, 4), vec![0, 0, 1, 2, 3]);
        assert_eq!(uniform_bounds(0, 2), vec![0, 0, 0]);
    }

    #[test]
    fn sharded_scorer_matches_unsharded_exactly() {
        // Fault plans are process-global: hold the lock so a concurrent
        // test's plan cannot reach this reasoner's threads.
        let _guard = faults::install(faults::FaultPlan::new());
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        for shards in [1, 2, 4, 7] {
            let sharded =
                ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, shards).unwrap();
            assert_eq!(sharded.num_shards(), shards);
            for src in [0u32, 3, 22] {
                for top_k in [0usize, 1, 5, 100] {
                    let q = Query::new(EntityId(src), RelationId(1)).with_top_k(top_k);
                    let a = sharded.answer(&q);
                    let b = whole.answer(&q);
                    assert_eq!(a, b, "shards={shards} src={src} top_k={top_k}");
                    assert_eq!(a.coverage, Coverage::Exhaustive);
                }
            }
        }
    }

    #[test]
    fn sharded_scorer_breaks_ties_like_unsharded() {
        // Fault plans are process-global: hold the lock so a concurrent
        // test's plan cannot reach this reasoner's threads.
        let _guard = faults::install(faults::FaultPlan::new());
        // All-equal scores: the merged order must still be ascending
        // entity id, same as one global sort.
        struct Flat;
        impl TripleScorer for Flat {
            fn score(&self, _: EntityId, _: RelationId, _: EntityId) -> f32 {
                1.0
            }
        }
        let rs = RelationSpace::new(2);
        let sharded = ShardedReasoner::from_scorer("Flat", Flat, 10, rs, 4).unwrap();
        let a = sharded.answer(&Query::new(EntityId(0), RelationId(0)).with_top_k(0));
        let ids: Vec<u32> = a.ranked.iter().map(|c| c.entity.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
    }

    /// Degraded-mode parity: with shard `dead` forced down, the answer
    /// must be *exactly* the merged top-k over the surviving ranges —
    /// computed here as an unsharded reference pass restricted to those
    /// ranges — plus the degradation annotation. Nothing else may leak
    /// from the dead shard's range.
    #[test]
    fn degraded_answer_is_exact_merge_of_survivors() {
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let shards = 4usize;
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, shards).unwrap();
        for dead in 0..shards {
            let _guard = faults::install(
                faults::FaultPlan::new()
                    .with_shard_panic(faults::ShardSel::One(dead), faults::ALWAYS),
            );
            for top_k in [0usize, 1, 5, 100] {
                let q = Query::new(EntityId(3), RelationId(1)).with_top_k(top_k);
                let got = sharded.answer(&q);
                // Reference: score each surviving range directly.
                let scorer_dyn: &dyn ObjectScorer = &*scorer;
                let mut expect: Vec<Candidate> = Vec::new();
                for (i, w) in sharded.bounds.windows(2).enumerate() {
                    if i != dead && w[0] < w[1] {
                        expect.extend(score_shard(scorer_dyn, &q, w[0], w[1]));
                    }
                }
                rank_top_k(&mut expect, top_k);
                assert_eq!(got.ranked, expect, "dead={dead} top_k={top_k}");
                assert_eq!(
                    got.degraded,
                    Some(Degraded {
                        shards_failed: vec![dead],
                        shards_total: shards,
                    })
                );
            }
        }
    }

    #[test]
    fn transient_shard_panic_is_retried_to_a_full_answer() {
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, 3).unwrap();
        let q = Query::new(EntityId(7), RelationId(0)).with_top_k(5);
        let retries_before = faults::SHARD_RETRIES.load(Ordering::Relaxed);
        let got = {
            // Shard 1 panics exactly once: the retry must succeed and
            // the answer must be indistinguishable from a healthy run.
            let _guard = faults::install(
                faults::FaultPlan::new().with_shard_panic(faults::ShardSel::One(1), 1),
            );
            sharded.answer(&q)
        };
        assert_eq!(got, whole.answer(&q));
        assert!(got.degraded.is_none());
        assert!(faults::SHARD_RETRIES.load(Ordering::Relaxed) > retries_before);
    }

    #[test]
    fn a_shard_thread_killed_on_receipt_is_retried_to_a_full_answer() {
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, 3).unwrap();
        let q = Query::new(EntityId(5), RelationId(2)).with_top_k(5);
        let respawns_before = faults::WORKER_RESPAWNS.load(Ordering::Relaxed);
        let got = {
            // One executor thread dies on task receipt, taking its shard
            // task with it: the retry wave respawns the thread and the
            // shard answers.
            let _guard = faults::install(faults::FaultPlan::new().with_worker_panic(1));
            sharded.answer(&q)
        };
        assert_eq!(got, whole.answer(&q));
        assert!(faults::WORKER_RESPAWNS.load(Ordering::Relaxed) > respawns_before);
    }

    #[test]
    fn injected_latency_past_the_deadline_is_a_typed_504() {
        let (n, rs) = shape();
        let sharded = ShardedReasoner::from_scorer("TransE", transe(n, rs), n, rs, 2).unwrap();
        let q = Query::new(EntityId(0), RelationId(1));
        let _guard = faults::install(
            faults::FaultPlan::new()
                .with_shard_latency(faults::ShardSel::All, Duration::from_millis(400)),
        );
        let started = std::time::Instant::now();
        let err = sharded
            .answer_within(&q, Budget::from_timeout_ms(50))
            .unwrap_err();
        assert!(matches!(err, ApiError::DeadlineExceeded { timeout_ms: 50 }));
        // The caller got its answer near the deadline, not after the
        // injected latency drained (generous bound for slow CI).
        assert!(started.elapsed() < Duration::from_millis(350));
    }

    #[test]
    fn faults_disabled_answers_are_byte_identical() {
        // Fault plans are process-global: hold the lock so a concurrent
        // test's plan cannot reach this reasoner's threads.
        let _guard = faults::install(faults::FaultPlan::new());
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, 4).unwrap();
        let q = Query::new(EntityId(11), RelationId(2)).with_top_k(7);
        let a = sharded
            .answer_within(&q, Budget::from_timeout_ms(60_000))
            .unwrap();
        assert_eq!(a, whole.answer(&q));
        assert!(a.degraded.is_none());
    }

    #[test]
    fn constructors_reject_degenerate_shapes() {
        let (n, rs) = shape();
        assert_eq!(
            ShardedReasoner::from_scorer("x", transe(n, rs), n, rs, 0).unwrap_err(),
            ShardError::NoShards
        );
    }
}
