//! The traced run's layer probes: timed calls into each layer's public
//! functions from outside the program, on the same stack the load just
//! ran against. Each call is a span; children (the policy forwards
//! inside one beam run) give self times.

use std::any::Any;
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmkgr_core::serve::protocol::{AnswerRequest, ApiResponse};
use mmkgr_core::serve::retrieve::mmr_rerank;
use mmkgr_core::serve::{
    HttpServerConfig, KgReasoner, LiveGraphStore, ModelRegistry, Query, RetrieveSpec, Retriever,
    WorkerPool,
};
use mmkgr_core::{BeamConfig, BeamEngine, RolloutPolicy};
use mmkgr_kg::store::snapshot::crc32;
use mmkgr_kg::{
    extract, Edge, EntityId, KnowledgeGraph, RelationId, Snapshot, SubgraphConfig, Triple,
    TripleOp, WalWriter,
};

use crate::trace::{SpanId, Tracer};

/// A `RolloutPolicy` that forwards to `inner`, timing every call as a
/// `policy.forward` span under the current beam span and counting the
/// action rows it is handed.
pub struct TracedPolicy<'a, P> {
    inner: &'a P,
    tracer: &'a Tracer,
    parent: Cell<Option<SpanId>>,
    req: Cell<u64>,
    pub calls: Cell<u64>,
    pub rows: Cell<u64>,
    pub edges: Cell<u64>,
    pub busy: Cell<Duration>,
}

impl<'a, P: RolloutPolicy> TracedPolicy<'a, P> {
    pub fn new(inner: &'a P, tracer: &'a Tracer) -> Self {
        TracedPolicy {
            inner,
            tracer,
            parent: Cell::new(None),
            req: Cell::new(0),
            calls: Cell::new(0),
            rows: Cell::new(0),
            edges: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        }
    }

    /// Attribute the following calls to span `parent` of request `req`.
    pub fn under(&self, parent: Option<SpanId>, req: u64) {
        self.parent.set(parent);
        self.req.set(req);
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        self.busy.set(self.busy.get() + (end - t));
        self.tracer
            .record("policy.forward", t, end, self.parent.get(), self.req.get());
        r
    }

    fn rows_seen(&self, rows: usize) {
        self.calls.set(self.calls.get() + 1);
        self.rows.set(self.rows.get() + rows as u64);
    }
}

impl<P: RolloutPolicy> RolloutPolicy for TracedPolicy<'_, P> {
    fn hidden_dim(&self) -> usize {
        self.inner.hidden_dim()
    }

    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        self.timed(|| self.inner.lstm_input(last_rel, current))
    }

    fn lstm_input_into(&self, last_rel: RelationId, current: EntityId, out: &mut Vec<f32>) {
        self.timed(|| self.inner.lstm_input_into(last_rel, current, out))
    }

    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        self.timed(|| self.inner.lstm_step(x, h, c))
    }

    fn action_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        self.rows_seen(actions.len());
        self.timed(|| self.inner.action_probs(source, h, rq, actions, out))
    }

    fn action_probs_group(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        self.rows_seen(states * actions.len());
        self.timed(|| {
            self.inner
                .action_probs_group(source, hs, states, rq, actions, out)
        })
    }

    fn prepare_actions(&self, actions: &[Edge]) -> Box<dyn Any> {
        self.edges.set(self.edges.get() + actions.len() as u64);
        self.timed(|| self.inner.prepare_actions(actions))
    }

    fn action_probs_group_prepared(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        prepared: &dyn Any,
        out: &mut Vec<f32>,
    ) {
        self.rows_seen(states * actions.len());
        self.timed(|| {
            self.inner
                .action_probs_group_prepared(source, hs, states, rq, actions, prepared, out)
        })
    }

    fn prepare_step(&self, last_rel: RelationId, current: EntityId) -> Box<dyn Any> {
        self.timed(|| self.inner.prepare_step(last_rel, current))
    }

    fn lstm_step_prepared(
        &self,
        last_rel: RelationId,
        current: EntityId,
        prepared: &dyn Any,
        h: &mut [f32],
        c: &mut [f32],
    ) {
        self.timed(|| {
            self.inner
                .lstm_step_prepared(last_rel, current, prepared, h, c)
        })
    }
}

/// Wire bodies of the queries the benchmark asks (beam 8, steps 3,
/// top_k 5; retrievals take the shape KG-RAG consumers ask for).
pub const TOP_K: usize = 5;
pub const BEAM: usize = 8;
pub const STEPS: usize = 3;

pub fn answer_body(s: u32, r: u32) -> String {
    format!(
        r#"{{"query": {{"source": "e{s}", "relation": "r{r}", "top_k": {TOP_K}, "beam": {BEAM}, "steps": {STEPS}}}}}"#
    )
}

pub fn query(s: u32, r: u32) -> Query {
    Query::new(EntityId(s), RelationId(r))
        .with_top_k(TOP_K)
        .with_beam(BEAM)
        .with_steps(STEPS)
}

pub fn retrieve_spec(s: u32, r: u32, max_paths: usize, diversity: f32) -> RetrieveSpec {
    RetrieveSpec {
        seeds: vec![EntityId(s)],
        relation: Some(RelationId(r)),
        hops: 2,
        max_entities: 64,
        max_paths,
        diversity,
    }
}

/// Runs `f` until `budget` elapses or it ran `max` times (at least
/// once), passing the sample index.
pub fn repeat(budget: Duration, max: usize, mut f: impl FnMut(u64)) {
    let end = Instant::now() + budget;
    for i in 0..max.max(1) {
        f(i as u64);
        if Instant::now() > end {
            break;
        }
    }
}

/// `/v1/answer` top to bottom: one round trip over the wire, then the
/// same request shape decoded, answered by the registry and encoded in
/// process, then the reasoner alone. Every call draws its own pair from
/// `next`, so a cold mix never hits the cache a previous call filled.
pub fn answer_path(
    tracer: &Tracer,
    addr: std::net::SocketAddr,
    registry: &ModelRegistry,
    reasoner: &dyn KgReasoner,
    next: &mut dyn FnMut() -> (u32, u32),
    budget: Duration,
) -> Result<f64, String> {
    let mut bytes = 0usize;
    let mut n = 0usize;
    let mut err = None;
    repeat(budget, 400, |i| {
        let root = tracer.open("probe.answer", None, i);
        let (s, r) = next();
        let t = Instant::now();
        let (status, _) = crate::loadgen::send(addr, "POST", "/v1/answer", &answer_body(s, r));
        tracer.record("http.request", t, Instant::now(), root, i);
        let (s, r) = next();
        let body = answer_body(s, r);
        let t = Instant::now();
        let req: Result<AnswerRequest, _> = serde_json::from_str(&body);
        tracer.record("protocol.decode", t, Instant::now(), root, i);
        let t = Instant::now();
        let wire = req
            .map_err(|e| e.to_string())
            .and_then(|q| registry.answer(&q).map_err(|e| format!("{e:?}")));
        tracer.record("registry.answer", t, Instant::now(), root, i);
        match wire {
            Ok(w) => {
                let t = Instant::now();
                let out = ApiResponse::Answer(w).body();
                tracer.record("protocol.encode", t, Instant::now(), root, i);
                bytes += out.len();
                n += 1;
            }
            Err(e) => err = Some(e),
        }
        if status != 200 {
            err = Some(format!("probe answer over HTTP: status {status}"));
        }
        let (s, r) = next();
        let t = Instant::now();
        std::hint::black_box(reasoner.answer(&query(s, r)));
        tracer.record(
            if reasoner.has_path_evidence() {
                "serve.answer"
            } else {
                "sharded.answer"
            },
            t,
            Instant::now(),
            root,
            i,
        );
        tracer.close(root);
    });
    match err {
        Some(e) => Err(e),
        None => Ok(bytes as f64 / n.max(1) as f64),
    }
}

/// Per beam run: policy busy time, forward calls, rows, edges scanned.
pub struct BeamCounts {
    pub forward_us: Vec<f64>,
    pub calls: u64,
    pub rows: u64,
    pub edges: u64,
    pub frontier: u64,
    pub runs: u64,
}

/// `BeamEngine::run` on a benchmark-owned engine with the server's beam
/// shape, the policy wrapped so its forwards are child spans.
pub fn beam_runs<P: RolloutPolicy>(
    tracer: &Tracer,
    policy: &P,
    graph: &KnowledgeGraph,
    cfg: &BeamConfig,
    next: &mut dyn FnMut() -> (u32, u32),
    budget: Duration,
) -> BeamCounts {
    let traced = TracedPolicy::new(policy, tracer);
    let mut engine = BeamEngine::new();
    let mut out = BeamCounts {
        forward_us: Vec::new(),
        calls: 0,
        rows: 0,
        edges: 0,
        frontier: 0,
        runs: 0,
    };
    repeat(budget, 400, |i| {
        let (s, r) = next();
        let busy = traced.busy.get();
        let root = tracer.open("beam.run", None, i);
        traced.under(root, i);
        engine.run(&traced, graph, EntityId(s), RelationId(r), cfg);
        tracer.close(root);
        out.forward_us
            .push((traced.busy.get() - busy).as_secs_f64() * 1e6);
        out.frontier += engine.frontier_len() as u64;
        out.runs += 1;
    });
    out.calls = traced.calls.get();
    out.rows = traced.rows.get();
    out.edges = traced.edges.get();
    out
}

/// Does the wrapped policy steer the engine exactly as the plain one?
pub fn wrapped_engine_matches<P: RolloutPolicy>(
    policy: &P,
    graph: &KnowledgeGraph,
    cfg: &BeamConfig,
    pairs: &[(u32, u32)],
) -> bool {
    let off = Tracer::new(false);
    let traced = TracedPolicy::new(policy, &off);
    let (mut a, mut b) = (BeamEngine::new(), BeamEngine::new());
    pairs.iter().all(|&(s, r)| {
        a.run(policy, graph, EntityId(s), RelationId(r), cfg);
        b.run(&traced, graph, EntityId(s), RelationId(r), cfg);
        let key = |e: &BeamEngine| -> Vec<(u32, u32, usize)> {
            e.frontier()
                .map(|f| (f.entity.0, f.logp.to_bits(), f.hops))
                .collect()
        };
        key(&a) == key(&b)
    })
}

/// Sizes of what one retrieval returned.
pub struct RetrieveCounts {
    pub entities: f64,
    pub paths: f64,
}

/// `Retriever::retrieve` whole, then its two stages on their own:
/// `subgraph::extract` with the same bounds, and `mmr_rerank` over the
/// unreranked candidate paths of the same request.
pub fn retrieve_path(
    tracer: &Tracer,
    retriever: &Retriever,
    reasoner: &dyn KgReasoner,
    next: &mut dyn FnMut() -> (u32, u32),
    budget: Duration,
) -> RetrieveCounts {
    let (mut entities, mut paths, mut n) = (0usize, 0usize, 0usize);
    repeat(budget, 200, |i| {
        let (s, r) = next();
        let spec = retrieve_spec(s, r, 8, 0.25);
        let t = Instant::now();
        let got = retriever.retrieve(Some(reasoner), &spec);
        tracer.record("retrieve.total", t, Instant::now(), None, i);
        entities += got.subgraph.entities.len();
        paths += got.paths.len();
        n += 1;
        let graph = retriever.graph();
        let cfg = SubgraphConfig {
            hops: spec.hops,
            max_entities: spec.max_entities,
            ..SubgraphConfig::default()
        };
        let t = Instant::now();
        std::hint::black_box(extract(&graph, &spec.seeds, &cfg, None));
        tracer.record("retrieve.subgraph", t, Instant::now(), None, i);
        let all = retriever.retrieve(Some(reasoner), &retrieve_spec(s, r, 0, 0.0));
        let t = Instant::now();
        std::hint::black_box(mmr_rerank(all.paths, spec.diversity, spec.max_paths));
        tracer.record("retrieve.mmr", t, Instant::now(), None, i);
    });
    RetrieveCounts {
        entities: entities as f64 / n.max(1) as f64,
        paths: paths as f64 / n.max(1) as f64,
    }
}

/// `LiveGraphStore::apply` on a benchmark-owned store over `graph`, and
/// the WAL's append and fsync on their own through a benchmark-owned
/// `WalWriter` (both logs in `dir`).
pub fn write_path(
    tracer: &Tracer,
    graph: Arc<KnowledgeGraph>,
    dir: &Path,
    inserts: &mut dyn FnMut() -> Triple,
    budget: Duration,
) -> Result<(), String> {
    let store =
        LiveGraphStore::open(graph, &dir.join("probe-store.wal"), 0).map_err(|e| e.to_string())?;
    let mut err = None;
    repeat(budget / 2, 200, |i| {
        let op = [TripleOp::Insert(inserts())];
        let t = Instant::now();
        if let Err(e) = store.apply(&op) {
            err = Some(e.to_string());
        }
        tracer.record("mutation.apply", t, Instant::now(), None, i);
    });
    let (mut wal, _) = WalWriter::open(&dir.join("probe-writer.wal")).map_err(|e| e.to_string())?;
    repeat(budget / 2, 200, |i| {
        let op = [TripleOp::Insert(inserts())];
        let t = Instant::now();
        let appended = wal.append_unsynced(&op);
        tracer.record("wal.append", t, Instant::now(), None, i);
        let t = Instant::now();
        let synced = wal.sync();
        tracer.record("wal.sync", t, Instant::now(), None, i);
        if let Err(e) = appended.and(synced) {
            err = Some(e.to_string());
        }
    });
    err.map_or(Ok(()), Err)
}

/// `WorkerPool::answer_batch` over batches of `batch` queries, one
/// `pool.batch` span per batch.
pub fn pool_batches(
    tracer: &Tracer,
    reasoner: Arc<dyn KgReasoner + Send + Sync>,
    batch: usize,
    next: &mut dyn FnMut() -> (u32, u32),
    budget: Duration,
) {
    let pool = WorkerPool::new(reasoner, HttpServerConfig::default().pool_workers);
    repeat(budget, 50, |i| {
        let queries: Vec<Query> = (0..batch)
            .map(|_| {
                let (s, r) = next();
                query(s, r)
            })
            .collect();
        let t = Instant::now();
        std::hint::black_box(pool.answer_batch(&queries));
        tracer.record("pool.batch", t, Instant::now(), None, i);
    });
}

/// The same queries through an unsharded scorer.
pub fn scorer_answers(
    tracer: &Tracer,
    scorer: &dyn KgReasoner,
    next: &mut dyn FnMut() -> (u32, u32),
    budget: Duration,
) {
    repeat(budget, 100, |i| {
        let (s, r) = next();
        let t = Instant::now();
        std::hint::black_box(scorer.answer(&query(s, r)));
        tracer.record("scorer.answer", t, Instant::now(), None, i);
    });
}

/// Round trips of the cheapest route: the HTTP floor.
pub fn healthz(tracer: &Tracer, addr: std::net::SocketAddr, budget: Duration) {
    repeat(budget, 300, |i| {
        let t = Instant::now();
        std::hint::black_box(crate::loadgen::send(addr, "GET", "/healthz", ""));
        tracer.record("http.healthz", t, Instant::now(), None, i);
    });
}

/// The snapshot layer on its own, three times each: `Snapshot::open`,
/// then `Snapshot::graph` on the opened file, then `crc32` over the
/// whole file read into memory.
pub fn snapshot_read(tracer: &Tracer, path: &Path) -> Result<(), String> {
    for i in 0..3 {
        let t = Instant::now();
        let snap = Snapshot::open(path).map_err(|e| e.to_string())?;
        tracer.record("snapshot.open", t, Instant::now(), None, i);
        let t = Instant::now();
        std::hint::black_box(snap.graph().map_err(|e| e.to_string())?);
        tracer.record("snapshot.graph", t, Instant::now(), None, i);
    }
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    for i in 0..3 {
        let t = Instant::now();
        std::hint::black_box(crc32(&bytes));
        tracer.record("snapshot.crc", t, Instant::now(), None, i);
    }
    Ok(())
}

/// What recording one span costs, in µs: the tracing overhead each
/// traced request pays per span.
pub fn span_cost_us() -> f64 {
    let t = Tracer::new(true);
    let n = 20_000u32;
    let start = Instant::now();
    for i in 0..n {
        let now = Instant::now();
        t.record("cost", now, now, None, u64::from(i));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}
