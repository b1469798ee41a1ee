//! The versioned wire protocol (`v1`) spoken by the HTTP front end.
//!
//! In-process callers hold typed [`Query`]s with dense [`EntityId`] /
//! [`RelationId`] indices. Remote clients don't know the dense id space —
//! they address entities and relations **by name** and let the server
//! resolve names against the dataset's id spaces via a [`NameIndex`].
//! This module defines that boundary:
//!
//! - [`NamedQuery`] — the wire query (`source`/`relation` as strings,
//!   optional `top_k`/`beam`/`steps` overrides);
//! - [`AnswerRequest`] / [`AnswerBatchRequest`] / [`ExplainRequest`] —
//!   the request envelope per POST route, each optionally naming a
//!   `model` from the registry;
//! - [`WireAnswer`] / [`ExplainResponse`] / [`ModelsResponse`] /
//!   [`HealthResponse`] / [`MetricsResponse`] — the response envelopes;
//! - [`ApiError`] — every way a request can fail, as a typed enum with a
//!   stable wire encoding (`{"code": ..., "message": ..., ...}`) and an
//!   HTTP status per variant;
//! - [`ApiRequest`] / [`ApiResponse`] — the typed unions the server
//!   routes through (on the wire, the route is the tag: `POST
//!   /v1/answer` carries a bare [`AnswerRequest`] body, never a tagged
//!   union).
//!
//! # Version policy
//!
//! The `v1` surface is **frozen**: field names, their meaning, the error
//! codes, and the route set may only grow, never change or disappear.
//! Evolution rules:
//!
//! - **Additive fields only.** New response fields may appear at any
//!   time; clients must ignore fields they don't know. New request
//!   fields must be optional (`#[serde(default)]`) so old clients stay
//!   valid. The server likewise ignores unknown request fields rather
//!   than rejecting them, so a newer client degrades gracefully against
//!   an older server.
//! - **No re-typing.** A field's JSON type never changes; a breaking
//!   reshape means a new `/v2/` route family living alongside `/v1/`.
//! - **Error codes are append-only.** Clients switch on
//!   [`ApiError::code`]; existing codes keep their meaning and HTTP
//!   status forever.
//!
//! Every response envelope carries a `protocol` field (currently
//! [`PROTOCOL_VERSION`]) so logs and clients can tell which contract a
//! payload honours.

use std::collections::HashMap;

use mmkgr_kg::{EntityId, RelationId, RelationSpace};
use serde::{Deserialize, Serialize, Value};

use super::retrieve::Retrieval;
use super::{Answer, CacheStats, Coverage, Query};
use crate::infer::BeamPath;

/// The wire protocol generation all envelopes in this module encode.
pub const PROTOCOL_VERSION: &str = "v1";

fn protocol_version_string() -> String {
    PROTOCOL_VERSION.to_string()
}

// --------------------------------------------------------------- requests

/// A name-addressed serving query: the wire twin of [`Query`].
///
/// `source` must name an entity and `relation` a relation of the served
/// dataset. Relations accept a leading `~` for the synthetic inverse
/// (`{"relation": "~r3"}` asks `(?, r3, source)` — a head query).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NamedQuery {
    pub source: String,
    pub relation: String,
    /// Maximum candidates returned (0 = every candidate). Omitted on the
    /// wire means [`Query::DEFAULT_TOP_K`], matching the in-process
    /// default.
    #[serde(default = "NamedQuery::default_top_k")]
    pub top_k: usize,
    /// Beam width override for path reasoners (null/omitted = model
    /// default). Zero is rejected with [`ApiError::InvalidBeamParams`].
    #[serde(default)]
    pub beam: Option<usize>,
    /// Step-horizon override for path reasoners (null/omitted = model
    /// default). Zero is rejected with [`ApiError::InvalidBeamParams`].
    #[serde(default)]
    pub steps: Option<usize>,
    /// Request deadline in milliseconds (null/omitted = the server's
    /// default budget). Zero is rejected with
    /// [`ApiError::InvalidBeamParams`]. When the budget runs out before
    /// an answer is ready the server replies
    /// [`ApiError::DeadlineExceeded`] (504) instead of hanging.
    #[serde(default)]
    pub timeout_ms: Option<u64>,
}

impl NamedQuery {
    fn default_top_k() -> usize {
        Query::DEFAULT_TOP_K
    }

    pub fn new(source: impl Into<String>, relation: impl Into<String>) -> Self {
        NamedQuery {
            source: source.into(),
            relation: relation.into(),
            top_k: Query::DEFAULT_TOP_K,
            beam: None,
            steps: None,
            timeout_ms: None,
        }
    }

    /// Request at most `k` answers (0 = all).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    pub fn with_beam(mut self, width: usize) -> Self {
        self.beam = Some(width);
        self
    }

    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Cap this request's total budget at `ms` milliseconds.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }
}

/// Body of `POST /v1/answer`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnswerRequest {
    /// Registry model to query (omitted = the registry default).
    #[serde(default)]
    pub model: Option<String>,
    pub query: NamedQuery,
}

/// Body of `POST /v1/answer_batch`: one model, many queries, answered on
/// the server's worker pool.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnswerBatchRequest {
    #[serde(default)]
    pub model: Option<String>,
    pub queries: Vec<NamedQuery>,
}

/// Body of `POST /v1/explain`: like [`AnswerRequest`] but returns raw
/// reasoning paths (several per entity) instead of a per-entity ranking.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExplainRequest {
    #[serde(default)]
    pub model: Option<String>,
    pub query: NamedQuery,
}

/// Body of `POST /v1/retrieve`: a KG-RAG retrieval context — the bounded
/// k-hop subgraph around the named `seeds` plus diversity-ranked
/// reasoning-path contexts (see `docs/retrieval.md`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetrieveRequest {
    /// Registry model whose beam paths back the contexts (omitted = the
    /// registry default).
    #[serde(default)]
    pub model: Option<String>,
    /// Seed entity names (at least one; unknown names are
    /// [`ApiError::UnknownEntity`]).
    pub seeds: Vec<String>,
    /// Optional query relation: when present and the model is a path
    /// reasoner, contexts are its beam paths for `(seed, relation, ?)`;
    /// otherwise they fall back to subgraph topology paths.
    #[serde(default)]
    pub relation: Option<String>,
    /// k-hop expansion radius (must be ≥ 1).
    #[serde(default = "RetrieveRequest::default_hops")]
    pub hops: usize,
    /// Cap on subgraph entities, seeds included (0 = unlimited).
    #[serde(default = "RetrieveRequest::default_max_entities")]
    pub max_entities: usize,
    /// Cap on selected path contexts (0 = unlimited).
    #[serde(default = "RetrieveRequest::default_max_paths")]
    pub max_paths: usize,
    /// MMR diversity weight in `[0, 1]`: 0 = plain score order, higher
    /// values penalize entity/relation overlap with already-selected
    /// paths.
    #[serde(default)]
    pub diversity: f32,
    /// Request deadline in milliseconds (null/omitted = server default).
    #[serde(default)]
    pub timeout_ms: Option<u64>,
}

impl RetrieveRequest {
    pub const DEFAULT_HOPS: usize = 2;
    pub const DEFAULT_MAX_ENTITIES: usize = 64;
    pub const DEFAULT_MAX_PATHS: usize = 8;

    fn default_hops() -> usize {
        Self::DEFAULT_HOPS
    }

    fn default_max_entities() -> usize {
        Self::DEFAULT_MAX_ENTITIES
    }

    fn default_max_paths() -> usize {
        Self::DEFAULT_MAX_PATHS
    }

    pub fn new(seeds: impl IntoIterator<Item = impl Into<String>>) -> Self {
        RetrieveRequest {
            model: None,
            seeds: seeds.into_iter().map(Into::into).collect(),
            relation: None,
            hops: Self::DEFAULT_HOPS,
            max_entities: Self::DEFAULT_MAX_ENTITIES,
            max_paths: Self::DEFAULT_MAX_PATHS,
            diversity: 0.0,
            timeout_ms: None,
        }
    }

    pub fn with_model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    pub fn with_relation(mut self, relation: impl Into<String>) -> Self {
        self.relation = Some(relation.into());
        self
    }

    pub fn with_hops(mut self, hops: usize) -> Self {
        self.hops = hops;
        self
    }

    pub fn with_max_entities(mut self, n: usize) -> Self {
        self.max_entities = n;
        self
    }

    pub fn with_max_paths(mut self, n: usize) -> Self {
        self.max_paths = n;
        self
    }

    pub fn with_diversity(mut self, w: f32) -> Self {
        self.diversity = w;
        self
    }

    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }
}

/// Body of `POST /v1/admin/mutate`: one atomic batch of live triple
/// edits against the served graph. Triples are named in **base**
/// orientation (`~`-prefixed inverse relations are rejected — the store
/// maintains both directions itself). The whole batch commits to the
/// WAL and publishes as one epoch, or fails as a unit with
/// [`ApiError::InvalidMutation`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutateRequest {
    /// Triples to insert (already-present inserts are no-ops).
    #[serde(default)]
    pub insert: Vec<WireTriple>,
    /// Triples to delete (already-absent deletes are no-ops).
    #[serde(default)]
    pub delete: Vec<WireTriple>,
    /// Request deadline in milliseconds (null/omitted = server default).
    #[serde(default)]
    pub timeout_ms: Option<u64>,
}

impl MutateRequest {
    pub fn new() -> Self {
        MutateRequest {
            insert: Vec::new(),
            delete: Vec::new(),
            timeout_ms: None,
        }
    }

    pub fn with_insert(
        mut self,
        s: impl Into<String>,
        r: impl Into<String>,
        o: impl Into<String>,
    ) -> Self {
        self.insert.push(WireTriple {
            s: s.into(),
            r: r.into(),
            o: o.into(),
        });
        self
    }

    pub fn with_delete(
        mut self,
        s: impl Into<String>,
        r: impl Into<String>,
        o: impl Into<String>,
    ) -> Self {
        self.delete.push(WireTriple {
            s: s.into(),
            r: r.into(),
            o: o.into(),
        });
        self
    }

    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }
}

impl Default for MutateRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// Body of `POST /v1/admin/replicate`: a follower (or a backup tool)
/// asking the primary for replication data. Two modes:
///
/// - `"snapshot"` — the response body is the primary's current `.mmkg`
///   snapshot, raw bytes with a `Content-Length` (the per-section
///   CRC32s inside the format verify the transfer);
/// - `"tail"` — the response body is an unbounded stream: the 8-byte
///   WAL preamble (`MWAL` magic + version) followed by committed WAL
///   frames from the first `seq ≥ from_seq`, in the on-disk frame
///   encoding, shipped as they commit. The `X-Mmkgr-Head-Seq` response
///   header carries the primary's next sequence number at connect time
///   (what "caught up" means for a bootstrapping follower).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicateRequest {
    /// `"snapshot"` or `"tail"`.
    pub mode: String,
    /// First sequence number wanted (tail mode; ignored for snapshots).
    #[serde(default)]
    pub from_seq: u64,
}

/// Body of `POST /v1/admin/promote` (empty today; a future fence token
/// would live here). Present so the route parses a `{}` body uniformly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PromoteRequest {}

/// Typed union of every v1 request. On the wire the route is the tag
/// (each POST body is the bare inner struct); the server materializes
/// this union after routing, and tests round-trip it directly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ApiRequest {
    Answer(AnswerRequest),
    AnswerBatch(AnswerBatchRequest),
    Explain(ExplainRequest),
    Retrieve(RetrieveRequest),
    Mutate(MutateRequest),
    Replicate(ReplicateRequest),
    Promote(PromoteRequest),
}

impl ApiRequest {
    /// The route this request travels on.
    pub fn route(&self) -> &'static str {
        match self {
            ApiRequest::Answer(_) => "/v1/answer",
            ApiRequest::AnswerBatch(_) => "/v1/answer_batch",
            ApiRequest::Explain(_) => "/v1/explain",
            ApiRequest::Retrieve(_) => "/v1/retrieve",
            ApiRequest::Mutate(_) => "/v1/admin/mutate",
            ApiRequest::Replicate(_) => "/v1/admin/replicate",
            ApiRequest::Promote(_) => "/v1/admin/promote",
        }
    }
}

// -------------------------------------------------------------- responses

/// One ranked candidate on the wire: entity by name, score, and (for
/// path reasoners) the best reasoning path behind it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireCandidate {
    pub entity: String,
    pub score: f32,
    #[serde(default)]
    pub evidence: Option<WireEvidence>,
}

/// A reasoning path on the wire: relation names in walk order (inverse
/// traversals carry the `~` prefix).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireEvidence {
    pub path: Vec<String>,
    pub hops: usize,
    pub logp: f32,
}

/// Response of `POST /v1/answer`: the wire twin of [`Answer`].
///
/// `degraded`/`shards_failed` only appear on the wire when a sharded
/// backend lost shards and answered from the survivors (see
/// `docs/robustness.md`); healthy answers serialize exactly as they did
/// before those fields existed.
#[derive(Clone, Debug, PartialEq)]
pub struct WireAnswer {
    pub protocol: String,
    /// The model that answered (resolved registry name).
    pub model: String,
    pub source: String,
    pub relation: String,
    pub coverage: Coverage,
    pub ranked: Vec<WireCandidate>,
    /// True when shards failed and `ranked` is the merged top-k of the
    /// surviving shards only.
    pub degraded: bool,
    /// Indices of the shards that failed (empty when not degraded).
    pub shards_failed: Vec<u64>,
}

// Hand-rolled so the degradation annotations are omitted for healthy
// answers — the common-case body stays byte-identical to the
// pre-degradation wire format.
impl Serialize for WireAnswer {
    fn serialize_value(&self) -> Value {
        let mut fields = vec![
            ("protocol".to_string(), Value::Str(self.protocol.clone())),
            ("model".to_string(), Value::Str(self.model.clone())),
            ("source".to_string(), Value::Str(self.source.clone())),
            ("relation".to_string(), Value::Str(self.relation.clone())),
            ("coverage".to_string(), self.coverage.serialize_value()),
            ("ranked".to_string(), self.ranked.serialize_value()),
        ];
        if self.degraded {
            fields.push(("degraded".to_string(), self.degraded.serialize_value()));
            fields.push((
                "shards_failed".to_string(),
                self.shards_failed.serialize_value(),
            ));
        }
        Value::Object(fields)
    }
}

impl Deserialize for WireAnswer {
    fn deserialize_value(v: &Value) -> Result<Self, serde::DeError> {
        let req = |k: &str| -> Result<&Value, serde::DeError> {
            v.get_field(k)
                .ok_or_else(|| serde::DeError::new(format!("WireAnswer: missing field `{k}`")))
        };
        Ok(WireAnswer {
            protocol: match v.get_field("protocol") {
                Some(p) => String::deserialize_value(p)?,
                None => protocol_version_string(),
            },
            model: String::deserialize_value(req("model")?)?,
            source: String::deserialize_value(req("source")?)?,
            relation: String::deserialize_value(req("relation")?)?,
            coverage: Coverage::deserialize_value(req("coverage")?)?,
            ranked: Vec::deserialize_value(req("ranked")?)?,
            degraded: match v.get_field("degraded") {
                Some(d) => bool::deserialize_value(d)?,
                None => false,
            },
            shards_failed: match v.get_field("shards_failed") {
                Some(s) => Vec::deserialize_value(s)?,
                None => Vec::new(),
            },
        })
    }
}

impl WireAnswer {
    /// Render an in-process [`Answer`] for the wire.
    pub fn from_answer(model: &str, answer: &Answer, names: &NameIndex) -> Self {
        WireAnswer {
            protocol: protocol_version_string(),
            model: model.to_string(),
            source: names.entity_name(answer.query.source),
            relation: names.relation_name(answer.query.relation),
            coverage: answer.coverage,
            ranked: answer
                .ranked
                .iter()
                .map(|c| WireCandidate {
                    entity: names.entity_name(c.entity),
                    score: c.score,
                    evidence: c.evidence.as_ref().map(|e| WireEvidence {
                        path: e
                            .relations
                            .iter()
                            .map(|&r| names.relation_name(r))
                            .collect(),
                        hops: e.hops,
                        logp: e.logp,
                    }),
                })
                .collect(),
            degraded: answer.degraded.is_some(),
            shards_failed: answer
                .degraded
                .as_ref()
                .map(|d| d.shards_failed.iter().map(|&s| s as u64).collect())
                .unwrap_or_default(),
        }
    }
}

/// Response of `POST /v1/answer_batch`: answers in query order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnswerBatchResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    pub model: String,
    pub answers: Vec<WireAnswer>,
}

/// One raw reasoning path of `POST /v1/explain` (unlike
/// [`WireCandidate`], several paths may end at the same entity).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WirePath {
    pub entity: String,
    pub logp: f32,
    pub hops: usize,
    pub path: Vec<String>,
}

/// Response of `POST /v1/explain`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExplainResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    pub model: String,
    pub source: String,
    pub relation: String,
    /// Raw beam paths, descending log-probability.
    pub paths: Vec<WirePath>,
}

impl ExplainResponse {
    /// Render raw beam paths for the wire.
    pub fn from_paths(model: &str, query: &Query, paths: &[BeamPath], names: &NameIndex) -> Self {
        ExplainResponse {
            protocol: protocol_version_string(),
            model: model.to_string(),
            source: names.entity_name(query.source),
            relation: names.relation_name(query.relation),
            paths: paths
                .iter()
                .map(|p| WirePath {
                    entity: names.entity_name(p.entity),
                    logp: p.logp,
                    hops: p.hops,
                    path: p
                        .relations
                        .iter()
                        .map(|&r| names.relation_name(r))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One subgraph entity of `POST /v1/retrieve`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireSubgraphEntity {
    pub entity: String,
    /// Hop distance from the nearest seed (seeds are `0`).
    pub hops: usize,
    pub has_image: bool,
    pub has_text: bool,
}

/// One induced triple of a retrieved subgraph (base orientation).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireTriple {
    pub s: String,
    pub r: String,
    pub o: String,
}

/// The k-hop subgraph of `POST /v1/retrieve`: entities in ascending id
/// order, induced triples in ascending `(s, r, o)` order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireSubgraph {
    pub entities: Vec<WireSubgraphEntity>,
    pub triples: Vec<WireTriple>,
    /// True when `max_entities` (or a fanout cap) dropped candidates.
    pub truncated: bool,
}

/// One reasoning-path context of `POST /v1/retrieve`: a walk from seed
/// `source` to `entity` (relation names in walk order, `~`-prefixed for
/// inverse traversals).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireContextPath {
    pub source: String,
    pub entity: String,
    /// Beam paths carry the model's log-probability; topology fallback
    /// paths carry `-hops`.
    pub score: f32,
    pub hops: usize,
    pub path: Vec<String>,
}

/// Few-shot annotation of `POST /v1/retrieve` (present when the request
/// named a relation).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireFewShot {
    pub relation: String,
    /// Training triples of the relation's base orientation.
    pub train_frequency: u64,
    /// True when the relation falls under the few-shot threshold.
    pub few_shot: bool,
}

/// Response of `POST /v1/retrieve`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetrieveResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    pub model: String,
    /// The request's seeds, echoed in request order.
    pub seeds: Vec<String>,
    pub hops: usize,
    pub subgraph: WireSubgraph,
    /// Selected path contexts, in diversity-rerank selection order.
    pub paths: Vec<WireContextPath>,
    /// Candidate paths the reranker chose from (observability).
    pub paths_considered: u64,
    #[serde(default)]
    pub few_shot: Option<WireFewShot>,
}

impl RetrieveResponse {
    /// Render a typed [`Retrieval`] for the wire.
    pub fn from_retrieval(
        model: &str,
        seeds: &[String],
        hops: usize,
        r: &Retrieval,
        names: &NameIndex,
    ) -> Self {
        RetrieveResponse {
            protocol: protocol_version_string(),
            model: model.to_string(),
            seeds: seeds.to_vec(),
            hops,
            subgraph: WireSubgraph {
                entities: r
                    .subgraph
                    .entities
                    .iter()
                    .map(|e| WireSubgraphEntity {
                        entity: names.entity_name(e.entity),
                        hops: e.hops,
                        has_image: e.has_image,
                        has_text: e.has_text,
                    })
                    .collect(),
                triples: r
                    .subgraph
                    .triples
                    .iter()
                    .map(|t| WireTriple {
                        s: names.entity_name(t.s),
                        r: names.relation_name(t.r),
                        o: names.entity_name(t.o),
                    })
                    .collect(),
                truncated: r.subgraph.truncated,
            },
            paths: r
                .paths
                .iter()
                .map(|p| WireContextPath {
                    source: names.entity_name(p.source),
                    entity: names.entity_name(p.entity),
                    score: p.score,
                    hops: p.hops,
                    path: p
                        .relations
                        .iter()
                        .map(|&x| names.relation_name(x))
                        .collect(),
                })
                .collect(),
            paths_considered: r.paths_considered as u64,
            few_shot: r.few_shot.map(|f| WireFewShot {
                relation: names.relation_name(f.relation),
                train_frequency: f.train_frequency as u64,
                few_shot: f.few_shot,
            }),
        }
    }
}

/// Cache counters on the wire (`GET /v1/models`, `GET /metrics`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCacheStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
}

impl From<CacheStats> for WireCacheStats {
    fn from(s: CacheStats) -> Self {
        WireCacheStats {
            entries: s.entries,
            capacity: s.capacity,
            hits: s.hits,
            misses: s.misses,
        }
    }
}

/// One registry entry in `GET /v1/models`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    pub name: String,
    /// `"path"` (multi-hop, answers carry evidence) or `"kge"`
    /// (exhaustive single-hop scorer).
    pub family: String,
    pub entities: usize,
    /// Base (dataset) relations — inverses and NO_OP excluded.
    pub relations: usize,
    #[serde(default)]
    pub cache: Option<WireCacheStats>,
}

/// Response of `GET /v1/models`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelsResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    pub default_model: String,
    pub models: Vec<ModelInfo>,
}

/// Response of `GET /healthz`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    pub status: String,
    pub models: usize,
}

/// Per-route serving counters in `GET /metrics`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteMetrics {
    pub route: String,
    pub requests: u64,
    pub errors: u64,
    /// Total handling wall time; divide by `requests` for the mean.
    pub latency_ns_total: u64,
}

/// Per-model cache counters in `GET /metrics`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelMetrics {
    pub model: String,
    #[serde(default)]
    pub cache: Option<WireCacheStats>,
}

/// Fault-tolerance counters in `GET /metrics` (all additive fields:
/// older clients parse a body without them as zeros).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessMetrics {
    /// Requests refused with `overloaded` (503) by admission control.
    #[serde(default)]
    pub shed: u64,
    /// Requests that ran out of budget and answered 504.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Answers served from surviving shards after shard failure.
    #[serde(default)]
    pub degraded_answers: u64,
    /// Shard tasks retried after a failure or timeout.
    #[serde(default)]
    pub shard_retries: u64,
    /// Executor threads (batch or shard pool) respawned after a fault
    /// killed them.
    #[serde(default)]
    pub worker_respawns: u64,
    /// Connections dropped with 408 for stalling mid-request.
    #[serde(default)]
    pub request_timeouts: u64,
}

/// `/v1/retrieve` reranker counters in `GET /metrics` (additive fields:
/// older clients parse a body without them as zeros).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrieveMetrics {
    /// Candidate paths the diversity reranker chose from.
    #[serde(default)]
    pub paths_considered: u64,
    /// Paths selected into responses.
    #[serde(default)]
    pub paths_selected: u64,
}

/// Live-mutation counters in `GET /metrics` (additive fields: older
/// clients parse a body without them as zeros; a server without a live
/// store reports all zeros).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationMetrics {
    /// Mutation batches committed (WAL fsync + publish) this boot.
    #[serde(default)]
    pub applied: u64,
    /// Mutation batches replayed from the WAL at boot.
    #[serde(default)]
    pub replayed: u64,
    /// Delta-overlay compactions folded into a fresh snapshot.
    #[serde(default)]
    pub compactions: u64,
    /// Epoch of the currently published graph version.
    #[serde(default)]
    pub epoch: u64,
    /// Published epoch minus the oldest epoch still pinned by an
    /// in-flight reader (0 = no reader lags the writer).
    #[serde(default)]
    pub epoch_lag: u64,
}

/// WAL-shipping replication counters in `GET /metrics` (additive
/// fields: older clients parse a body without them as zeros; a server
/// with no replication role reports the defaults).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationMetrics {
    /// `"primary"`, `"follower"`, or `""` (no replication role).
    #[serde(default)]
    pub role: String,
    /// Frames received from the primary but not yet applied locally
    /// (followers; 0 when caught up).
    #[serde(default)]
    pub follower_lag_seq: u64,
    /// WAL frames this primary has shipped to followers.
    #[serde(default)]
    pub frames_shipped: u64,
    /// Times a follower's tail connection was re-established after a
    /// primary loss.
    #[serde(default)]
    pub reconnects: u64,
}

/// Response of `GET /metrics`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    /// Connections accepted but not yet picked up by a handler thread.
    pub queue_depth: usize,
    pub routes: Vec<RouteMetrics>,
    pub models: Vec<ModelMetrics>,
    /// Fault-tolerance counters (additive to the frozen v1 envelope).
    #[serde(default)]
    pub robustness: RobustnessMetrics,
    /// `/v1/retrieve` reranker counters (additive).
    #[serde(default)]
    pub retrieve: RetrieveMetrics,
    /// Live-mutation counters (additive).
    #[serde(default)]
    pub mutation: MutationMetrics,
    /// WAL-shipping replication counters (additive).
    #[serde(default)]
    pub replication: ReplicationMetrics,
}

/// Response of `POST /v1/admin/mutate`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutateResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    /// Epoch of the graph version this batch published.
    pub epoch: u64,
    /// WAL sequence number the batch committed under.
    pub seq: u64,
    /// Triples actually inserted (idempotent re-inserts excluded).
    pub inserted: u64,
    /// Triples actually deleted (absent deletes excluded).
    pub deleted: u64,
    /// Cached query entries invalidated across all served models.
    pub invalidated: u64,
    /// Whether this batch tripped a compaction (overlay folded into the
    /// CSR and a fresh snapshot written).
    pub compacted: bool,
}

/// Response of `POST /v1/admin/promote`: the follower is now a
/// writable primary, fenced at `seq` — it stopped tailing, and every
/// mutation it accepts commits at or above that watermark, so a
/// resurrected old primary's frames can never interleave.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PromoteResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    /// True when this call flipped the role (false = already primary).
    pub promoted: bool,
    /// The fenced sequence watermark: the next mutation commits here.
    pub seq: u64,
    /// Epoch of the published graph at promotion.
    pub epoch: u64,
}

/// Response of `GET /readyz`. Unlike `/healthz` (liveness — "the
/// process is up"), readiness is "snapshot loaded, WAL replayed,
/// warm-up done": the body travels with 503 + `Retry-After` until the
/// server flips ready.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReadyResponse {
    #[serde(default = "protocol_version_string")]
    pub protocol: String,
    pub ready: bool,
    /// `"ready"` or `"starting"`.
    pub status: String,
    pub models: usize,
}

/// Typed union of every v1 response. Like [`ApiRequest`], the route is
/// the wire tag: success bodies are the bare inner struct, and errors
/// travel as `{"error": {...}}` with the variant's HTTP status.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ApiResponse {
    Answer(WireAnswer),
    AnswerBatch(AnswerBatchResponse),
    Explain(ExplainResponse),
    Retrieve(RetrieveResponse),
    Models(ModelsResponse),
    Health(HealthResponse),
    Metrics(MetricsResponse),
    Mutate(MutateResponse),
    Ready(ReadyResponse),
    Promote(PromoteResponse),
    Error(ApiError),
}

impl ApiResponse {
    /// HTTP status this response travels with.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiResponse::Error(e) => e.http_status(),
            ApiResponse::Ready(r) if !r.ready => 503,
            _ => 200,
        }
    }

    /// The JSON body: the bare payload for successes, `{"error": ...}`
    /// for failures.
    pub fn body(&self) -> String {
        let value = match self {
            ApiResponse::Answer(x) => x.serialize_value(),
            ApiResponse::AnswerBatch(x) => x.serialize_value(),
            ApiResponse::Explain(x) => x.serialize_value(),
            ApiResponse::Retrieve(x) => x.serialize_value(),
            ApiResponse::Models(x) => x.serialize_value(),
            ApiResponse::Health(x) => x.serialize_value(),
            ApiResponse::Metrics(x) => x.serialize_value(),
            ApiResponse::Mutate(x) => x.serialize_value(),
            ApiResponse::Ready(x) => x.serialize_value(),
            ApiResponse::Promote(x) => x.serialize_value(),
            ApiResponse::Error(e) => {
                Value::Object(vec![("error".to_string(), e.serialize_value())])
            }
        };
        serde_json::to_string(&value).expect("value tree renders")
    }
}

// ----------------------------------------------------------------- errors

/// Every way a v1 request can fail, with a stable wire encoding:
///
/// ```json
/// {"code": "unknown_entity", "message": "...", "name": "e999"}
/// ```
///
/// `code` and the variant's extra fields are the machine contract;
/// `message` is advisory prose (regenerated server-side, ignored on
/// parse). Codes are append-only — see the module's version policy.
#[derive(Clone, Debug, PartialEq)]
pub enum ApiError {
    /// The requested model is not in the registry.
    UnknownModel {
        model: String,
        available: Vec<String>,
    },
    /// `source` does not name an entity of the served dataset.
    UnknownEntity { name: String },
    /// `relation` does not name a relation of the served dataset.
    UnknownRelation { name: String },
    /// Unusable beam overrides (`beam: 0` / `steps: 0`) or an empty
    /// batch.
    InvalidBeamParams { detail: String },
    /// Unusable `/v1/retrieve` parameters (no seeds, `hops: 0`, or a
    /// `diversity` weight outside `[0, 1]`).
    InvalidRetrieveParams { detail: String },
    /// Unusable `/v1/admin/mutate` batch: empty (no inserts and no
    /// deletes), an unresolvable entity/relation name, an inverse
    /// (`~`-prefixed) relation, or no live store behind this server.
    /// The whole batch is rejected; nothing was logged or applied.
    InvalidMutation { detail: String },
    /// Body was not valid JSON for the route's request type.
    MalformedRequest { detail: String },
    /// Body exceeds the server's size limit.
    PayloadTooLarge {
        limit_bytes: usize,
        got_bytes: usize,
    },
    /// No route at this path.
    UnknownRoute { path: String },
    /// Route exists, wrong method (`allowed` names the right one).
    MethodNotAllowed { path: String, allowed: String },
    /// The server failed while answering.
    Internal { detail: String },
    /// The request's time budget ran out before an answer was ready.
    DeadlineExceeded { timeout_ms: u64 },
    /// Admission control shed this request; retry after the hinted
    /// backoff (also sent as an HTTP `Retry-After` header).
    Overloaded { retry_after_ms: u64 },
    /// The client stalled mid-request (slow-loris headers or body) and
    /// the connection was dropped.
    RequestTimeout { detail: String },
    /// `/v1/admin/mutate` hit a read-only follower; `primary` names the
    /// address that accepts writes (empty when the primary is down and
    /// no promotion has happened yet).
    NotPrimary { primary: String },
}

impl ApiError {
    /// The stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::UnknownModel { .. } => "unknown_model",
            ApiError::UnknownEntity { .. } => "unknown_entity",
            ApiError::UnknownRelation { .. } => "unknown_relation",
            ApiError::InvalidBeamParams { .. } => "invalid_beam_params",
            ApiError::InvalidRetrieveParams { .. } => "invalid_retrieve_params",
            ApiError::InvalidMutation { .. } => "invalid_mutation",
            ApiError::MalformedRequest { .. } => "malformed_request",
            ApiError::PayloadTooLarge { .. } => "payload_too_large",
            ApiError::UnknownRoute { .. } => "unknown_route",
            ApiError::MethodNotAllowed { .. } => "method_not_allowed",
            ApiError::Internal { .. } => "internal",
            ApiError::DeadlineExceeded { .. } => "deadline_exceeded",
            ApiError::Overloaded { .. } => "overloaded",
            ApiError::RequestTimeout { .. } => "request_timeout",
            ApiError::NotPrimary { .. } => "not_primary",
        }
    }

    /// The HTTP status this error travels with.
    pub fn http_status(&self) -> u16 {
        match self {
            ApiError::UnknownModel { .. }
            | ApiError::UnknownEntity { .. }
            | ApiError::UnknownRelation { .. }
            | ApiError::UnknownRoute { .. } => 404,
            ApiError::InvalidBeamParams { .. }
            | ApiError::InvalidRetrieveParams { .. }
            | ApiError::InvalidMutation { .. }
            | ApiError::MalformedRequest { .. } => 400,
            ApiError::PayloadTooLarge { .. } => 413,
            ApiError::MethodNotAllowed { .. } => 405,
            ApiError::Internal { .. } => 500,
            ApiError::DeadlineExceeded { .. } => 504,
            ApiError::Overloaded { .. } => 503,
            ApiError::RequestTimeout { .. } => 408,
            // Conflict: the request is well-formed but this replica's
            // role refuses it — retry against the named primary.
            ApiError::NotPrimary { .. } => 409,
        }
    }

    /// Extra HTTP headers this error travels with (beyond the fixed
    /// set), as `(name, value)` pairs.
    pub fn extra_headers(&self) -> Vec<(&'static str, String)> {
        match self {
            // Retry-After is whole seconds, rounded up so "come back in
            // 250ms" never renders as "come back now".
            ApiError::Overloaded { retry_after_ms } => vec![(
                "Retry-After",
                retry_after_ms.div_ceil(1000).max(1).to_string(),
            )],
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::UnknownModel { model, available } => {
                write!(
                    f,
                    "unknown model `{model}` (available: {})",
                    available.join(", ")
                )
            }
            ApiError::UnknownEntity { name } => write!(f, "unknown entity `{name}`"),
            ApiError::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            ApiError::InvalidBeamParams { detail } => write!(f, "invalid beam params: {detail}"),
            ApiError::InvalidRetrieveParams { detail } => {
                write!(f, "invalid retrieve params: {detail}")
            }
            ApiError::InvalidMutation { detail } => write!(f, "invalid mutation: {detail}"),
            ApiError::MalformedRequest { detail } => write!(f, "malformed request: {detail}"),
            ApiError::PayloadTooLarge {
                limit_bytes,
                got_bytes,
            } => write!(
                f,
                "body of {got_bytes} bytes exceeds the {limit_bytes}-byte limit"
            ),
            ApiError::UnknownRoute { path } => write!(f, "no route at `{path}`"),
            ApiError::MethodNotAllowed { path, allowed } => {
                write!(f, "method not allowed at `{path}` (use {allowed})")
            }
            ApiError::Internal { detail } => write!(f, "internal error: {detail}"),
            ApiError::DeadlineExceeded { timeout_ms } => {
                write!(
                    f,
                    "deadline of {timeout_ms}ms exceeded before an answer was ready"
                )
            }
            ApiError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            ApiError::RequestTimeout { detail } => write!(f, "request timed out: {detail}"),
            ApiError::NotPrimary { primary } => {
                if primary.is_empty() {
                    write!(f, "this replica is a read-only follower (primary unknown)")
                } else {
                    write!(
                        f,
                        "this replica is a read-only follower; mutate the primary at {primary}"
                    )
                }
            }
        }
    }
}

impl std::error::Error for ApiError {}

// The flat `{"code": ..., fields...}` wire shape is hand-rolled: the
// derive would emit the externally-tagged `{"UnknownModel": {...}}`
// form, which is a worse contract for non-Rust clients.
impl Serialize for ApiError {
    fn serialize_value(&self) -> Value {
        fn str_field(k: &str, v: &str) -> (String, Value) {
            (k.to_string(), Value::Str(v.to_string()))
        }
        let mut fields: Vec<(String, Value)> = vec![
            str_field("code", self.code()),
            str_field("message", &self.to_string()),
        ];
        match self {
            ApiError::UnknownModel { model, available } => {
                fields.push(str_field("model", model));
                fields.push((
                    "available".to_string(),
                    Value::Array(available.iter().map(|m| Value::Str(m.clone())).collect()),
                ));
            }
            ApiError::UnknownEntity { name } | ApiError::UnknownRelation { name } => {
                fields.push(str_field("name", name))
            }
            ApiError::InvalidBeamParams { detail }
            | ApiError::InvalidRetrieveParams { detail }
            | ApiError::InvalidMutation { detail }
            | ApiError::MalformedRequest { detail }
            | ApiError::Internal { detail } => fields.push(str_field("detail", detail)),
            ApiError::PayloadTooLarge {
                limit_bytes,
                got_bytes,
            } => {
                fields.push(("limit_bytes".to_string(), Value::U64(*limit_bytes as u64)));
                fields.push(("got_bytes".to_string(), Value::U64(*got_bytes as u64)));
            }
            ApiError::UnknownRoute { path } => fields.push(str_field("path", path)),
            ApiError::MethodNotAllowed { path, allowed } => {
                fields.push(str_field("path", path));
                fields.push(str_field("allowed", allowed));
            }
            ApiError::DeadlineExceeded { timeout_ms } => {
                fields.push(("timeout_ms".to_string(), Value::U64(*timeout_ms)));
            }
            ApiError::Overloaded { retry_after_ms } => {
                fields.push(("retry_after_ms".to_string(), Value::U64(*retry_after_ms)));
            }
            ApiError::RequestTimeout { detail } => fields.push(str_field("detail", detail)),
            ApiError::NotPrimary { primary } => fields.push(str_field("primary", primary)),
        }
        Value::Object(fields)
    }
}

impl Deserialize for ApiError {
    fn deserialize_value(v: &Value) -> Result<Self, serde::DeError> {
        let field = |k: &str| -> Result<String, serde::DeError> {
            v.get_field(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| serde::DeError::new(format!("ApiError: missing field `{k}`")))
        };
        let code = field("code")?;
        Ok(match code.as_str() {
            "unknown_model" => ApiError::UnknownModel {
                model: field("model")?,
                available: match v.get_field("available") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|m| {
                            m.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| serde::DeError::expected("model name string", m))
                        })
                        .collect::<Result<_, _>>()?,
                    _ => Vec::new(),
                },
            },
            "unknown_entity" => ApiError::UnknownEntity {
                name: field("name")?,
            },
            "unknown_relation" => ApiError::UnknownRelation {
                name: field("name")?,
            },
            "invalid_beam_params" => ApiError::InvalidBeamParams {
                detail: field("detail")?,
            },
            "invalid_retrieve_params" => ApiError::InvalidRetrieveParams {
                detail: field("detail")?,
            },
            "invalid_mutation" => ApiError::InvalidMutation {
                detail: field("detail")?,
            },
            "malformed_request" => ApiError::MalformedRequest {
                detail: field("detail")?,
            },
            "payload_too_large" => {
                let num = |k: &str| -> Result<usize, serde::DeError> {
                    v.get_field(k)
                        .and_then(Value::as_u64)
                        .map(|n| n as usize)
                        .ok_or_else(|| {
                            serde::DeError::new(format!("ApiError: missing field `{k}`"))
                        })
                };
                ApiError::PayloadTooLarge {
                    limit_bytes: num("limit_bytes")?,
                    got_bytes: num("got_bytes")?,
                }
            }
            "unknown_route" => ApiError::UnknownRoute {
                path: field("path")?,
            },
            "method_not_allowed" => ApiError::MethodNotAllowed {
                path: field("path")?,
                allowed: field("allowed")?,
            },
            "internal" => ApiError::Internal {
                detail: field("detail")?,
            },
            "deadline_exceeded" => ApiError::DeadlineExceeded {
                timeout_ms: v
                    .get_field("timeout_ms")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| serde::DeError::new("ApiError: missing field `timeout_ms`"))?,
            },
            "overloaded" => ApiError::Overloaded {
                retry_after_ms: v
                    .get_field("retry_after_ms")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| {
                        serde::DeError::new("ApiError: missing field `retry_after_ms`")
                    })?,
            },
            "request_timeout" => ApiError::RequestTimeout {
                detail: field("detail")?,
            },
            "not_primary" => ApiError::NotPrimary {
                primary: field("primary")?,
            },
            other => {
                return Err(serde::DeError::new(format!(
                    "ApiError: unknown code `{other}`"
                )))
            }
        })
    }
}

// ------------------------------------------------------------- name index

/// Bidirectional entity/relation name ↔ dense-id mapping for one served
/// dataset: the server half of name-based query resolution.
///
/// Relation names cover the **base** relations; the synthetic inverse of
/// base relation `x` is addressed as `~x` (and rendered the same way in
/// evidence paths), so head queries need no extra id space on the wire.
#[derive(Clone, Debug)]
pub struct NameIndex {
    entities: Vec<String>,
    entity_ids: HashMap<String, u32>,
    relations: Vec<String>,
    relation_ids: HashMap<String, u32>,
    rs: RelationSpace,
}

impl NameIndex {
    /// Build from explicit name tables (e.g. a TSV [`Vocab`]'s
    /// `entities`/`relations`, or any external symbol table).
    ///
    /// [`Vocab`]: mmkgr_kg::io::Vocab
    pub fn new(entities: Vec<String>, relations: Vec<String>) -> Self {
        let entity_ids = entities
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let relation_ids = relations
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let rs = RelationSpace::new(relations.len());
        NameIndex {
            entities,
            entity_ids,
            relations,
            relation_ids,
            rs,
        }
    }

    /// Build from a TSV-interned [`Vocab`](mmkgr_kg::io::Vocab): the
    /// adoption path for real datasets, where `load_split_dir` assigns
    /// dense ids in file order and this index must agree with them.
    pub fn from_vocab(vocab: &mmkgr_kg::io::Vocab) -> Self {
        Self::new(vocab.entities.clone(), vocab.relations.clone())
    }

    /// The synthetic-dataset convention: entities `e0..`, base relations
    /// `r0..` — matching `mmkgr generate`'s TSV export.
    pub fn synthetic(num_entities: usize, num_base_relations: usize) -> Self {
        Self::new(
            (0..num_entities).map(|e| format!("e{e}")).collect(),
            (0..num_base_relations).map(|r| format!("r{r}")).collect(),
        )
    }

    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    pub fn relation_space(&self) -> RelationSpace {
        self.rs
    }

    /// Resolve an entity name.
    pub fn resolve_entity(&self, name: &str) -> Result<EntityId, ApiError> {
        self.entity_ids
            .get(name)
            .map(|&id| EntityId(id))
            .ok_or_else(|| ApiError::UnknownEntity {
                name: name.to_string(),
            })
    }

    /// Resolve a relation name; `~name` resolves to the synthetic
    /// inverse of base relation `name`.
    pub fn resolve_relation(&self, name: &str) -> Result<RelationId, ApiError> {
        let (base_name, inverse) = match name.strip_prefix('~') {
            Some(rest) => (rest, true),
            None => (name, false),
        };
        let base = self
            .relation_ids
            .get(base_name)
            .map(|&id| RelationId(id))
            .ok_or_else(|| ApiError::UnknownRelation {
                name: name.to_string(),
            })?;
        Ok(if inverse { self.rs.inverse(base) } else { base })
    }

    /// Render an entity id (falls back to the `e{id}` convention for ids
    /// beyond the table — never panics on server data).
    pub fn entity_name(&self, e: EntityId) -> String {
        self.entities
            .get(e.index())
            .cloned()
            .unwrap_or_else(|| format!("e{}", e.0))
    }

    /// Render a relation id: base relations by name, inverses as
    /// `~name`, the NO_OP as `~stay~` (it never appears in evidence).
    pub fn relation_name(&self, r: RelationId) -> String {
        if r == self.rs.no_op() {
            return "~stay~".to_string();
        }
        let (base, prefix) = if self.rs.is_inverse(r) {
            (self.rs.inverse(r), "~")
        } else {
            (r, "")
        };
        match self.relations.get(base.index()) {
            Some(name) => format!("{prefix}{name}"),
            None => format!("{prefix}r{}", base.0),
        }
    }

    /// Resolve a full wire query against this index, validating beam
    /// overrides (zero width/steps are unusable and rejected here with a
    /// typed error, long before the beam engine could choke on them).
    pub fn resolve_query(&self, q: &NamedQuery) -> Result<Query, ApiError> {
        if q.beam == Some(0) {
            return Err(ApiError::InvalidBeamParams {
                detail: "beam must be at least 1".to_string(),
            });
        }
        if q.steps == Some(0) {
            return Err(ApiError::InvalidBeamParams {
                detail: "steps must be at least 1".to_string(),
            });
        }
        Ok(Query {
            source: self.resolve_entity(&q.source)?,
            relation: self.resolve_relation(&q.relation)?,
            top_k: q.top_k,
            beam: q.beam,
            steps: q.steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> NameIndex {
        NameIndex::synthetic(5, 3)
    }

    /// Intern a symbolic TSV through the real dataset reader and check
    /// that `from_vocab` agrees with the reader's id assignment — the
    /// contract real WN18/FB15k-style datasets rely on.
    #[test]
    fn from_vocab_agrees_with_tsv_interning() {
        use mmkgr_kg::io::{read_triples, Vocab};

        let path = std::env::temp_dir().join(format!(
            "mmkgr_vocab_{}_from_vocab_agrees_with_tsv_interning.tsv",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "tokyo\tcapital_of\tjapan\njapan\tneighbor_of\tkorea\n",
        )
        .unwrap();
        let mut vocab = Vocab::default();
        let triples = read_triples(&path, &mut vocab).unwrap();
        std::fs::remove_file(&path).ok();

        let idx = NameIndex::from_vocab(&vocab);
        assert_eq!(idx.num_entities(), 3);
        // Every interned symbol resolves to the id the reader assigned,
        // and renders back to the same name.
        for name in &vocab.entities {
            let id = idx.resolve_entity(name).unwrap();
            assert_eq!(id.0, vocab.lookup_entity(name).unwrap());
            assert_eq!(idx.entity_name(id), *name);
        }
        for name in &vocab.relations {
            let id = idx.resolve_relation(name).unwrap();
            assert_eq!(id.0, vocab.lookup_relation(name).unwrap());
            assert_eq!(idx.relation_name(id), *name);
        }
        // The parsed triples speak the same id space.
        let t = &triples[0];
        assert_eq!(idx.entity_name(t.s), "tokyo");
        assert_eq!(idx.relation_name(t.r), "capital_of");
        assert_eq!(idx.entity_name(t.o), "japan");
    }

    #[test]
    fn from_vocab_handles_inverses_and_unknowns() {
        use mmkgr_kg::io::Vocab;

        let vocab = Vocab::from_tables(
            vec!["tokyo".into(), "japan".into()],
            vec!["capital_of".into()],
        );
        let idx = NameIndex::from_vocab(&vocab);

        // `~name` addresses the synthetic inverse, and renders back as `~name`.
        let base = idx.resolve_relation("capital_of").unwrap();
        let inv = idx.resolve_relation("~capital_of").unwrap();
        assert_eq!(inv, idx.relation_space().inverse(base));
        assert_eq!(idx.relation_name(inv), "~capital_of");

        // Unknown symbols are typed errors, not panics.
        assert!(matches!(
            idx.resolve_entity("osaka"),
            Err(ApiError::UnknownEntity { .. })
        ));
        assert!(matches!(
            idx.resolve_relation("borders"),
            Err(ApiError::UnknownRelation { .. })
        ));
        assert!(matches!(
            idx.resolve_relation("~borders"),
            Err(ApiError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn named_query_defaults_match_in_process_defaults() {
        let q: NamedQuery = serde_json::from_str(r#"{"source": "e1", "relation": "r0"}"#).unwrap();
        assert_eq!(q.top_k, Query::DEFAULT_TOP_K);
        assert_eq!(q.beam, None);
        assert_eq!(q.steps, None);
    }

    #[test]
    fn requests_roundtrip() {
        let req = ApiRequest::Answer(AnswerRequest {
            model: Some("MMKGR".to_string()),
            query: NamedQuery::new("e1", "r2").with_top_k(3).with_beam(8),
        });
        let s = serde_json::to_string(&req).unwrap();
        assert_eq!(serde_json::from_str::<ApiRequest>(&s).unwrap(), req);

        let batch = ApiRequest::AnswerBatch(AnswerBatchRequest {
            model: None,
            queries: vec![NamedQuery::new("e0", "~r1"), NamedQuery::new("e2", "r0")],
        });
        let s = serde_json::to_string(&batch).unwrap();
        assert_eq!(serde_json::from_str::<ApiRequest>(&s).unwrap(), batch);

        let explain = ApiRequest::Explain(ExplainRequest {
            model: None,
            query: NamedQuery::new("e4", "r1").with_steps(2),
        });
        let s = serde_json::to_string(&explain).unwrap();
        assert_eq!(serde_json::from_str::<ApiRequest>(&s).unwrap(), explain);

        let retrieve = ApiRequest::Retrieve(
            RetrieveRequest::new(["e1", "e4"])
                .with_relation("r0")
                .with_hops(3)
                .with_max_entities(32)
                .with_max_paths(4)
                .with_diversity(0.5),
        );
        assert_eq!(retrieve.route(), "/v1/retrieve");
        let s = serde_json::to_string(&retrieve).unwrap();
        assert_eq!(serde_json::from_str::<ApiRequest>(&s).unwrap(), retrieve);
    }

    #[test]
    fn retrieve_request_defaults() {
        let req: RetrieveRequest = serde_json::from_str(r#"{"seeds": ["e1"]}"#).unwrap();
        assert_eq!(req.seeds, vec!["e1".to_string()]);
        assert_eq!(req.model, None);
        assert_eq!(req.relation, None);
        assert_eq!(req.hops, RetrieveRequest::DEFAULT_HOPS);
        assert_eq!(req.max_entities, RetrieveRequest::DEFAULT_MAX_ENTITIES);
        assert_eq!(req.max_paths, RetrieveRequest::DEFAULT_MAX_PATHS);
        assert_eq!(req.diversity, 0.0);
        assert_eq!(req.timeout_ms, None);
    }

    #[test]
    fn retrieve_responses_roundtrip() {
        let resp = ApiResponse::Retrieve(RetrieveResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            model: "MMKGR".to_string(),
            seeds: vec!["e1".to_string()],
            hops: 2,
            subgraph: WireSubgraph {
                entities: vec![
                    WireSubgraphEntity {
                        entity: "e1".to_string(),
                        hops: 0,
                        has_image: true,
                        has_text: true,
                    },
                    WireSubgraphEntity {
                        entity: "e2".to_string(),
                        hops: 1,
                        has_image: false,
                        has_text: true,
                    },
                ],
                triples: vec![WireTriple {
                    s: "e1".to_string(),
                    r: "r0".to_string(),
                    o: "e2".to_string(),
                }],
                truncated: false,
            },
            paths: vec![WireContextPath {
                source: "e1".to_string(),
                entity: "e2".to_string(),
                score: -0.5,
                hops: 1,
                path: vec!["r0".to_string()],
            }],
            paths_considered: 3,
            few_shot: Some(WireFewShot {
                relation: "r0".to_string(),
                train_frequency: 4,
                few_shot: true,
            }),
        });
        let s = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<ApiResponse>(&s).unwrap(), resp);
        assert_eq!(resp.http_status(), 200);
        assert!(resp.body().contains("\"subgraph\""));
        assert!(resp.body().contains("\"truncated\""));
    }

    #[test]
    fn responses_roundtrip() {
        let resp = ApiResponse::Answer(WireAnswer {
            protocol: PROTOCOL_VERSION.to_string(),
            model: "MMKGR".to_string(),
            source: "e1".to_string(),
            relation: "r2".to_string(),
            coverage: Coverage::Reached,
            ranked: vec![WireCandidate {
                entity: "e3".to_string(),
                score: -1.25,
                evidence: Some(WireEvidence {
                    path: vec!["r2".to_string(), "~r0".to_string()],
                    hops: 2,
                    logp: -1.25,
                }),
            }],
            degraded: false,
            shards_failed: vec![],
        });
        let s = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<ApiResponse>(&s).unwrap(), resp);
        assert_eq!(resp.http_status(), 200);
        assert!(resp.body().contains("\"ranked\""));
        // healthy answers never mention degradation on the wire
        assert!(!resp.body().contains("degraded"));
        assert!(!resp.body().contains("shards_failed"));
    }

    #[test]
    fn degraded_answers_roundtrip_with_annotations() {
        let resp = ApiResponse::Answer(WireAnswer {
            protocol: PROTOCOL_VERSION.to_string(),
            model: "ConvE".to_string(),
            source: "e1".to_string(),
            relation: "r2".to_string(),
            coverage: Coverage::Reached,
            ranked: vec![],
            degraded: true,
            shards_failed: vec![2],
        });
        let s = serde_json::to_string(&resp).unwrap();
        assert!(s.contains("\"degraded\""));
        assert!(s.contains("\"shards_failed\""));
        assert_eq!(serde_json::from_str::<ApiResponse>(&s).unwrap(), resp);
    }

    #[test]
    fn named_query_timeout_defaults_to_none() {
        let q: NamedQuery = serde_json::from_str(r#"{"source": "e1", "relation": "r0"}"#).unwrap();
        assert_eq!(q.timeout_ms, None);
        let q: NamedQuery =
            serde_json::from_str(r#"{"source": "e1", "relation": "r0", "timeout_ms": 250}"#)
                .unwrap();
        assert_eq!(q.timeout_ms, Some(250));
    }

    #[test]
    fn api_errors_roundtrip_with_flat_codes() {
        let cases = vec![
            ApiError::UnknownModel {
                model: "GPT".to_string(),
                available: vec!["MMKGR".to_string(), "ConvE".to_string()],
            },
            ApiError::UnknownEntity {
                name: "e999".to_string(),
            },
            ApiError::UnknownRelation {
                name: "~r77".to_string(),
            },
            ApiError::InvalidBeamParams {
                detail: "beam must be at least 1".to_string(),
            },
            ApiError::InvalidRetrieveParams {
                detail: "seeds must not be empty".to_string(),
            },
            ApiError::InvalidMutation {
                detail: "mutation batch is empty".to_string(),
            },
            ApiError::MalformedRequest {
                detail: "expected object".to_string(),
            },
            ApiError::PayloadTooLarge {
                limit_bytes: 4 << 20,
                got_bytes: 9_000_000,
            },
            ApiError::UnknownRoute {
                path: "/v2/answer".to_string(),
            },
            ApiError::MethodNotAllowed {
                path: "/v1/answer".to_string(),
                allowed: "POST".to_string(),
            },
            ApiError::Internal {
                detail: "worker died".to_string(),
            },
            ApiError::DeadlineExceeded { timeout_ms: 250 },
            ApiError::Overloaded {
                retry_after_ms: 500,
            },
            ApiError::RequestTimeout {
                detail: "headers stalled".to_string(),
            },
            ApiError::NotPrimary {
                primary: "127.0.0.1:7070".to_string(),
            },
        ];
        for e in cases {
            let s = serde_json::to_string(&e).unwrap();
            assert!(
                s.contains(&format!("\"code\": \"{}\"", e.code()))
                    || s.contains(&format!("\"code\":\"{}\"", e.code())),
                "flat code field on the wire: {s}"
            );
            let back: ApiError = serde_json::from_str(&s).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn error_statuses_follow_the_contract() {
        assert_eq!(
            ApiError::UnknownEntity { name: "x".into() }.http_status(),
            404
        );
        assert_eq!(
            ApiError::MalformedRequest { detail: "x".into() }.http_status(),
            400
        );
        assert_eq!(
            ApiError::MethodNotAllowed {
                path: "/v1/answer".into(),
                allowed: "POST".into()
            }
            .http_status(),
            405
        );
        assert_eq!(ApiError::Internal { detail: "x".into() }.http_status(), 500);
        assert_eq!(
            ApiError::PayloadTooLarge {
                limit_bytes: 1,
                got_bytes: 2
            }
            .http_status(),
            413
        );
        let err = ApiResponse::Error(ApiError::UnknownRoute {
            path: "/nope".into(),
        });
        assert_eq!(err.http_status(), 404);
        assert!(err.body().starts_with("{\"error\":"));

        assert_eq!(
            ApiError::DeadlineExceeded { timeout_ms: 1 }.http_status(),
            504
        );
        assert_eq!(
            ApiError::Overloaded { retry_after_ms: 1 }.http_status(),
            503
        );
        assert_eq!(
            ApiError::RequestTimeout { detail: "x".into() }.http_status(),
            408
        );
        // overload responses hint a whole-second Retry-After, rounded up
        let overloaded = ApiError::Overloaded {
            retry_after_ms: 250,
        };
        assert_eq!(
            overloaded.extra_headers(),
            vec![("Retry-After", "1".to_string())]
        );
        assert!(ApiError::DeadlineExceeded { timeout_ms: 1 }
            .extra_headers()
            .is_empty());
        assert_eq!(
            ApiError::InvalidMutation { detail: "x".into() }.http_status(),
            400
        );
        assert_eq!(
            ApiError::NotPrimary {
                primary: "127.0.0.1:7070".into()
            }
            .http_status(),
            409
        );
    }

    #[test]
    fn replication_wire_shapes_roundtrip() {
        // tail requests default from_seq to 0
        let req: ReplicateRequest = serde_json::from_str(r#"{"mode": "tail"}"#).unwrap();
        assert_eq!(req.mode, "tail");
        assert_eq!(req.from_seq, 0);
        let built = ReplicateRequest {
            mode: "tail".to_string(),
            from_seq: 42,
        };
        let back: ReplicateRequest =
            serde_json::from_str(&serde_json::to_string(&built).unwrap()).unwrap();
        assert_eq!(back, built);

        let resp = ApiResponse::Promote(PromoteResponse {
            protocol: protocol_version_string(),
            promoted: true,
            seq: 17,
            epoch: 9,
        });
        assert_eq!(resp.http_status(), 200);
        let body: PromoteResponse = serde_json::from_str(&resp.body()).unwrap();
        assert!(body.promoted);
        assert_eq!(body.seq, 17);

        // pre-replication /metrics bodies (no `replication` key) parse
        // with an empty role and zero counters
        let m: MetricsResponse = serde_json::from_str(
            r#"{"protocol": "v1", "queue_depth": 0, "routes": [], "models": []}"#,
        )
        .unwrap();
        assert_eq!(m.replication, ReplicationMetrics::default());
        assert_eq!(m.replication.role, "");
    }

    #[test]
    fn mutate_wire_shapes_roundtrip() {
        // sparse request bodies default the missing arm to empty
        let req: MutateRequest = serde_json::from_str(
            r#"{"insert": [{"s": "e1", "r": "r0", "o": "e2"}], "timeout_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(req.insert.len(), 1);
        assert!(req.delete.is_empty());
        assert_eq!(req.timeout_ms, Some(250));

        let built = MutateRequest::new()
            .with_insert("e1", "r0", "e2")
            .with_delete("e3", "r1", "e4");
        let back: MutateRequest =
            serde_json::from_str(&serde_json::to_string(&built).unwrap()).unwrap();
        assert_eq!(back, built);

        let resp = ApiResponse::Mutate(MutateResponse {
            protocol: protocol_version_string(),
            epoch: 3,
            seq: 7,
            inserted: 1,
            deleted: 1,
            invalidated: 2,
            compacted: false,
        });
        assert_eq!(resp.http_status(), 200);
        let body: MutateResponse = serde_json::from_str(&resp.body()).unwrap();
        assert_eq!(body.epoch, 3);
        assert_eq!(body.seq, 7);
    }

    #[test]
    fn readiness_travels_503_until_ready() {
        let starting = ApiResponse::Ready(ReadyResponse {
            protocol: protocol_version_string(),
            ready: false,
            status: "starting".to_string(),
            models: 0,
        });
        assert_eq!(starting.http_status(), 503);
        let ready = ApiResponse::Ready(ReadyResponse {
            protocol: protocol_version_string(),
            ready: true,
            status: "ready".to_string(),
            models: 2,
        });
        assert_eq!(ready.http_status(), 200);
        let body: ReadyResponse = serde_json::from_str(&ready.body()).unwrap();
        assert!(body.ready);
    }

    #[test]
    fn metrics_without_mutation_block_parse_as_zeros() {
        // pre-mutation /metrics bodies (no `mutation` key) stay parseable
        let m: MetricsResponse = serde_json::from_str(
            r#"{"protocol": "v1", "queue_depth": 0, "routes": [], "models": []}"#,
        )
        .unwrap();
        assert_eq!(m.mutation, MutationMetrics::default());
        assert_eq!(m.mutation.applied, 0);
    }

    #[test]
    fn name_index_resolves_both_directions() {
        let idx = index();
        assert_eq!(idx.resolve_entity("e3").unwrap(), EntityId(3));
        assert_eq!(idx.resolve_relation("r1").unwrap(), RelationId(1));
        // `~` addresses the synthetic inverse.
        let rs = idx.relation_space();
        assert_eq!(
            idx.resolve_relation("~r1").unwrap(),
            rs.inverse(RelationId(1))
        );
        assert_eq!(idx.relation_name(rs.inverse(RelationId(1))), "~r1");
        assert_eq!(idx.entity_name(EntityId(3)), "e3");
        assert_eq!(idx.relation_name(RelationId(1)), "r1");

        assert_eq!(
            idx.resolve_entity("e99"),
            Err(ApiError::UnknownEntity { name: "e99".into() })
        );
        assert_eq!(
            idx.resolve_relation("nope"),
            Err(ApiError::UnknownRelation {
                name: "nope".into()
            })
        );
        assert_eq!(
            idx.resolve_relation("~nope"),
            Err(ApiError::UnknownRelation {
                name: "~nope".into()
            })
        );
    }

    #[test]
    fn resolve_query_validates_beam_params() {
        let idx = index();
        let q = idx
            .resolve_query(&NamedQuery::new("e2", "~r0").with_top_k(0).with_beam(16))
            .unwrap();
        assert_eq!(q.source, EntityId(2));
        assert_eq!(q.relation, idx.relation_space().inverse(RelationId(0)));
        assert_eq!(q.top_k, 0);
        assert_eq!(q.beam, Some(16));

        let zero_beam = idx.resolve_query(&NamedQuery::new("e2", "r0").with_beam(0));
        assert!(matches!(zero_beam, Err(ApiError::InvalidBeamParams { .. })));
        let zero_steps = idx.resolve_query(&NamedQuery::new("e2", "r0").with_steps(0));
        assert!(matches!(
            zero_steps,
            Err(ApiError::InvalidBeamParams { .. })
        ));
    }

    #[test]
    fn custom_vocab_names_resolve() {
        let idx = NameIndex::new(
            vec!["paris".into(), "france".into()],
            vec!["capital_of".into()],
        );
        assert_eq!(idx.resolve_entity("paris").unwrap(), EntityId(0));
        assert_eq!(idx.resolve_relation("capital_of").unwrap(), RelationId(0));
        assert_eq!(
            idx.relation_name(idx.relation_space().inverse(RelationId(0))),
            "~capital_of"
        );
    }
}
