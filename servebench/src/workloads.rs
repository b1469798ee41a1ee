//! The four workloads and the run that drives one of them.
//!
//! Every run follows the same plan against a live primary with one
//! follower, so every end-to-end metric is measured on every workload:
//!
//! 1. prepare inputs from the seed (untimed);
//! 2. boot the stack `SETUPS` times (set-up time is the median), keep the
//!    last one;
//! 3. warm up, then check HTTP answers against an in-process cache-off
//!    (or unsharded) recomputation;
//! 4. run `ROUNDS` rounds of these phases, each phase for its share of
//!    `--seconds / ROUNDS`:
//!    - `main`: open loop at the workload's fixed rates;
//!    - `closed`: `nproc` closed-loop `/v1/answer` clients;
//!    - `batch`: one closed-loop `/v1/answer_batch` client;
//!    - `churn`: open-loop retrieves and single-triple writes
//!      (`live-mixed` has none: its main phase already carries them);
//!    - `writers`: `nproc` closed-loop writers, for a fixed batch count;
//!
//!    and every `COMPACT_ROUNDS` rounds compact both nodes (on
//!    `live-mixed` the primary's compaction runs halfway through that
//!    round's main phase, under load);
//! 5. check every acknowledged write on both nodes, and that the two
//!    nodes serve byte-identical retrievals;
//! 6. traced runs only: time each layer's public calls in process.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmkgr_core::serve::protocol::{AnswerRequest, ApiResponse};
use mmkgr_core::serve::{KgReasoner, ModelRegistry, PolicyReasoner, ServeConfig};
use mmkgr_core::BeamConfig;
use mmkgr_eval::snapshot::load_registry_snapshot;
use mmkgr_kg::Triple;

use crate::inputs::{prepare, Smoke, Tier, HOT_SET};
use crate::loadgen::{
    arrivals, closed_loop, open_loop, send, Closed, Job, LagSampler, Op, Outcome,
};
use crate::metrics::{RunResult, END_TO_END, PER_LAYER, UNBOUNDED};
use crate::probes::{self, answer_body};
use crate::stack::{self, Stack, StackSpec};
use crate::trace::{durations, Tracer};
use crate::util::{median, percentile, rss_mb, tcp_active_opens, Rng, RunDir, Zipf};
use crate::Args;

/// Open-loop offered rates, per second.
#[derive(Clone, Copy, Debug)]
pub struct Rates {
    pub answer: f64,
    pub retrieve: f64,
    pub mutate: f64,
}

/// Which `(source, relation)` pairs the answers ask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Zipf(1.1) over 64 fixed pairs: far below the frontier-cache
    /// capacity, so after warm-up nearly every answer is a hit.
    Hot,
    /// Every answer a pair not asked before in the run: no hits.
    Cold,
    /// Uniform over the scale tier's test queries.
    Scale,
}

pub struct Workload {
    pub name: &'static str,
    pub tier: Tier,
    pub mix: Mix,
    pub main: Rates,
    pub churn: Rates,
    /// Shares of `--seconds`: main, closed, batch, churn, writers.
    pub shares: [f64; 5],
    /// The primary's compaction of every `COMPACT_ROUNDS`-th round runs
    /// halfway through that round's main phase, under load, rather than
    /// at the round's end.
    pub compact_mid_main: bool,
}

/// Offered rates are fixed once and never derived per run: at a tenth
/// to a third of what a 2-core VM sustains closed loop when quiet. On a
/// shared VM the whole box slows by up to 2x for minutes at a time, and
/// an open loop run nearer capacity then queues, which multiplies the
/// slowdown in every latency.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "answer-hot",
        tier: Tier::Fb,
        mix: Mix::Hot,
        main: Rates {
            answer: 1000.0,
            retrieve: 0.0,
            mutate: 0.0,
        },
        churn: Rates {
            answer: 0.0,
            retrieve: 100.0,
            mutate: 200.0,
        },
        shares: [0.35, 0.15, 0.10, 0.25, 0.15],
        compact_mid_main: false,
    },
    Workload {
        name: "answer-cold",
        tier: Tier::Fb,
        mix: Mix::Cold,
        main: Rates {
            answer: 150.0,
            retrieve: 0.0,
            mutate: 0.0,
        },
        churn: Rates {
            answer: 0.0,
            retrieve: 100.0,
            mutate: 200.0,
        },
        shares: [0.35, 0.15, 0.10, 0.25, 0.15],
        compact_mid_main: false,
    },
    Workload {
        name: "live-mixed",
        tier: Tier::Fb,
        mix: Mix::Hot,
        main: Rates {
            answer: 300.0,
            retrieve: 50.0,
            mutate: 200.0,
        },
        churn: Rates {
            answer: 0.0,
            retrieve: 0.0,
            mutate: 0.0,
        },
        shares: [0.60, 0.15, 0.10, 0.0, 0.15],
        compact_mid_main: true,
    },
    Workload {
        name: "scale-scorer",
        tier: Tier::Million,
        mix: Mix::Scale,
        main: Rates {
            answer: 20.0,
            retrieve: 0.0,
            mutate: 0.0,
        },
        churn: Rates {
            answer: 0.0,
            retrieve: 100.0,
            mutate: 200.0,
        },
        shares: [0.30, 0.30, 0.15, 0.15, 0.10],
        compact_mid_main: false,
    },
];

/// Boots per run; set-up time is their median. Each boot decodes the
/// MMKGR checkpoint on both nodes (~3.5 s on the FB tier on a 2-core
/// Xeon VM), so more boots would not fit the run-time budget.
const SETUPS: usize = 2;
/// The phases run this many times in turn, each for its share of
/// `--seconds` over `ROUNDS`, so that every metric samples the whole run
/// rather than one stretch of it (a shared VM's speed drifts by tens of
/// percent over seconds).
const ROUNDS: usize = 16;
/// Both nodes compact after every this many rounds. A compaction
/// rewrites the whole snapshot, model checkpoint included (~0.25 s per
/// node on the FB tier on a 2-core Xeon VM).
const COMPACT_ROUNDS: usize = 4;
/// Closed-loop writer batches per second of the writers' share.
const WRITER_SIZING: f64 = 1500.0;
/// Queries per `/v1/answer_batch` call.
const BATCH: usize = 32;
/// Answers and retrievals compared byte for byte per run.
const CHECK_SAMPLE: usize = 32;
/// The frontier cache capacity (`mmkgr serve`'s default).
const CACHE: usize = 1024;

/// The run's request bodies, all drawn from the seed.
struct Traffic<'a> {
    mix: Mix,
    pairs: &'a [(u32, u32)],
    zipf: Zipf,
    cursor: AtomicUsize,
    wrapped: AtomicBool,
    inserts: &'a [Triple],
    next_insert: AtomicUsize,
}

impl Traffic<'_> {
    fn pair(&self, rng: &mut Rng) -> (u32, u32) {
        match self.mix {
            Mix::Hot => self.pairs[self.zipf.sample(rng)],
            Mix::Cold => {
                let i = self.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= self.pairs.len() {
                    self.wrapped.store(true, Ordering::Relaxed);
                }
                self.pairs[i % self.pairs.len()]
            }
            Mix::Scale => self.pairs[rng.below(self.pairs.len())],
        }
    }

    fn answer(&self, rng: &mut Rng) -> String {
        let (s, r) = self.pair(rng);
        answer_body(s, r)
    }

    fn batch(&self, rng: &mut Rng) -> String {
        let queries: Vec<String> = (0..BATCH)
            .map(|_| {
                let (s, r) = self.pair(rng);
                format!(
                    r#"{{"source": "e{s}", "relation": "r{r}", "top_k": {}, "beam": {}, "steps": {}}}"#,
                    probes::TOP_K,
                    probes::BEAM,
                    probes::STEPS
                )
            })
            .collect();
        format!(r#"{{"queries": [{}]}}"#, queries.join(", "))
    }

    /// Retrieval seeds are uniform over the pool whatever the mix.
    fn retrieve(&self, rng: &mut Rng) -> String {
        let (s, r) = self.pairs[rng.below(self.pairs.len())];
        format!(
            r#"{{"seeds": ["e{s}"], "relation": "r{r}", "hops": 2, "max_entities": 64, "max_paths": 8, "diversity": 0.25}}"#
        )
    }

    /// The next never-written triple, tagged with its index.
    fn mutate(&self) -> (String, usize) {
        let i = self.next_insert.fetch_add(1, Ordering::Relaxed);
        let t = self.inserts[i % self.inserts.len()];
        (
            format!(
                r#"{{"insert": [{{"s": "e{}", "r": "r{}", "o": "e{}"}}]}}"#,
                t.s.0, t.r.0, t.o.0
            ),
            i,
        )
    }
}

/// Requests attempted and failed, over every phase.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, outcomes: &[Outcome]) {
        self.attempted += outcomes.len();
        self.failed += outcomes.iter().filter(|o| !o.ok()).count();
    }

    fn one(&mut self, status: u16) {
        self.attempted += 1;
        self.failed += usize::from(status != 200);
    }
}

fn latencies(outcomes: &[Outcome], op: Op) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.op == op && o.ok())
        .map(Outcome::latency_ms)
        .collect()
}

/// Peak resident memory, sampled on a thread of its own.
struct RssWatch {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

impl RssWatch {
    fn start() -> RssWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_mb();
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(rss_mb());
                std::thread::sleep(Duration::from_millis(20));
            }
            peak.max(rss_mb())
        });
        RssWatch { stop, handle }
    }

    fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss watcher")
    }
}

/// p50 as the median of the rounds' own p50s: a neighbour's burst that
/// slows a few rounds moves the median round little, where it would
/// shift a p50 pooled over the run. p99 over every round's samples
/// pooled, so that it rests on a hundredth of the run's samples rather
/// than of one round's.
fn p50_p99(rounds: &[Vec<f64>]) -> (f64, f64) {
    let mut p50s: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| percentile(&mut r.clone(), 0.5))
        .collect();
    let mut all: Vec<f64> = rounds.concat();
    (median(&mut p50s), percentile(&mut all, 0.99))
}

fn metric_name(op: &str, stat: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(UNBOUNDED)
        .map(|&(n, _)| n)
        .find(|n| *n == format!("{op}_{stat}_ms"))
        .expect("a latency metric of the table")
}

/// The open-loop jobs of one phase: Poisson streams of each op.
fn schedule(traffic: &Traffic, rates: Rates, span: Duration, rng: &Rng) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut bodies = rng.fork(1);
    for (k, (op, rate)) in [
        (Op::Answer, rates.answer),
        (Op::Retrieve, rates.retrieve),
        (Op::Mutate, rates.mutate),
    ]
    .into_iter()
    .enumerate()
    {
        for due in arrivals(&mut rng.fork(10 + k as u64), rate, span) {
            let (body, tag) = match op {
                Op::Answer => (traffic.answer(&mut bodies), 0),
                Op::Retrieve => (traffic.retrieve(&mut bodies), 0),
                _ => traffic.mutate(),
            };
            jobs.push(Job { due, op, body, tag });
        }
    }
    jobs.sort_by_key(|j| j.due);
    jobs
}

/// What an open-loop phase with writes leaves behind.
#[derive(Default)]
struct Writes {
    /// Per open-loop phase with writes: lag from acknowledgement to
    /// follower apply, ms.
    lag_ms: Vec<Vec<f64>>,
    lag_seq: Vec<u64>,
    resolution_us: Vec<f64>,
    /// Tags (insert indices) of acknowledged writes.
    acked: Vec<usize>,
    /// Wall time of each compaction of the primary, ms.
    compact_ms: Vec<f64>,
}

/// How long the follower may take to reach the primary's head before
/// the run fails.
const CATCH_UP: Duration = Duration::from_secs(10);

/// Compact the primary once the follower holds every committed frame,
/// and return how long the compaction took (ms). The wait is there
/// because of a defect in `replication::ship_tail`: a compaction that
/// truncates the WAL before the shipper has read its last committed
/// frames strands the follower for good (`wal gap under tail`). Frames
/// committed between the wait and the truncation can still be lost that
/// way; the run then fails at the next catch-up check.
fn compact_primary(stack: &Stack) -> Result<Option<f64>, String> {
    stack.await_follower(CATCH_UP)?;
    let t = Instant::now();
    let folded = stack.primary.live.compact().map_err(|e| e.to_string())?;
    Ok(folded.then(|| crate::util::ms(t.elapsed())))
}

/// Run one open-loop phase, watching follower lag when it writes.
fn open_phase(
    stack: &Stack,
    jobs: &[Job],
    nproc: usize,
    tracer: &Tracer,
    req_base: u64,
    compact_mid: bool,
    writes: &mut Writes,
) -> Result<Vec<Outcome>, String> {
    let watch = jobs.iter().any(|j| j.op == Op::Mutate);
    let sampler = watch.then(|| {
        LagSampler::start(
            Arc::clone(&stack.primary.live),
            Arc::clone(&stack.follower.live),
        )
    });
    let span = jobs.last().map_or(Duration::ZERO, |j| j.due);
    let outcomes = std::thread::scope(|s| {
        let compactor = compact_mid.then(|| {
            s.spawn(move || {
                std::thread::sleep(span / 2);
                compact_primary(stack)
            })
        });
        let outcomes = open_loop(stack.primary.addr, jobs, nproc, tracer, req_base);
        if let Some(c) = compactor {
            writes
                .compact_ms
                .extend(c.join().expect("compactor thread")?);
        }
        Ok::<_, String>(outcomes)
    })?;
    if let Some(sampler) = sampler {
        let caught_up = stack.await_follower(CATCH_UP);
        let trace = sampler.finish();
        caught_up?;
        let acks: Vec<(u64, Instant)> = outcomes
            .iter()
            .filter(|o| o.op == Op::Mutate)
            .filter_map(|o| o.seq.map(|s| (s, o.acked)))
            .collect();
        writes
            .lag_ms
            .push(trace.lags_ms(&acks).into_iter().flatten().collect());
        writes.lag_seq.extend(trace.lag_seq);
        writes
            .resolution_us
            .push(trace.resolution.as_secs_f64() * 1e6);
    }
    writes.acked.extend(
        outcomes
            .iter()
            .filter(|o| o.op == Op::Mutate && o.ok())
            .map(|o| o.tag),
    );
    Ok(outcomes)
}

/// Source digest of the program under test: FNV-1a over the sorted
/// paths and bytes of every file under `crates/`, `src/`, `servebench/src`
/// and the manifests. It identifies the code where no git metadata is
/// present.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src", "servebench/src"] {
        walk(Path::new(d), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "servebench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    format!("{host} ({cpu})").replace('"', "'")
}

/// The stamp every result carries: which code, which box, which inputs.
fn stamp(w: &Workload, args: &Args, nproc: usize) -> String {
    format!(
        r#"{{"stamp": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "commit": "{}", "source_digest": "{}", "machine": "{}", "nproc": {nproc}, "rates": {{"main": {:?}, "churn": {:?}}}, "setups": {SETUPS}, "rounds": {ROUNDS}, "batch": {BATCH}, "compact_mid_main": {}, "compact_rounds": {COMPACT_ROUNDS}}}}}"#,
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        source_digest(),
        machine(),
        [w.main.answer, w.main.retrieve, w.main.mutate],
        [w.churn.answer, w.churn.retrieve, w.churn.mutate],
        w.compact_mid_main,
    )
}

/// HTTP answer bodies must equal, byte for byte, what `reference`
/// renders in process for the same requests.
fn answers_match(
    stack: &Stack,
    reference: &ModelRegistry,
    pairs: &[(u32, u32)],
    tally: &mut Tally,
) -> bool {
    pairs.iter().all(|&(s, r)| {
        let body = answer_body(s, r);
        let (status, got) = send(stack.primary.addr, "POST", "/v1/answer", &body);
        tally.one(status);
        let want = serde_json::from_str::<AnswerRequest>(&body)
            .ok()
            .and_then(|req| reference.answer(&req).ok())
            .map(|w| ApiResponse::Answer(w).body());
        let same = status == 200 && want.as_deref() == Some(got.as_str());
        if !same {
            eprintln!("answer mismatch for e{s} r{r}: HTTP {status} {got}");
        }
        same
    })
}

/// Every acknowledged write is on both nodes, both report the same
/// committed seq, and both serve byte-identical retrievals.
fn replicas_agree(
    stack: &Stack,
    traffic: &Traffic,
    acked: &[usize],
    rng: &mut Rng,
    tally: &mut Tally,
) -> bool {
    if let Err(e) = stack.await_follower(CATCH_UP) {
        eprintln!("{e}");
        return false;
    }
    let (p, f) = (stack.primary.live.pin(), stack.follower.live.pin());
    let seq_same = stack.primary.live.committed_seq() == stack.follower.live.committed_seq();
    let missing = acked
        .iter()
        .map(|&i| traffic.inserts[i % traffic.inserts.len()])
        .filter(|t| !p.has_edge(t.s, t.r, t.o) || !f.has_edge(t.s, t.r, t.o))
        .count();
    if missing > 0 || !seq_same {
        eprintln!("{missing} acknowledged write(s) missing; committed seq equal: {seq_same}");
    }
    let bodies_same = (0..CHECK_SAMPLE).all(|_| {
        let body = traffic.retrieve(rng);
        let (sa, a) = send(stack.primary.addr, "POST", "/v1/retrieve", &body);
        let (sb, b) = send(stack.follower.addr, "POST", "/v1/retrieve", &body);
        tally.one(sa);
        tally.one(sb);
        let same = sa == 200 && sb == 200 && a == b;
        if !same {
            eprintln!("retrieve differs between primary and follower for {body}");
        }
        same
    });
    missing == 0 && seq_same && bodies_same
}

/// Batches the closed-loop writers commit per round: a fixed count,
/// sized at `WRITER_SIZING` per second of the phase's share, not a fixed
/// time. Every apply copies the graph's delta overlay, which grows until
/// compaction, so a time-bounded phase would feed its own speed into the
/// state that every later phase reads.
fn writer_batches(w: &Workload, seconds: f64) -> usize {
    (WRITER_SIZING * w.shares[4] * seconds / ROUNDS as f64).ceil() as usize
}

fn inserts_needed(w: &Workload, seconds: f64) -> usize {
    let open = (w.main.mutate + w.churn.mutate) * seconds;
    // Poisson counts stray above the mean; probes write a few hundred.
    (open * 1.5) as usize + writer_batches(w, seconds) * ROUNDS + 2000
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new(args.trace);
    let run_dir = RunDir::create(Path::new(".servebench")).map_err(|e| e.to_string())?;
    // The server's default beam is the shape every answer asks for, so
    // retrievals (which take the default) walk the same beam.
    let serve = ServeConfig {
        beam_width: probes::BEAM,
        max_steps: probes::STEPS,
        ..ServeConfig::default()
    }
    .with_cache(CACHE);
    let spec = StackSpec {
        serve,
        // Folding a 200 MB snapshot takes seconds, more than a run has:
        // on the scale tier the overlay grows for the whole run.
        compact: w.tier == Tier::Fb,
        // The scorer tier is range-sharded over the cores; a policy is
        // served by one `PolicyReasoner`.
        shards: if w.tier == Tier::Million { nproc } else { 1 },
    };
    let t = Instant::now();
    let inputs = prepare(
        w.tier,
        args.seed,
        Smoke(args.smoke),
        serve,
        run_dir.path(),
        inserts_needed(w, args.seconds),
    )?;
    let stamp = stamp(w, args, nproc);
    println!("{stamp}");
    println!(
        "prepared {} entities, {} query pairs, snapshot {} bytes in {:.1} s",
        inputs.entities,
        inputs.pairs.len(),
        inputs.snapshot_bytes,
        t.elapsed().as_secs_f64()
    );
    let rng = Rng::new(args.seed).fork(0x5E);
    let rss = RssWatch::start();

    // ---- set-up
    let mut setup_s = Vec::new();
    let mut fetch_ms = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let s = stack::boot(
            &spec,
            &inputs.snapshot,
            &stack::setup_dir(run_dir.path(), i),
        )?;
        setup_s.push(s.setup.as_secs_f64());
        fetch_ms.push(s.fetch_ms);
        if i + 1 < SETUPS {
            s.shutdown();
        } else {
            kept = Some(s);
        }
    }
    let stack = kept.expect("at least one set-up");
    let traffic = Traffic {
        mix: w.mix,
        pairs: if w.mix == Mix::Hot {
            &inputs.hot
        } else {
            &inputs.pairs
        },
        zipf: Zipf::new(inputs.hot.len(), 1.1),
        cursor: AtomicUsize::new(0),
        wrapped: AtomicBool::new(false),
        inserts: &inputs.inserts,
        next_insert: AtomicUsize::new(0),
    };

    // The in-process reference, compared before any write lands: the
    // policy the input snapshot was written from, with the cache off, on
    // the primary's graph (so a checkpoint that does not round-trip shows
    // too); or the scorer booted unsharded from the input by the
    // program's read-only loader.
    let mut policy_ref = None;
    let reference = match inputs.model {
        Some(model) => {
            let r = Arc::new(
                PolicyReasoner::try_new_live(
                    "MMKGR",
                    model,
                    stack.primary.live.handle(),
                    ServeConfig {
                        cache_capacity: 0,
                        ..serve
                    },
                )
                .map_err(|e| e.to_string())?,
            );
            let names = stack.primary.registry.names().clone();
            let mut reg = ModelRegistry::new(names);
            reg.register(Arc::clone(&r) as Arc<dyn KgReasoner + Send + Sync>);
            policy_ref = Some(r);
            reg
        }
        None => {
            load_registry_snapshot(&inputs.snapshot, Some(serve), 1)
                .map_err(|e| format!("reference boot: {e}"))?
                .registry
        }
    };
    let scorer_ref: Option<Arc<dyn KgReasoner + Send + Sync>> = match policy_ref {
        Some(_) => None,
        None => Some(Arc::clone(
            reference.get(None).map_err(|e| format!("{e:?}"))?.1,
        )),
    };

    let mut tally = Tally::default();
    let mut correct = true;
    let beam_cfg = BeamConfig {
        width: probes::BEAM,
        steps: probes::STEPS,
        dedup: serve.beam_dedup,
    };

    // ---- warm-up: every hot pair once (fills the cache), else a few.
    {
        let mut wrng = rng.fork(2);
        let warm = if w.mix == Mix::Hot { HOT_SET } else { 16 };
        for i in 0..warm {
            let body = if w.mix == Mix::Hot {
                let (s, r) = traffic.pairs[i % traffic.pairs.len()];
                answer_body(s, r)
            } else {
                traffic.answer(&mut wrng)
            };
            tally.one(send(stack.primary.addr, "POST", "/v1/answer", &body).0);
        }
        for _ in 0..2 {
            tally.one(
                send(
                    stack.primary.addr,
                    "POST",
                    "/v1/retrieve",
                    &traffic.retrieve(&mut wrng),
                )
                .0,
            );
        }
    }

    // ---- output checks on answers, before any write.
    {
        let mut crng = rng.fork(3);
        let sample: Vec<(u32, u32)> = (0..CHECK_SAMPLE).map(|_| traffic.pair(&mut crng)).collect();
        if !answers_match(&stack, &reference, &sample, &mut tally) {
            correct = false;
        }
        if let Some(r) = &policy_ref {
            if !probes::wrapped_engine_matches(
                r.policy(),
                &stack.primary.live.pin(),
                &beam_cfg,
                &sample[..8],
            ) {
                eprintln!("wrapped beam engine diverged from the plain one");
                correct = false;
            }
        }
    }

    let shares = w.shares;
    let slice = |f: f64| Duration::from_secs_f64(f * args.seconds / ROUNDS as f64);
    let mut writes = Writes::default();
    let (mut main, mut churn) = (Vec::new(), Vec::new());
    let (mut closed, mut batch, mut writers) =
        (Closed::default(), Closed::default(), Closed::default());
    let (mut hits, mut misses) = (0u64, 0u64);
    let answer_make = |r: &mut Rng| (traffic.answer(r), 0);
    let batch_make = |r: &mut Rng| (traffic.batch(r), 0);
    let write_make = |_: &mut Rng| traffic.mutate();
    for round in 0..ROUNDS {
        let rr = rng.fork(100 + round as u64);
        let base = |phase: u64| (phase << 48) | ((round as u64) << 40);
        let compact_round = (round + 1) % COMPACT_ROUNDS == 0;
        if w.mix == Mix::Hot && round > 0 {
            // Writes of the previous round invalidated hot entries.
            for &(s, r) in traffic.pairs {
                tally.one(send(stack.primary.addr, "POST", "/v1/answer", &answer_body(s, r)).0);
            }
        }
        let before = stack.primary.reasoner.cache_stats();
        let jobs = schedule(&traffic, w.main, slice(shares[0]), &rr.fork(4));
        main.push(open_phase(
            &stack,
            &jobs,
            nproc,
            &tracer,
            base(1),
            w.compact_mid_main && compact_round,
            &mut writes,
        )?);
        closed.merge(closed_loop(
            stack.primary.addr,
            Op::Answer,
            &answer_make,
            &rr.fork(5),
            nproc,
            slice(shares[1]),
            usize::MAX,
            &tracer,
            base(2),
        ));
        batch.merge(closed_loop(
            stack.primary.addr,
            Op::Batch,
            &batch_make,
            &rr.fork(6),
            1,
            slice(shares[2]),
            usize::MAX,
            &tracer,
            base(3),
        ));
        if let (Some(a), Some(b)) = (before, stack.primary.reasoner.cache_stats()) {
            hits += b.hits - a.hits;
            misses += b.misses - a.misses;
        }
        if shares[3] > 0.0 {
            let jobs = schedule(&traffic, w.churn, slice(shares[3]), &rr.fork(7));
            churn.push(open_phase(
                &stack,
                &jobs,
                nproc,
                &tracer,
                base(4),
                false,
                &mut writes,
            )?);
        }
        writers.merge(closed_loop(
            stack.primary.addr,
            Op::Mutate,
            &write_make,
            &rr.fork(8),
            nproc,
            slice(shares[4]) * 10,
            writer_batches(w, args.seconds),
            &tracer,
            base(5),
        ));
        // Both nodes fold every few rounds, so the overlay that every apply
        // copies never holds more than those rounds' writes (no-op on the
        // scale tier, which has no rewrite hook).
        if compact_round {
            if !w.compact_mid_main {
                writes.compact_ms.extend(compact_primary(&stack)?);
            }
            stack.follower.live.compact().map_err(|e| e.to_string())?;
        }
    }
    let main: Vec<Vec<Outcome>> = main;
    let churn: Vec<Vec<Outcome>> = churn;
    for outcomes in main.iter().chain(&churn) {
        tally.add(outcomes);
    }
    for outcomes in [&closed.outcomes, &batch.outcomes, &writers.outcomes] {
        tally.add(outcomes);
    }
    writes
        .acked
        .extend(writers.outcomes.iter().filter(|o| o.ok()).map(|o| o.tag));

    if !replicas_agree(
        &stack,
        &traffic,
        &writes.acked,
        &mut rng.fork(9),
        &mut tally,
    ) {
        correct = false;
    }
    if traffic.wrapped.load(Ordering::Relaxed) {
        eprintln!("warning: the cold query pool wrapped around; later answers could hit");
    }

    // ---- end-to-end metrics
    let open: Vec<&Outcome> = main.iter().chain(&churn).flatten().collect();
    // Per round, the latencies of `op` from the open-loop phase that
    // carries it (main if it does, else churn).
    let rounds_of = |op: Op| -> Vec<Vec<f64>> {
        let m: Vec<Vec<f64>> = main.iter().map(|r| latencies(r, op)).collect();
        if m.iter().any(|v| !v.is_empty()) {
            m
        } else {
            churn.iter().map(|r| latencies(r, op)).collect()
        }
    };
    let (answers, retrieves, mutates) = (
        rounds_of(Op::Answer),
        rounds_of(Op::Retrieve),
        rounds_of(Op::Mutate),
    );
    let mut e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e.insert("setup_s", median(&mut setup_s.clone()));
    for (name, rounds) in [
        ("answer", &answers),
        ("retrieve", &retrieves),
        ("mutate", &mutates),
        ("follower_lag", &writes.lag_ms),
    ] {
        let (p50, p99) = p50_p99(rounds);
        e.insert(metric_name(name, "p50"), p50);
        e.insert(metric_name(name, "p99"), p99);
    }
    e.insert("answer_qps", closed.median_rate());
    e.insert("batch_qps", batch.median_rate() * BATCH as f64);
    e.insert("mutate_batches_per_s", writers.median_rate());

    let count = |r: &[Vec<f64>]| r.iter().map(Vec::len).sum::<usize>();
    let rounded = |v: &[f64]| v.iter().map(|x| x.round()).collect::<Vec<_>>();
    println!(
        "per round: answer/s {:?}, batch queries/s {:?}, setups {:?} s",
        rounded(&closed.rates),
        rounded(
            &batch
                .rates
                .iter()
                .map(|r| r * BATCH as f64)
                .collect::<Vec<_>>()
        ),
        setup_s
    );
    println!(
        "samples: {} answers, {} retrieves, {} mutates, {} lags (resolution {:.0} us)",
        count(&answers),
        count(&retrieves),
        count(&mutates),
        count(&writes.lag_ms),
        median(&mut writes.resolution_us.clone())
    );

    // ---- per-layer metrics (traced runs)
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    if tracer.on() {
        let budget = Duration::from_secs_f64(0.05 * args.seconds).max(Duration::from_millis(300));
        let mut prng = rng.fork(11);
        let mut next = || traffic.pair(&mut prng);
        let resp_bytes = probes::answer_path(
            &tracer,
            stack.primary.addr,
            &stack.primary.registry,
            &*stack.primary.reasoner,
            &mut next,
            budget,
        )?;
        let beam = policy_ref.as_ref().map(|r| {
            probes::beam_runs(
                &tracer,
                r.policy(),
                &stack.primary.live.pin(),
                &beam_cfg,
                &mut next,
                budget,
            )
        });
        probes::pool_batches(
            &tracer,
            Arc::clone(&stack.primary.reasoner),
            BATCH,
            &mut next,
            budget,
        );
        if let Some(s) = &scorer_ref {
            probes::scorer_answers(&tracer, &**s, &mut next, budget);
        }
        let retriever = stack
            .primary
            .registry
            .retriever()
            .ok_or("primary has no retriever")?;
        let mut rrng = rng.fork(12);
        let mut seeds = || traffic.pairs[rrng.below(traffic.pairs.len())];
        let rc = probes::retrieve_path(
            &tracer,
            retriever,
            &*stack.primary.reasoner,
            &mut seeds,
            budget,
        );
        let mut fresh = || traffic.inserts[traffic.mutate().1 % traffic.inserts.len()];
        probes::write_path(
            &tracer,
            stack.primary.live.pin(),
            run_dir.path(),
            &mut fresh,
            budget,
        )?;
        probes::healthz(&tracer, stack.primary.addr, budget);
        probes::snapshot_read(&tracer, &inputs.snapshot)?;

        // Tracing overhead: the same closed loop of answers with spans
        // off and on, in alternation. The connections those requests
        // opened give the connects per request.
        let untraced = Tracer::new(false);
        let (mut lat_off, mut lat_on) = (Vec::new(), Vec::new());
        let opens = tcp_active_opens();
        let mut sent = 0usize;
        for k in 0..4u64 {
            for (t, lat) in [(&untraced, &mut lat_off), (&tracer, &mut lat_on)] {
                let c = closed_loop(
                    stack.primary.addr,
                    Op::Answer,
                    &answer_make,
                    &rng.fork(20 + k),
                    nproc,
                    budget / 4,
                    usize::MAX,
                    t,
                    6 << 48,
                );
                tally.add(&c.outcomes);
                sent += c.outcomes.len();
                lat.extend(
                    c.outcomes
                        .iter()
                        .filter(|o| o.ok())
                        .map(|o| o.latency_ms() * 1e3),
                );
            }
        }
        let connects = match (opens, tcp_active_opens()) {
            (Some(a), Some(b)) => (b - a) as f64 / sent.max(1) as f64,
            _ => return Err("cannot read TCP counters from /proc/net/snmp".into()),
        };

        let d = durations(&tracer.spans());
        let med = |name: &str, own: bool| -> f64 {
            let mut v: Vec<f64> = d
                .get(name)
                .map(|v| {
                    v.iter()
                        .map(|&(dur, s)| if own { s } else { dur })
                        .collect()
                })
                .unwrap_or_default();
            median(&mut v)
        };
        let is_policy = policy_ref.is_some();
        let serve_us = med(
            if is_policy {
                "serve.answer"
            } else {
                "sharded.answer"
            },
            false,
        );
        let (decode, registry, encode) = (
            med("protocol.decode", false),
            med("registry.answer", false),
            med("protocol.encode", false),
        );
        let wire = med("http.request", false) - decode - registry - encode;
        layers.insert("http.healthz_rtt_us", med("http.healthz", false));
        layers.insert("http.wire_us", wire);
        layers.insert("http.connects_per_req", connects);
        layers.insert("protocol.decode_us", decode);
        layers.insert("protocol.encode_us", encode);
        layers.insert("protocol.resp_bytes", resp_bytes);
        layers.insert("registry.answer_us", registry);
        layers.insert("registry.self_us", registry - serve_us);
        layers.insert("serve.answer_us", if is_policy { serve_us } else { 0.0 });
        layers.insert(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.insert(
            "pool.batch_us_per_query",
            med("pool.batch", false) / BATCH as f64,
        );
        match &beam {
            Some(b) => {
                let runs = b.runs.max(1) as f64;
                layers.insert("beam.run_us", med("beam.run", false));
                layers.insert("beam.self_us", med("beam.run", true));
                layers.insert("beam.edges_scanned", b.edges as f64 / runs);
                layers.insert("beam.frontier_len", b.frontier as f64 / runs);
                layers.insert("policy.forward_us", median(&mut b.forward_us.clone()));
                layers.insert("policy.calls", b.calls as f64 / runs);
                layers.insert(
                    "policy.rows_per_call",
                    b.rows as f64 / b.calls.max(1) as f64,
                );
            }
            None => {
                for k in [
                    "beam.run_us",
                    "beam.self_us",
                    "beam.edges_scanned",
                    "beam.frontier_len",
                    "policy.forward_us",
                    "policy.calls",
                    "policy.rows_per_call",
                ] {
                    layers.insert(k, 0.0);
                }
            }
        }
        let retrieve_total = med("retrieve.total", false);
        layers.insert("retrieve.total_us", retrieve_total);
        layers.insert("retrieve.subgraph_us", med("retrieve.subgraph", false));
        layers.insert("retrieve.mmr_us", med("retrieve.mmr", false));
        layers.insert("retrieve.entities", rc.entities);
        layers.insert("retrieve.paths", rc.paths);
        let apply = med("mutation.apply", false);
        layers.insert("mutation.apply_us", apply);
        layers.insert("wal.append_us", med("wal.append", false));
        layers.insert("wal.sync_us", med("wal.sync", false));
        layers.insert("mutation.compact_ms", median(&mut writes.compact_ms));
        layers.insert(
            "mutation.compactions",
            stack.primary.live.compactions() as f64,
        );
        layers.insert("mutation.epoch_lag", stack.primary.live.epoch_lag() as f64);
        layers.insert("replication.bootstrap_ms", median(&mut fetch_ms));
        let mut lag_seq: Vec<f64> = writes.lag_seq.iter().map(|&s| s as f64).collect();
        layers.insert("replication.lag_seq", percentile(&mut lag_seq, 0.99));
        layers.insert(
            "replication.lag_sample_us",
            median(&mut writes.resolution_us.clone()),
        );
        layers.insert(
            "replication.frames_shipped",
            stack.primary.rep.metrics().frames_shipped as f64,
        );
        layers.insert(
            "replication.reconnects",
            stack.follower.rep.metrics().reconnects as f64,
        );
        layers.insert("snapshot.open_ms", med("snapshot.open", false) / 1e3);
        layers.insert("snapshot.graph_ms", med("snapshot.graph", false) / 1e3);
        layers.insert("snapshot.crc_ms", med("snapshot.crc", false) / 1e3);
        layers.insert("snapshot.bytes", inputs.snapshot_bytes as f64);
        layers.insert("sharded.answer_us", if is_policy { 0.0 } else { serve_us });
        layers.insert("scorer.answer_us", med("scorer.answer", false));
        let mut late: Vec<f64> = open.iter().map(|o| o.late_ms()).collect();
        layers.insert("loadgen.late_p99_ms", percentile(&mut late, 0.99));
        layers.insert("loadgen.sent", open.len() as f64);
        layers.insert(
            "loadgen.failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        let answer_layers = wire + decode + (registry - serve_us) + serve_us + encode;
        layers.insert(
            "trace.answer_remainder_ms",
            e["answer_p50_ms"] - answer_layers / 1e3,
        );
        layers.insert(
            "trace.retrieve_remainder_ms",
            e["retrieve_p50_ms"] - retrieve_total / 1e3,
        );
        layers.insert(
            "trace.mutate_remainder_ms",
            e["mutate_p50_ms"] - apply / 1e3,
        );
        layers.insert(
            "trace.overhead_us",
            median(&mut lat_on) - median(&mut lat_off),
        );
        layers.insert("trace.span_cost_us", probes::span_cost_us());
        report_self_times(&d);
        let file = Path::new(".servebench").join("traces").join(format!(
            "{}-seed{}-{}.jsonl",
            w.name,
            args.seed,
            run_dir
                .path()
                .file_name()
                .map_or("run".into(), |n| n.to_string_lossy())
        ));
        tracer
            .write_jsonl(&file, &stamp)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!("spans written to {}", file.display());
    }

    stack.shutdown();
    drop(reference);
    e.insert("rss_mb", rss.finish());

    let (table, values) = if tracer.on() {
        for &(name, _) in UNBOUNDED {
            layers.insert(name, e[name]);
        }
        ([UNBOUNDED, PER_LAYER].concat(), &layers)
    } else {
        (END_TO_END.to_vec(), &e)
    };
    for (name, unit) in &table {
        println!(
            "{name:<32} {:>14.4} {unit}",
            values.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    if !tracer.on() {
        for (name, unit) in UNBOUNDED {
            println!("{name:<32} {:>14.4} {unit} (no bound)", e[name]);
        }
    }
    RunResult::new(correct, tally.attempted, tally.failed, &table, values)
}

/// Median duration and self time of every span name, for the log.
fn report_self_times(d: &HashMap<&'static str, Vec<(f64, f64)>>) {
    let mut names: Vec<_> = d.keys().copied().collect();
    names.sort_unstable();
    println!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "median_us", "self_us"
    );
    for name in names {
        let v = &d[name];
        let mut dur: Vec<f64> = v.iter().map(|x| x.0).collect();
        let mut own: Vec<f64> = v.iter().map(|x| x.1).collect();
        println!(
            "{name:<24} {:>8} {:>12.2} {:>12.2}",
            v.len(),
            median(&mut dur),
            median(&mut own)
        );
    }
}
