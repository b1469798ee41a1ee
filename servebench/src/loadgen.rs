//! Load generation against the server's loopback address.
//!
//! Every request goes through the repository's own HTTP client helper
//! (`serve::http::request_with_retries` with no retries, so a 503 is
//! counted, not hidden). The helper opens one connection per request.
//! At most `nproc` client threads run, each with one connection in
//! flight.
//!
//! - **Open loop**: a schedule of jobs, each due at a fixed offset from
//!   the phase start (Poisson arrivals from the seed). A request is timed
//!   from when it was due, so a stall also charges the requests queued
//!   behind it; how late the generator sent is reported separately.
//! - **Closed loop**: each client sends its next request when the
//!   previous one returns, for a fixed duration.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmkgr_core::serve::http::request_with_retries;
use mmkgr_core::serve::protocol::MutateResponse;
use mmkgr_core::serve::LiveGraphStore;

use crate::trace::Tracer;
use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Answer,
    Batch,
    Retrieve,
    Mutate,
}

impl Op {
    pub fn path(self) -> &'static str {
        match self {
            Op::Answer => "/v1/answer",
            Op::Batch => "/v1/answer_batch",
            Op::Retrieve => "/v1/retrieve",
            Op::Mutate => "/v1/admin/mutate",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Op::Answer => "http.answer",
            Op::Batch => "http.batch",
            Op::Retrieve => "http.retrieve",
            Op::Mutate => "http.mutate",
        }
    }
}

pub struct Job {
    pub due: Duration,
    pub op: Op,
    pub body: String,
    /// Caller's tag, handed back on the outcome.
    pub tag: usize,
}

/// One finished request.
pub struct Outcome {
    pub op: Op,
    /// Due, sent and done, as offsets from the phase start.
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// The WAL seq a successful mutation was acknowledged at.
    pub seq: Option<u64>,
    /// When the acknowledgement arrived.
    pub acked: Instant,
    pub tag: usize,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// One request; `(status, body)` with status 0 for a transport error.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    request_with_retries(addr, method, path, body, 0).unwrap_or_else(|e| (0, e.to_string()))
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    addr: SocketAddr,
    op: Op,
    body: &str,
    tag: usize,
    start: Instant,
    due: Duration,
    tracer: &Tracer,
    req: u64,
) -> Outcome {
    let sent_at = Instant::now();
    let (status, resp) = send(addr, "POST", op.path(), body);
    let done_at = Instant::now();
    tracer.record(op.span(), sent_at, done_at, None, req);
    let seq = (op == Op::Mutate && status == 200)
        .then(|| {
            serde_json::from_str::<MutateResponse>(&resp)
                .ok()
                .map(|m| m.seq)
        })
        .flatten();
    Outcome {
        op,
        due,
        sent: sent_at - start,
        done: done_at - start,
        status,
        seq,
        acked: done_at,
        tag,
    }
}

/// Poisson arrivals of `rate`/s over `span`, as due offsets.
pub fn arrivals(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let mut t = rng.exp_gap(rate);
    while t < span {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

/// Run `jobs` (sorted by due time) open loop on `threads` clients.
pub fn open_loop(
    addr: SocketAddr,
    jobs: &[Job],
    threads: usize,
    tracer: &Tracer,
    req_base: u64,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let due_at = start + job.due;
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    mine.push(run_one(
                        addr,
                        job.op,
                        &job.body,
                        job.tag,
                        start,
                        job.due,
                        tracer,
                        req_base + i as u64,
                    ));
                }
                results.lock().expect("results poisoned").extend(mine);
            });
        }
    });
    results.into_inner().expect("results poisoned")
}

#[derive(Default)]
pub struct Closed {
    pub ok: usize,
    pub elapsed: Duration,
    pub outcomes: Vec<Outcome>,
    /// Completions per second of each stretch folded in by `merge`.
    pub rates: Vec<f64>,
}

impl Closed {
    /// Fold another stretch of the same closed loop into this one.
    pub fn merge(&mut self, other: Closed) {
        self.rates.push(other.per_second());
        self.ok += other.ok;
        self.elapsed += other.elapsed;
        self.outcomes.extend(other.outcomes);
    }

    pub fn per_second(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// The median stretch's rate: a neighbour's burst that slows a few
    /// stretches moves it less than it moves the pooled rate.
    pub fn median_rate(&self) -> f64 {
        crate::util::median(&mut self.rates.clone())
    }
}

/// `clients` closed-loop clients sending `op` until `duration` has
/// passed or `max` requests were sent between them; each client draws
/// `(body, tag)` from `make` with its own generator.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    op: Op,
    make: &(dyn Fn(&mut Rng) -> (String, usize) + Sync),
    rng: &Rng,
    clients: usize,
    duration: Duration,
    max: usize,
    tracer: &Tracer,
    req_base: u64,
) -> Closed {
    let start = Instant::now();
    let deadline = start + duration;
    let tickets = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..clients {
            let mut rng = rng.fork(c as u64 + 1);
            let (results, tickets) = (&results, &tickets);
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut i = 0u64;
                while Instant::now() < deadline && tickets.fetch_add(1, Ordering::Relaxed) < max {
                    let (body, tag) = make(&mut rng);
                    let due = Instant::now() - start;
                    let req = req_base + ((c as u64) << 32) + i;
                    mine.push(run_one(addr, op, &body, tag, start, due, tracer, req));
                    i += 1;
                }
                results.lock().expect("results poisoned").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed();
    let outcomes = results.into_inner().expect("results poisoned");
    Closed {
        ok: outcomes.iter().filter(|o| o.ok()).count(),
        elapsed,
        outcomes,
        rates: Vec::new(),
    }
}

/// Watches the follower's committed watermark (and the primary's) on a
/// thread of its own, recording when each advance was first seen.
pub struct LagSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<LagTrace>,
}

pub struct LagTrace {
    /// `(follower committed seq, first seen at)`, increasing.
    pub advances: Vec<(u64, Instant)>,
    /// Mean time between two looks at the watermark: the sampling
    /// resolution of every lag figure.
    pub resolution: Duration,
    /// Primary head minus follower watermark, at every look.
    pub lag_seq: Vec<u64>,
}

/// Pause between two looks at the watermarks.
const LAG_POLL: Duration = Duration::from_micros(100);

impl LagSampler {
    pub fn start(primary: Arc<LiveGraphStore>, follower: Arc<LiveGraphStore>) -> LagSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let begin = Instant::now();
            let mut last = follower.committed_seq();
            let mut advances = vec![(last, begin)];
            let mut lag_seq = Vec::new();
            let mut looks = 0u64;
            while !flag.load(Ordering::Relaxed) {
                let head = primary.committed_seq();
                let f = follower.committed_seq();
                looks += 1;
                if f > last {
                    advances.push((f, Instant::now()));
                    last = f;
                }
                lag_seq.push(head.saturating_sub(f));
                std::thread::sleep(LAG_POLL);
            }
            LagTrace {
                advances,
                resolution: begin.elapsed() / looks.max(1) as u32,
                lag_seq,
            }
        });
        LagSampler { stop, handle }
    }

    pub fn finish(self) -> LagTrace {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("lag sampler thread")
    }
}

impl LagTrace {
    /// Per acknowledged mutation: ms from the acknowledgement until the
    /// follower's watermark first covered its seq (0 when the follower
    /// was already there). `None` for a seq the follower never reached.
    pub fn lags_ms(&self, acks: &[(u64, Instant)]) -> Vec<Option<f64>> {
        acks.iter()
            .map(|&(seq, acked)| {
                let i = self.advances.partition_point(|&(c, _)| c <= seq);
                self.advances
                    .get(i)
                    .map(|&(_, seen)| seen.saturating_duration_since(acked).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_match_the_rate() {
        let mut rng = Rng::new(1);
        let a = arrivals(&mut rng, 1000.0, Duration::from_secs(2));
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals(&mut rng, 0.0, Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn lag_is_measured_from_the_ack_to_the_covering_advance() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let trace = LagTrace {
            advances: vec![(0, at(0)), (3, at(10)), (5, at(20))],
            resolution: Duration::from_micros(100),
            lag_seq: vec![],
        };
        // seq 2 is covered once the watermark passes it (3 > 2).
        let lags = trace.lags_ms(&[(2, at(4)), (4, at(12)), (5, at(15)), (0, at(30))]);
        assert_eq!(lags[0], Some(6.0));
        assert_eq!(lags[1], Some(8.0));
        assert_eq!(lags[2], None);
        assert_eq!(lags[3], Some(0.0)); // covered before the ack
    }
}
