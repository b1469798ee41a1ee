//! WAL-shipping replication: primary/follower read scaling over the
//! serving stack's existing durability machinery.
//!
//! The design adds no second wire format: the shipped bytes are the
//! primary's WAL frames (see [`mmkgr_kg::store::wal`]) — length, CRC32,
//! payload — sent verbatim over a long-lived HTTP connection. The
//! primary's [`LiveGraphStore`] keeps each frame in memory as it
//! commits, and a tail blocks on the store until frames past its cursor
//! exist; no file is re-read. The follower appends the frames to its
//! own WAL through the same pipeline a local mutation takes.
//! Epoch-versioned reads, frontier-cache invalidation, and compaction
//! therefore work unchanged on both roles, and a follower's WAL replay
//! after a restart is indistinguishable from a primary's.
//!
//! ```text
//!            POST /v1/admin/replicate {"mode":"snapshot"}
//!   follower ───────────────────────────────────────────▶ primary
//!            ◀───── raw .mmkg bytes (CRC-verified at open) ─────
//!            POST /v1/admin/replicate {"mode":"tail","from_seq":N}
//!            ◀───── MWAL preamble + committed frames, live ─────
//! ```
//!
//! **Bootstrap** (`mmkgr serve --replicate-from <addr>`): fetch the
//! primary's current `.mmkg` snapshot, boot from it exactly like a
//! local snapshot boot (WAL replay included), then tail frames from the
//! local WAL's `next_seq` and flip `/readyz` once caught up to the
//! primary's head at connect time (`X-Mmkgr-Head-Seq`).
//!
//! **Committed-only shipping**: a frame enters the store's log only
//! after its group's fsync, in the same step that raises
//! [`LiveGraphStore::committed_seq`], so a follower can never observe a
//! mutation the primary could still lose in a crash — zero
//! committed-frame loss and no phantom frames, by construction.
//!
//! **Retention**: the log holds every frame from the previous
//! compaction's watermark onward (the current WAL generation and the one
//! before it), plus whatever a connected tail has yet to copy. A tail can
//! start anywhere in that range; below it the request fails with a
//! [`is_snapshot_required`] error and the follower must re-bootstrap.
//!
//! **Promotion** (`POST /v1/admin/promote`): flips the role flag, which
//! simultaneously stops the tailer, fences late frames from the old
//! primary (see [`super::registry::ModelRegistry::apply_replicated`]),
//! and opens `/v1/admin/mutate` for writes at the fenced `seq`
//! watermark.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::faults;
use super::http::{self, write_response, ClientResponse};
use super::mutation::LiveGraphStore;
use super::protocol::{ApiError, ApiResponse, ReplicateRequest, ReplicationMetrics};
use super::registry::ModelRegistry;
use mmkgr_kg::store::wal;
use mmkgr_kg::WalRecord;

/// The error detail prefix a tail request gets when `from_seq` predates
/// the oldest retained WAL frame (compaction folded it into the
/// snapshot). The bundled follower matches on it to fall back to a full
/// snapshot re-bootstrap; see [`is_snapshot_required`].
const SNAPSHOT_REQUIRED: &str = "snapshot required";

/// Response header carrying the primary's committed head `seq` on both
/// replicate modes — the follower's "caught up" target.
const HEAD_SEQ_HEADER: &str = "X-Mmkgr-Head-Seq";

/// Where a replication-capable node's shippable artifacts live. Both
/// roles have one (a follower keeps its own snapshot + WAL, so a
/// promoted follower can immediately serve the next bootstrap).
#[derive(Clone, Debug)]
pub struct ReplicaSource {
    /// The `.mmkg` registry snapshot served to bootstrapping followers.
    pub snapshot: PathBuf,
    /// The node's WAL file. Shipping does not read it: tails are served
    /// from the live store's committed frames.
    pub wal: PathBuf,
}

/// Shared replication role + counters, attached to the
/// [`ModelRegistry`] of every node that participates in a topology.
pub struct ReplicationState {
    /// `true` while this node is a read-only follower; flipped (once,
    /// irreversibly) by [`Self::promote`].
    follower: AtomicBool,
    /// The primary this node bootstrapped from (`""` on a born-primary;
    /// kept after promotion for the metrics history).
    primary: String,
    source: ReplicaSource,
    frames_shipped: AtomicU64,
    reconnects: AtomicU64,
    /// Follower watermarks, both in "next seq" convention: `received` is
    /// the highest target the primary has advertised or shipped;
    /// `applied` is the follower's committed seq. Lag is the gap.
    received: AtomicU64,
    applied: AtomicU64,
    /// Set once the tailer first reaches its session's head target; the
    /// boot path gates `mark_ready()` on this.
    caught_up: AtomicBool,
}

impl ReplicationState {
    /// A writable primary shipping `source` to followers.
    pub fn primary(source: ReplicaSource) -> Self {
        Self::new(false, String::new(), source)
    }

    /// A read-only follower tailing `primary_addr`, keeping its own
    /// shippable `source`.
    pub fn follower(primary_addr: impl Into<String>, source: ReplicaSource) -> Self {
        Self::new(true, primary_addr.into(), source)
    }

    fn new(follower: bool, primary: String, source: ReplicaSource) -> Self {
        ReplicationState {
            follower: AtomicBool::new(follower),
            primary,
            source,
            frames_shipped: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            received: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            caught_up: AtomicBool::new(!follower),
        }
    }

    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::Acquire)
    }

    /// The primary's address for [`ApiError::NotPrimary`] redirects.
    pub fn primary_addr(&self) -> String {
        if self.is_follower() {
            self.primary.clone()
        } else {
            String::new()
        }
    }

    /// Flip follower → primary. Returns `true` if this call did the
    /// flip (`false` = already primary, the idempotent retry case). The
    /// single store is the whole fence: the tailer observes it and
    /// stops, and [`ModelRegistry::apply_replicated`] refuses frames
    /// from then on.
    pub fn promote(&self) -> bool {
        self.caught_up.store(true, Ordering::Release);
        self.follower.swap(false, Ordering::AcqRel)
    }

    /// Has the tailer reached the head target of its current session at
    /// least once? (Born-primaries are trivially caught up.)
    pub fn is_caught_up(&self) -> bool {
        self.caught_up.load(Ordering::Acquire)
    }

    pub fn metrics(&self) -> ReplicationMetrics {
        let received = self.received.load(Ordering::Relaxed);
        let applied = self.applied.load(Ordering::Relaxed);
        ReplicationMetrics {
            role: if self.is_follower() {
                "follower"
            } else {
                "primary"
            }
            .to_string(),
            follower_lag_seq: received.saturating_sub(applied),
            frames_shipped: self.frames_shipped.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    fn note_shipped(&self, frames: u64) {
        self.frames_shipped.fetch_add(frames, Ordering::Relaxed);
    }

    fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the `received` watermark (never lowers it).
    fn note_received(&self, next_seq: u64) {
        self.received.fetch_max(next_seq, Ordering::Relaxed);
    }

    fn note_applied(&self, next_seq: u64) {
        self.applied.fetch_max(next_seq, Ordering::Relaxed);
        if next_seq >= self.received.load(Ordering::Relaxed) {
            self.caught_up.store(true, Ordering::Release);
        }
    }
}

// ------------------------------------------------------- primary (ship)

/// Serve one `POST /v1/admin/replicate` connection. Called from the
/// HTTP connection handler with the raw stream (this endpoint writes
/// its own response: a JSON error, a `Content-Length`-framed snapshot
/// body, or an unbounded frame stream). The returned `Result` only
/// feeds the route's error counter.
pub(crate) fn serve_replicate(
    stream: &mut TcpStream,
    body: &str,
    registry: &ModelRegistry,
    stop: &AtomicBool,
) -> Result<(), ApiError> {
    match replicate_inner(stream, body, registry, stop) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Best-effort: the stream may already be half-written or
            // gone; the error still counts against the route either way.
            let response = ApiResponse::Error(e.clone());
            let _ = write_response(stream, response.http_status(), &response.body(), &[]);
            Err(e)
        }
    }
}

fn replicate_inner(
    stream: &mut TcpStream,
    body: &str,
    registry: &ModelRegistry,
    stop: &AtomicBool,
) -> Result<(), ApiError> {
    let req: ReplicateRequest =
        serde_json::from_str(body).map_err(|e| ApiError::MalformedRequest {
            detail: e.to_string(),
        })?;
    let rep = registry.replication().ok_or_else(|| ApiError::Internal {
        detail: "this server is not a replication source (serve from --snapshot with --wal)"
            .to_string(),
    })?;
    let live = registry.live().ok_or_else(|| ApiError::Internal {
        detail: "this server has no live store to replicate from".to_string(),
    })?;
    match req.mode.as_str() {
        "snapshot" => ship_snapshot(stream, &rep.source.snapshot, live.committed_seq()),
        "tail" => ship_tail(stream, req.from_seq, live, rep, stop),
        other => Err(ApiError::MalformedRequest {
            detail: format!("replicate mode must be \"snapshot\" or \"tail\", got {other:?}"),
        }),
    }
}

/// Stream the current `.mmkg` snapshot file verbatim. The fd is opened
/// before stat-ing so a concurrent compaction rewrite (tmp + rename)
/// cannot tear the body: the follower reads the generation this fd
/// pins, and every section's CRC32 is re-verified when it opens the
/// file.
fn ship_snapshot(stream: &mut TcpStream, path: &Path, head_seq: u64) -> Result<(), ApiError> {
    let mut file = File::open(path).map_err(|e| ApiError::Internal {
        detail: format!("open snapshot {}: {e}", path.display()),
    })?;
    let len = file
        .metadata()
        .map_err(|e| ApiError::Internal {
            detail: format!("stat snapshot: {e}"),
        })?
        .len();
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {len}\r\n{HEAD_SEQ_HEADER}: {head_seq}\r\nConnection: close\r\n\r\n",
    );
    let io_err = |e: io::Error| ApiError::Internal {
        detail: format!("ship snapshot: {e}"),
    };
    stream.write_all(head.as_bytes()).map_err(io_err)?;
    io::copy(&mut file, stream).map_err(io_err)?;
    stream.flush().map_err(io_err)
}

/// Stream committed WAL frames from `from_seq`, live, until the client
/// hangs up or the server stops. Wire format after the response head:
/// the 8-byte `MWAL` preamble, then raw frames — exactly the bytes a
/// local WAL holds, so the follower side is the same incremental
/// decoder the recovery path uses.
fn ship_tail(
    stream: &mut TcpStream,
    from_seq: u64,
    live: &LiveGraphStore,
    rep: &ReplicationState,
    stop: &AtomicBool,
) -> Result<(), ApiError> {
    let committed = live.committed_seq();
    if from_seq > committed {
        return Err(ApiError::MalformedRequest {
            detail: format!("from_seq {from_seq} is ahead of the primary head {committed}"),
        });
    }
    let mut tail = live.tail(from_seq).map_err(|oldest| ApiError::Internal {
        detail: format!(
            "{SNAPSHOT_REQUIRED}: from_seq {from_seq} predates the oldest retained frame {oldest}"
        ),
    })?;
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n{HEAD_SEQ_HEADER}: {committed}\r\nConnection: close\r\n\r\n",
    );
    let done = |_e: io::Error| ApiError::Internal {
        // A follower hanging up mid-tail is the normal end of a
        // session, but it still closes this connection with an error
        // status internally; the caller only counts it.
        detail: "tail connection closed".to_string(),
    };
    stream.write_all(head.as_bytes()).map_err(done)?;
    stream.write_all(&wal::header_bytes()).map_err(done)?;
    stream.flush().map_err(done)?;
    while let Some((frames, count)) = tail.wait_frames(stop) {
        stream.write_all(&frames).map_err(done)?;
        stream.flush().map_err(done)?;
        rep.note_shipped(count);
    }
    Ok(())
}

// ------------------------------------------------------ follower (tail)

/// Does this error text carry the primary's "re-bootstrap" signal?
pub fn is_snapshot_required(detail: &str) -> bool {
    detail.contains(SNAPSHOT_REQUIRED)
}

/// Fetch the primary's current `.mmkg` snapshot into `dest`. Binary
/// bytes, so the body is streamed to the file rather than read as text.
/// 503 + `Retry-After` (the primary still warming up, or shedding) is
/// honored for up to `max_retries` rounds — the long-bootstrap loop the
/// bundled client's single retry was too impatient for. Returns the
/// primary's committed head seq.
pub fn fetch_snapshot(primary: &str, dest: &Path, max_retries: u32) -> io::Result<u64> {
    let mut response = replicate(primary, r#"{"mode": "snapshot"}"#, max_retries)?;
    if response.status != 200 {
        return Err(refused("snapshot fetch", response));
    }
    let content_length: u64 = response
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("snapshot fetch: missing Content-Length"))?;
    let head_seq: u64 = response
        .header(HEAD_SEQ_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Write via a sibling tmp so a failed fetch never leaves a
    // half-snapshot where the boot path would find it.
    let tmp = dest.with_extension("mmkg.fetch");
    let mut out = File::create(&tmp)?;
    out.write_all(&response.prefix)?;
    // Connection: close — the body runs to EOF and is exactly
    // Content-Length bytes; anything else is a torn transfer.
    let got = response.prefix.len() as u64 + io::copy(&mut response.stream, &mut out)?;
    if got != content_length {
        let _ = std::fs::remove_file(&tmp);
        return Err(io::Error::other(format!(
            "snapshot fetch: truncated body ({got} of {content_length} bytes)"
        )));
    }
    out.sync_data()?;
    drop(out);
    std::fs::rename(&tmp, dest)?;
    Ok(head_seq)
}

/// A live tail session: frames decoded off the socket one at a time.
pub struct TailSession {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The primary's committed head at connect — applying up to here
    /// means "caught up" for readiness purposes.
    pub head_seq: u64,
}

/// Open a tail of `primary` starting at `from_seq` (the follower's own
/// WAL `next_seq`). Fails with an [`is_snapshot_required`] error text
/// when the primary has compacted past `from_seq`.
pub fn connect_tail(primary: &str, from_seq: u64) -> io::Result<TailSession> {
    let body = format!(r#"{{"mode": "tail", "from_seq": {from_seq}}}"#);
    let response = replicate(primary, &body, 0)?;
    if response.status != 200 {
        return Err(refused("tail connect", response));
    }
    let head_seq: u64 = response
        .header(HEAD_SEQ_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(from_seq);
    let ClientResponse {
        mut stream,
        prefix: mut buf,
        ..
    } = response;
    // The stream opens with the standard WAL preamble.
    let mut chunk = [0u8; 4096];
    while buf.len() < wal::HEADER_LEN as usize {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("tail connect: stream closed in preamble"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    wal::check_header(&buf[..wal::HEADER_LEN as usize])
        .map_err(|e| io::Error::other(format!("tail connect: bad preamble: {e}")))?;
    buf.drain(..wal::HEADER_LEN as usize);
    // A short read timeout keeps the tailer responsive to promotion and
    // shutdown even when the primary is idle.
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    Ok(TailSession {
        stream,
        buf,
        head_seq,
    })
}

impl TailSession {
    /// The next shipped frame. `Ok(None)` = no complete frame within
    /// the read-timeout window (poll again after checking flags);
    /// `Err` = the connection is gone (reconnect).
    pub fn next_record(&mut self) -> io::Result<Option<WalRecord>> {
        loop {
            match wal::decode_frame(&self.buf) {
                Ok(Some((rec, used))) => {
                    self.buf.drain(..used);
                    return Ok(Some(rec));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::other(format!("tail stream corrupt: {e}"))),
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "primary closed the tail",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Run the follower tail loop until promotion (or a fence error): apply
/// every shipped frame through the registry (same WAL-then-publish path
/// and cache invalidation as a local mutation), reconnect with jittered
/// backoff on primary loss. Returns when the node stops being a
/// follower; spawn it on a dedicated thread.
pub fn run_tailer(registry: Arc<ModelRegistry>, rep: Arc<ReplicationState>) {
    let mut backoff_ms = 100u64;
    while rep.is_follower() {
        let Some(live) = registry.live() else { return };
        let from_seq = live.committed_seq();
        match connect_tail(&rep.primary, from_seq) {
            Ok(mut session) => {
                backoff_ms = 100;
                rep.note_received(session.head_seq);
                rep.note_applied(from_seq);
                loop {
                    if !rep.is_follower() {
                        return;
                    }
                    match session.next_record() {
                        Ok(Some(rec)) => {
                            rep.note_received(rec.seq + 1);
                            match registry.apply_replicated(&rec) {
                                Ok(_) => {
                                    let live = registry.live().expect("checked above");
                                    rep.note_applied(live.committed_seq());
                                }
                                // Fenced (promotion won the race) or a
                                // gap the primary should never produce:
                                // stop applying either way.
                                Err(e) => {
                                    eprintln!("replication tail stopped: {e}");
                                    if rep.is_follower() {
                                        break; // gap: reconnect and re-request
                                    }
                                    return;
                                }
                            }
                        }
                        Ok(None) => continue, // idle window — re-check flags
                        Err(_) => break,      // primary gone — reconnect
                    }
                }
            }
            Err(e) => {
                if is_snapshot_required(&e.to_string()) {
                    // The primary compacted past our position while we
                    // were away; a restart re-bootstraps from its
                    // current snapshot. Keep serving (stale) reads.
                    eprintln!("replication tail: {e}; restart this follower to re-bootstrap");
                    std::thread::sleep(Duration::from_secs(5));
                }
            }
        }
        if !rep.is_follower() {
            return;
        }
        rep.note_reconnect();
        std::thread::sleep(Duration::from_millis(backoff_ms) + faults::jitter(backoff_ms));
        backoff_ms = (backoff_ms * 2).min(5_000);
    }
}

// --------------------------------------------------------- raw client IO

/// POST `/v1/admin/replicate` and read the response head.
fn replicate(primary: &str, body: &str, max_retries: u32) -> io::Result<ClientResponse> {
    http::send(primary, "POST", "/v1/admin/replicate", body, max_retries)
}

/// The error for a non-200 replicate response, carrying its body (where
/// the primary's `snapshot required` signal lives).
fn refused(what: &str, response: ClientResponse) -> io::Error {
    let status = response.status;
    let body = response.read_body().unwrap_or_default();
    io::Error::other(format!(
        "{what}: HTTP {status}: {}",
        String::from_utf8_lossy(&body)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::super::faults::{self, FaultPlan};
    use super::super::http::{HttpServer, HttpServerConfig, RunningServer};
    use super::super::mutation::LiveGraphStore;
    use super::super::protocol::NameIndex;
    use mmkgr_kg::{KnowledgeGraph, Triple, TripleOp};
    use std::time::Instant;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mmkgr-repl-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn graph() -> Arc<KnowledgeGraph> {
        Arc::new(KnowledgeGraph::from_triples(
            6,
            2,
            vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)],
            None,
        ))
    }

    /// Batch `i` of a run that is valid in order: insert one edge on
    /// even `i`, delete it again on odd `i`.
    fn toggle(i: u64) -> Vec<TripleOp> {
        let t = Triple::new(2, 1, 3);
        vec![if i.is_multiple_of(2) {
            TripleOp::Insert(t)
        } else {
            TripleOp::Delete(t)
        }]
    }

    /// A primary that compacts after every `compact_every` batches (the
    /// snapshot rewrite is a no-op), served over HTTP as a replication
    /// source.
    fn primary(name: &str, compact_every: u64) -> (Arc<LiveGraphStore>, RunningServer) {
        let wal = tmp(&format!("{name}-primary.wal"));
        let live = Arc::new(
            LiveGraphStore::open(graph(), &wal, 0)
                .unwrap()
                .with_compaction(compact_every, Box::new(|_, _| Ok(()))),
        );
        let mut reg = ModelRegistry::new(NameIndex::synthetic(6, 2));
        reg.set_live(Arc::clone(&live));
        reg.set_replication(Arc::new(ReplicationState::primary(ReplicaSource {
            snapshot: tmp(&format!("{name}-primary.mmkg")),
            wal,
        })));
        let cfg = HttpServerConfig {
            conn_threads: 8,
            ..HttpServerConfig::default()
        };
        let server = HttpServer::bind(("127.0.0.1", 0), Arc::new(reg), cfg)
            .unwrap()
            .spawn();
        (live, server)
    }

    fn next_frame(tail: &mut TailSession) -> WalRecord {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(rec) = tail.next_record().unwrap() {
                return rec;
            }
            assert!(Instant::now() < deadline, "no frame within 10 s");
        }
    }

    #[test]
    fn compaction_under_a_connected_tail_never_strands_the_follower() {
        let _quiet = faults::install(FaultPlan::new());
        let (primary, server) = primary("strand", 1);
        let follower_wal = tmp("strand-follower.wal");
        let follower = Arc::new(LiveGraphStore::open(graph(), &follower_wal, 0).unwrap());
        let rep = Arc::new(ReplicationState::follower(
            server.addr().to_string(),
            ReplicaSource {
                snapshot: tmp("strand-follower.mmkg"),
                wal: follower_wal,
            },
        ));
        let mut reg = ModelRegistry::new(NameIndex::synthetic(6, 2));
        reg.set_live(Arc::clone(&follower));
        reg.set_replication(Arc::clone(&rep));
        let tailer = {
            let (reg, rep) = (Arc::new(reg), Arc::clone(&rep));
            std::thread::spawn(move || run_tailer(reg, rep))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !rep.is_caught_up() {
            assert!(Instant::now() < deadline, "the tail never connected");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Every batch folds and truncates the primary's WAL while the
        // follower's tail is connected.
        for i in 0..200 {
            primary.apply(&toggle(i)).unwrap();
        }
        assert_eq!(primary.compactions(), 200);
        let deadline = Instant::now() + Duration::from_secs(10);
        while follower.committed_seq() < primary.committed_seq() {
            assert!(
                Instant::now() < deadline,
                "follower stranded at seq {} behind the primary head {}",
                follower.committed_seq(),
                primary.committed_seq()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(follower.epoch(), primary.epoch());
        assert_eq!(rep.metrics().reconnects, 0, "the tail was never cut");

        rep.promote();
        tailer.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_tail_resumes_anywhere_in_the_previous_generation_and_no_earlier() {
        let _quiet = faults::install(FaultPlan::new());
        let (primary, server) = primary("retain", 2);
        for i in 0..7 {
            primary.apply(&toggle(i)).unwrap();
        }
        // Compactions at watermarks 2, 4 and 6: seqs 4 and 5 are the
        // previous WAL generation, seq 6 the current one.
        assert_eq!(primary.compactions(), 3);
        let addr = server.addr().to_string();

        let err = connect_tail(&addr, 3).err().expect("seq 3 is folded");
        assert!(is_snapshot_required(&err.to_string()), "{err}");

        for from in [5, 4] {
            let mut tail = connect_tail(&addr, from).unwrap();
            assert_eq!(tail.head_seq, 7);
            for seq in from..7 {
                let rec = next_frame(&mut tail);
                assert_eq!((rec.seq, rec.ops), (seq, toggle(seq)));
            }
        }
        // The last tail (from 4) stays live: the next commit, and the
        // compaction it trips, reach it too.
        let mut tail = connect_tail(&addr, 4).unwrap();
        for seq in 4..7 {
            assert_eq!(next_frame(&mut tail).seq, seq);
        }
        primary.apply(&toggle(7)).unwrap();
        assert_eq!(primary.compactions(), 4);
        let rec = next_frame(&mut tail);
        assert_eq!((rec.seq, rec.ops), (7, toggle(7)));
        server.shutdown();
    }

    #[test]
    fn replication_state_tracks_roles_and_lag() {
        let src = ReplicaSource {
            snapshot: PathBuf::from("/tmp/x.mmkg"),
            wal: PathBuf::from("/tmp/x.wal"),
        };
        let p = ReplicationState::primary(src.clone());
        assert!(!p.is_follower());
        assert!(p.is_caught_up());
        assert_eq!(p.metrics().role, "primary");
        assert_eq!(p.primary_addr(), "");

        let f = ReplicationState::follower("127.0.0.1:9000", src);
        assert!(f.is_follower());
        assert!(!f.is_caught_up());
        assert_eq!(f.primary_addr(), "127.0.0.1:9000");
        f.note_received(10);
        f.note_applied(4);
        let m = f.metrics();
        assert_eq!(m.role, "follower");
        assert_eq!(m.follower_lag_seq, 6);
        assert!(!f.is_caught_up());
        f.note_applied(10);
        assert!(f.is_caught_up());
        assert_eq!(f.metrics().follower_lag_seq, 0);

        // Promotion flips exactly once and never rewinds.
        assert!(f.promote());
        assert!(!f.is_follower());
        assert!(!f.promote());
        assert_eq!(f.metrics().role, "primary");
        assert_eq!(f.primary_addr(), "", "a promoted node is its own primary");
    }

    #[test]
    fn snapshot_required_detail_roundtrips() {
        let detail =
            format!("{SNAPSHOT_REQUIRED}: from_seq 3 predates the oldest retained WAL frame");
        assert!(is_snapshot_required(&detail));
        assert!(!is_snapshot_required("replication gap: got seq 9"));
    }
}
