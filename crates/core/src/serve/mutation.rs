//! Crash-safe live graph mutation: the write path of the serving stack.
//!
//! [`LiveGraphStore`] owns the one mutable thing in a serving process —
//! the published graph epoch — and makes writes to it durable and
//! crash-consistent:
//!
//! 1. **Validate** the whole batch against the current epoch (typed
//!    [`MutationError`]s; an invalid batch never touches the log).
//! 2. **Commit**: append one WAL record ([`mmkgr_kg::WalWriter`],
//!    CRC32-framed, fsynced) — the durability point. A crash after this
//!    instant must never lose the mutation.
//! 3. **Apply**: build the successor [`KnowledgeGraph`] (copy-on-write
//!    delta over the shared base CSR) and publish it through the
//!    [`GraphHandle`]. In-flight readers keep their pinned epoch;
//!    the publish is one `RwLock`-guarded pointer swap.
//! 4. **Compact** (periodically): fold the delta into a fresh CSR,
//!    atomically rewrite the `.mmkg` snapshot with the WAL sequence
//!    watermark, then truncate the WAL. A crash between the snapshot
//!    rename and the truncate is benign — recovery skips WAL records
//!    below the snapshot's watermark.
//!
//! **Recovery** (= boot): load the newest valid snapshot, replay the WAL
//! tail at or above the snapshot's `wal_seq` watermark, publish the
//! result. [`mmkgr_kg::store::wal`] tolerates a torn final record
//! (truncated, not replayed — it was never acknowledged) and fails
//! loudly on interior corruption.
//!
//! The chaos crash points ([`super::faults::FaultPlan::wal_crash`],
//! [`super::faults::FaultPlan::compact_crash`]) abort the process at the
//! two interesting instants: post-commit/pre-apply and post-snapshot/
//! pre-truncate. CI's kill-and-reboot smoke drives them end to end.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use mmkgr_kg::{
    GraphHandle, KnowledgeGraph, MutationError, MutationStats, TripleOp, WalError, WalRecord,
    WalWriter,
};

use super::faults;
use super::protocol::MutationMetrics;

/// Snapshot-rewrite hook invoked by compaction: persist `graph` (the
/// folded, delta-free successor) with `wal_seq` as the snapshot's replay
/// watermark, atomically (write-temp + fsync + rename). Injected by the
/// boot layer because the snapshot's full section layout (models,
/// vocab, manifest) lives above this crate.
pub type SnapshotRewrite = dyn Fn(&KnowledgeGraph, u64) -> std::io::Result<()> + Send + Sync;

/// What one applied mutation batch did.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// Epoch the batch published.
    pub epoch: u64,
    /// WAL sequence number of the committed record.
    pub seq: u64,
    pub stats: MutationStats,
    /// Whether this batch tripped a compaction.
    pub compacted: bool,
}

/// Why a live mutation was refused or lost.
#[derive(Debug)]
pub enum LiveStoreError {
    /// The batch referenced ids outside the graph's spaces; nothing was
    /// logged or applied.
    Invalid(MutationError),
    /// The WAL append (or truncate) failed; the batch was not applied —
    /// a mutation is never visible unless it is durable first.
    Wal(std::io::Error),
    /// Compaction's snapshot rewrite failed. The preceding batch *was*
    /// committed and applied; only the fold was abandoned (the WAL keeps
    /// the records, so durability is unaffected).
    Snapshot(std::io::Error),
}

impl std::fmt::Display for LiveStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveStoreError::Invalid(e) => write!(f, "invalid mutation: {e}"),
            LiveStoreError::Wal(e) => write!(f, "WAL write failed: {e}"),
            LiveStoreError::Snapshot(e) => write!(f, "compaction snapshot rewrite failed: {e}"),
        }
    }
}

impl std::error::Error for LiveStoreError {}

/// Why a boot-time recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The WAL itself is unreadable (interior corruption, bad header).
    Wal(WalError),
    /// A committed record no longer applies to the snapshot it should
    /// follow — snapshot and log disagree about the graph's shape.
    Mismatch { seq: u64, error: MutationError },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "WAL recovery failed: {e}"),
            RecoveryError::Mismatch { seq, error } => write!(
                f,
                "WAL record seq {seq} does not apply to the snapshot graph: {error}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

/// One caller's batch waiting in the group-commit queue. The leader
/// (whoever holds the WAL lock) drains the queue, writes every frame,
/// fsyncs once, and fills each ticket's result.
struct Ticket {
    ops: Vec<TripleOp>,
    done: Mutex<Option<Result<MutationOutcome, LiveStoreError>>>,
}

impl Ticket {
    fn fill(&self, r: Result<MutationOutcome, LiveStoreError>) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
    }

    fn take(&self) -> Option<Result<MutationOutcome, LiveStoreError>> {
        self.done.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// The serving write path: WAL-durable, epoch-versioned, periodically
/// compacted live mutation over a [`GraphHandle`]. One per process.
pub struct LiveGraphStore {
    graph: GraphHandle,
    /// Serializes writers and keeps WAL order identical to publish
    /// order; readers never take it.
    wal: Mutex<WalWriter>,
    /// Batches waiting for a group-commit leader.
    pending: Mutex<VecDeque<Arc<Ticket>>>,
    /// Next WAL sequence number known fsync-durable: every record with
    /// `seq < committed` survives a crash. The replication shipper only
    /// ships below this watermark, so a follower can never see a frame
    /// the primary might lose.
    committed: AtomicU64,
    /// Records applied live (post-boot) by this process.
    applied: AtomicU64,
    /// Records replayed from the WAL at boot.
    replayed: u64,
    compactions: AtomicU64,
    /// Applied records since the last compaction.
    since_compact: AtomicU64,
    /// Compact once `since_compact` reaches this (0 = never — also the
    /// forced mode when no snapshot rewrite is wired, since truncating
    /// the WAL without persisting the fold would lose durability).
    compact_every: u64,
    rewrite: Option<Box<SnapshotRewrite>>,
    /// Published epochs still possibly pinned by in-flight readers, for
    /// the `epoch_lag` metric (pruned on read; `Weak` so tracking never
    /// keeps a dead epoch alive).
    epochs: Mutex<VecDeque<(u64, Weak<KnowledgeGraph>)>>,
}

impl LiveGraphStore {
    /// Recover and open: replay `wal_path` (tolerating a torn tail) on
    /// top of `base` — skipping records already folded into the snapshot
    /// (`seq < snapshot_seq`) — and publish the result. Returns the
    /// store; the number of records replayed is [`Self::replayed`].
    ///
    /// `snapshot_seq` is the snapshot's `wal_seq` watermark (0 for
    /// snapshots that predate live mutation — every record replays).
    pub fn open(
        base: Arc<KnowledgeGraph>,
        wal_path: &Path,
        snapshot_seq: u64,
    ) -> Result<LiveGraphStore, RecoveryError> {
        let (mut writer, records) = WalWriter::open(wal_path)?;
        // A snapshot ahead of its log (compaction crashed between the
        // truncate and... nothing — truncate is last; but a *restored*
        // older WAL next to a newer snapshot) must not reuse sequence
        // numbers below the watermark.
        writer.set_next_seq(snapshot_seq);
        let mut graph = base;
        let mut replayed = 0u64;
        for rec in &records {
            if rec.seq < snapshot_seq {
                continue; // already folded into the snapshot
            }
            let (next, _) = graph
                .apply_ops(&rec.ops)
                .map_err(|error| RecoveryError::Mismatch {
                    seq: rec.seq,
                    error,
                })?;
            graph = Arc::new(next);
            replayed += 1;
        }
        let handle = GraphHandle::new(Arc::clone(&graph));
        let mut epochs = VecDeque::new();
        epochs.push_back((graph.epoch(), Arc::downgrade(&graph)));
        let committed = writer.next_seq();
        Ok(LiveGraphStore {
            graph: handle,
            wal: Mutex::new(writer),
            pending: Mutex::new(VecDeque::new()),
            committed: AtomicU64::new(committed),
            applied: AtomicU64::new(0),
            replayed,
            compactions: AtomicU64::new(0),
            since_compact: AtomicU64::new(replayed),
            compact_every: 0,
            rewrite: None,
            epochs: Mutex::new(epochs),
        })
    }

    /// Enable periodic compaction: after every `every` applied records,
    /// fold the delta, rewrite the snapshot via `rewrite`, truncate the
    /// WAL. `every = 0` disables.
    pub fn with_compaction(mut self, every: u64, rewrite: Box<SnapshotRewrite>) -> Self {
        self.compact_every = every;
        self.rewrite = Some(rewrite);
        self
    }

    /// The live handle — wire this into reasoners ([`super::PolicyReasoner::try_new_live`])
    /// and the retriever ([`super::Retriever::new_live`]) so queries pin
    /// epochs from it.
    pub fn handle(&self) -> GraphHandle {
        self.graph.clone()
    }

    /// Pin the currently published graph.
    pub fn pin(&self) -> Arc<KnowledgeGraph> {
        self.graph.pin()
    }

    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Records replayed from the WAL at boot.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Records applied live since boot.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// WAL sequence number below which every record is fsync-durable.
    pub fn committed_seq(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Path of the WAL file backing this store (the replication
    /// shipper's read source).
    pub fn wal_file(&self) -> PathBuf {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .path()
            .to_path_buf()
    }

    /// Validate → WAL-commit → apply → publish one batch; maybe compact.
    ///
    /// Concurrent callers are group-committed: each enqueues a ticket,
    /// and whoever wins the WAL lock drains the queue, writes every
    /// frame, fsyncs **once**, and publishes the batches in queue order
    /// (WAL order and publish order stay identical). Batches form
    /// naturally from callers that arrive while the previous leader's
    /// fsync is in flight.
    ///
    /// The returned outcome's `stats.touched` lists every entity whose
    /// action space changed — the key for targeted cache invalidation.
    pub fn apply(&self, ops: &[TripleOp]) -> Result<MutationOutcome, LiveStoreError> {
        let ticket = Arc::new(Ticket {
            ops: ops.to_vec(),
            done: Mutex::new(None),
        });
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(Arc::clone(&ticket));
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        // A previous leader may have committed this ticket while we
        // waited for the lock.
        if let Some(result) = ticket.take() {
            return result;
        }
        // We are the leader: drain the queue (our ticket is still in it —
        // only a leader removes tickets, and ours has no result yet) and
        // commit the whole group under one fsync.
        let group: Vec<Arc<Ticket>> = self
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        self.commit_group_locked(&mut wal, &group);
        ticket.take().expect("leader fills every drained ticket")
    }

    /// Commit a drained group: validate each batch against the evolving
    /// graph, write every valid frame unsynced, fsync once, then publish
    /// in queue order. Invalid batches get their typed error without
    /// touching the log; they never block the rest of the group.
    fn commit_group_locked(&self, wal: &mut WalWriter, group: &[Arc<Ticket>]) {
        let mut graph = self.graph.pin();
        // (ticket index, successor graph, stats, seq) per staged batch.
        let mut staged: Vec<(usize, Arc<KnowledgeGraph>, MutationStats, u64)> = Vec::new();
        for (i, ticket) in group.iter().enumerate() {
            match graph.apply_ops(&ticket.ops) {
                Err(e) => ticket.fill(Err(LiveStoreError::Invalid(e))),
                Ok((next, stats)) => match wal.append_unsynced(&ticket.ops) {
                    Err(e) => ticket.fill(Err(LiveStoreError::Wal(e))),
                    Ok(seq) => {
                        let next = Arc::new(next);
                        graph = Arc::clone(&next);
                        staged.push((i, next, stats, seq));
                    }
                },
            }
        }
        if staged.is_empty() {
            return;
        }
        // The group's single durability point.
        if let Err(e) = wal.sync() {
            let msg = e.to_string();
            for (i, ..) in staged {
                group[i].fill(Err(LiveStoreError::Wal(std::io::Error::other(msg.clone()))));
            }
            return;
        }
        self.committed.store(wal.next_seq(), Ordering::Release);
        let last = staged.len() - 1;
        for (n, (i, next, stats, seq)) in staged.into_iter().enumerate() {
            let ordinal = self.applied.load(Ordering::Relaxed) + 1;
            faults::maybe_wal_crash(ordinal);
            let epoch = next.epoch();
            self.track_epoch(epoch, &next);
            self.graph.publish(next);
            self.applied.store(ordinal, Ordering::Relaxed);
            let pending = self.since_compact.fetch_add(1, Ordering::Relaxed) + 1;
            let mut outcome = MutationOutcome {
                epoch,
                seq,
                stats,
                compacted: false,
            };
            // Compaction (if due) runs once, after the whole group; its
            // outcome — including a failed snapshot rewrite — lands on
            // the group's final batch, as it does on `apply_replicated`.
            if n == last
                && self.compact_every > 0
                && pending >= self.compact_every
                && self.rewrite.is_some()
            {
                match self.compact_locked(wal) {
                    Ok(()) => outcome.compacted = true,
                    Err(e) => {
                        group[i].fill(Err(e));
                        continue;
                    }
                }
            }
            group[i].fill(Ok(outcome));
        }
    }

    /// Apply one record shipped from the primary, preserving its
    /// sequence number in the local WAL — the follower half of
    /// WAL-shipping replication. Records at an already-applied `seq`
    /// (overlap after a reconnect) are skipped with `Ok(None)`; a gap —
    /// `rec.seq` ahead of the local log — is an error, because applying
    /// past missing records would silently diverge from the primary.
    pub fn apply_replicated(
        &self,
        rec: &WalRecord,
    ) -> Result<Option<MutationOutcome>, LiveStoreError> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        let expected = wal.next_seq();
        if rec.seq < expected {
            return Ok(None);
        }
        if rec.seq > expected {
            return Err(LiveStoreError::Wal(std::io::Error::other(format!(
                "replication gap: got seq {}, expected {expected}",
                rec.seq
            ))));
        }
        let current = self.graph.pin();
        let (next, stats) = current
            .apply_ops(&rec.ops)
            .map_err(LiveStoreError::Invalid)?;
        let seq = wal.append(&rec.ops).map_err(LiveStoreError::Wal)?;
        debug_assert_eq!(seq, rec.seq);
        self.committed.store(wal.next_seq(), Ordering::Release);
        let ordinal = self.applied.load(Ordering::Relaxed) + 1;
        // The same post-commit/pre-publish crash point as the primary
        // write path: `wal_crash` chaos plans fire on the shipping path
        // too.
        faults::maybe_wal_crash(ordinal);
        let next = Arc::new(next);
        let epoch = next.epoch();
        self.track_epoch(epoch, &next);
        self.graph.publish(next);
        self.applied.store(ordinal, Ordering::Relaxed);
        let pending = self.since_compact.fetch_add(1, Ordering::Relaxed) + 1;
        let mut compacted = false;
        if self.compact_every > 0 && pending >= self.compact_every && self.rewrite.is_some() {
            self.compact_locked(&mut wal)?;
            compacted = true;
        }
        Ok(Some(MutationOutcome {
            epoch,
            seq,
            stats,
            compacted,
        }))
    }

    /// Force a compaction now (no-op without a snapshot rewrite hook).
    /// Returns whether one ran.
    pub fn compact(&self) -> Result<bool, LiveStoreError> {
        if self.rewrite.is_none() {
            return Ok(false);
        }
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        self.compact_locked(&mut wal)?;
        Ok(true)
    }

    fn compact_locked(&self, wal: &mut WalWriter) -> Result<(), LiveStoreError> {
        let rewrite = self.rewrite.as_ref().expect("checked by callers");
        let current = self.graph.pin();
        let folded = Arc::new(current.fold());
        // Watermark: every record below `next_seq` is inside the fold.
        let watermark = wal.next_seq();
        rewrite(&folded, watermark).map_err(LiveStoreError::Snapshot)?;
        // Crash window: snapshot (with watermark) is in place, WAL still
        // holds the folded records. Recovery skips them by watermark —
        // this is exactly what `compact_crash` chaos-tests.
        faults::maybe_compact_crash();
        wal.truncate().map_err(LiveStoreError::Wal)?;
        // Same epoch, flattened representation: readers of the folded
        // graph see byte-identical answers (fold preserves the logical
        // view, truncated action spaces included).
        self.track_epoch(folded.epoch(), &folded);
        self.graph.publish(folded);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.since_compact.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn track_epoch(&self, epoch: u64, graph: &Arc<KnowledgeGraph>) {
        let mut epochs = self.epochs.lock().unwrap_or_else(|e| e.into_inner());
        epochs.push_back((epoch, Arc::downgrade(graph)));
        // Bound the deque: drop leading entries nothing pins anymore.
        while epochs.len() > 1 && epochs.front().is_some_and(|(_, w)| w.strong_count() == 0) {
            epochs.pop_front();
        }
    }

    /// How far the oldest still-pinned epoch trails the published one
    /// (0 = every reader is current). Readers that pin and finish
    /// quickly keep this at 0; a long-running retrieval over an old
    /// epoch shows up here.
    pub fn epoch_lag(&self) -> u64 {
        let current = self.graph.epoch();
        let mut epochs = self.epochs.lock().unwrap_or_else(|e| e.into_inner());
        while epochs.len() > 1 && epochs.front().is_some_and(|(_, w)| w.strong_count() == 0) {
            epochs.pop_front();
        }
        epochs
            .iter()
            .find(|(_, w)| w.strong_count() > 0)
            .map(|&(e, _)| current.saturating_sub(e))
            .unwrap_or(0)
    }

    /// The `mutation` block of `GET /metrics`.
    pub fn metrics(&self) -> MutationMetrics {
        MutationMetrics {
            applied: self.applied(),
            replayed: self.replayed,
            compactions: self.compactions(),
            epoch: self.epoch(),
            epoch_lag: self.epoch_lag(),
        }
    }
}

impl std::fmt::Debug for LiveGraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveGraphStore")
            .field("epoch", &self.epoch())
            .field("applied", &self.applied())
            .field("replayed", &self.replayed)
            .field("compactions", &self.compactions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmkgr_kg::{EntityId, RelationId, Triple};

    fn t(s: u32, r: u32, o: u32) -> Triple {
        Triple::new(s, r, o)
    }

    fn base_graph() -> Arc<KnowledgeGraph> {
        Arc::new(KnowledgeGraph::from_triples(
            6,
            2,
            vec![t(0, 0, 1), t(1, 0, 2), t(1, 1, 4)],
            None,
        ))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mmkgr-live-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn apply_commits_publishes_and_reports_touched() {
        let path = tmp("apply");
        let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        assert_eq!(store.replayed(), 0);
        let out = store
            .apply(&[TripleOp::Insert(t(2, 1, 5)), TripleOp::Delete(t(1, 0, 2))])
            .unwrap();
        assert_eq!(out.epoch, 1);
        assert_eq!(out.stats.inserted, 1);
        assert_eq!(out.stats.deleted, 1);
        assert!(out.stats.touched.contains(&EntityId(2)));
        assert!(out.stats.touched.contains(&EntityId(5)));
        let g = store.pin();
        assert!(g.has_edge(EntityId(2), RelationId(1), EntityId(5)));
        assert!(!g.has_edge(EntityId(1), RelationId(0), EntityId(2)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_batches_touch_nothing() {
        let path = tmp("invalid");
        let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        let err = store
            .apply(&[TripleOp::Insert(t(0, 0, 99))])
            .expect_err("entity 99 is out of range");
        assert!(matches!(err, LiveStoreError::Invalid(_)));
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.applied(), 0);
        // The WAL holds nothing: a fresh recovery replays zero records.
        drop(store);
        let again = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        assert_eq!(again.replayed(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_replays_committed_mutations() {
        let path = tmp("recover");
        {
            let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
            store.apply(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
            store.apply(&[TripleOp::Delete(t(0, 0, 1))]).unwrap();
            // Simulated crash: drop without compaction.
        }
        let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        assert_eq!(store.replayed(), 2);
        let g = store.pin();
        assert_eq!(g.epoch(), 2);
        assert!(g.has_edge(EntityId(3), RelationId(0), EntityId(4)));
        assert!(!g.has_edge(EntityId(0), RelationId(0), EntityId(1)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_watermark_skips_folded_records() {
        let path = tmp("watermark");
        {
            let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
            store.apply(&[TripleOp::Insert(t(3, 0, 4))]).unwrap(); // seq 0
            store.apply(&[TripleOp::Insert(t(4, 0, 5))]).unwrap(); // seq 1
        }
        // Pretend a snapshot folded seq 0 (watermark 1): replay must
        // apply only seq 1 — on a base that already contains seq 0.
        let folded_base = {
            let (g, _) = base_graph()
                .apply_ops(&[TripleOp::Insert(t(3, 0, 4))])
                .unwrap();
            Arc::new(KnowledgeGraph::from_triples(
                6,
                2,
                g.logical_triples(),
                None,
            ))
        };
        let store = LiveGraphStore::open(folded_base, &path, 1).unwrap();
        assert_eq!(store.replayed(), 1);
        let g = store.pin();
        assert!(g.has_edge(EntityId(3), RelationId(0), EntityId(4)));
        assert!(g.has_edge(EntityId(4), RelationId(0), EntityId(5)));
        // New appends continue above the watermark.
        let out = store.apply(&[TripleOp::Insert(t(5, 1, 0))]).unwrap();
        assert!(out.seq >= 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_folds_rewrites_and_truncates() {
        let path = tmp("compact");
        let rewrites: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&rewrites);
        let store = LiveGraphStore::open(base_graph(), &path, 0)
            .unwrap()
            .with_compaction(
                2,
                Box::new(move |graph, watermark| {
                    assert!(
                        !graph.has_delta(),
                        "compaction must hand over a folded graph"
                    );
                    seen.lock().unwrap().push(watermark);
                    Ok(())
                }),
            );
        let a = store.apply(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        assert!(!a.compacted);
        let b = store.apply(&[TripleOp::Insert(t(4, 0, 5))]).unwrap();
        assert!(b.compacted);
        assert_eq!(store.compactions(), 1);
        assert_eq!(*rewrites.lock().unwrap(), vec![2]);
        // Post-compaction view is the same logical graph, delta-free.
        let g = store.pin();
        assert!(!g.has_delta());
        assert!(g.has_edge(EntityId(3), RelationId(0), EntityId(4)));
        assert!(g.has_edge(EntityId(4), RelationId(0), EntityId(5)));
        // The WAL was truncated: replaying from the (simulated) new
        // snapshot at watermark 2 replays nothing.
        drop(store);
        let again = LiveGraphStore::open(
            Arc::new(KnowledgeGraph::from_triples(
                6,
                2,
                g.logical_triples(),
                None,
            )),
            &path,
            2,
        )
        .unwrap();
        assert_eq!(again.replayed(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_rewrite_keeps_wal_and_durability() {
        let path = tmp("badrewrite");
        let store = LiveGraphStore::open(base_graph(), &path, 0)
            .unwrap()
            .with_compaction(1, Box::new(|_, _| Err(std::io::Error::other("disk full"))));
        let err = store
            .apply(&[TripleOp::Insert(t(3, 0, 4))])
            .expect_err("rewrite fails");
        assert!(matches!(err, LiveStoreError::Snapshot(_)));
        // The mutation itself is applied and durable; only the fold was
        // abandoned.
        assert!(store
            .pin()
            .has_edge(EntityId(3), RelationId(0), EntityId(4)));
        drop(store);
        let again = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        assert_eq!(again.replayed(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appliers_group_commit_every_batch() {
        let path = tmp("group");
        let store = Arc::new(LiveGraphStore::open(base_graph(), &path, 0).unwrap());
        // 4 writer threads toggling distinct edges: every batch must
        // commit, in some serial order, with WAL order == publish order.
        let threads: Vec<_> = (0..4)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let op = if i % 2 == 0 {
                            TripleOp::Insert(t(w, 1, (w + 1) % 6))
                        } else {
                            TripleOp::Delete(t(w, 1, (w + 1) % 6))
                        };
                        store.apply(&[op]).unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(store.applied(), 32);
        assert_eq!(store.epoch(), 32);
        assert_eq!(store.committed_seq(), 32);
        // Every batch is durable and replays cleanly.
        drop(store);
        let again = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        assert_eq!(again.replayed(), 32);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_reports_invalid_batches_individually() {
        let path = tmp("group-invalid");
        let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        // Group of one invalid batch: typed error, nothing logged.
        let err = store
            .apply(&[TripleOp::Insert(t(0, 0, 99))])
            .expect_err("entity 99 is out of range");
        assert!(matches!(err, LiveStoreError::Invalid(_)));
        assert_eq!(store.applied(), 0);
        assert_eq!(store.committed_seq(), 0);
        // A valid batch after it commits under seq 0.
        let out = store.apply(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        assert_eq!(out.seq, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn apply_replicated_preserves_seq_skips_duplicates_rejects_gaps() {
        let primary_wal = tmp("repl-primary");
        let follower_wal = tmp("repl-follower");
        let primary = LiveGraphStore::open(base_graph(), &primary_wal, 0).unwrap();
        primary.apply(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        primary.apply(&[TripleOp::Insert(t(4, 0, 5))]).unwrap();
        let records = mmkgr_kg::store::wal::replay(&primary_wal).unwrap();
        assert_eq!(records.len(), 2);

        let follower = LiveGraphStore::open(base_graph(), &follower_wal, 0).unwrap();
        // A gap (seq 1 before seq 0) is refused — applying past missing
        // records would diverge from the primary.
        assert!(matches!(
            follower.apply_replicated(&records[1]),
            Err(LiveStoreError::Wal(_))
        ));
        let out = follower.apply_replicated(&records[0]).unwrap().unwrap();
        assert_eq!(out.seq, 0);
        // Duplicate delivery (reconnect overlap) is a clean skip.
        assert!(follower.apply_replicated(&records[0]).unwrap().is_none());
        let out = follower.apply_replicated(&records[1]).unwrap().unwrap();
        assert_eq!(out.seq, 1);
        // Same mutations, same epochs: the follower's graph converges.
        assert_eq!(follower.epoch(), primary.epoch());
        assert!(follower
            .pin()
            .has_edge(EntityId(4), RelationId(0), EntityId(5)));
        // The follower's local WAL holds the same committed records.
        drop(follower);
        assert_eq!(
            mmkgr_kg::store::wal::replay(&follower_wal).unwrap(),
            records
        );
        let _ = std::fs::remove_file(&primary_wal);
        let _ = std::fs::remove_file(&follower_wal);
    }

    #[test]
    fn epoch_lag_tracks_pinned_readers() {
        let path = tmp("lag");
        let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
        let pinned = store.pin(); // long-running reader at epoch 0
        store.apply(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        store.apply(&[TripleOp::Insert(t(4, 0, 5))]).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.epoch_lag(), 2);
        drop(pinned);
        assert_eq!(store.epoch_lag(), 0);
        let m = store.metrics();
        assert_eq!(m.applied, 2);
        assert_eq!(m.epoch, 2);
        let _ = std::fs::remove_file(&path);
    }
}
