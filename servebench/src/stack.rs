//! Booting and stopping the serving stack under test: a live primary
//! (`mmkgr serve --snapshot --live`) and one follower bootstrapped from
//! it over `POST /v1/admin/replicate` (`mmkgr serve --replicate-from`),
//! both in this process on loopback, each an `HttpServer` with
//! `HttpServerConfig::default()`. Both nodes boot through the program's
//! own loader, `load_registry_snapshot_live`, as the CLI does.
//!
//! Everything between opening the snapshot file and both `/readyz`
//! endpoints answering 200 is set-up time.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mmkgr_core::serve::{
    replication, HttpServer, HttpServerConfig, KgReasoner, LiveGraphStore, ModelRegistry,
    ReplicaSource, ReplicationState, RunningServer, ServeConfig,
};
use mmkgr_eval::snapshot::load_registry_snapshot_live;

use crate::loadgen::send;
use crate::util::ms;

#[derive(Clone, Copy, Debug)]
pub struct StackSpec {
    pub serve: ServeConfig,
    /// Whether the nodes can compact. They then compact only when the
    /// benchmark calls `LiveGraphStore::compact`, so that compactions
    /// land at the same points of every run; a batch-count cadence would
    /// move them with the run's speed.
    pub compact: bool,
    /// `--shards` of `mmkgr serve`: a scorer is range-split this many
    /// ways behind a `ShardedReasoner`.
    pub shards: usize,
}

pub struct Node {
    server: Option<RunningServer>,
    pub addr: SocketAddr,
    pub registry: Arc<ModelRegistry>,
    pub live: Arc<LiveGraphStore>,
    pub rep: Arc<ReplicationState>,
    /// The registry's default model.
    pub reasoner: Arc<dyn KgReasoner + Send + Sync>,
    tailer: Option<JoinHandle<()>>,
}

pub struct Stack {
    pub primary: Node,
    pub follower: Node,
    /// Opening the snapshot until both nodes are ready.
    pub setup: Duration,
    /// The follower's `replication::fetch_snapshot`, in ms.
    pub fetch_ms: f64,
}

fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if send(addr, "GET", "/readyz", "").0 == 200 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr}: /readyz not 200 after 60 s"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Boot one node from the registry snapshot at `snapshot`, with its WAL
/// at `wal`; a follower of `follow` when given.
fn boot_node(
    spec: &StackSpec,
    snapshot: &Path,
    wal: &Path,
    follow: Option<SocketAddr>,
) -> Result<Node, String> {
    // u64::MAX batches never come, so only the benchmark's own
    // `compact()` calls fold; 0 installs no rewrite hook at all.
    let compact_every = if spec.compact { u64::MAX } else { 0 };
    let mut loaded =
        load_registry_snapshot_live(snapshot, Some(spec.serve), spec.shards, wal, compact_every)
            .map_err(|e| format!("{}: {e}", snapshot.display()))?;
    let live = Arc::clone(loaded.registry.live().ok_or("live boot has no store")?);
    let reasoner = Arc::clone(loaded.registry.get(None).map_err(|e| format!("{e:?}"))?.1);
    let source = ReplicaSource {
        snapshot: snapshot.to_path_buf(),
        wal: wal.to_path_buf(),
    };
    let rep = Arc::new(match follow {
        None => ReplicationState::primary(source),
        Some(p) => ReplicationState::follower(p.to_string(), source),
    });
    loaded.registry.set_replication(Arc::clone(&rep));
    let registry = Arc::new(loaded.registry);

    let server = HttpServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&registry),
        HttpServerConfig {
            start_ready: false,
            ..HttpServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?
    .spawn();
    let addr = server.addr();
    let tailer = follow.map(|_| {
        let (reg, rep) = (Arc::clone(&registry), Arc::clone(&rep));
        std::thread::spawn(move || replication::run_tailer(reg, rep))
    });
    if follow.is_some() {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !rep.is_caught_up() {
            if Instant::now() > deadline {
                return Err("follower did not catch up within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    server.mark_ready();
    wait_ready(addr)?;
    Ok(Node {
        server: Some(server),
        addr,
        registry,
        live,
        rep,
        reasoner,
        tailer,
    })
}

/// Boot primary and follower from `input` in fresh directories under
/// `dir`. The input is hard-linked, never copied or edited: compaction
/// replaces a node's snapshot by rename, so the input stays pristine for
/// the next set-up.
pub fn boot(spec: &StackSpec, input: &Path, dir: &Path) -> Result<Stack, String> {
    let (pdir, fdir) = (dir.join("primary"), dir.join("follower"));
    for d in [&pdir, &fdir] {
        std::fs::create_dir_all(d).map_err(|e| e.to_string())?;
    }
    let psnap = pdir.join("graph.mmkg");
    std::fs::hard_link(input, &psnap)
        .or_else(|_| std::fs::copy(input, &psnap).map(|_| ()))
        .map_err(|e| format!("stage snapshot: {e}"))?;

    let t = Instant::now();
    let primary = boot_node(spec, &psnap, &pdir.join("graph.wal"), None)?;
    let fsnap = fdir.join("graph.mmkg");
    let tf = Instant::now();
    replication::fetch_snapshot(&primary.addr.to_string(), &fsnap, 10)
        .map_err(|e| format!("follower bootstrap: {e}"))?;
    let fetch_ms = ms(tf.elapsed());
    let follower = boot_node(spec, &fsnap, &fdir.join("graph.wal"), Some(primary.addr))?;
    Ok(Stack {
        primary,
        follower,
        setup: t.elapsed(),
        fetch_ms,
    })
}

impl Stack {
    /// Block until the follower's watermark reaches the primary's.
    pub fn await_follower(&self, within: Duration) -> Result<(), String> {
        let deadline = Instant::now() + within;
        while self.follower.live.committed_seq() < self.primary.live.committed_seq() {
            if Instant::now() > deadline {
                return Err(format!(
                    "follower stranded at seq {} behind primary head {} for {} s",
                    self.follower.live.committed_seq(),
                    self.primary.live.committed_seq(),
                    within.as_secs()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Stop both nodes and join every thread they started: the follower
    /// is promoted (which ends its tail loop), the primary shut down,
    /// the tailer joined, then the follower shut down.
    pub fn shutdown(mut self) {
        self.follower.rep.promote();
        if let Some(s) = self.primary.server.take() {
            s.shutdown();
        }
        if let Some(t) = self.follower.tailer.take() {
            let _ = t.join();
        }
        if let Some(s) = self.follower.server.take() {
            s.shutdown();
        }
    }
}

/// Where a node's files live inside a run directory.
pub fn setup_dir(run: &Path, i: usize) -> PathBuf {
    run.join(format!("setup-{i}"))
}
