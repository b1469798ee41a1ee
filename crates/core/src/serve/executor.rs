//! The serving stack's one thread pool: a fixed set of persistent
//! threads fed from one task channel, under supervision.
//!
//! [`super::WorkerPool`] (batch answering) and
//! [`super::ShardedReasoner`] (shard fan-out) each own an [`Executor`].
//! Supervision has three parts, each in exactly one place:
//!
//! - **Containment**: every task runs under one `catch_unwind`; its
//!   result, or its panic message, goes back to the submitter over the
//!   reply channel [`Executor::submit`] returns. A panicking task never
//!   kills its thread.
//! - **Death**: the chaos hook [`faults::on_worker_job`] fires in the
//!   thread loop, outside that guard, on task receipt. A fired fault
//!   kills the thread and drops the task it held unrun, and with it the
//!   task's reply sender. The submitter keeps no sender of its own, so
//!   its reply channel disconnects once every task has either replied or
//!   died. A disconnect before the last reply therefore means "some task
//!   died unfinished", and the submitter decides what to do: the batch
//!   pool resubmits, the shard fan-out counts the shard as failed.
//! - **Respawn**: [`Executor::submit`] replaces dead threads before it
//!   queues anything, bumping [`faults::WORKER_RESPAWNS`] once per
//!   replacement.
//!
//! No wait in here polls: submitters block on their reply channel,
//! bounded only by their own deadline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use super::{faults, panic_message, Budget};

/// A queued unit of work, already wrapped with its unwind guard and
/// reply sender.
type Task = Box<dyn FnOnce() + Send>;

/// What a submitted task sends back: its value, or its panic message.
pub(crate) type Reply<T> = Result<T, String>;

/// Wait for the next reply on a channel [`Executor::submit`] returned,
/// bounded only by `budget`. `Disconnected` means every task still owed
/// a reply died with its thread.
pub(crate) fn next_reply<T>(
    replies: &mpsc::Receiver<Reply<T>>,
    budget: Budget,
) -> Result<Reply<T>, mpsc::RecvTimeoutError> {
    match budget.remaining() {
        None => replies
            .recv()
            .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        Some(left) => replies.recv_timeout(left),
    }
}

/// One pool thread and its death flag.
struct PoolThread {
    handle: JoinHandle<()>,
    dead: Arc<AtomicBool>,
}

/// Raises a thread's death flag if dropped while unwinding.
struct Obituary<'a>(&'a AtomicBool);

impl Drop for Obituary<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn spawn(rx: &Arc<Mutex<mpsc::Receiver<Task>>>) -> PoolThread {
    let rx = Arc::clone(rx);
    let dead = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&dead);
    let handle = std::thread::spawn(move || loop {
        // One receiver, shared: idle threads block here. The guard is
        // released before the task runs.
        let task = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(task) => task,
            Err(_) => return, // executor dropped and queue drained
        };
        // Declared after `task`, so a fault unwinding out of the hook
        // drops the obituary, raising the flag, before it drops the task
        // and its reply sender: a submitter that sees its replies
        // disconnect always finds this thread marked dead.
        let obituary = Obituary(&flag);
        faults::on_worker_job();
        std::mem::forget(obituary);
        task();
    });
    PoolThread { handle, dead }
}

/// A fixed set of supervised threads (see the module docs).
pub(crate) struct Executor {
    tx: Option<mpsc::Sender<Task>>,
    rx: Arc<Mutex<mpsc::Receiver<Task>>>,
    threads: Mutex<Vec<PoolThread>>,
}

impl Executor {
    /// Spawn `threads` threads (at least one).
    pub(crate) fn new(threads: usize) -> Executor {
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..threads.max(1)).map(|_| spawn(&rx)).collect();
        Executor {
            tx: Some(tx),
            rx,
            threads: Mutex::new(threads),
        }
    }

    /// Number of threads.
    pub(crate) fn threads(&self) -> usize {
        self.threads.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Replace dead threads, then queue every task in `works`. Returns
    /// the channel their replies arrive on, in completion order. The
    /// caller holds no sender, so the channel disconnects once every task
    /// has replied or died with its thread.
    pub(crate) fn submit<T, F>(
        &self,
        works: impl IntoIterator<Item = F>,
    ) -> mpsc::Receiver<Reply<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.replace_dead();
        let queue = self.tx.as_ref().expect("executor open while alive");
        let (reply, replies) = mpsc::channel();
        for work in works {
            let reply = reply.clone();
            queue
                .send(Box::new(move || {
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
                        .map_err(|payload| panic_message(&*payload));
                    // The submitter may have stopped waiting (deadline).
                    let _ = reply.send(out);
                }))
                .expect("the executor holds its own receiver");
        }
        replies
    }

    fn replace_dead(&self) {
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        for slot in threads.iter_mut() {
            if slot.dead.load(Ordering::Acquire) {
                let dead = std::mem::replace(slot, spawn(&self.rx));
                let _ = dead.handle.join();
                faults::WORKER_RESPAWNS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.tx.take(); // close the channel: threads drain it, then exit
        for t in self
            .threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = t.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_carry_values_and_panic_messages() {
        // Fault plans are process-global: hold the lock so a concurrent
        // test's plan cannot kill these threads.
        let _guard = faults::install(faults::FaultPlan::new());
        let exec = Executor::new(2);
        let replies = exec.submit((0..4).map(|i| {
            move || {
                if i == 2 {
                    panic!("task {i} failed");
                }
                i * 10
            }
        }));
        let mut got: Vec<Reply<i32>> = replies.iter().collect();
        got.sort_by_key(|r| r.clone().unwrap_or(-1));
        assert_eq!(
            got,
            vec![Err("task 2 failed".to_string()), Ok(0), Ok(10), Ok(30)]
        );
        // The panicking task did not kill its thread.
        assert_eq!(exec.threads(), 2);
        let again: Vec<Reply<i32>> = exec.submit([|| 7]).iter().collect();
        assert_eq!(again, vec![Ok(7)]);
    }

    #[test]
    fn a_killed_thread_disconnects_its_task_and_is_replaced_at_submit() {
        let exec = Executor::new(1);
        let before = faults::WORKER_RESPAWNS.load(Ordering::Relaxed);
        {
            let _guard = faults::install(faults::FaultPlan::new().with_worker_panic(1));
            let replies = exec.submit([|| 1]);
            // The only thread died on receipt: the task never ran and the
            // channel reports it by disconnecting.
            assert!(replies.recv().is_err());
        }
        let replies = exec.submit([|| 2]);
        assert_eq!(replies.recv().unwrap(), Ok(2));
        assert!(faults::WORKER_RESPAWNS.load(Ordering::Relaxed) > before);
        assert_eq!(exec.threads(), 1);
    }

    #[test]
    fn drop_runs_queued_tasks_then_joins() {
        // Fault plans are process-global: hold the lock so a concurrent
        // test's plan cannot kill these threads.
        let _guard = faults::install(faults::FaultPlan::new());
        let exec = Executor::new(1);
        let token = Arc::new(());
        let replies = exec.submit((0..3).map(|_| {
            let token = Arc::clone(&token);
            move || drop(token)
        }));
        drop(exec);
        assert_eq!(replies.iter().count(), 3);
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
