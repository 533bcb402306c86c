//! The shared query pool for scatter-gather statistical queries.
//!
//! A cached index-tree query is a few-microsecond walk, cheaper than
//! handing it to another thread, so the requesting thread answers those
//! itself: it tries each sub-query on an in-process shard in cache-only
//! mode first, holding no registry lock during the walk. Only work that
//! may block comes here — a sub-query that needs a hydration or a store
//! read (one task each, so the reads overlap) and each remote shard's leg
//! (pipelined on one connection). The service keeps one pool of
//! long-lived threads ([`QueryPool`]) and hands it closures over a single
//! shared channel: whichever thread is idle picks up the next task. The
//! caller submits each task as soon as it finds the next one, keeps the
//! last, runs it and gathers the rest.
//!
//! Invariant: pool tasks never submit to the pool and never wait on
//! another task; only the requesting thread waits, on its own replies.
//! A task therefore always runs to completion once a thread picks it up,
//! so the pool cannot deadlock however many queries share it.

use parking_lot::Mutex;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send>;

/// Threads beyond one per shard. Fewer threads lost on the `archive`
/// workload, whose 50 µs store reads only overlap when enough of them run
/// at once: 4 threads in total measured −10% throughput against
/// `shards + 4` (2 vCPU, 15 s runs).
const EXTRA_THREADS: usize = 4;

/// A FIFO pool of query threads sharing one receiver. Dropping the pool
/// drains queued tasks and joins the threads.
pub(crate) struct QueryPool {
    tx: Sender<Task>,
    handles: Vec<JoinHandle<()>>,
    /// Tasks submitted so far, for tests that pin which queries reach
    /// the pool.
    #[cfg(test)]
    pub(crate) submitted: std::sync::atomic::AtomicUsize,
}

impl QueryPool {
    /// A pool sized for a service of `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        let (tx, rx) = channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..shards + EXTRA_THREADS)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("tc-query-{i}"))
                    .spawn(move || loop {
                        // Classic shared-receiver pool: hold the lock only
                        // while waiting for the next task.
                        let task = rx.lock().recv();
                        match task {
                            Ok(task) => {
                                // Tasks do their own panic containment;
                                // this backstop keeps the thread alive.
                                let _ =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                            }
                            Err(_) => break,
                        }
                    })
                    // lint: allow(panic-freedom) — one-time pool construction at service startup; spawn failure here means the process cannot run at all
                    .expect("spawn query worker")
            })
            .collect();
        QueryPool {
            tx,
            handles,
            #[cfg(test)]
            submitted: Default::default(),
        }
    }

    /// Runs `task` on an idle pool thread; inline if the pool is shutting
    /// down.
    pub(crate) fn exec(&self, task: Task) {
        #[cfg(test)]
        self.submitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Err(e) = self.tx.send(task) {
            (e.0)();
        }
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        drop(std::mem::replace(&mut self.tx, channel().0));
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn runs_on_every_worker() {
        // Each task holds its thread at the barrier until every thread
        // holds one, so the tasks provably ran on distinct workers.
        let pool = QueryPool::new(2);
        let n = pool.handles.len();
        assert_eq!(n, 2 + EXTRA_THREADS);
        let barrier = Arc::new(Barrier::new(n));
        let (tx, rx) = channel();
        for _ in 0..n {
            let barrier = barrier.clone();
            let tx = tx.clone();
            pool.exec(Box::new(move || {
                barrier.wait();
                tx.send(std::thread::current().id()).unwrap();
            }));
        }
        let ids: HashSet<_> = (0..n).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn drop_runs_queued_tasks_and_joins() {
        let pool = QueryPool::new(1);
        let (tx, rx) = channel();
        for _ in 0..32 {
            let tx = tx.clone();
            pool.exec(Box::new(move || tx.send(()).unwrap()));
        }
        drop(pool);
        drop(tx);
        assert_eq!(rx.iter().count(), 32, "queued tasks drained before join");
    }
}
