//! The background compile queue and worker pool.
//!
//! Interpreters never compile on their request thread: once a function's
//! shared hotness counter crosses the policy threshold, a [`CompileJob`]
//! is enqueued here and a worker tiers the function up off-thread —
//! optimizing, precomputing both OSR entry tables, validating them, and
//! publishing the artifact to the shared [`CodeCache`].  Requests keep
//! interpreting the baseline until a later hot visit finds the artifact
//! ready.
//!
//! The queue is a *priority* queue, not FIFO: each job carries the
//! submitting function's hotness at enqueue time, and workers pop the
//! hottest job first — under skewed traffic the functions serving the
//! most requests get their artifacts earliest, while cold-tail jobs wait.
//! Ties pop in submission order.

use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ssair::passes::BlockFrequencies;
use ssair::reconstruct::Variant;
use ssair::Function;

use crate::cache::{compile_inlined, CacheKey, CodeCache};
use crate::metrics::{EngineEvent, EngineMetrics, EventLog};

/// One unit of background compilation work.
pub struct CompileJob {
    /// Cache slot the artifact will be published under (already claimed).
    pub key: CacheKey,
    /// The baseline function to optimize.
    pub base: Function,
    /// Scheduling priority: the submitting function's profile hotness at
    /// enqueue time.  Hotter jobs pop before colder ones.
    pub priority: u64,
    /// Block-frequency summary snapshotted from the shared profile at
    /// enqueue time — the input to profile-guided block layout on the
    /// O3/O4 rungs.  `None` when the submitter had no profile to offer
    /// (or layout is disabled); the worker then compiles layout-free.
    pub profile: Option<BlockFrequencies>,
    /// Hot call sites to splice ([`ssair::passes::InlineCalls`] runs
    /// ahead of the rung's mix), matching the key's `InlinedCallee`
    /// assumptions site for site.  Empty for call-preserving compiles.
    pub sites: Vec<ssair::passes::InlineSite>,
}

/// Heap entry: max by priority, then FIFO (lowest sequence first) among
/// equal priorities.
struct QueuedJob {
    priority: u64,
    seq: u64,
    job: CompileJob,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins; among equals the
        // *lower* sequence number must surface first.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The shared hot-first compile queue ([`CompilerPool`]'s backing store,
/// exposed for direct use in tests).
#[derive(Default)]
pub struct CompileQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    next_seq: u64,
    closed: bool,
}

impl CompileQueue {
    /// Pushes a job; hotter jobs pop first.
    pub fn push(&self, job: CompileJob) {
        let mut state = self.state.lock().expect("queue lock");
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(QueuedJob {
            priority: job.priority,
            seq,
            job,
        });
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks for the hottest queued job; `None` once the queue is closed
    /// and drained.
    pub fn pop(&self) -> Option<CompileJob> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(entry) = state.heap.pop() {
                return Some(entry.job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// The hottest queued job, if one is already pending (non-blocking).
    pub fn try_pop(&self) -> Option<CompileJob> {
        self.state
            .lock()
            .expect("queue lock")
            .heap
            .pop()
            .map(|e| e.job)
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: workers drain what is left, then exit.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// A fixed pool of compile workers draining a shared hot-first queue.
pub struct CompilerPool {
    queue: Arc<CompileQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl CompilerPool {
    /// Spawns `workers` background compile threads publishing into
    /// `cache`.
    pub fn new(
        workers: usize,
        cache: Arc<CodeCache>,
        metrics: Arc<EngineMetrics>,
        events: Arc<EventLog>,
    ) -> Self {
        let queue = Arc::new(CompileQueue::default());
        let handles = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                let events = Arc::clone(&events);
                std::thread::Builder::new()
                    .name(format!("osr-compile-{i}"))
                    .spawn(move || worker_loop(&queue, &cache, &metrics, &events))
                    .expect("spawn compile worker")
            })
            .collect();
        CompilerPool {
            queue,
            workers: handles,
        }
    }

    /// Enqueues a job (the caller must have claimed the cache slot).
    pub fn submit(&self, job: CompileJob, metrics: &EngineMetrics) {
        metrics.job_enqueued();
        self.queue.push(job);
    }
}

impl Drop for CompilerPool {
    fn drop(&mut self) {
        // Closing the queue lets every worker drain remaining jobs and
        // exit; joining keeps artifacts from being dropped mid-publish.
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    queue: &CompileQueue,
    cache: &CodeCache,
    metrics: &EngineMetrics,
    events: &EventLog,
) {
    while let Some(job) = queue.pop() {
        run_job(job, cache, metrics, events);
    }
}

/// Compiles one job and publishes (or abandons) its cache slot.  Shared
/// with the engine's synchronous compile path for debugger-attach
/// requests.
pub fn run_job(job: CompileJob, cache: &CodeCache, metrics: &EngineMetrics, events: &EventLog) {
    use std::sync::atomic::Ordering;
    let function = job.key.function.clone();
    let label = job.key.pipeline_label();
    match compile_inlined(
        job.base,
        &job.key.pipeline,
        &job.key.speculation(),
        job.profile.as_ref(),
        // The one reconstruction variant every engine table is built with.
        Variant::Avail,
        job.sites,
        job.key.inline_spec(),
    ) {
        Ok(cv) => {
            let nanos = cv.compile_nanos;
            let extension = (cv.extension_rounds > 0).then_some((cv.extension_rounds, cv.keep));
            cache.publish(&job.key, Arc::new(cv));
            metrics.job_finished(nanos);
            if let Some((rounds, kept)) = extension {
                metrics.extension_recompiles.fetch_add(1, Ordering::Relaxed);
                events.push(EngineEvent::ExtensionRecompiled {
                    function: function.clone(),
                    pipeline: label.clone(),
                    rounds,
                    kept,
                });
            }
            events.push(EngineEvent::Compiled {
                function,
                pipeline: label,
                micros: nanos / 1_000,
            });
        }
        Err(e) => {
            cache.abandon(&job.key);
            metrics.job_finished(0);
            events.push(EngineEvent::CompileRejected {
                function,
                reason: e.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pool_compiles_and_publishes() {
        let cache = Arc::new(CodeCache::new());
        let metrics = Arc::new(EngineMetrics::default());
        let events = Arc::new(EventLog::default());
        let pool = CompilerPool::new(
            2,
            Arc::clone(&cache),
            Arc::clone(&metrics),
            Arc::clone(&events),
        );
        let m = minic::compile(
            "fn f(n) {
                 var s = 0;
                 for (var i = 0; i < n; i = i + 1) { s = s + i * 3; }
                 return s;
             }",
        )
        .unwrap();
        let key = CacheKey::new("f", crate::cache::PipelineSpec::O2);
        assert!(cache.claim(&key));
        pool.submit(
            CompileJob {
                key: key.clone(),
                base: m.get("f").unwrap().clone(),
                priority: 1,
                profile: None,
                sites: Vec::new(),
            },
            &metrics,
        );
        // Wait for the background publish.
        for _ in 0..500 {
            if cache.get(&key).is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let cv = cache.get(&key).expect("artifact published");
        assert!(cv.tier_up.coverage() > 0.0);
        drop(pool);
        let snap = metrics.snapshot(0, 0, crate::cache::InvalidationCounts::default());
        assert_eq!(snap.compiles, 1);
        assert_eq!(snap.queue_depth, 0);
        assert!(matches!(
            events.drain().as_slice(),
            [EngineEvent::Compiled { .. }]
        ));
    }

    #[test]
    fn queue_pops_hottest_job_first_fifo_on_ties() {
        let m = minic::compile("fn f(x) { return x; }").unwrap();
        let base = m.get("f").unwrap();
        let job = |name: &str, priority: u64| CompileJob {
            key: CacheKey::new(name, crate::cache::PipelineSpec::O1),
            base: base.clone(),
            priority,
            profile: None,
            sites: Vec::new(),
        };
        let queue = CompileQueue::default();
        queue.push(job("cold", 2));
        queue.push(job("hot", 90));
        queue.push(job("warm", 40));
        queue.push(job("warm-later", 40));
        assert_eq!(queue.len(), 4);
        let order: Vec<String> = std::iter::from_fn(|| queue.try_pop())
            .map(|j| j.key.function)
            .collect();
        assert_eq!(order, ["hot", "warm", "warm-later", "cold"]);
        assert!(queue.is_empty());
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let m = minic::compile("fn f(x) { return x; }").unwrap();
        let queue = CompileQueue::default();
        queue.push(CompileJob {
            key: CacheKey::new("f", crate::cache::PipelineSpec::O1),
            base: m.get("f").unwrap().clone(),
            priority: 7,
            profile: None,
            sites: Vec::new(),
        });
        queue.close();
        assert!(queue.pop().is_some(), "queued work survives the close");
        assert!(queue.pop().is_none(), "then the queue ends");
    }
}
