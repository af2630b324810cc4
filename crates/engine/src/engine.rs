//! The tiered-execution service core: shared cache + compiler pool + the
//! ladder controller, with `run_batch` kept as a thin compatibility
//! wrapper over the persistent session API ([`crate::EngineHandle`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssair::interp::{ExecError, Val};
use ssair::passes::{BlockFrequencies, InlineCalls, InlineSite};
use ssair::reconstruct::Direction;
use ssair::{BlockId, Function, InstId, Module};
use tinyvm::profile::{
    AssumptionKind, InlineExitTarget, InlineSpeculationPolicy, LocalProfile, Tier, TierController,
    TierDecision, TierTarget,
};
use tinyvm::runtime::{DeoptPolicy, OsrEvent, TransitionOptions, Vm};

use crate::cache::{
    vet_generic_escape, CacheKey, CodeCache, CompileError, CompiledVersion, InlineSpec,
    PipelineSpec, Speculation,
};
use crate::metrics::{DeoptReason, EngineEvent, EngineMetrics, EventLog, MetricsSnapshot};
use crate::pool::{run_job, CompileJob, CompilerPool};
use crate::session::{RequestId, ResultEvent};
use crate::tiers::{LadderPolicy, TierPolicy};
use crate::trace::{RequestTrace, TableKind, TraceStore, TraceTransition};

pub use tinyvm::profile::{ProfileTable, SpeculationPolicy, ValueSpeculationPolicy};

/// Engine-wide policy knobs.
#[derive(Clone, Debug)]
pub struct EnginePolicy {
    /// The tier ladder: pipelines per rung and per-tier hotness
    /// thresholds.
    pub tiers: Arc<dyn TierPolicy>,
    /// Background compile workers.
    pub compile_workers: usize,
    /// Request-execution workers per session (and per `run_batch`).
    pub batch_workers: usize,
    /// Interpreter fuel per request.
    pub fuel: usize,
    /// Maximum requests waiting (submitted but not yet picked up by a
    /// worker) per session before [`crate::EngineHandle::try_submit`]
    /// reports [`crate::SubmitError::QueueFull`] and
    /// [`crate::EngineHandle::submit`] blocks.
    pub queue_depth: usize,
    /// Profile-guided block layout: when set (the default), compile jobs
    /// for the O3/O4 rungs snapshot the function's edge profile into a
    /// [`BlockFrequencies`] summary and the optimizer reorders blocks
    /// hot-fallthrough-first.  Disable to measure the layout's effect
    /// (the benchmark suite's `layout` block does exactly that).
    pub layout: bool,
    /// Profile-guided inlining: when set (the default), a climb into the
    /// O3/O4 rungs consults the call-edge profile
    /// ([`ProfileTable::inline_sites`]) and compiles a version with the
    /// dominant callees spliced in ([`ssair::passes::InlineCalls`]),
    /// guarded by cross-function deopt.  Disable to measure the
    /// inlining's effect (the benchmark suite's `inline` block does
    /// exactly that).
    pub inlining: bool,
}

impl EnginePolicy {
    /// A two-rung O1/O2 chain with explicit thresholds.
    pub fn two_tier(o1_after: u64, o2_after: u64) -> Self {
        EnginePolicy {
            tiers: Arc::new(LadderPolicy::two_tier(o1_after, o2_after)),
            ..EnginePolicy::default()
        }
    }

    /// The full `O0 → O1 → O2 → O3` chain with explicit thresholds.
    pub fn three_tier(o1_after: u64, o2_after: u64, o3_after: u64) -> Self {
        EnginePolicy {
            tiers: Arc::new(LadderPolicy::three_tier(o1_after, o2_after, o3_after)),
            ..EnginePolicy::default()
        }
    }

    /// The machine-topped `O0 → O1 → O2 → O3 → O4` chain with explicit
    /// thresholds.
    pub fn four_tier(o1_after: u64, o2_after: u64, o3_after: u64, o4_after: u64) -> Self {
        EnginePolicy {
            tiers: Arc::new(LadderPolicy::four_tier(
                o1_after, o2_after, o3_after, o4_after,
            )),
            ..EnginePolicy::default()
        }
    }
}

impl Default for EnginePolicy {
    fn default() -> Self {
        EnginePolicy {
            tiers: Arc::new(LadderPolicy::default()),
            compile_workers: 2,
            batch_workers: 4,
            fuel: 50_000_000,
            queue_depth: 1024,
            layout: true,
            inlining: true,
        }
    }
}

/// How a request wants to be executed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Normal tiered execution: interpret, climb the ladder while hot and
    /// compiled (`O0 → O1 → … → top`).
    Tiered,
    /// Debugger attach: run the *top-tier* version and tier down to the
    /// baseline through the precomputed backward table at the first
    /// opportunity.
    Debug,
}

/// One unit of work for [`crate::EngineHandle::submit`] /
/// [`Engine::run_batch`].
#[derive(Clone, Debug)]
pub struct Request {
    /// Function to execute.
    pub function: String,
    /// Arguments.
    pub args: Vec<Val>,
    /// Execution mode.
    pub mode: ExecMode,
    /// Queueing budget in *microseconds* since submission: a request
    /// still waiting for a worker once it has waited longer than its
    /// budget is dropped instead of executed, streamed as
    /// [`crate::ResultEvent::DeadlineExpired`] and counted in
    /// [`MetricsSnapshot::deadline_expired`] — serving a reply nobody
    /// waits for anymore only steals a worker from live traffic.  A
    /// budget of `0` expires unconditionally at pickup; `None` (the
    /// default) never expires.
    pub deadline: Option<u64>,
}

impl Request {
    /// A tiered request.
    pub fn tiered(function: impl Into<String>, args: Vec<Val>) -> Self {
        Request {
            function: function.into(),
            args,
            mode: ExecMode::Tiered,
            deadline: None,
        }
    }

    /// A debugger-attach (deopt) request.
    pub fn debug(function: impl Into<String>, args: Vec<Val>) -> Self {
        Request {
            function: function.into(),
            args,
            mode: ExecMode::Debug,
            deadline: None,
        }
    }

    /// Sets the queueing budget: the request is dropped (never executed)
    /// once it has waited for a worker longer than `micros` microseconds
    /// after submission (`0` always expires).
    #[must_use]
    pub fn with_deadline(mut self, micros: u64) -> Self {
        self.deadline = Some(micros);
        self
    }
}

/// Why a request failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The requested function does not exist in the engine's module.
    UnknownFunction(String),
    /// The interpreter failed.
    Exec(ExecError),
    /// The request's [`Request::deadline`] elapsed while it waited for a
    /// worker; it was dropped without executing.
    DeadlineExpired,
    /// An engine-internal failure (e.g. a request worker panicked); the
    /// request did not complete.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EngineError::Exec(e) => write!(f, "execution failed: {e}"),
            EngineError::DeadlineExpired => {
                write!(f, "deadline elapsed while the request was queued")
            }
            EngineError::Internal(reason) => write!(f, "engine-internal failure: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// The outcome of one [`Engine::run_batch`] call.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request results, in request order.
    pub results: Vec<Result<Option<Val>, EngineError>>,
    /// Events recorded while the batch ran (transitions, compiles).
    pub events: Vec<EngineEvent>,
    /// Aggregate metrics at batch end (cumulative over the engine's life).
    pub metrics: MetricsSnapshot,
}

impl BatchReport {
    /// Transitions of the given direction fired during this batch.
    pub fn transitions(&self, direction: Direction) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(e, EngineEvent::Transition { event, .. }
                         if event.direction == direction)
            })
            .count()
    }
}

/// Everything a request worker needs, shared between the [`Engine`] front
/// end, its persistent sessions, and the compile pool.
pub(crate) struct EngineCore {
    pub(crate) vm: Vm,
    pub(crate) policy: EnginePolicy,
    pub(crate) cache: Arc<CodeCache>,
    pub(crate) pool: CompilerPool,
    pub(crate) metrics: Arc<EngineMetrics>,
    pub(crate) events: Arc<EventLog>,
    pub(crate) profiles: ProfileTable,
    /// Per-request lifecycle traces (bounded; see [`crate::trace`]).
    pub(crate) traces: TraceStore,
    /// Engine-global request-id allocator (ids stay unique across every
    /// concurrent session).
    pub(crate) next_request_id: AtomicU64,
}

/// A multi-tenant tiered-execution service over one module.
///
/// See the crate docs for the full ladder lifecycle.  Cloning an `Engine`
/// is cheap and shares the cache, metrics and compile pool.
#[derive(Clone)]
pub struct Engine {
    pub(crate) core: Arc<EngineCore>,
}

impl Engine {
    /// Builds an engine over `module` and spawns its compile workers.
    pub fn new(module: Module, policy: EnginePolicy) -> Self {
        let cache = Arc::new(CodeCache::new());
        let metrics = Arc::new(EngineMetrics::default());
        let events = Arc::new(EventLog::default());
        let pool = CompilerPool::new(
            policy.compile_workers,
            Arc::clone(&cache),
            Arc::clone(&metrics),
            Arc::clone(&events),
        );
        Engine {
            core: Arc::new(EngineCore {
                vm: Vm::new(module).with_fuel(policy.fuel),
                policy,
                cache,
                pool,
                metrics,
                events,
                profiles: ProfileTable::default(),
                traces: TraceStore::default(),
                next_request_id: AtomicU64::new(0),
            }),
        }
    }

    /// The engine's module.
    pub fn module(&self) -> &Module {
        &self.core.vm.module
    }

    /// The shared code cache.
    pub fn cache(&self) -> &CodeCache {
        &self.core.cache
    }

    /// The engine's policy.
    pub fn policy(&self) -> &EnginePolicy {
        &self.core.policy
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.snapshot()
    }

    /// Current cross-request hotness of `function` at `tier`.
    pub fn hotness(&self, function: &str, tier: Tier) -> u64 {
        self.core.profiles.hotness(function, tier)
    }

    /// Total cross-request hotness of `function` across every tier.
    pub fn total_hotness(&self, function: &str) -> u64 {
        self.core.profiles.total_hotness(function)
    }

    /// Total uncommon-path hits climbed frames of `function` have
    /// recorded against its baseline branch profile — how contested the
    /// function's speculation currently is (high values with few
    /// [`MetricsSnapshot::guard_failures`] mean the profile tolerates the
    /// cold traffic; high values *with* guard failures mean the traffic
    /// shifted).
    pub fn uncommon_hits(&self, function: &str) -> u64 {
        self.core.profiles.uncommon_hits(function)
    }

    /// Speculation-failure deopts recorded against `function` (the input
    /// to the ladder's adaptive threshold demotion,
    /// [`TierPolicy::threshold_after_deopts`]).
    pub fn deopt_count(&self, function: &str) -> u64 {
        self.core.profiles.deopt_count(function)
    }

    /// Synchronously compiles every rung of `function`'s transition graph
    /// — including the machine rung's register-allocated artifact when
    /// the graph tops out at [`PipelineSpec::O4`] — and builds (and
    /// validates) the composed tables along *every* rung-chain suffix:
    /// adjacent hops plus every chained prefix from every starting rung
    /// (`O1 → O2`, `O1 → O3`, `O2 → O4`, …; each one Theorem 3.4 fold
    /// over the previous, memoized individually).  Subsequent traffic
    /// therefore climbs the whole graph — from whichever rung it
    /// currently runs — without waiting on background compiles or
    /// first-hop composition: how a service warms its cache before
    /// taking load.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownFunction`] when the module has no such
    /// function.
    ///
    /// # Panics
    ///
    /// Panics if a rung's compile is rejected by entry-table validation
    /// (a mapping-construction bug, never a user error).  A rejected
    /// *composed* table is not fatal — the engine simply never serves that
    /// hop — but is recorded as a [`EngineEvent::CompileRejected`].
    pub fn prewarm(&self, function: &str) -> Result<(), EngineError> {
        let base = self
            .core
            .vm
            .module
            .get(function)
            .ok_or_else(|| EngineError::UnknownFunction(function.to_string()))?;
        let tiers = Arc::clone(&self.core.policy.tiers);
        let rungs: Vec<Arc<CompiledVersion>> = (1..=tiers.top().0)
            .map(|rung| {
                let spec = tiers.spec(Tier(rung)).expect("rung within graph").clone();
                self.core
                    .ensure_compiled(&CacheKey::new(function, spec), base)
            })
            .collect();
        // Every suffix of the chain, so a frame sitting at any rung has
        // its straight-to-top table ready (O1→O4, O2→O4, O3→O4, …).
        // Later suffixes re-fold only memoized tables, so this is one
        // build per distinct (from, to) pair, not a quadratic recompose.
        for j in 0..rungs.len() {
            self.core.composed_chain(function, &rungs[j..]);
        }
        Ok(())
    }

    /// Cumulative instrumented *visits* per rung across every function —
    /// how often traffic reached each tier's OSR points.  This counts
    /// visits, **not** time; for wall-clock residency see
    /// [`Engine::rung_time_residency`].  (Renamed from `rung_residency`,
    /// whose name hid exactly that distinction.)
    pub fn rung_visit_residency(&self) -> std::collections::BTreeMap<Tier, u64> {
        self.core.profiles.per_tier_totals()
    }

    /// Cumulative execution *time* per rung across every function,
    /// nanoseconds — how long traffic actually ran at each tier.
    /// Measured by the request controllers with one `Instant` stamp per
    /// hop (batched, never on the interpreter loop), so short-lived rungs
    /// cost nothing to attribute.
    pub fn rung_time_residency(&self) -> std::collections::BTreeMap<Tier, u64> {
        self.core.profiles.per_tier_time_nanos()
    }

    /// The lifecycle trace of a request served by any of this engine's
    /// sessions, at whatever stage it has reached (`None` for unknown or
    /// long-evicted ids).
    pub fn trace(&self, id: RequestId) -> Option<RequestTrace> {
        self.core.traces.get(id.0)
    }

    /// Executes `requests` concurrently against the shared cache and waits
    /// for all of them — a thin compatibility wrapper over the persistent
    /// session API ([`Engine::start`](crate::Engine::start) /
    /// [`crate::EngineHandle`]).  Results are deterministic per request
    /// (OSR preserves semantics, so a request's value does not depend on
    /// when — or whether — transitions fire); events and metrics reflect
    /// the actual interleaving.
    pub fn run_batch(&self, requests: &[Request]) -> BatchReport {
        let handle = self.start();
        let ids: Vec<RequestId> = requests.iter().map(|r| handle.submit(r.clone())).collect();
        let index_of: HashMap<RequestId, usize> =
            ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let mut results: Vec<Option<Result<Option<Val>, EngineError>>> =
            requests.iter().map(|_| None).collect();
        let mut remaining = requests.len();
        while remaining > 0 {
            let Some(event) = handle.next_event() else {
                break;
            };
            match event {
                ResultEvent::Completed { id, result } => {
                    results[index_of[&id]] = Some(result);
                    remaining -= 1;
                }
                ResultEvent::DeadlineExpired { id, .. } => {
                    results[index_of[&id]] = Some(Err(EngineError::DeadlineExpired));
                    remaining -= 1;
                }
                ResultEvent::Engine(_) => {}
            }
        }
        handle.shutdown();
        BatchReport {
            results: results
                .into_iter()
                .map(|slot| slot.expect("every request completed"))
                .collect(),
            events: self.core.events.drain(),
            metrics: self.metrics(),
        }
    }
}

impl EngineCore {
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let (hits, misses) = self.cache.counters();
        self.metrics
            .snapshot(hits, misses, self.cache.invalidation_counts())
    }

    /// Executes one request on the current thread.
    pub(crate) fn run_one(&self, id: u64, req: &Request) -> Result<Option<Val>, EngineError> {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // Borrow the function from the module; it is only cloned when a
        // compile job actually needs an owned copy.
        let base = self
            .vm
            .module
            .get(&req.function)
            .ok_or_else(|| EngineError::UnknownFunction(req.function.clone()))?;
        match req.mode {
            ExecMode::Tiered => {
                let mut controller = EngineController::new(self, &req.function, base, &req.args);
                // The controller only ever asks for ladder hops and inline
                // exits, which `TransitionOptions` does not affect.
                let options = TransitionOptions::default();
                let outcome = self
                    .vm
                    .run_tiered(base, &req.args, &options, &mut controller);
                // Observations since the last instrumented visit still
                // belong to the shared speculation profile — even when the
                // request itself failed (e.g. fuel exhaustion).
                controller.flush_profile(true);
                // Close the final rung's time slice and flush the whole
                // batch of per-rung deltas (one lock per request).
                controller.finish_timing();
                let (value, events) = outcome?;
                self.record_events(
                    id,
                    &req.function,
                    events,
                    &controller.hops,
                    controller.rung_nanos.clone(),
                );
                Ok(value)
            }
            ExecMode::Debug => {
                // Debugger attach: the top-tier version must exist *now*;
                // compile synchronously when the cache has no artifact yet.
                let top = self.policy.tiers.top();
                let Some(spec) = self.policy.tiers.spec(top).cloned() else {
                    // Empty ladder: nothing to deoptimize from.
                    return Ok(self.vm.run_plain(base, &req.args)?);
                };
                let cv = self.ensure_compiled(&CacheKey::new(&req.function, spec), base);
                // The cache's own artifacts ride the decision as `Arc`s:
                // nothing is copied per request.
                let (value, events) = self.vm.run_with_deopt(
                    &cv.versions,
                    &req.args,
                    &DeoptPolicy::default(),
                    Some(&cv.tier_down),
                )?;
                let labels = vec![
                    HopLabel {
                        from: top,
                        to: Tier::BASELINE,
                        composed: false,
                        speculated: false,
                        machine: false,
                        inlined: false,
                        guard_entry: false,
                        deopt: Some(DeoptReason::DebuggerAttach),
                        reclimb: false,
                        at_micros: self.events.now_micros(),
                    };
                    events.len()
                ];
                self.record_events(id, &req.function, events, &labels, Vec::new());
                Ok(value)
            }
        }
    }

    /// Records one request's transitions: events arrive in hop order, and
    /// `labels` carries the controller's tier annotations in the same
    /// order.  Backward hops additionally emit an [`EngineEvent::Deopt`]
    /// carrying the *why*; forward hops of frames that deopted earlier in
    /// the request emit an [`EngineEvent::Reclimb`].  Each hop also lands
    /// in the request's lifecycle trace (with the controller's `rung_nanos`
    /// time attribution) and feeds the transition-cost histogram.
    fn record_events(
        &self,
        request: u64,
        function: &str,
        events: Vec<OsrEvent>,
        labels: &[HopLabel],
        rung_nanos: Vec<(Tier, u64)>,
    ) {
        let mut trace_transitions = Vec::with_capacity(events.len());
        for (i, event) in events.into_iter().enumerate() {
            let label = labels.get(i).cloned().unwrap_or_default();
            self.metrics.transition_cost.record(event.nanos);
            trace_transitions.push(TraceTransition {
                at_micros: label.at_micros,
                from: label.from,
                to: label.to,
                direction: event.direction,
                kind: if label
                    .deopt
                    .as_ref()
                    .and_then(DeoptReason::violated_kind)
                    .is_some_and(|k| k == AssumptionKind::Inline)
                {
                    TableKind::InlineExit
                } else if label.speculated {
                    TableKind::ValueSpecialized
                } else if label.machine {
                    TableKind::Machine
                } else if label.composed {
                    TableKind::Composed
                } else {
                    TableKind::Direct
                },
                reclimb: label.reclimb,
                deopt: label.deopt.clone(),
                hop_nanos: event.nanos,
            });
            match event.direction {
                Direction::Forward => {
                    self.metrics.tier_ups.fetch_add(1, Ordering::Relaxed);
                    if label.composed {
                        self.metrics
                            .composed_tier_ups
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    if label.speculated && !label.guard_entry {
                        // A violating frame's deliberate guard entry is
                        // not a successful specialization — only hops of
                        // conforming frames count.
                        self.metrics
                            .value_specialized_tier_ups
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    if label.inlined {
                        self.metrics
                            .inlined_tier_ups
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    if label.reclimb {
                        self.metrics.reclimbs.fetch_add(1, Ordering::Relaxed);
                        self.events.push(EngineEvent::Reclimb {
                            request,
                            function: function.to_string(),
                            from_tier: label.from,
                            to_tier: label.to,
                        });
                    }
                }
                Direction::Backward => {
                    self.metrics.deopts.fetch_add(1, Ordering::Relaxed);
                    if let Some(reason) = &label.deopt {
                        match reason.violated_kind() {
                            Some(AssumptionKind::Bias) => {
                                self.metrics.guard_failures.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(AssumptionKind::Value) => {
                                self.metrics
                                    .value_guard_failures
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            Some(AssumptionKind::Inline) => {
                                self.metrics
                                    .inline_guard_failures
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            Some(AssumptionKind::Memory) | None => {}
                        }
                        self.events.push(EngineEvent::Deopt {
                            request,
                            function: function.to_string(),
                            from_tier: label.from,
                            to_tier: label.to,
                            reason: reason.clone(),
                        });
                    }
                }
            };
            self.events.push(EngineEvent::Transition {
                request,
                function: function.to_string(),
                from_tier: label.from,
                to_tier: label.to,
                composed: label.composed,
                speculated: label.speculated,
                inlined: label.inlined,
                event,
            });
        }
        self.traces
            .record_execution(request, trace_transitions, rung_nanos);
    }

    /// Snapshots the shared edge profile into the frequency summary a
    /// compile job lays blocks out by.  `None` below the O3 rung, when
    /// [`EnginePolicy::layout`] is off, or when no branch has drawn
    /// enough samples yet — the job then compiles layout-free.
    ///
    /// Advances the profile's drain epoch first: every controller holding
    /// a thread-local buffer drains at its next flush check, so the
    /// profile this snapshot misses is bounded by one flush interval and
    /// the *next* snapshot (the artifact's republish) sees it.
    pub(crate) fn layout_snapshot(
        &self,
        function: &str,
        spec: &PipelineSpec,
    ) -> Option<BlockFrequencies> {
        if !self.policy.layout || !matches!(spec, PipelineSpec::O3 | PipelineSpec::O4) {
            return None;
        }
        self.profiles.advance_epoch();
        let min = SpeculationPolicy::default().min_samples;
        let freqs = BlockFrequencies::from_edge_counts(&self.profiles.edge_totals(function), min);
        (!freqs.is_empty()).then_some(freqs)
    }

    /// Returns the compiled artifact for `key`, compiling on the calling
    /// thread if no one has yet, or waiting for an in-flight background
    /// compile.
    ///
    /// # Panics
    ///
    /// Panics if the compile is rejected by entry-table validation — that
    /// indicates a mapping-construction bug, never a user error.
    pub(crate) fn ensure_compiled(&self, key: &CacheKey, base: &Function) -> Arc<CompiledVersion> {
        if let Some(cv) = self.cache.get(key) {
            self.cache.count_hit();
            return cv;
        }
        self.cache.count_miss();
        loop {
            if let Some(cv) = self.cache.get(key) {
                return cv;
            }
            if self.cache.claim(key) {
                self.metrics.job_enqueued();
                run_job(
                    CompileJob {
                        key: key.clone(),
                        base: base.clone(),
                        // Synchronous path: the job never queues, so its
                        // priority is moot — mark it maximally urgent.
                        priority: u64::MAX,
                        profile: self.layout_snapshot(&key.function, &key.pipeline),
                        sites: Vec::new(),
                    },
                    &self.cache,
                    &self.metrics,
                    &self.events,
                );
                return self
                    .cache
                    .get(key)
                    .expect("synchronous compile failed entry-table validation");
            }
            // A background worker claimed the slot; its publish is imminent.
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The composed `from.opt → to.opt` table for `function`, built (and
    /// logged) on first use, memoized in the cache afterwards.
    pub(crate) fn composed_table(
        &self,
        function: &str,
        from: &CompiledVersion,
        to: &CompiledVersion,
    ) -> Result<Arc<ssair::feasibility::EntryTable>, CompileError> {
        let (result, built) = self.cache.composed(function, from, to, &self.vm.module);
        if built {
            self.log_composed(function, from, to, &result);
        }
        result
    }

    fn log_composed(
        &self,
        function: &str,
        from: &CompiledVersion,
        to: &CompiledVersion,
        result: &Result<Arc<ssair::feasibility::EntryTable>, CompileError>,
    ) {
        match result {
            Ok(table) => self.events.push(EngineEvent::Composed {
                function: function.to_string(),
                from: from.spec.name().to_string(),
                to: to.spec.name().to_string(),
                points: table.entries.len(),
            }),
            Err(e) => self.events.push(EngineEvent::CompileRejected {
                function: function.to_string(),
                reason: format!("composed {}→{}: {e}", from.spec.name(), to.spec.name()),
            }),
        }
    }

    /// Builds (and memoizes) the composed tables along a whole rung
    /// sequence: each adjacent `rungs[k-1] → rungs[k]` hop, plus every
    /// chained prefix `rungs[0] → rungs[k]` — the engine-side driver of
    /// [`ssair::feasibility::compose_entries_chain`]'s fold, with each
    /// prefix extended from the previous one by a single
    /// [`CodeCache::composed_prefix`] fold and memoized under its own
    /// rung pair.  A failed adjacent composition ends the chain (later
    /// prefixes would route through the rejected hop).
    pub(crate) fn composed_chain(&self, function: &str, rungs: &[Arc<CompiledVersion>]) {
        let mut prefix: Option<Arc<ssair::feasibility::EntryTable>> = None;
        for k in 1..rungs.len() {
            let Ok(adjacent) = self.composed_table(function, &rungs[k - 1], &rungs[k]) else {
                break;
            };
            prefix = if k == 1 {
                Some(adjacent)
            } else {
                let (result, built) = self.cache.composed_prefix(
                    function,
                    &rungs[0],
                    &rungs[k - 1],
                    &rungs[k],
                    prefix.as_ref().expect("prefix exists past the first fold"),
                    &adjacent,
                    &self.vm.module,
                );
                if built {
                    self.log_composed(function, &rungs[0], &rungs[k], &result);
                }
                match result {
                    Ok(table) => Some(table),
                    Err(_) => break,
                }
            };
        }
    }
}

/// One committed hop of a frame, as the engine labels it for the event
/// stream.
#[derive(Clone, Default)]
struct HopLabel {
    /// Rung the frame left.
    from: Tier,
    /// Rung the frame entered.
    to: Tier,
    /// Whether a composed version-to-version table served the hop.
    composed: bool,
    /// Whether the version entered is value-specialized (constant-seeded).
    speculated: bool,
    /// Whether the version entered executes on the register-allocated
    /// machine substrate (the O4 rung).
    machine: bool,
    /// Whether the version entered has hot call sites spliced in (an
    /// inline-speculating artifact).
    inlined: bool,
    /// Whether this forward hop is a deliberate *guard entry* — a
    /// violating frame hopping in only so its value guard can fire at
    /// the landing.  Guard entries are not counted as successful
    /// specialized tier-ups.
    guard_entry: bool,
    /// `Some` when the hop was a deopt, with the why.
    deopt: Option<DeoptReason>,
    /// Whether this upward hop re-climbs after an earlier deopt in the
    /// same request.
    reclimb: bool,
    /// When the hop landed, microseconds since the engine epoch.
    at_micros: u64,
}

/// A hop the controller has requested but that has not landed yet.
struct PendingHop {
    to: Tier,
    /// Artifact of the destination rung (`None` when falling to the
    /// baseline).
    artifact: Option<Arc<CompiledVersion>>,
    composed: bool,
    /// Whether the destination artifact is value-specialized.
    speculated: bool,
    /// Whether this is a violating frame's deliberate guard entry.
    guard_entry: bool,
    deopt: Option<DeoptReason>,
}

/// A planned value-guard escape, armed when the controller deliberately
/// hops a *violating* frame into a specialized version: the guard fires
/// at the forward landing — the first instrumented visit after the hop,
/// before a single specialized instruction executes — and takes this
/// pre-vetted route back out.  Every route is vetted with
/// [`vet_generic_escape`] at climb time, so the escape can never
/// launder speculation-tainted values into the violating frame.
struct ValueEscape {
    /// The vetted escape hop.
    target: TierTarget,
    /// Rung the escape lands on.
    to: Tier,
    /// Artifact of the landing rung (`None` for the baseline).
    artifact: Option<Arc<CompiledVersion>>,
    /// Whether a composed table serves the escape.
    composed: bool,
    /// The value-guard reason recorded on the deopt.
    reason: DeoptReason,
}

/// The engine's [`TierController`]: aggregates per-`(function, tier)`
/// hotness across requests, kicks off background compiles of the next
/// rung at the (cache- and deopt-adapted) edge threshold, and follows
/// only the [`crate::TierGraph`]'s edges through published cache
/// artifacts — directly off the baseline, through a composed (validated)
/// version-to-version table off any higher rung.
///
/// It also runs the speculation lifecycle.  At every rung it records the
/// conditional-branch edges its rung does not guard into the shared
/// per-rung profile; for guarded branches in a climbed frame it checks
/// each taken edge against the profiled bias and, once a branch's
/// uncommon path has been taken [`SpeculationPolicy::tolerance`] times
/// within the frame, deopts the frame mid-loop — along a graph down edge
/// chosen by [`TierPolicy::deopt_strategy`]: adaptively one rung when
/// the rung below is bias-neutral for the failing branch (via a composed
/// down-table), all the way to the baseline otherwise (via the
/// artifact's precomputed backward table).  The landed frame stays under
/// profiling and re-climbs once the (adaptively demoted,
/// [`TierPolicy::threshold_after_deopts`]) thresholds allow.
struct EngineController<'e> {
    core: &'e EngineCore,
    function: &'e str,
    base: &'e Function,
    /// The request's actual arguments — what the value guard checks a
    /// specialized artifact's speculation against, and the source of the
    /// parameter pins every hop carries
    /// ([`tinyvm::profile::TierTarget::pinned`]).
    args: &'e [Val],
    /// Parameter pins: `param value id → actual argument`, supplied to
    /// every hop so an OSR-entered frame can always re-read its arguments.
    pinned: Vec<(ssair::ValueId, Val)>,
    /// Thread-local profile buffer: edge observations, uncommon-path
    /// hits, and the one-shot argument-value observations, all batched
    /// here and drained into the shared [`ProfileTable`] only when the
    /// table's epoch advances (a compile was submitted), at hops, or at
    /// request end — the steady-state observe path touches no shared
    /// lock.
    local: LocalProfile,
    /// Memoized value-speculation verdict for the current climb epoch.
    spec_memo: Option<Speculation>,
    /// Frame-local value-speculation poison: set once a value guard fired
    /// (or a speculative route failed vetting), so this frame re-climbs
    /// on generic artifacts only — "without the stale assumption".
    no_value_spec: bool,
    /// Memoized inline-speculation verdict for the current climb epoch.
    inline_memo: Option<InlineSpec>,
    /// Frame-local inlining poison: set once an inline guard fired, so
    /// this frame re-climbs on call-preserving artifacts only.
    no_inline: bool,
    /// Frame-local `(hot hits, uncommon hits)` per *inline-guarded*
    /// branch since the last hop — the spliced analogue of
    /// `guard_stats`, keyed by the optimized CFG's guard blocks from the
    /// current artifact's [`crate::cache::InlinePlan::guards`] (the
    /// caller's own profile knows nothing about cloned callee blocks).
    inline_guard_stats: HashMap<BlockId, (u64, u64)>,
    /// The pre-vetted escape for a violating frame currently hopping into
    /// a specialized version; fired at the first observation after the
    /// landing.
    value_escape: Option<ValueEscape>,
    /// Rung the frame currently runs.
    tier: Tier,
    /// Artifact of the current rung (`None` at baseline).
    current: Option<Arc<CompiledVersion>>,
    /// Shared `(function, tier)` counter of the current rung.
    counter: Arc<AtomicU64>,
    /// Shared speculation-failure deopt counter of the function (cached so
    /// the hot observe path never takes the profile-table lock).
    deopt_counter: Arc<AtomicU64>,
    /// Hop requested but not yet landed.
    pending: Option<PendingHop>,
    /// Committed hops, in order.
    hops: Vec<HopLabel>,
    /// When the frame entered its current rung — stamped at controller
    /// creation and at each hop, *never* on the observe path.
    rung_entered: Instant,
    /// Execution nanoseconds per visited rung, in visit order: the
    /// batched per-request time attribution, flushed to the shared
    /// profile (and the request's trace) once the request finishes.
    rung_nanos: Vec<(Tier, u64)>,
    /// Whether this frame has deopted (used to label re-climbs).
    deopted: bool,
    /// Memoized `(deopts, threshold)` of the current rung's up edge —
    /// the cache-probe lookup behind [`TierPolicy::threshold_with_cache`]
    /// runs once per climb epoch, not once per loop iteration.  Cleared
    /// on every hop; recomputed when the deopt count moves.
    threshold_memo: Option<(u64, u64)>,
    /// Frame-local `(hot hits, uncommon hits)` per guarded branch since
    /// the last hop — the deopt decider: a guard fires only when the
    /// uncommon count reaches the policy tolerance *and* the observed
    /// uncommon rate exceeds what the profiled bias already allowed, so
    /// steady profile-consistent traffic never thrashes.
    guard_stats: HashMap<BlockId, (u64, u64)>,
    /// Memoized per-branch bias verdicts for the current climb.
    bias_cache: HashMap<BlockId, Option<BlockId>>,
    /// Whether this request already recorded its cache hit/miss.
    accounted: bool,
    /// Keys whose per-key probe history this request already fed (one
    /// probe per request per rung, so a long frame does not drown the
    /// hit-rate signal).
    probed: HashSet<CacheKey>,
    /// Keys this request already enqueued compile jobs for.
    enqueued: HashSet<CacheKey>,
    /// `(tier, point)` pairs where a hop was infeasible (never retried).
    failed_points: BTreeSet<(u8, InstId)>,
    /// Rungs whose outgoing composed table was rejected (never retried).
    blocked: BTreeSet<u8>,
}

impl<'e> EngineController<'e> {
    fn new(core: &'e EngineCore, function: &'e str, base: &'e Function, args: &'e [Val]) -> Self {
        let pinned: Vec<(ssair::ValueId, Val)> = args
            .iter()
            .enumerate()
            .take(base.params.len())
            .map(|(i, a)| (base.param_value(i), *a))
            .collect();
        let local_values: Vec<((usize, i64), u64)> = args
            .iter()
            .enumerate()
            .take(base.params.len())
            .filter_map(|(i, a)| match a {
                Val::Int(n) => Some(((i, *n), 1)),
                Val::Ptr(..) => None,
            })
            .collect();
        EngineController {
            core,
            function,
            base,
            args,
            pinned,
            local: LocalProfile::new(local_values),
            spec_memo: None,
            no_value_spec: false,
            inline_memo: None,
            no_inline: false,
            inline_guard_stats: HashMap::new(),
            value_escape: None,
            tier: Tier::BASELINE,
            current: None,
            counter: core.profiles.counter(function, Tier::BASELINE),
            deopt_counter: core.profiles.deopt_counter(function),
            pending: None,
            hops: Vec::new(),
            rung_entered: Instant::now(),
            rung_nanos: Vec::new(),
            deopted: false,
            threshold_memo: None,
            guard_stats: HashMap::new(),
            bias_cache: HashMap::new(),
            accounted: false,
            probed: HashSet::new(),
            enqueued: HashSet::new(),
            failed_points: BTreeSet::new(),
            blocked: BTreeSet::new(),
        }
    }

    fn account(&mut self, hit: bool) {
        if !self.accounted {
            if hit {
                self.core.cache.count_hit();
            } else {
                self.core.cache.count_miss();
            }
            self.accounted = true;
        }
    }

    /// Closes the current rung's time slice and flushes the per-rung
    /// deltas to the shared profile — called once when the request
    /// finishes (the visit-order vector stays intact for the trace).
    fn finish_timing(&mut self) {
        let now = Instant::now();
        let nanos = now.duration_since(self.rung_entered).as_nanos() as u64;
        self.rung_nanos.push((self.tier, nanos));
        self.rung_entered = now;
        self.core
            .profiles
            .record_time(self.function, self.rung_nanos.iter().copied());
    }

    /// Drains the thread-local buffer into the shared profile.  `force`
    /// drains unconditionally (request end, hops — the observations must
    /// be visible to whatever runs next); otherwise the drain is gated on
    /// [`ProfileTable::advance_epoch`] having moved since the last drain,
    /// which costs one relaxed atomic load on the steady state.
    fn flush_profile(&mut self, force: bool) {
        self.core
            .profiles
            .flush_local(self.function, self.tier, &mut self.local, force);
    }

    /// The value speculation the next climb should target, memoized per
    /// climb epoch: empty when the policy disables value speculation, the
    /// frame's speculation is poisoned, or no argument slot is stable; at
    /// a specialized rung, the current artifact's own speculation (so a
    /// climb stays consistent along the whole ladder).
    fn desired_speculation(&mut self) -> Speculation {
        if let Some(memo) = &self.spec_memo {
            return memo.clone();
        }
        let spec = if self.no_value_spec {
            Speculation::none()
        } else if let Some(cur) = self
            .current
            .as_ref()
            .filter(|cv| !cv.speculation.is_empty())
        {
            cur.speculation.clone()
        } else if let Some(policy) = self.core.policy.tiers.value_speculation() {
            Speculation::on((0..self.base.params.len()).filter_map(|slot| {
                self.core
                    .profiles
                    .stable_value(self.function, slot, &policy)
                    .map(|v| (slot, v))
            }))
        } else {
            Speculation::none()
        };
        self.spec_memo = Some(spec.clone());
        spec
    }

    /// The inline speculation the next climb should target, memoized per
    /// climb epoch alongside the value-speculation verdict: empty when
    /// the engine disables inlining, the frame's inlining is poisoned, or
    /// the destination rung sits below the splice rungs (only O3/O4
    /// splice — lower rungs recompile too often for it to pay off).  At a
    /// rung that already inlined, the current artifact's own spec is
    /// carried up (a climb stays consistent along the ladder) as long as
    /// no spliced callee has been republished since.
    fn desired_inline(&mut self, spec: &PipelineSpec) -> InlineSpec {
        if let Some(memo) = &self.inline_memo {
            return memo.clone();
        }
        let mut verdict = InlineSpec::none();
        if self.core.policy.inlining
            && !self.no_inline
            && matches!(spec, PipelineSpec::O3 | PipelineSpec::O4)
        {
            let carried = self
                .current
                .as_ref()
                .filter(|cv| cv.inline.is_some())
                .map(|cv| cv.inline_spec.clone());
            verdict = match carried {
                Some(spec)
                    if spec.sites().iter().all(|(_, callee, epoch)| {
                        self.core.cache.inline_epoch(callee) == *epoch
                    }) =>
                {
                    spec
                }
                _ => {
                    let policy = InlineSpeculationPolicy::default();
                    let module = &self.core.vm.module;
                    let sites = self
                        .core
                        .profiles
                        .inline_sites(self.function, &policy, |callee| {
                            module
                                .get(callee)
                                .filter(|f| InlineCalls::can_inline(f))
                                .map(Function::live_inst_count)
                        });
                    InlineSpec::on(sites.into_iter().map(|(at, callee)| {
                        let epoch = self.core.cache.inline_epoch(&callee);
                        (at, callee, epoch)
                    }))
                }
            };
        }
        self.inline_memo = Some(verdict.clone());
        verdict
    }

    /// Materializes the compile-job payload for an inline spec: each
    /// site's callee body snapshot plus the callee's *own* profiled
    /// branch bias under the destination rung's speculation policy.
    /// Nested call frames are never edge-observed, so the bias comes from
    /// the callee's time as a directly-requested baseline function —
    /// empty bias just means the spliced region carries no speculative
    /// guards.
    fn inline_sites_for(&self, next: Tier, spec: &InlineSpec) -> Vec<InlineSite> {
        let spol = self.core.policy.tiers.speculation_at(next);
        spec.sites()
            .iter()
            .filter_map(|(at, callee, _)| {
                let f = self.core.vm.module.get(callee)?;
                let bias = f
                    .block_ids()
                    .into_iter()
                    .filter(|b| f.block(*b).term.successors().len() > 1)
                    .filter_map(|b| {
                        self.core
                            .profiles
                            .edge_bias(callee, b, &spol)
                            .map(|hot| (b, hot))
                    })
                    .collect();
                Some(InlineSite {
                    at: *at,
                    callee: Arc::new(f.clone()),
                    bias,
                })
            })
            .collect()
    }

    /// Builds the cross-function exit out of the current inlined
    /// artifact: a backward hop through the plan's validated exit table
    /// into the spliced snapshot, from which the runtime reconstructs the
    /// callee frame (for mid-region landings) and resumes the true,
    /// call-preserving baseline at the call's continuation.  The exit is
    /// never mandatory — the spliced code is semantically exact, so an
    /// infeasible exit point soundly keeps running it.
    fn inline_exit_decision(&mut self, at: InstId, uncommon: u64) -> Option<TierDecision> {
        let cur = self.current.as_ref()?;
        let plan = Arc::clone(cur.inline.as_ref()?);
        let target = InlineExitTarget {
            spliced: Arc::clone(&plan.spliced),
            table: Arc::clone(&plan.to_spliced),
            base: Arc::clone(&cur.base),
            regions: Arc::new(plan.regions.clone()),
            callees: plan.callees.clone(),
            rung: Tier::BASELINE,
            pinned: self.pinned.clone(),
            mandatory: false,
            violated: Some(AssumptionKind::Inline),
        };
        // The frame re-climbs without the stale splice assumption.
        self.no_inline = true;
        self.inline_memo = None;
        self.pending = Some(PendingHop {
            to: Tier::BASELINE,
            artifact: None,
            composed: false,
            speculated: false,
            guard_entry: false,
            deopt: Some(DeoptReason::inline_guard(at, uncommon)),
        });
        Some(TierDecision::InlineExit(target))
    }

    /// The adapted climb threshold of the current rung's up edge
    /// ([`TierPolicy::threshold_with_cache`]), memoized per climb epoch:
    /// the per-key probe lookup and the adaptation metrics run once per
    /// `(hop, deopt-count)` epoch instead of once per loop iteration.
    fn adapted_threshold(&mut self, key: &CacheKey, deopts: u64) -> u64 {
        if let Some((d, t)) = self.threshold_memo {
            if d == deopts {
                return t;
            }
        }
        let tiers = &self.core.policy.tiers;
        let (hits, misses) = self.core.cache.probe_stats(key);
        let threshold = tiers.threshold_with_cache(self.tier, deopts, hits, misses);
        let unadapted = tiers.threshold_after_deopts(self.tier, deopts);
        if threshold < unadapted {
            self.core
                .metrics
                .threshold_lowers
                .fetch_add(1, Ordering::Relaxed);
        } else if threshold > unadapted {
            self.core
                .metrics
                .threshold_raises
                .fetch_add(1, Ordering::Relaxed);
        }
        self.threshold_memo = Some((deopts, threshold));
        threshold
    }

    /// Resolves where a guard failure at `branch` lands, following the
    /// graph's down edges under the policy's [`DeoptStrategy`]: adaptive
    /// falls pick the highest candidate rung that is *bias-neutral* for
    /// the failing branch — its speculation policy would not guard the
    /// branch, so the landed frame keeps running optimized code instead
    /// of thrashing straight back into the same guard.
    fn deopt_landing(&self, branch: BlockId) -> Tier {
        let tiers = &self.core.policy.tiers;
        match tiers.deopt_strategy(self.tier) {
            // A fixed target must be below the frame and reachable along
            // a declared down edge; the baseline is always a legal
            // emergency landing (every artifact carries a direct
            // backward table), so anything else clamps to it.
            crate::tiers::DeoptStrategy::Fixed(t)
                if t < self.tier && (t.is_baseline() || tiers.graph().has_edge(self.tier, t)) =>
            {
                t
            }
            crate::tiers::DeoptStrategy::Fixed(_) => Tier::BASELINE,
            crate::tiers::DeoptStrategy::Adaptive => tiers
                .graph()
                .down_targets(self.tier)
                .find(|d| {
                    d.is_baseline()
                        || self
                            .core
                            .profiles
                            .edge_bias(self.function, branch, &tiers.speculation_at(*d))
                            .is_none()
                })
                .unwrap_or(Tier::BASELINE),
        }
    }

    /// Builds the guard-failure tier-down hop: to the resolved landing
    /// rung through the current artifact's direct backward table
    /// (baseline) or a composed down-table (intermediate rung), falling
    /// back to the baseline when the partial fall is unavailable.
    fn tier_down_target(&mut self, reason: DeoptReason, branch: BlockId) -> Option<TierTarget> {
        let cur = Arc::clone(self.current.as_ref()?);
        let violated = reason.violated_kind();
        let tiers = &self.core.policy.tiers;
        let to = self.deopt_landing(branch);
        if !to.is_baseline() {
            let spec = tiers.spec(to).expect("target is a graph rung").clone();
            if let Some(tcv) = self.core.cache.get(&CacheKey::new(self.function, spec)) {
                if let Ok(table) = self.core.composed_table(self.function, &cur, &tcv) {
                    let target = Arc::clone(&tcv.opt);
                    let machine = tcv.machine.clone();
                    self.pending = Some(PendingHop {
                        to,
                        artifact: Some(tcv),
                        composed: true,
                        speculated: false,
                        guard_entry: false,
                        deopt: Some(reason),
                    });
                    return Some(TierTarget {
                        target,
                        table,
                        direction: Direction::Backward,
                        rung: to,
                        pinned: self.pinned.clone(),
                        mandatory: false,
                        machine,
                        violated,
                    });
                }
            }
            // Partial fall unavailable: fall to the baseline instead.
        }
        self.pending = Some(PendingHop {
            to: Tier::BASELINE,
            artifact: None,
            composed: false,
            speculated: false,
            guard_entry: false,
            deopt: Some(reason),
        });
        Some(TierTarget {
            target: Arc::clone(&cur.base),
            table: Arc::clone(&cur.tier_down),
            direction: Direction::Backward,
            rung: Tier::BASELINE,
            pinned: self.pinned.clone(),
            mandatory: false,
            machine: None,
            violated,
        })
    }

    /// Poisons value speculation for this frame: it re-climbs on generic
    /// artifacts only, and the next visit re-decides the climb afresh.
    fn poison_value_spec(&mut self) {
        self.no_value_spec = true;
        self.spec_memo = None;
        self.threshold_memo = None;
    }

    /// Hops a *violating* frame into the ready specialized artifact so
    /// its entry guard fires — the interpreter-level model of a compiled
    /// prologue guard: the frame transfers in, the guard trips at the
    /// landing (the first instrumented visit, before any specialized
    /// instruction executes), and a pre-vetted escape hops it straight
    /// out onto the *same rung's generic artifact*, where it re-climbs
    /// without the assumption.
    ///
    /// The escape deliberately uses no specialized-version mapping at
    /// all: the forward leg's identity transfers leave real source-frame
    /// values addressable under their own (version-independent) ids, and
    /// the generic artifact's *direct* forward table at the landing reads
    /// exactly such values — vetted by [`vet_generic_escape`], so a
    /// seeded constant can never launder into the violating frame.  The
    /// escape is marked mandatory: if it somehow cannot be served at fire
    /// time, the request aborts instead of running wrong code.
    ///
    /// Returns `None` (caller continues interpreting; speculation is
    /// poisoned frame-locally) when any leg of the round trip cannot be
    /// proven safe for a violating frame.
    fn violating_hop(
        &mut self,
        at: InstId,
        spec_cv: Arc<CompiledVersion>,
        next: Tier,
    ) -> Option<TierTarget> {
        let (slot, expected, actual) = spec_cv
            .speculation
            .violation(self.args)
            .expect("caller checked the mismatch");
        // The escape target: the same rung's generic artifact.  Without
        // it there is no speculation-free way out — stay generic instead.
        let generic_key = CacheKey::new(self.function, spec_cv.spec.clone());
        let Some(gcv) = self.core.cache.get(&generic_key) else {
            self.poison_value_spec();
            return None;
        };
        // Forward leg: direct off the baseline, composed off a higher rung.
        let (fwd_table, fwd_composed) = if self.tier.is_baseline() {
            (Arc::clone(&spec_cv.tier_up), false)
        } else {
            let cur = self
                .current
                .as_ref()
                .expect("an optimized rung has an artifact");
            match self.core.composed_table(self.function, cur, &spec_cv) {
                Ok(table) => (table, true),
                Err(_) => {
                    self.poison_value_spec();
                    return None;
                }
            }
        };
        let Some((landing, fwd_entry)) = fwd_table.get(at) else {
            self.poison_value_spec();
            return None;
        };
        let land = landing.loc;
        // The guard must trip at the landing, before anything executes:
        // the landing has to be an instrumented point of the specialized
        // version.
        if !spec_cv.header_points.contains(&land) {
            self.poison_value_spec();
            return None;
        }
        // Escape leg: the generic artifact's own (speculation-free)
        // forward table at the landing, reading only identity-transferred
        // real values and pinned parameters.
        let Some((_, escape_entry)) = gcv.tier_up.get(land) else {
            self.poison_value_spec();
            return None;
        };
        let Some(const_pins) = vet_generic_escape(fwd_entry, escape_entry, self.base) else {
            self.poison_value_spec();
            return None;
        };
        let mut escape_pinned = self.pinned.clone();
        escape_pinned.extend(const_pins);
        self.value_escape = Some(ValueEscape {
            target: TierTarget {
                target: Arc::clone(&gcv.opt),
                table: Arc::clone(&gcv.tier_up),
                direction: Direction::Backward,
                rung: next,
                pinned: escape_pinned,
                mandatory: true,
                machine: gcv.machine.clone(),
                violated: Some(AssumptionKind::Value),
            },
            to: next,
            artifact: Some(gcv),
            composed: false,
            reason: DeoptReason::value_guard(land, slot, expected, actual),
        });
        let target = Arc::clone(&spec_cv.opt);
        let machine = spec_cv.machine.clone();
        self.pending = Some(PendingHop {
            to: next,
            artifact: Some(spec_cv),
            composed: fwd_composed,
            speculated: true,
            guard_entry: true,
            deopt: None,
        });
        Some(TierTarget {
            target,
            table: fwd_table,
            direction: Direction::Forward,
            rung: next,
            pinned: self.pinned.clone(),
            mandatory: false,
            machine,
            violated: None,
        })
    }
}

impl TierController for EngineController<'_> {
    fn observes_edges(&self) -> bool {
        true // the speculation lifecycle runs on edge observations
    }

    fn observes_calls(&self) -> bool {
        // Call edges are only meaningful in baseline coordinates (every
        // pass preserves `InstId`s, but a climbed frame's call may sit in
        // dead-stripped or spliced code), and only worth buffering when
        // inlining can consume them.  The runtime re-reads this flag on
        // every version hop, so a frame stops observing the moment it
        // climbs.
        self.core.policy.inlining && self.tier.is_baseline()
    }

    fn observe_call(&mut self, at: InstId, callee: &str) {
        *self
            .local
            .calls
            .entry((at, callee.to_string()))
            .or_insert(0) += 1;
    }

    fn observe(&mut self, at: InstId, _count: usize) -> TierDecision {
        // Epoch-gated: on the steady state (no compile submitted since the
        // last drain) this is one relaxed load, never a shared lock.
        self.flush_profile(false);
        // Count the visit first: top-rung frames still contribute to the
        // per-(function, tier) hotness profile.
        let total = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        // A pre-vetted value-guard escape fires at the first instrumented
        // visit after the violating hop landed — this very instruction,
        // before any specialized code has executed.
        if let Some(escape) = self.value_escape.take() {
            self.poison_value_spec();
            self.pending = Some(PendingHop {
                to: escape.to,
                artifact: escape.artifact,
                composed: escape.composed,
                speculated: false,
                guard_entry: false,
                deopt: Some(escape.reason),
            });
            return TierDecision::Transition(escape.target);
        }
        let tiers = &self.core.policy.tiers;
        let Some(next) = tiers.next_tier(self.tier) else {
            return TierDecision::Continue; // no up edge out of this rung
        };
        // Borrow the next rung's spec; it is only cloned past the
        // threshold (the steady cold-frame path allocates nothing).
        let spec = tiers.spec(next).expect("next is a graph rung");
        let deopts = self.deopt_counter.load(Ordering::Relaxed);
        if self.threshold_memo.is_none_or(|(d, _)| d != deopts) {
            // New climb epoch: re-decide the value speculation alongside
            // the threshold (both are profile queries, memoized together
            // and refreshed together — a stale verdict would otherwise
            // survive until the next hop).
            let spec = spec.clone();
            self.spec_memo = None;
            self.inline_memo = None;
            let speculation = self.desired_speculation();
            let inline = self.desired_inline(&spec);
            let key = CacheKey::inlined(self.function, spec, speculation, inline);
            self.adapted_threshold(&key, deopts);
        }
        let (_, threshold) = self.threshold_memo.expect("just memoized");
        if total < threshold {
            return TierDecision::Continue;
        }
        if self.blocked.contains(&self.tier.0) || self.failed_points.contains(&(self.tier.0, at)) {
            return TierDecision::Continue;
        }
        let key = CacheKey::inlined(
            self.function,
            spec.clone(),
            self.desired_speculation(),
            self.desired_inline(spec),
        );
        match self.core.cache.get(&key) {
            Some(cv) => {
                self.account(true);
                if self.probed.insert(key.clone()) {
                    self.core.cache.note_probe(&key, true);
                }
                let speculated = !cv.speculation.is_empty();
                if speculated && !cv.speculation.matches(self.args) {
                    // Entry guard: the ready artifact speculates on a value
                    // this frame's arguments violate.  Hop in to fire the
                    // guard (sound: the vetted escape runs before any
                    // specialized instruction) — or, when the round trip
                    // cannot be vetted, stay out and re-climb generic.
                    return match self.violating_hop(at, cv, next) {
                        Some(target) => TierDecision::Transition(target),
                        None => TierDecision::Continue,
                    };
                }
                let (target, table) = if self.tier.is_baseline() {
                    (Arc::clone(&cv.opt), Arc::clone(&cv.tier_up))
                } else {
                    let cur = self
                        .current
                        .as_ref()
                        .expect("an optimized rung has an artifact");
                    match self.core.composed_table(self.function, cur, &cv) {
                        Ok(table) => (Arc::clone(&cv.opt), table),
                        Err(_) if speculated => {
                            // Rejected speculative composition: re-climb
                            // generic instead of blocking the rung.
                            self.poison_value_spec();
                            return TierDecision::Continue;
                        }
                        Err(_) => {
                            // Rejected composition: this rung can never hop.
                            self.blocked.insert(self.tier.0);
                            return TierDecision::Continue;
                        }
                    }
                };
                let machine = cv.machine.clone();
                self.pending = Some(PendingHop {
                    to: next,
                    artifact: Some(cv),
                    composed: !self.tier.is_baseline(),
                    speculated,
                    guard_entry: false,
                    deopt: None,
                });
                TierDecision::Transition(TierTarget {
                    target,
                    table,
                    direction: Direction::Forward,
                    rung: next,
                    pinned: self.pinned.clone(),
                    mandatory: false,
                    machine,
                    violated: None,
                })
            }
            None => {
                self.account(false);
                if self.probed.insert(key.clone()) {
                    self.core.cache.note_probe(&key, false);
                }
                if self.enqueued.insert(key.clone()) && self.core.cache.claim(&key) {
                    // This frame's own buffered edges belong in the layout
                    // snapshot the job is about to take.
                    self.flush_profile(true);
                    let profile = self.core.layout_snapshot(self.function, &key.pipeline);
                    let sites = self.inline_sites_for(next, &key.inline_spec());
                    self.core.pool.submit(
                        CompileJob {
                            key,
                            base: self.base.clone(),
                            priority: total,
                            profile,
                            sites,
                        },
                        &self.core.metrics,
                    );
                }
                TierDecision::Continue
            }
        }
    }

    fn observe_edge(&mut self, from: BlockId, to: BlockId, at: InstId) -> TierDecision {
        if self.tier.is_baseline() {
            // Profile: every edge taken at the baseline feeds the shared
            // speculation profile (batched; flushed at instrumented
            // visits).
            *self.local.edges.entry((from, to)).or_insert(0) += 1;
            return TierDecision::Continue;
        }
        // Inline guards first: a spliced region's profiled branches are
        // guarded against the *callee's* bias, recorded in the artifact's
        // plan at compile time (the caller's own edge profile knows
        // nothing about cloned callee blocks).
        if let Some(plan) = self
            .current
            .as_ref()
            .and_then(|cv| cv.inline.as_ref().map(Arc::clone))
        {
            if let Some(&(_, hot)) = plan.guards.iter().find(|(b, _)| *b == from) {
                let policy = self.core.policy.tiers.speculation_at(self.tier);
                let stats = self.inline_guard_stats.entry(from).or_insert((0, 0));
                if to == hot {
                    stats.0 += 1;
                    return TierDecision::Continue;
                }
                stats.1 += 1;
                let (hot_hits, hits) = *stats;
                // Same wrongness test as value-bias guards: enough
                // uncommon hits, at a rate above what the callee's
                // profiled bias already tolerated.
                let allowed_percent = (100 - policy.bias_percent.min(100)) as u64;
                let within_allowance = hits * 100 <= (hot_hits + hits) * allowed_percent;
                if hits < policy.tolerance
                    || within_allowance
                    || self.failed_points.contains(&(self.tier.0, at))
                {
                    return TierDecision::Continue;
                }
                return match self.inline_exit_decision(at, hits) {
                    Some(decision) => decision,
                    None => TierDecision::Continue,
                };
            }
        }
        // Guard: compare the taken edge against the profiled bias, under
        // the *rung-specific* speculation policy (deeper rungs guard more
        // branches).
        let policy = self.core.policy.tiers.speculation_at(self.tier);
        let profiles = &self.core.profiles;
        let function = self.function;
        let bias = *self
            .bias_cache
            .entry(from)
            .or_insert_with(|| profiles.edge_bias(function, from, &policy));
        let Some(hot) = bias else {
            // This rung does not speculate on the branch: record the edge
            // into the per-rung profile instead, so a partially-deopted
            // frame keeps correcting the bias without re-entering the
            // baseline.
            *self.local.edges.entry((from, to)).or_insert(0) += 1;
            return TierDecision::Continue;
        };
        let stats = self.guard_stats.entry(from).or_insert((0, 0));
        if to == hot {
            stats.0 += 1;
            return TierDecision::Continue;
        }
        stats.1 += 1;
        let (hot_hits, hits) = *stats;
        *self.local.uncommon.entry(from).or_insert(0) += 1;
        // Fire only on *wrong* speculation: enough uncommon hits, taken at
        // a higher rate than the profiled bias already tolerated.
        let allowed_percent = (100 - policy.bias_percent.min(100)) as u64;
        let within_allowance = hits * 100 <= (hot_hits + hits) * allowed_percent;
        if hits < policy.tolerance
            || within_allowance
            || self.failed_points.contains(&(self.tier.0, at))
        {
            return TierDecision::Continue;
        }
        match self.tier_down_target(DeoptReason::bias_guard(at, hits), from) {
            Some(target) => TierDecision::Transition(target),
            None => TierDecision::Continue,
        }
    }

    fn on_infeasible(&mut self, at: InstId) {
        self.pending = None;
        // An infeasible forward leg of a violating round trip disarms the
        // escape with it (the frame never entered the specialized code).
        self.value_escape = None;
        self.failed_points.insert((self.tier.0, at));
        self.core.metrics.infeasible.fetch_add(1, Ordering::Relaxed);
    }

    fn on_transition(&mut self, _at: InstId) {
        // Unflushed guard observations belong to the rung being left.
        self.flush_profile(true);
        let hop = self
            .pending
            .take()
            .expect("a hop landed only after being requested");
        // Time spent since the last hop (or frame entry) belongs to the
        // rung being left — one Instant stamp per hop, batched locally.
        let now = Instant::now();
        let nanos = now.duration_since(self.rung_entered).as_nanos() as u64;
        self.rung_nanos.push((self.tier, nanos));
        self.rung_entered = now;
        // Every deopt-labelled hop counts — including the same-rung
        // value-guard escape onto the rung's generic artifact.
        let down = hop.deopt.is_some();
        self.hops.push(HopLabel {
            from: self.tier,
            to: hop.to,
            composed: hop.composed,
            speculated: hop.speculated,
            machine: hop.artifact.as_ref().is_some_and(|a| a.machine.is_some()),
            inlined: hop.artifact.as_ref().is_some_and(|a| a.inline.is_some()),
            guard_entry: hop.guard_entry,
            deopt: hop.deopt.clone(),
            reclimb: self.deopted && hop.to > self.tier,
            at_micros: self.core.events.now_micros(),
        });
        if down {
            self.deopted = true;
            self.deopt_counter.fetch_add(1, Ordering::Relaxed);
        }
        // The profile the frame gathered about this climb is stale after
        // any hop: biases are re-queried (under the landed rung's
        // policy), guard counters restart, and the climb threshold and
        // value-speculation verdict are re-decided.
        self.guard_stats.clear();
        self.inline_guard_stats.clear();
        self.bias_cache.clear();
        self.threshold_memo = None;
        self.spec_memo = None;
        self.inline_memo = None;
        self.tier = hop.to;
        self.counter = self.core.profiles.counter(self.function, hop.to);
        self.current = hop.artifact;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> Module {
        minic::compile(
            "fn hot(x, n) {
                 var s = 0;
                 for (var i = 0; i < n; i = i + 1) {
                     s = s + x * x + i;
                 }
                 return s;
             }
             fn cold(x) {
                 return x * 2 + 1;
             }",
        )
        .unwrap()
    }

    fn policy() -> EnginePolicy {
        EnginePolicy {
            compile_workers: 1,
            batch_workers: 2,
            ..EnginePolicy::two_tier(8, 24)
        }
    }

    #[test]
    fn batch_results_match_plain_interpretation() {
        let m = module();
        let engine = Engine::new(m.clone(), policy());
        let requests: Vec<Request> = (0..12)
            .map(|k| Request::tiered("hot", vec![Val::Int(k % 5), Val::Int(40 + k)]))
            .collect();
        let report = engine.run_batch(&requests);
        let vm = Vm::new(m);
        for (req, got) in requests.iter().zip(&report.results) {
            let expected = vm
                .run_plain(vm.module.get("hot").unwrap(), &req.args)
                .unwrap();
            assert_eq!(got.as_ref().unwrap(), &expected);
        }
        assert_eq!(report.metrics.requests, 12);
    }

    #[test]
    fn hot_function_tiers_up_in_background() {
        let m = module();
        let engine = Engine::new(m, policy());
        // Enough independent requests that later ones find the artifact.
        let requests: Vec<Request> = (0..16)
            .map(|k| Request::tiered("hot", vec![Val::Int(3), Val::Int(60 + k)]))
            .collect();
        let mut tier_ups = 0;
        for _ in 0..4 {
            let report = engine.run_batch(&requests);
            tier_ups += report.transitions(Direction::Forward);
        }
        assert!(tier_ups > 0, "a background tier-up eventually fires");
        assert!(engine.metrics().compiles >= 1);
        assert!(engine.cache().ready_count() >= 1);
    }

    #[test]
    fn prewarmed_ladder_climbs_to_the_top_in_one_frame() {
        let m = module();
        let engine = Engine::new(m.clone(), policy());
        engine.prewarm("hot").expect("hot exists");
        assert_eq!(engine.cache().ready_count(), 2, "O1 and O2 artifacts");
        assert_eq!(engine.cache().composed_count(), 1, "O1→O2 table");
        let req = Request::tiered("hot", vec![Val::Int(2), Val::Int(500)]);
        let report = engine.run_batch(std::slice::from_ref(&req));
        let vm = Vm::new(m);
        let expected = vm
            .run_plain(vm.module.get("hot").unwrap(), &req.args)
            .unwrap();
        assert_eq!(report.results[0].as_ref().unwrap(), &expected);
        let hops: Vec<(Tier, Tier, bool)> = report
            .events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Transition {
                    from_tier,
                    to_tier,
                    composed,
                    ..
                } => Some((*from_tier, *to_tier, *composed)),
                _ => None,
            })
            .collect();
        assert_eq!(
            hops,
            vec![
                (Tier(0), Tier(1), false),
                (Tier(1), Tier(2), true), // composed, never re-entering O0
            ],
            "one frame climbs the whole ladder"
        );
        assert_eq!(report.metrics.composed_tier_ups, 1);
    }

    #[test]
    fn debug_requests_deopt_through_cache() {
        let m = module();
        let engine = Engine::new(m.clone(), policy());
        let req = Request::debug("hot", vec![Val::Int(2), Val::Int(50)]);
        let report = engine.run_batch(std::slice::from_ref(&req));
        let vm = Vm::new(m);
        let expected = vm
            .run_plain(vm.module.get("hot").unwrap(), &req.args)
            .unwrap();
        assert_eq!(report.results[0].as_ref().unwrap(), &expected);
        assert_eq!(report.transitions(Direction::Backward), 1, "deopt fired");
        assert!(engine.metrics().deopts >= 1);
        // The deopt left the top rung for the baseline.
        assert!(report.events.iter().any(|e| matches!(
            e,
            EngineEvent::Transition {
                from_tier: Tier(2),
                to_tier: Tier(0),
                ..
            }
        )));
    }

    #[test]
    fn unknown_function_is_an_error() {
        let engine = Engine::new(module(), policy());
        let report = engine.run_batch(&[Request::tiered("nope", vec![])]);
        assert!(matches!(
            report.results[0],
            Err(EngineError::UnknownFunction(_))
        ));
        assert!(engine.prewarm("nope").is_err());
    }

    #[test]
    fn cold_functions_never_compile() {
        let m = module();
        let engine = Engine::new(m, policy());
        let requests: Vec<Request> = (0..8)
            .map(|k| Request::tiered("cold", vec![Val::Int(k)]))
            .collect();
        let report = engine.run_batch(&requests);
        assert!(report.results.iter().all(Result::is_ok));
        assert_eq!(engine.metrics().compiles, 0, "no loops, no hotness");
        assert_eq!(engine.cache().ready_count(), 0);
    }
}
