//! Every call into the system under test lives here, so a public-API
//! rename is a one-file change in a benchmark-only PR.  The first half
//! wraps the serving path (`Service`/`Session` over `engine`); the second
//! half is the per-layer ledger, which times direct calls into each
//! layer's public functions from outside.
//!
//! Only API that ROADMAP item 3 does not slate for deletion is used:
//! ladders come from `LadderPolicy::default()` / `LadderPolicy::new`, keys
//! from `VersionKey`.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;

use engine::cache::{compile_function, differential_validate, validate_table};
use engine::{
    CodeCache, CompiledVersion, Engine, EngineHandle, EnginePolicy, Entity, LadderPolicy,
    MetricsSnapshot, PipelineSpec, Request, RequestId, ResultEvent, Speculation, SubmitError,
    VersionKey, NEVER_HOT,
};
use ssair::feasibility::{compose_entries, compose_table_pair, precompute_entries, EntryTable};
use ssair::interp::{run_frame, run_function, Frame, Machine, StepOutcome};
use ssair::machine::{lower_function, MachineStep};
use ssair::passes::Pipeline;
use ssair::reconstruct::{apply_comp, CompStep, Direction, Variant};
use ssair::{BlockId, Function, InstId, SsaMapper, ValueId};
use tinyvm::profile::{
    loop_header_points, LocalProfile, ProfileTable, Tier, TierController, TierDecision,
    ValueSpeculationPolicy,
};
use tinyvm::runtime::{TransitionOptions, Vm};

use crate::loadgen::Clock;
use crate::spans::Recorder;
use crate::stats::Metric;

pub use ssair::interp::Val;
pub use ssair::Module;

/// Interpreter fuel per request: the engine's own default, so a request
/// the reference run accepts can never run dry inside the engine.
pub const FUEL: usize = 50_000_000;
/// Request workers per session (fixed condition of every workload).
pub const BATCH_WORKERS: usize = 2;
/// Background compile workers (fixed condition of every workload).
pub const COMPILE_WORKERS: usize = 1;

/// Compiles MiniC source to a baseline module.
pub fn compile_source(source: &str) -> Module {
    minic::compile(source).expect("shipped workload source compiles")
}

/// Moves every function of `from` into `into`.
pub fn merge(into: &mut Module, from: Module) {
    for f in from.functions.into_values() {
        into.add(f);
    }
}

/// The oracle: runs the *baseline* function on the reference interpreter.
/// Never goes through `tinyvm` or `engine`.
pub fn reference(module: &Module, function: &str, args: &[i64]) -> Result<Option<Val>, String> {
    let f = module
        .get(function)
        .ok_or_else(|| format!("unknown function {function}"))?;
    let args: Vec<Val> = args.iter().map(|a| Val::Int(*a)).collect();
    run_function(f, &args, module, FUEL).map_err(|e| e.to_string())
}

/// Which tier ladder a service runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ladder {
    /// The default five-rung ladder with layout, inlining and value
    /// speculation on.
    Default,
    /// One O1 rung that is never reached: the O0-only baseline leg.
    NeverHot,
}

/// Cumulative engine counters the benchmark reads (a plain copy, so the
/// rest of the benchmark never names engine types).
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub tier_ups: u64,
    pub composed_tier_ups: u64,
    pub guard_bias: u64,
    pub guard_value: u64,
    pub guard_inline: u64,
    pub invalidations: u64,
    pub threshold_moves: u64,
    pub expired: u64,
    pub compiles: u64,
    pub compile_nanos: u64,
    pub compile_queue_depth: u64,
    pub compile_queue_peak: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Cumulative since engine start (log-bucketed upper edges).
    pub compile_p50_us: u64,
    pub compile_p99_us: u64,
}

impl Counters {
    fn of(m: &MetricsSnapshot) -> Counters {
        Counters {
            tier_ups: m.tier_ups,
            composed_tier_ups: m.composed_tier_ups,
            guard_bias: m.guard_failures,
            guard_value: m.value_guard_failures,
            guard_inline: m.inline_guard_failures,
            invalidations: m.assumption_invalidations,
            threshold_moves: m.threshold_lowers + m.threshold_raises,
            expired: m.deadline_expired,
            compiles: m.compiles,
            compile_nanos: m.compile_nanos,
            compile_queue_depth: m.queue_depth,
            compile_queue_peak: m.queue_peak,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            compile_p50_us: m.compile_latency.p50,
            compile_p99_us: m.compile_latency.p99,
        }
    }

    /// Counter growth since `earlier` (gauges and quantiles keep their
    /// current reading).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            tier_ups: self.tier_ups - earlier.tier_ups,
            composed_tier_ups: self.composed_tier_ups - earlier.composed_tier_ups,
            guard_bias: self.guard_bias - earlier.guard_bias,
            guard_value: self.guard_value - earlier.guard_value,
            guard_inline: self.guard_inline - earlier.guard_inline,
            invalidations: self.invalidations - earlier.invalidations,
            threshold_moves: self.threshold_moves - earlier.threshold_moves,
            expired: self.expired - earlier.expired,
            compiles: self.compiles - earlier.compiles,
            compile_nanos: self.compile_nanos - earlier.compile_nanos,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            ..*self
        }
    }

    /// Adds the counters of one more engine (a `cold_start` round) to a
    /// running total; gauges keep their peak, quantiles their last reading.
    pub fn absorb(&mut self, round: &Counters) {
        self.tier_ups += round.tier_ups;
        self.composed_tier_ups += round.composed_tier_ups;
        self.guard_bias += round.guard_bias;
        self.guard_value += round.guard_value;
        self.guard_inline += round.guard_inline;
        self.invalidations += round.invalidations;
        self.threshold_moves += round.threshold_moves;
        self.expired += round.expired;
        self.compiles += round.compiles;
        self.compile_nanos += round.compile_nanos;
        self.cache_hits += round.cache_hits;
        self.cache_misses += round.cache_misses;
        self.compile_queue_peak = self.compile_queue_peak.max(round.compile_queue_peak);
        self.compile_p50_us = round.compile_p50_us;
        self.compile_p99_us = round.compile_p99_us;
    }
}

/// A change in the world that dissolves assumptions compiled code rests
/// on.  The engine never invalidates on its own: its embedder names the
/// changed entity (`CodeCache::invalidate`), so the churn workload plays
/// that embedder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// The callee was republished: versions that spliced it are stale.
    Callee(&'static str),
    /// The argument slot stopped being stable: versions seeded on it go.
    Value(&'static str, usize),
}

/// One engine under the benchmark's fixed conditions.
pub struct Service {
    engine: Engine,
}

impl Service {
    pub fn new(module: Module, ladder: Ladder) -> Service {
        let tiers = match ladder {
            Ladder::Default => LadderPolicy::default(),
            Ladder::NeverHot => LadderPolicy::new(vec![(PipelineSpec::O1, NEVER_HOT)]),
        };
        let policy = EnginePolicy {
            tiers: Arc::new(tiers),
            batch_workers: BATCH_WORKERS,
            compile_workers: COMPILE_WORKERS,
            ..EnginePolicy::default()
        };
        Service {
            engine: Engine::new(module, policy),
        }
    }

    /// Synchronously compiles every rung (and composed table) of `function`.
    pub fn prewarm(&self, function: &str) {
        self.engine
            .prewarm(function)
            .expect("prewarmed function is in the module");
    }

    pub fn start(&self) -> Session {
        Session {
            handle: self.engine.start(),
        }
    }

    /// Invalidates every cached artifact that depends on `sweep`'s entity.
    pub fn invalidate(&self, sweep: &Sweep) {
        let entity = match sweep {
            Sweep::Callee(callee) => Entity::Callee(callee.to_string()),
            Sweep::Value(function, slot) => Entity::ValueStability {
                function: function.to_string(),
                slot: *slot,
            },
        };
        self.engine.cache().invalidate(&entity);
    }

    pub fn counters(&self) -> Counters {
        Counters::of(&self.engine.metrics())
    }

    /// Cumulative execution nanoseconds per rung, index = rung number.
    pub fn rung_time(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (tier, nanos) in self.engine.rung_time_residency() {
            let i = tier.0 as usize;
            if out.len() <= i {
                out.resize(i + 1, 0);
            }
            out[i] = nanos;
        }
        out
    }
}

/// How one request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Value(Option<Val>),
    Error(String),
    Expired,
}

/// A completion taken off the session's event stream.
#[derive(Clone, Debug)]
pub struct Done {
    pub id: u64,
    pub outcome: Outcome,
}

/// One OSR transition of a traced request.
#[derive(Clone, Copy, Debug)]
pub struct Hop {
    /// Microseconds since the engine epoch.
    pub at_us: u64,
    pub nanos: u64,
    pub kind: &'static str,
    pub backward: bool,
    pub reclimb: bool,
}

/// The engine's public lifecycle trace of one request, flattened.
#[derive(Clone, Debug)]
pub struct TraceView {
    pub submitted_us: u64,
    pub picked_up_us: Option<u64>,
    pub completed_us: Option<u64>,
    pub hops: Vec<Hop>,
}

/// A live session: submit requests, take completions.
pub struct Session {
    handle: EngineHandle,
}

impl Session {
    fn request(function: &str, args: &[i64], debug: bool) -> Request {
        let args = args.iter().map(|a| Val::Int(*a)).collect();
        if debug {
            Request::debug(function, args)
        } else {
            Request::tiered(function, args)
        }
    }

    /// Blocking submit (waits while the session queue is full).
    pub fn submit(&self, function: &str, args: &[i64], debug: bool) -> u64 {
        self.handle.submit(Self::request(function, args, debug)).0
    }

    /// Non-blocking submit; `None` when the session queue is full.
    pub fn try_submit(&self, function: &str, args: &[i64], debug: bool) -> Option<u64> {
        match self.handle.try_submit(Self::request(function, args, debug)) {
            Ok(id) => Some(id.0),
            Err(SubmitError::QueueFull(_)) => None,
        }
    }

    fn done(event: ResultEvent) -> Option<Done> {
        match event {
            ResultEvent::Completed { id, result } => Some(Done {
                id: id.0,
                outcome: match result {
                    Ok(v) => Outcome::Value(v),
                    Err(e) => Outcome::Error(e.to_string()),
                },
            }),
            ResultEvent::DeadlineExpired { id, .. } => Some(Done {
                id: id.0,
                outcome: Outcome::Expired,
            }),
            ResultEvent::Engine(_) => None,
        }
    }

    /// Blocks for the next completion; `None` once the stream has ended.
    pub fn wait(&self) -> Option<Done> {
        loop {
            if let Some(done) = Self::done(self.handle.next_event()?) {
                return Some(done);
            }
        }
    }

    /// The next completion if one is already pending.
    pub fn poll(&self) -> Option<Done> {
        loop {
            if let Some(done) = Self::done(self.handle.try_event()?) {
                return Some(done);
            }
        }
    }

    /// Requests submitted but not yet picked up by a worker.
    pub fn waiting(&self) -> u64 {
        self.handle.waiting()
    }

    pub fn trace(&self, id: u64) -> Option<TraceView> {
        let t = self.handle.trace(RequestId(id))?;
        Some(TraceView {
            submitted_us: t.submitted_micros,
            picked_up_us: t.picked_up_micros,
            completed_us: t.completed_micros,
            hops: t
                .transitions
                .iter()
                .map(|h| Hop {
                    at_us: h.at_micros,
                    nanos: h.hop_nanos,
                    kind: h.kind.label(),
                    backward: h.direction == Direction::Backward,
                    reclimb: h.reclimb,
                })
                .collect(),
        })
    }

    /// Drains in-flight work and joins the session's workers.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

// ---------------------------------------------------------------------
// The per-layer ledger: timed direct calls into each layer's public
// functions, over a fixed function set.
// ---------------------------------------------------------------------

/// The ledger's fixed function set (`Kernel::name`): small, medium and the
/// two compile-heavy shapes whose table builds dominate a compile round.
pub const LEDGER_KERNELS: [&str; 4] = ["soplex", "dcraw", "bzip2", "hmmer"];
/// Repetitions per ledger row: 20, or for a row whose single pass takes
/// long as many as fit into the row's time budget, but 3 at the least.
/// The same rule in every mode, so a per-layer number means the same
/// wherever it was recorded.
const LEDGER_REPS: usize = 20;
const LEDGER_MIN_REPS: usize = 3;
const LEDGER_ROW_BUDGET_NS: u64 = 2_000_000_000;
/// Calls per timed repetition for rows whose single call is far below the
/// clock's resolution.
const FAST_CALLS: usize = 1000;
/// Differential-validation samples per table (what the engine uses).
const DIFF_SAMPLES: usize = 3;
const RUNGS: [(PipelineSpec, &str); 4] = [
    (PipelineSpec::O1, "o1"),
    (PipelineSpec::O2, "o2"),
    (PipelineSpec::O3, "o3"),
    (PipelineSpec::O4, "o4"),
];

/// One ledger function: its source, baseline and sample arguments.
struct Subject {
    entry: &'static str,
    source: String,
    module: Module,
    base: Function,
    args: Vec<Val>,
}

fn subjects() -> Vec<Subject> {
    LEDGER_KERNELS
        .iter()
        .map(|name| {
            let k = workloads::kernel_source(name).expect("ledger kernel ships");
            let module = compile_source(&k.source);
            Subject {
                entry: k.entry,
                base: module.get(k.entry).expect("kernel entry").clone(),
                args: k.sample_args.iter().map(|a| Val::Int(*a)).collect(),
                source: k.source,
                module,
            }
        })
        .collect()
}

/// Counts the compiler must reproduce exactly from run to run, summed
/// over the ledger set — what the determinism check compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExactCounts {
    pub ir_insts_after_o2: u64,
    pub actions_recorded: u64,
    pub entries_built: u64,
    pub minsts: u64,
    pub spill_slots: u64,
}

/// One whole compile round (optimize, both tables, validation, and for O4
/// the machine artifact) of every ledger function at `spec`.
fn compile_set(subjects: &[Subject], spec: &PipelineSpec) -> Vec<Arc<CompiledVersion>> {
    subjects
        .iter()
        .map(|s| {
            Arc::new(
                compile_function(s.base.clone(), spec, Variant::Avail)
                    .expect("ledger function compiles"),
            )
        })
        .collect()
}

/// Compiles every ledger function once and returns its exact counts.
pub fn exact_counts() -> ExactCounts {
    let subjects = subjects();
    exact_counts_of(
        &compile_set(&subjects, &PipelineSpec::O2),
        &compile_set(&subjects, &PipelineSpec::O4),
    )
}

/// A controller that never hops: what `run_tiered` costs for merely being
/// observable.
struct NeverHop;

impl TierController for NeverHop {
    fn observe(&mut self, _at: InstId, _count: usize) -> TierDecision {
        TierDecision::Continue
    }
}

/// Runs `f` on the reference interpreter and returns the instructions it
/// executed (fuel consumed).
fn interp_steps(f: &Function, args: &[Val], module: &Module) -> u64 {
    let mut machine = Machine::new(FUEL);
    let mut frame = Frame::enter(f, args);
    run_frame(f, &mut frame, &mut machine, module, None).expect("ledger function runs");
    (FUEL - machine.fuel) as u64
}

/// Drives `f` to the second visit of loop-header point `at` (a mid-loop
/// frame) and returns the paused frame with its machine.
fn capture_frame(
    f: &Function,
    args: &[Val],
    module: &Module,
    at: InstId,
) -> Option<(Frame, Machine)> {
    let mut machine = Machine::new(FUEL);
    let mut frame = Frame::enter(f, args);
    let visits = std::cell::Cell::new(0u32);
    let pause = |_: &Function, _: &Frame, i: InstId| {
        if i == at {
            visits.set(visits.get() + 1);
        }
        i == at && visits.get() == 2
    };
    match run_frame(f, &mut frame, &mut machine, module, Some(&pause)).ok()? {
        StepOutcome::Paused { .. } => Some((frame, machine)),
        StepOutcome::Returned(_) => None,
    }
}

/// The ledger: every row repeats one kind of call and reports the median.
pub struct Ledger<'r> {
    recorder: &'r mut Recorder,
    clock: Clock,
    root: u64,
    pub rows: Vec<Metric>,
}

impl Ledger<'_> {
    /// Whether a row that started at `row_start_ns` and has `done`
    /// repetitions gets another: up to [`LEDGER_REPS`], at least
    /// [`LEDGER_MIN_REPS`], in between until the row's budget is spent.
    fn wants_more(&self, row_start_ns: u64, done: usize) -> bool {
        done < LEDGER_REPS
            && (done < LEDGER_MIN_REPS || self.clock.now_ns() - row_start_ns < LEDGER_ROW_BUDGET_NS)
    }

    /// Times `body` repeatedly (see [`Ledger::wants_more`]); one span per
    /// call.  A sample is the call's nanoseconds over `divisor`.
    fn row(&mut self, name: &str, unit: &'static str, divisor: f64, mut body: impl FnMut()) {
        let row_start = self.clock.now_ns();
        let mut samples = Vec::new();
        while self.wants_more(row_start, samples.len()) {
            let t0 = self.clock.now_ns();
            body();
            let t1 = self.clock.now_ns();
            self.recorder.record(name, t0, t1, Some(self.root), None);
            samples.push((t1 - t0) as f64 / divisor);
        }
        self.rows.push(Metric::new(name, unit, samples));
    }

    fn count(&mut self, name: &str, unit: &'static str, value: f64) {
        self.rows.push(Metric::single(name, unit, value));
    }
}

const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

/// Runs the whole ledger.
pub fn run_ledger(recorder: &mut Recorder, clock: Clock) -> Vec<Metric> {
    let root = recorder.record("ledger", clock.now_ns(), clock.now_ns(), None, None);
    let mut l = Ledger {
        recorder,
        clock,
        root,
        rows: Vec::new(),
    };
    let subjects = subjects();

    // minic: source to baseline SSA.
    l.row("minic.compile_us", "us", NS_PER_US, || {
        for s in &subjects {
            black_box(compile_source(&s.source));
        }
    });

    // ssair.passes: whole pipelines, then the aggressive mix pass by pass.
    for (name, build) in [
        (
            "ssair.passes.optimize_o1_ms",
            Pipeline::light as fn() -> Pipeline,
        ),
        ("ssair.passes.optimize_o2_ms", Pipeline::standard),
        ("ssair.passes.optimize_o3_ms", Pipeline::aggressive),
    ] {
        let pipeline = build();
        l.row(name, "ms", NS_PER_MS, || {
            for s in &subjects {
                black_box(pipeline.optimize(&s.base));
            }
        });
    }
    let aggressive = Pipeline::aggressive();
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let passes_start = l.clock.now_ns();
    let mut reps = 0;
    while l.wants_more(passes_start, reps) {
        let mut this_rep: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &subjects {
            let mut f = s.base.clone();
            let mut cm = SsaMapper::new();
            for pass in aggressive.passes() {
                let t0 = l.clock.now_ns();
                pass.run(&mut f, &mut cm);
                let t1 = l.clock.now_ns();
                let name = format!("ssair.passes.pass_ms.{}", pass.name());
                l.recorder.record(&name, t0, t1, Some(root), None);
                *this_rep.entry(pass.name()).or_default() += t1 - t0;
            }
        }
        for (name, ns) in this_rep {
            per_pass
                .entry(name)
                .or_default()
                .push(ns as f64 / NS_PER_MS);
        }
        reps += 1;
    }
    for (name, samples) in per_pass {
        l.rows.push(Metric::new(
            format!("ssair.passes.pass_ms.{name}"),
            "ms",
            samples,
        ));
    }

    // engine.cache: whole compile rounds per rung.  The last artifacts of
    // each rung are kept; the rows below take them apart.
    let mut compiled: Vec<Vec<Arc<CompiledVersion>>> = Vec::new();
    for (spec, label) in &RUNGS {
        let mut latest = Vec::new();
        l.row(
            &format!("engine.cache.compile_function_ms.{label}"),
            "ms",
            NS_PER_MS,
            || latest = compile_set(&subjects, spec),
        );
        compiled.push(latest);
    }
    let (o1, o2, o3, o4) = (&compiled[0], &compiled[1], &compiled[2], &compiled[3]);

    let counts = exact_counts_of(o2, o4);
    l.count(
        "ssair.passes.ir_insts_after_o2",
        "count",
        counts.ir_insts_after_o2 as f64,
    );
    l.count(
        "ssair.passes.actions_recorded",
        "count",
        counts.actions_recorded as f64,
    );

    // ssair.feasibility: table precompute in both directions over the O2
    // pair, the feasibility ratio, and table composition.
    for (name, dir) in [
        ("ssair.feasibility.precompute_fwd_ms", Direction::Forward),
        ("ssair.feasibility.precompute_bwd_ms", Direction::Backward),
    ] {
        l.row(name, "ms", NS_PER_MS, || {
            for cv in o2 {
                black_box(precompute_entries(&cv.versions.pair(), dir, Variant::Avail));
            }
        });
    }
    let coverage = |tables: Vec<&EntryTable>| {
        let served: usize = tables.iter().map(|t| t.entries.len()).sum();
        let attempted: usize = tables.iter().map(|t| t.entries.len() + t.infeasible).sum();
        served as f64 / attempted.max(1) as f64
    };
    l.count(
        "ssair.feasibility.fwd_coverage",
        "ratio",
        coverage(o2.iter().map(|cv| &*cv.tier_up).collect()),
    );
    l.count(
        "ssair.feasibility.bwd_coverage",
        "ratio",
        coverage(o2.iter().map(|cv| &*cv.tier_down).collect()),
    );
    l.count(
        "ssair.feasibility.entries_built",
        "count",
        counts.entries_built as f64,
    );
    // O1 -> O2 and O2 -> O3 through the shared baseline, then the O1 -> O3
    // table-level fold (what `prewarm` memoizes per rung pair).
    let mut adjacent: Vec<(EntryTable, EntryTable)> = Vec::new();
    l.row(
        "ssair.feasibility.compose_entries_ms",
        "ms",
        NS_PER_MS,
        || {
            adjacent = (0..subjects.len())
                .map(|i| {
                    let hop = |from: &CompiledVersion, to: &CompiledVersion| {
                        compose_entries(&from.versions.pair(), Direction::Backward, &to.tier_up)
                    };
                    (hop(&o1[i], &o2[i]), hop(&o2[i], &o3[i]))
                })
                .collect();
        },
    );
    l.row(
        "ssair.feasibility.compose_table_pair_ms",
        "ms",
        NS_PER_MS,
        || {
            for (i, (first, second)) in adjacent.iter().enumerate() {
                black_box(compose_table_pair(first, &o2[i].versions.opt, second));
            }
        },
    );

    l.row("engine.cache.validate_table_ms", "ms", NS_PER_MS, || {
        for cv in o2 {
            validate_table(&cv.tier_up, &cv.versions.base, &cv.versions.opt)
                .expect("published table validates");
            validate_table(&cv.tier_down, &cv.versions.opt, &cv.versions.base)
                .expect("published table validates");
        }
    });
    l.row(
        "engine.cache.differential_validate_ms",
        "ms",
        NS_PER_MS,
        || {
            for (s, cv) in subjects.iter().zip(o2) {
                differential_validate(
                    &cv.tier_up,
                    &cv.versions.base,
                    &cv.versions.opt,
                    &s.module,
                    DIFF_SAMPLES,
                )
                .expect("published table replays");
            }
        },
    );

    // ssair.reconstruct: compensation code applied to a captured mid-loop
    // frame, and its size (the paper's Q2).
    let captured: Vec<(Frame, Machine, &CompiledVersion, InstId)> = subjects
        .iter()
        .zip(o2)
        .filter_map(|(s, cv)| {
            loop_header_points(&s.base).into_iter().find_map(|at| {
                cv.tier_up.get(at)?;
                let (frame, machine) = capture_frame(&s.base, &s.args, &s.module, at)?;
                Some((frame, machine, &**cv, at))
            })
        })
        .collect();
    l.row(
        "ssair.reconstruct.apply_comp_ns",
        "ns",
        (FAST_CALLS * captured.len().max(1)) as f64,
        || {
            for (frame, machine, cv, at) in &captured {
                let (_, entry) = cv.tier_up.get(*at).expect("captured at a served point");
                let mut machine = machine.clone();
                for _ in 0..FAST_CALLS {
                    black_box(
                        apply_comp(entry, &cv.versions.opt, &frame.values, &mut machine)
                            .expect("compensation applies to a live frame"),
                    );
                }
            }
        },
    );
    let (steps, entries) = o2
        .iter()
        .flat_map(|cv| [&cv.tier_up, &cv.tier_down])
        .flat_map(|t| t.entries.values())
        .fold((0usize, 0usize), |(s, n), (_, e)| {
            (s + e.comp.steps.len(), n + 1)
        });
    l.count(
        "ssair.reconstruct.comp_steps_mean",
        "count",
        steps as f64 / entries.max(1) as f64,
    );

    // ssair.interp: the reference interpreter's dispatch and frame set-up.
    let base_steps: u64 = subjects
        .iter()
        .map(|s| interp_steps(&s.base, &s.args, &s.module))
        .sum();
    l.row("ssair.interp.ns_per_instr", "ns", base_steps as f64, || {
        for s in &subjects {
            black_box(run_function(&s.base, &s.args, &s.module, FUEL).expect("runs"));
        }
    });
    l.row(
        "ssair.interp.frame_enter_ns",
        "ns",
        (FAST_CALLS * subjects.len()) as f64,
        || {
            for s in &subjects {
                for _ in 0..FAST_CALLS {
                    black_box(Frame::enter(&s.base, &s.args));
                }
            }
        },
    );

    // ssair.machine: lowering, the artifact's size, and execution against
    // the SSA interpreter on the same optimized function.
    l.row("ssair.machine.lower_ms", "ms", NS_PER_MS, || {
        for cv in o4 {
            let roots: BTreeSet<ValueId> = cv
                .tier_down
                .entries
                .values()
                .flat_map(|(_, e)| &e.comp.steps)
                .filter_map(|step| match step {
                    CompStep::Transfer { src, .. } => Some(*src),
                    _ => None,
                })
                .collect();
            black_box(lower_function(&cv.versions.opt, &roots));
        }
    });
    l.count("ssair.machine.minsts", "count", counts.minsts as f64);
    l.count(
        "ssair.machine.spill_slots",
        "count",
        counts.spill_slots as f64,
    );
    let arts: Vec<_> = o4
        .iter()
        .map(|cv| cv.machine.clone().expect("O4 carries a machine artifact"))
        .collect();
    let machine_steps: u64 = subjects
        .iter()
        .zip(&arts)
        .map(|(s, art)| {
            let mut machine = Machine::new(FUEL);
            let mut frame = art.enter_args(&s.args);
            art.run_machine(art.entry_pc, &mut frame, &mut machine, &s.module)
                .expect("machine artifact runs");
            (FUEL - machine.fuel) as u64
        })
        .sum();
    l.row(
        "ssair.machine.ns_per_minst",
        "ns",
        machine_steps as f64,
        || {
            for (s, art) in subjects.iter().zip(&arts) {
                let mut machine = Machine::new(FUEL);
                let mut frame = art.enter_args(&s.args);
                black_box(
                    art.run_machine(art.entry_pc, &mut frame, &mut machine, &s.module)
                        .expect("machine artifact runs"),
                );
            }
        },
    );
    // The same optimized function on both substrates: interpreter time
    // over machine time (base: the O3-mix SSA function under `run_function`).
    l.row("ssair.machine.interp_o3_ms", "ms", NS_PER_MS, || {
        for (s, cv) in subjects.iter().zip(o4) {
            black_box(run_function(&cv.versions.opt, &s.args, &s.module, FUEL).expect("runs"));
        }
    });
    let median_of = |rows: &[Metric], name: &str| {
        rows.iter()
            .find(|m| m.name == name)
            .map(Metric::value)
            .expect("row was just measured")
    };
    let machine_ms =
        median_of(&l.rows, "ssair.machine.ns_per_minst") * machine_steps as f64 / NS_PER_MS;
    let interp_ms = median_of(&l.rows, "ssair.machine.interp_o3_ms");
    l.rows.retain(|m| m.name != "ssair.machine.interp_o3_ms");
    l.count(
        "ssair.machine.speedup_vs_interp",
        "ratio",
        interp_ms / machine_ms,
    );
    // Scatter into and gather out of registers at a mid-loop point.
    let mid_loop: Vec<_> = subjects
        .iter()
        .zip(&arts)
        .zip(o4)
        .filter_map(|((s, art), cv)| {
            let at = *cv.header_points.iter().find(|p| art.pc_at(**p).is_some())?;
            let target = art.pc_at(at)?;
            let mut machine = Machine::new(FUEL);
            let mut frame = art.enter_args(&s.args);
            let (mut pc, mut visits) = (art.entry_pc, 0);
            loop {
                if pc == target {
                    visits += 1;
                    if visits == 2 {
                        return Some((art, frame, at));
                    }
                }
                pc = match art
                    .exec_inst(pc, &mut frame, &mut machine, &s.module)
                    .ok()?
                {
                    MachineStep::Next => pc + 1,
                    MachineStep::Jumped { pc, .. } | MachineStep::Branched(pc) => pc,
                    MachineStep::Returned(_) => return None,
                };
            }
        })
        .collect();
    let fast = (FAST_CALLS * mid_loop.len().max(1)) as f64;
    l.row("ssair.machine.reconstruct_ns", "ns", fast, || {
        for (art, frame, at) in &mid_loop {
            for _ in 0..FAST_CALLS {
                black_box(art.reconstruct(frame, *at));
            }
        }
    });
    let environments: Vec<_> = mid_loop
        .iter()
        .filter_map(|(art, frame, at)| Some((art, art.reconstruct(frame, *at)?, *at)))
        .collect();
    l.row("ssair.machine.enter_ns", "ns", fast, || {
        for (art, values, at) in &environments {
            for _ in 0..FAST_CALLS {
                black_box(art.enter(*at, values));
            }
        }
    });

    // tinyvm.runtime: the same baseline run plain and under a controller
    // that never hops.
    let vms: Vec<Vm> = subjects.iter().map(|s| Vm::new(s.module.clone())).collect();
    l.row(
        "tinyvm.runtime.run_plain_ns_per_instr",
        "ns",
        base_steps as f64,
        || {
            for (s, vm) in subjects.iter().zip(&vms) {
                black_box(vm.run_plain(&s.base, &s.args).expect("runs"));
            }
        },
    );
    let options = TransitionOptions::default();
    l.row(
        "tinyvm.runtime.run_tiered_idle_ns_per_instr",
        "ns",
        base_steps as f64,
        || {
            for (s, vm) in subjects.iter().zip(&vms) {
                black_box(
                    vm.run_tiered(&s.base, &s.args, &options, &mut NeverHop)
                        .expect("runs"),
                );
            }
        },
    );

    // tinyvm.profile: the shared profile's write, drain and read paths.
    let profile = ProfileTable::default();
    let edges: Vec<((BlockId, BlockId), u64)> =
        (0..8).map(|i| ((BlockId(i), BlockId(i + 1)), 3)).collect();
    l.row(
        "tinyvm.profile.record_edges_ns",
        "ns",
        FAST_CALLS as f64,
        || {
            for _ in 0..FAST_CALLS {
                profile.record_edges("ledger", Tier(0), edges.iter().copied());
            }
        },
    );
    l.row(
        "tinyvm.profile.flush_local_ns",
        "ns",
        FAST_CALLS as f64,
        || {
            for _ in 0..FAST_CALLS {
                let mut local = LocalProfile::new(vec![((0, 7), 1)]);
                local.edges.extend(edges.iter().copied());
                black_box(profile.flush_local("ledger", Tier(0), &mut local, true));
            }
        },
    );
    let policy = ValueSpeculationPolicy::default();
    l.row(
        "tinyvm.profile.stable_value_ns",
        "ns",
        FAST_CALLS as f64,
        || {
            for _ in 0..FAST_CALLS {
                black_box(profile.stable_value("ledger", 0, &policy));
            }
        },
    );

    // engine.cache: reads, publishes and invalidations on a standalone
    // cache holding the ledger artifacts.
    let cache = CodeCache::new();
    let keys: Vec<VersionKey> = subjects
        .iter()
        .map(|s| VersionKey::new(s.entry, PipelineSpec::O2))
        .collect();
    for (key, cv) in keys.iter().zip(o2) {
        cache.publish(key, Arc::clone(cv));
    }
    let absent = VersionKey::new("absent", PipelineSpec::O2);
    l.row(
        "engine.cache.get_hit_ns",
        "ns",
        (FAST_CALLS * keys.len()) as f64,
        || {
            for _ in 0..FAST_CALLS {
                for key in &keys {
                    black_box(cache.get(key));
                }
            }
        },
    );
    l.row("engine.cache.get_miss_ns", "ns", FAST_CALLS as f64, || {
        for _ in 0..FAST_CALLS {
            black_box(cache.get(&absent));
        }
    });
    // A value-specialized key registers a dependency at publish, and the
    // matching invalidation evicts it again: each call does real work.
    let seeded = VersionKey::speculated("ledger", PipelineSpec::O2, Speculation::on([(0, 7)]));
    let stability = Entity::ValueStability {
        function: "ledger".to_string(),
        slot: 0,
    };
    let mut publish_ns = Vec::new();
    let mut invalidate_ns = Vec::new();
    for _ in 0..LEDGER_REPS {
        let (mut publish, mut invalidate) = (0, 0);
        for _ in 0..FAST_CALLS {
            let t0 = l.clock.now_ns();
            cache.publish(&seeded, Arc::clone(&o2[0]));
            let t1 = l.clock.now_ns();
            black_box(cache.invalidate(&stability));
            let t2 = l.clock.now_ns();
            publish += t1 - t0;
            invalidate += t2 - t1;
        }
        publish_ns.push(publish as f64 / FAST_CALLS as f64);
        invalidate_ns.push(invalidate as f64 / FAST_CALLS as f64);
    }
    l.rows
        .push(Metric::new("engine.cache.publish_ns", "ns", publish_ns));
    l.rows.push(Metric::new(
        "engine.cache.invalidate_ns",
        "ns",
        invalidate_ns,
    ));

    let end = l.clock.now_ns();
    l.recorder.close(root, end);
    l.rows
}

fn exact_counts_of(o2: &[Arc<CompiledVersion>], o4: &[Arc<CompiledVersion>]) -> ExactCounts {
    let mut c = ExactCounts {
        ir_insts_after_o2: 0,
        actions_recorded: 0,
        entries_built: 0,
        minsts: 0,
        spill_slots: 0,
    };
    for cv in o2 {
        let actions = cv.versions.cm.counts();
        c.ir_insts_after_o2 += cv.opt.live_inst_count() as u64;
        c.actions_recorded +=
            (actions.add + actions.delete + actions.hoist + actions.sink + actions.replace) as u64;
        c.entries_built += (cv.tier_up.entries.len() + cv.tier_down.entries.len()) as u64;
    }
    for cv in o4 {
        let art = cv.machine.as_ref().expect("O4 carries a machine artifact");
        c.minsts += art.code.len() as u64;
        c.spill_slots += art.num_slots as u64;
    }
    c
}
