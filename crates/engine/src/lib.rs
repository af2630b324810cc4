//! A concurrent tiered-execution service over the OSR machinery: the role
//! a production VM's execution manager plays around OSRKit/MCJIT in
//! §5.4/§6.1 of *On-Stack Replacement, Distilled*, scaled from "one
//! function at a time" to sustained multi-tenant traffic over a tier
//! ladder.
//!
//! # Architecture
//!
//! ```text
//!  submit / try_submit ─► EngineHandle ─► persistent worker pool (interpreters)
//!       │ bounded queue      ▲    │ deadline check at pickup: expired work
//!   RequestId / QueueFull    │    ▼ is dropped (DeadlineExpired), never run
//!       │              ResultEvents               │ per-(function, rung)
//!  run_batch ────────────────┘                    ▼ shared hotness + edge profile
//!  (compat wrapper)                     ┌── EngineController ──────────────┐
//!                                       │ cold: keep interpreting          │
//!                                       │ hot + rung not compiled: enqueue ┼─► CompileQueue
//!                                       │ hot + artifact ready: up edge    │  (hot-first
//!                                       │ guard failed: down edge mid-loop │   priority)
//!                                       └───────▲──────────────────────────┘      │
//!                                               │ publish (republish ⇒            ▼
//!                 transition graph (TierGraph)  │  composed invalidation)  compile workers
//!      O0 ──direct──► O1 ──composed──► O2 ──composed──► O3 ──composed──► O4 (machine)
//!      ▲               ▲◄────── adaptive one-rung deopt ─────┴───────────┘ (background,
//!      └◄──────── full deopt + debug deopt ◄──────────┘        §5.2 keep-set recompiles)
//!                           └──── CodeCache ◄───────┘
//!          (8 hash shards: per-rung FunctionVersions + validated entry
//!           tables + chained composed tables for arbitrary rung pairs)
//! ```
//!
//! # The transition graph
//!
//! A [`TierPolicy`] exposes a [`TierGraph`] — N pipeline rungs above the
//! baseline interpreter plus the allowed up/down edges between them, each
//! up edge gated by its own hotness threshold.  The default graph is the
//! chain `O0 → O1 → O2 → O3 → O4` ([`PipelineSpec::O1`] light CSE+DCE,
//! [`PipelineSpec::O2`] the §5.4 standard mix, [`PipelineSpec::O3`] the
//! aggressive mix with a second SCCP + sinking round,
//! [`PipelineSpec::O4`] the same SSA mix executed on the
//! register-allocated machine substrate — see the next section), with
//! down edges `k → k-1` and `k → 0` out of every optimized rung.  Visits of a
//! version's loop-header OSR points accumulate in shared
//! per-`(function, tier)` counters ([`ProfileTable`]); when the counter
//! of the rung a frame currently runs crosses its (adapted — see below)
//! edge threshold, the controller enqueues a background compile of the
//! next rung (from the shared baseline) and — once the artifact is
//! published — hops the live frame into it:
//!
//! * **O0 → O1** through the artifact's direct, precomputed forward table;
//! * **any higher hop** (O1 → O2, O2 → O3, and every down edge between
//!   optimized rungs) through a *composed* `fopt → fopt'` table — the
//!   SSA analogue of Theorem 3.4's mapping composition, folded over the
//!   whole rung sequence by
//!   [`ssair::feasibility::compose_entries_chain`]: adjacent hops are
//!   composed through the shared baseline
//!   ([`ssair::feasibility::compose_entries`]), and longer prefixes
//!   (e.g. the `O1 → O3` table [`Engine::prewarm`] memoizes) extend the
//!   previous prefix by a single table-level fold
//!   ([`ssair::feasibility::compose_table_pair`]) — so a frame transfers
//!   straight between optimized versions and never re-enters the
//!   baseline.  Composed tables are built lazily, validated structurally
//!   *and differentially* (compensation steps are replayed on sampled
//!   concrete frames, the SSA analogue of `osr::validate_mapping`),
//!   memoized in the cache per rung pair (both directions), and rejected
//!   with [`cache::CompileError::Divergence`] if any replay disagrees
//!   with a reference run.  A republish drops every memoized composed
//!   table routed through the replaced rung (see *Assumptions &
//!   invalidation* below) and it is rebuilt on the next hop.
//!
//! After every hop the frame stays under profiling, so one frame can
//! climb the whole graph mid-loop.  A request in [`ExecMode::Debug`]
//! models a debugger attach (§7): it runs the *top*-rung version and
//! tiers down to the baseline through the precomputed backward table at
//! the first instrumented visit, where every source variable is
//! inspectable.  The cache's own `Arc`s (version pair and table) ride the
//! decision; no artifact is copied per request.
//!
//! # The machine rung (O4)
//!
//! The top rung of the default graph changes the *execution substrate*,
//! not the SSA program: an O4 compile runs the same aggressive pipeline
//! as O3, precomputes and validates the same entry tables, and then
//! additionally lowers the optimized function to a linear micro-IR
//! ([`ssair::machine`]) — branches and jumps over flat program counters,
//! operands register-allocated by liveness/interference coloring onto a
//! sixteen-register file ([`ssair::machine::NUM_REGS`]) with overflow in
//! numbered spill slots, φ-nodes resolved into parallel edge copies.
//! Frames that climb into O4 execute in a dedicated dispatch loop over
//! the register file instead of the SSA interpreter.
//!
//! OSR in and out of registers is bridged by the artifact's *location
//! maps* ([`ssair::machine::LocationMap`]): every instrumented SSA point
//! keeps a bidirectional mapping between live SSA values and the
//! register/slot each lives in at that program counter.  Climbing in
//! takes the ordinary (direct or composed) SSA table to the landing
//! environment and then *scatters* it into registers; deopting out —
//! guard failure, debugger attach, value-guard escape — *gathers* the
//! registers back into an SSA environment and leaves through the same
//! validated tables every SSA rung uses.  Values the register allocator
//! rematerializes or spills are read from their *shadow slots*
//! (write-through copies maintained for every OSR-visible value), so
//! Algorithm 1's compensation steps see exactly the environment they
//! were validated against: deopt-from-registers is no weaker than
//! deopt-from-SSA.  Each O4 compile is additionally differentially
//! validated at build time — the micro-IR artifact is executed against
//! the SSA interpreter on sampled arguments and rejected on any
//! divergence ([`cache::CompileError::Divergence`]).  In the event
//! stream and request traces, hops landing in O4 carry
//! [`TableKind::Machine`].
//!
//! # Profile-guided layout
//!
//! O3 and O4 compiles consume a snapshot of the edge profile
//! ([`ssair::passes::BlockFrequencies`], built from
//! [`ProfileTable`] edge counts) and append a
//! [`ssair::passes::LayoutBlocks`] pass that reorders the optimized
//! version's blocks hot-fallthrough-first; machine lowering then emits
//! blocks in that order, so the micro-IR's hot successor is the literal
//! `pc + 1` fallthrough and the hot path stops paying taken jumps.  The
//! O2+ mixes already run `MergeBlocks` and `SimplifyJumps` — superblock
//! formation and jump threading — with every action recorded in the
//! mapper, so OSR entry tables over the laid-out version stay exact.
//!
//! **When the snapshot is taken.**  At compile-job submission: the
//! requesting controller force-drains its thread-local buffer, the
//! engine bumps the profile's drain epoch
//! ([`ProfileTable::advance_epoch`] — which makes every other live
//! frame's buffer drain at its next instrumented visit), and the
//! aggregated per-block successor totals ride into the job.  A compile
//! therefore sees the profile as of its submission, never a later one;
//! the snapshot actually used is recorded on the artifact as
//! [`cache::CompiledVersion::layout_digest`] (the `(block, hot
//! successor)` pairs the layout honored).  Rungs below O3, prewarmed
//! compiles, and engines with [`EnginePolicy::layout`] cleared compile
//! with no layout (an empty digest, creation order).
//!
//! **Layout-stale artifacts.**  A cached artifact keeps its layout until
//! the rung is *republished*: any §5.2 keep-set recompile — or an
//! explicit republish after the profile shifts, e.g. when a speculation
//! demotion already forces one — re-snapshots the current profile, so
//! the replacement artifact is laid out for the traffic that actually
//! runs.  Layout staleness alone never invalidates an artifact: the old
//! order stays *correct* (block order changes execution cost, not
//! results), so eager invalidation would only churn the cache.
//!
//! # The speculation lifecycle (guard → deopt → re-climb → demotion)
//!
//! Deoptimization is not a debugger-only special case: the same
//! validated-transition machinery runs *speculation guards* in every
//! `Tiered` frame, making tier transitions fully bidirectional.
//!
//! 1. **Profile.** The controller records which successor every
//!    conditional branch takes into the shared [`ProfileTable`], keyed
//!    per rung (batched per frame, flushed at instrumented visits): the
//!    baseline records every branch, a climbed frame every branch its
//!    rung does not guard — so a partially-deoptimized frame keeps
//!    correcting the profile without re-entering the baseline.  A branch
//!    becomes a *guard* at a rung once its aggregate profile is biased
//!    enough for that rung's policy ([`TierPolicy::speculation_at`]:
//!    under [`LadderPolicy`]'s default gradient, each rung below the top
//!    demands 5 more points of bias — deeper rungs speculate more).
//! 2. **Guard.** A climbed frame checks every taken conditional edge
//!    against the recorded bias.  Executions of the cold edge count as
//!    guard failures; after `tolerance` failures within one frame (at a
//!    rate above what the profile already allowed), the speculation is
//!    declared wrong.
//! 3. **Deopt.** The frame hops *down* mid-loop, along a graph down edge
//!    picked by [`TierPolicy::deopt_strategy`].  The default
//!    [`DeoptStrategy::Adaptive`] falls **one rung** when the rung below
//!    is *bias-neutral* for the failing branch (its policy would not
//!    guard it — the landed frame keeps most of its optimization and
//!    cannot immediately re-fire the same guard), and **all the way to
//!    the baseline** when every intermediate candidate still speculates
//!    on the branch.  One-rung falls go through a composed down-table;
//!    full deopts through the artifact's precomputed backward table.
//!    The event stream records an [`EngineEvent::Deopt`] with a
//!    bias-kind [`DeoptReason::AssumptionViolated`] next to the backward
//!    [`EngineEvent::Transition`].  Constants the landed frame never
//!    computed are rematerialized at hop time (§5.1: free
//!    rematerializations), so the deopt-landed frame can take tables
//!    back out again.
//! 4. **Re-climb.** The landed frame keeps profiling: branch edges update
//!    the (now-corrected, rung-keyed) profile and hotness keeps
//!    accumulating, so the frame climbs again — recorded as
//!    [`EngineEvent::Reclimb`].  If the traffic shift was real, the
//!    refreshed profile dissolves the stale bias and the re-climbed frame
//!    stays up.
//! 5. **Demotion.** Every guard-failure deopt of a function raises its
//!    climb thresholds adaptively
//!    ([`TierPolicy::threshold_after_deopts`] doubles per recorded
//!    deopt), so repeat offenders re-earn each rung with a longer
//!    profile.
//!
//! # Value speculation (stable arguments → constant-seeded versions)
//!
//! Beyond branch edges, every `Tiered` request records its concrete
//! integer arguments into the shared *value profile*
//! ([`ProfileTable::record_values`], batched and flushed with the edge
//! profile).  When an argument slot is **stable** — at least
//! [`ValueSpeculationPolicy::min_samples`] observations dominated by one
//! value ([`TierPolicy::value_speculation`]; disable with `None`) — a
//! climb targets a *constant-seeded specialized version*: the cache key
//! grows a third component, `(function, pipeline, speculation)`
//! ([`Speculation`]), and the compile prepends
//! [`ssair::passes::SeedValues`] to the rung's normal mix, materializing
//! the stable value as a constant so SCCP/DCE/branch folding collapse
//! everything the argument decides (the dispatch arm, the weight chain).
//! The artifact records the speculation as its **entry guard**.
//!
//! Entries into specialized code are guarded, and violations deopt
//! through the same `TierGraph` machinery as branch guards:
//!
//! * a frame whose arguments *match* hops in normally (the hop is
//!   labelled `speculated` in the event stream and counted in
//!   [`MetricsSnapshot::value_specialized_tier_ups`]);
//! * a frame whose arguments *violate* the speculation still hops in —
//!   the interpreter-level model of a compiled prologue guard — and the
//!   guard fires at the landing, **before a single specialized
//!   instruction executes**: the frame escapes onto the same rung's
//!   generic artifact ([`EngineEvent::Deopt`] with a value-kind
//!   [`DeoptReason::AssumptionViolated`],
//!   [`MetricsSnapshot::value_guard_failures`])
//!   and re-climbs without the assumption.  The round trip is only taken
//!   when it is provably sound for a violating frame
//!   ([`cache::vet_generic_escape`]): the escape reads nothing the
//!   specialized version computed — only identity-transferred real
//!   values, pinned parameters (arguments are re-suppliable at any hop),
//!   and baseline constants — and is *mandatory* (if unservable at fire
//!   time the request aborts rather than run wrong code).  Round trips
//!   that cannot be vetted are declined at climb time and the frame
//!   climbs generic.
//! * violating requests keep recording their arguments, so a stream that
//!   flips its stable value dissolves the stability
//!   ([`ProfileTable::stable_value`] goes `None`) and later traffic stops
//!   speculating until a new value stabilizes; the dissolved slot can be
//!   swept from the cache through the unified invalidation path (see
//!   *Assumptions & invalidation* below).
//!
//! # Inlining + call-graph speculation
//!
//! The third speculative cache-key dimension is the *call graph*: which
//! callees a version spliced into itself, and at which epoch of each
//! callee's life.
//!
//! **Profiling.**  While a frame runs the baseline, every executed call
//! feeds the per-`(caller, call-site, callee)` *call-edge profile*
//! (buffered in the frame's `LocalProfile`, drained on the same epoch
//! flush as the branch edges).  A site becomes inline-worthy when it has
//! enough samples, one dominant callee, and that callee is spliceable —
//! a leaf built from pure scalar instructions within the size budget
//! ([`ssair::passes::InlineCalls::can_inline`],
//! [`tinyvm::profile::InlineSpeculationPolicy`]).
//!
//! **Splicing.**  A climb to the O3/O4 rungs then targets an *inlined
//! version*: the cache key grows a fourth component
//! ([`cache::InlineSpec`] — the spliced sites, each with the callee's
//! identity **and current inline epoch**), and the compile prepends
//! [`ssair::passes::InlineCalls`] to the rung's mix.  The pass clones
//! the callee's blocks into the caller, records every clone as ordinary
//! OSR state-mapping actions plus a per-version *inline map*
//! (`cloned pc → callee pc`), and guards the callee's profiled branches
//! against the **callee's own** baseline bias (the caller's edge profile
//! knows nothing about cloned blocks).  Entry tables for the spliced
//! version come out of the same [`ssair::feasibility`] precomputation as
//! every other rung — splices are just more recorded actions.  The O4
//! rung lowers the spliced artifact unchanged, so the machine rung runs
//! call-free too.
//!
//! **Cross-function deopt.**  When a spliced guard fires (an inline-kind
//! [`DeoptReason::AssumptionViolated`], counted in
//! [`MetricsSnapshot::inline_guard_failures`], labelled
//! [`TableKind::InlineExit`] in the request trace), the frame exits to
//! the baseline through the version's validated exit table.  A landing
//! *inside* an inlined region **reconstructs the callee frame** from the
//! inline map — the callee runs to its return in its own (true,
//! call-preserving) function, the caller resumes at the call's
//! continuation, and the transition event names the reconstructed callee
//! (`OsrEvent::callee`, rendered as `reconstructing <callee>`).  The
//! frame then re-climbs call-preserving (the splice assumption is
//! poisoned for the rest of the request).
//!
//! **Invalidation.**  Republishing any version of a callee invalidates
//! the callee *entity* — its inline epoch advances and every registered
//! caller artifact spliced at an older epoch is evicted through the one
//! shared path described under *Assumptions & invalidation* below.
//! Epochs make the rule exact under concurrency: an inlined artifact is
//! usable iff every spliced callee still sits at the epoch recorded in
//! the key, so no stale-inline execution is possible even while a
//! republish storm races live climbs.  Already-running frames soundly
//! finish on their `Arc` — spliced code is semantically exact for the
//! body it cloned.  Inlining is on by default and gated by
//! [`EnginePolicy::inlining`]; forward hops into spliced versions are
//! labelled `inlined` and counted in
//! [`MetricsSnapshot::inlined_tier_ups`].
//!
//! # Assumptions & invalidation
//!
//! All three speculation families share one bookkeeping system, the
//! [`assume`] module.  A speculative artifact's bets are an ordered
//! [`AssumptionSet`] of [`Assumption`]s — `ValueStable` (a stable
//! argument seeded as a constant), `InlinedCallee` (a call site spliced
//! at a callee epoch), `BiasGuard` (a branch-bias bet; profile-local
//! today, with room reserved for a future memory-cell kind) — and a
//! compiled version is *named* exclusively by its [`VersionKey`]
//! `{ function, pipeline, assumptions }`: the cache's slot shards, the
//! composed-table memo (as endpoint-key pairs), the cache-hit probe
//! history (as [`VersionKey::generic`] views) and [`Engine::prewarm`]
//! all key on it.  The key's `Display` form is canonical and stable —
//! the serializable version name the horizontal-scale roadmap item
//! needs.
//!
//! Invalidation is one dependency registry inside the [`CodeCache`].  At
//! publish time an artifact is registered under the [`Entity`] each of
//! its assumptions depends on — the callee identity for `InlinedCallee`
//! bets, the `(function, slot)` value-stability for `ValueStable` bets —
//! and every eviction flows through [`CodeCache::invalidate`]:
//!
//! * [`Entity::Rung`] — a republish of a key drops every memoized
//!   composed table routed through that endpoint, counted in
//!   [`MetricsSnapshot::composed_invalidations`];
//! * [`Entity::Callee`] — a callee republish bumps its inline epoch and
//!   evicts every registered caller spliced at an older epoch (stale
//!   in-flight compiles are abandoned at publish), counted in
//!   [`MetricsSnapshot::inline_invalidations`];
//! * [`Entity::ValueStability`] — a dissolved stable value evicts every
//!   artifact seeded on that slot, counted in
//!   [`MetricsSnapshot::value_invalidations`].
//!
//! The per-kind counters sum to
//! [`MetricsSnapshot::assumption_invalidations`], and the bench gate
//! checks that identity on every committed `BENCH_engine.json`.  On the
//! deopt side the same taxonomy names every guard: a deopting frame
//! carries a [`DeoptReason::AssumptionViolated`] with a structured
//! [`ViolatedAssumption`] whose [`AssumptionKind`]
//! (`bias`/`value`/`inline`) is the single label that metrics, request
//! traces, [`OsrEvent::violated`](tinyvm::runtime::OsrEvent) and the
//! event stream all render, and [`cache::vet_generic_escape`] is the one
//! vetted same-rung generic-escape mechanism any assumption kind can
//! request.
//!
//! # Adaptive climb thresholds
//!
//! Beyond deopt demotion, each up edge's threshold reacts to the code
//! cache: the controller records one probe per request per rung (was the
//! next rung's artifact ready when the frame got hot?), and
//! [`TierPolicy::threshold_with_cache`] halves the threshold once at
//! least ¾ of the probes for that `(function, pipeline)` hit (compiling
//! is effectively free — climb sooner) and doubles it under sustained
//! misses (the compile pipeline is behind — don't pile on).  Both
//! adjustments are surfaced in [`MetricsSnapshot::threshold_lowers`] /
//! [`MetricsSnapshot::threshold_raises`].
//!
//! # §5.2 keep-set recompiles
//!
//! A climbed frame must always be able to *leave* its version, but some
//! shapes block the deopt-critical backward entry at the loop header —
//! typically a named loop-local whose baseline φ is dead in O2 yet needed
//! on the loop's exit path.  Compile jobs detect this during table
//! precompute ([`ssair::feasibility::precompute_entries_collecting`]) and
//! recompile with the blocking values in a liveness-extension keep-set
//! ([`PipelineSpec::build_keeping`]; ADCE and sinking treat them as
//! roots), retrying until every loop-header entry of the backward table
//! is served.  The published artifact is then the keep-set recompiled
//! version — cached under the same `(function, pipeline)` key, recorded
//! as [`EngineEvent::ExtensionRecompiled`] — rather than a fast version
//! that could never deoptimize.
//!
//! # Back-pressure, deadlines and compile priorities
//!
//! [`EngineHandle::submit`] is bounded by
//! [`EnginePolicy::queue_depth`]: when that many requests wait for a
//! worker, `submit` blocks and [`EngineHandle::try_submit`] returns
//! [`SubmitError::QueueFull`] (handing the request back) so a front end
//! can shed load instead of queueing unboundedly.  A request may also
//! carry a [`Request::deadline`] — a queueing budget in *microseconds*
//! since submission: work still waiting for a worker once it has waited
//! longer than its budget (a zero budget expires unconditionally) is
//! *dropped* at pickup (the caller stopped waiting; running it would
//! only steal the worker from live traffic), streamed as
//! [`ResultEvent::DeadlineExpired`] and counted in
//! [`MetricsSnapshot::deadline_expired`].  The background compile queue
//! is a hot-first priority queue: jobs carry the submitting function's
//! hotness, and workers pop the hottest job first, so under skewed
//! traffic the functions serving the most requests get their artifacts
//! earliest.
//!
//! # Sessions
//!
//! [`Engine::start`] spawns a persistent worker pool;
//! [`EngineHandle::submit`] enqueues work and returns a [`RequestId`];
//! completions and engine events stream over the handle's channel as
//! [`ResultEvent`]s; [`EngineHandle::shutdown`] drains in-flight work.
//! Multiple sessions share one engine (cache, counters, compile pool).
//! [`Engine::run_batch`] remains as a thin compatibility wrapper that
//! submits a slice of requests and waits for all of them.
//!
//! # Observability
//!
//! The engine can *time* its machinery, not just count it — the
//! observability layer has three parts, all measured on one monotone
//! clock (the **engine epoch**, the creation instant of the shared
//! [`metrics::EventLog`]; every timestamp below is microseconds since
//! that epoch).
//!
//! **Per-request lifecycle traces.**  Every submitted request is traced
//! through submit → worker pickup (the queue wait) → each OSR transition
//! (source/destination rung, table kind — direct, composed,
//! value-specialized, or machine — climb/deopt/re-climb, per-hop cost) →
//! completion,
//! as a [`RequestTrace`] queryable from [`EngineHandle::trace`] (or
//! [`Engine::trace`]) and rendered as a human-readable tree by its
//! `Display` impl (see `examples/engine_trace.rs`).  Timestamps within a
//! trace are monotone.  The same events stream live as timestamped
//! [`metrics::TimedEngineEvent`]s through [`metrics::EventLog::subscribe`]
//! / [`metrics::EventLog::drain_timed`].  The trace store is bounded
//! ([`trace::TRACE_CAPACITY`]); the oldest traces are evicted first.
//!
//! **Per-rung time residency.**  [`Engine::rung_visit_residency`] counts
//! instrumented *visits* per rung; [`Engine::rung_time_residency`]
//! attributes wall-clock *time* (nanoseconds) per rung.  Time is measured
//! by the request controller with one `Instant` stamp per hop — batched
//! exactly like the edge profile, so the interpreter observe path stays
//! lock-free and allocation-free.
//!
//! **Latency histograms.**  Four lock-free log-bucketed histograms
//! ([`histogram::LogHistogram`]) record end-to-end request latency, queue
//! wait, compile latency (all µs) and per-transition cost (ns); their
//! p50/p90/p99 surface in [`metrics::MetricsSnapshot`] (fields
//! `request_latency`, `queue_wait`, `compile_latency`,
//! `transition_cost`).  Quantiles are conservative upper bucket edges
//! with bounded relative error — at most `1/8` (12.5%) above the true
//! sorted-percentile value, exact for small values; see the
//! [`histogram`] module docs.  Recording is one relaxed `fetch_add` per
//! observation, and observations happen only at lifecycle boundaries
//! (pickup, completion, compile publish, hop landing), never per loop
//! iteration.
//!
//! **Reading `BENCH_engine.json`.**  The bench harness
//! (`crates/bench/benches/engine.rs`) serializes a perf-gate snapshot to
//! `BENCH_engine.json` at the repo root, committed in-repo so the perf
//! trajectory of every PR stays diffable.  Keys: `schema` (currently
//! `"bench-engine-v1"`), `warm_session_micros` / `cold_session_micros`
//! (median wall-clock of a full Zipf session with a warm/cold cache),
//! `request_latency_micros` / `queue_wait_micros` /
//! `compile_latency_micros` / `transition_cost_nanos` (objects with
//! `count`/`p50`/`p90`/`p99`/`max`), `rung_visit_residency` and
//! `rung_time_micros` (per-rung maps keyed `"O0"`, `"O1"`, … — the time
//! map holds *true* microseconds, rounded to the nearest from the
//! nanosecond residency counters rather than truncated),
//! `speculation` (the full counter set of [`metrics::MetricsSnapshot`]),
//! `o4_session` (the machine-rung acceptance session: its own
//! warm/cold wall-clock, the measured warm O4-vs-O3 session speedup in
//! permille, and the O4 engine's per-rung residency maps), `layout`
//! (the profile-guided-layout A/B: best warm-session micros with layout
//! on vs off over identical probe traffic, plus each leg's O4
//! taken/fallthrough jump counters), and `inline` (the
//! inline-speculation A/B: best warm-session micros with inlining on vs
//! off over identical call-graph traffic, plus each leg's dynamic
//! call-dispatch count summed over the driver's machine-rung artifacts).
//! CI regenerates the file and `cargo run -p bench --bin bench_gate`
//! fails the build when required fields are missing, quantiles are not
//! monotone (`p50 ≤ p90 ≤ p99`), the tier-1 invariants (≥ 1 composed
//! tier-up, ≥ 1 deopt) regress, the machine rung loses the plurality
//! of `o4_session` execution time, the layout ordering regresses
//! (layout-on warm micros must stay ≤ layout-off, and layout-on must
//! not raise the taken-jump share), or the inline block regresses
//! (inline-on warm micros must stay ≤ inline-off, and the spliced leg
//! must dispatch *strictly fewer* calls — the deterministic witness that
//! the splice happened).  The bench-smoke job additionally diffs freshly
//! regenerated `layout` and `inline` blocks against the committed ones
//! within a tolerance (`bench_gate diff-layout` / `bench_gate
//! diff-inline`).
//!
//! Beyond timing, every transition (with its tier pair and whether it was
//! composed), compile, composed-table build and rejection is recorded as
//! an [`metrics::EngineEvent`]; aggregate counters (tier-ups, composed
//! tier-ups, deopts, cache hits/misses, queue depth, compile latency) are
//! available as a [`metrics::MetricsSnapshot`] from [`Engine::metrics`],
//! in every [`BatchReport`], and in every [`SessionReport`].
//!
//! # Example
//!
//! ```
//! use engine::{Engine, EnginePolicy, Request, ResultEvent};
//! use ssair::interp::Val;
//!
//! let module = minic::compile(
//!     "fn work(x, n) {
//!          var s = 0;
//!          for (var i = 0; i < n; i = i + 1) { s = s + x * x + i; }
//!          return s;
//!      }",
//! ).unwrap();
//! let engine = Engine::new(module, EnginePolicy::three_tier(8, 24, 24));
//! engine.prewarm("work").unwrap(); // compile O1..O3 + the chained composed tables
//!
//! let session = engine.start();
//! let ids: Vec<_> = (0..8)
//!     .map(|k| session.submit(Request::tiered("work", vec![Val::Int(2), Val::Int(200 + k)])))
//!     .collect();
//! let report = session.shutdown(); // drains all in-flight work
//! let results = report.results();
//! assert!(ids.iter().all(|id| results[id].is_ok()));
//! assert!(report.metrics.tier_ups >= 1);
//! ```

pub mod assume;
pub mod cache;
mod engine;
pub mod histogram;
pub mod metrics;
pub mod pool;
mod session;
pub mod tiers;
pub mod trace;

pub use assume::{
    Assumption, AssumptionKind, AssumptionSet, Entity, VersionKey, ViolatedAssumption,
};
pub use cache::{
    CacheKey, CodeCache, CompileError, CompiledVersion, InlineSpec, PipelineSpec, Speculation,
};
pub use engine::{
    BatchReport, Engine, EngineError, EnginePolicy, ExecMode, ProfileTable, Request,
    SpeculationPolicy, ValueSpeculationPolicy,
};
pub use histogram::{HistogramSnapshot, LogHistogram};
pub use metrics::{DeoptReason, EngineEvent, EngineMetrics, MetricsSnapshot, TimedEngineEvent};
pub use session::{EngineHandle, RequestId, ResultEvent, SessionReport, SubmitError};
pub use tiers::{DeoptStrategy, LadderPolicy, Tier, TierEdge, TierGraph, TierPolicy, NEVER_HOT};
pub use trace::{RequestTrace, TableKind, TraceTransition};
