//! The shared code cache: per-tier compiled function versions with
//! precomputed, validated OSR entry tables, keyed by the unified
//! [`VersionKey`] (`function` + `pipeline` + assumption set — see
//! [`crate::assume`]), plus lazily-built composed version-to-version
//! tables and the dependency registry every invalidation flows through.
//!
//! The cache is the rendezvous point between interpreters and the
//! background compiler pool: interpreters probe it on every hot visit,
//! compile workers publish into it, and every transition — tier-up,
//! tier-down, and composed `fopt → fopt'` hops — is served from the
//! precomputed tables it stores (a transition at run time is a table
//! lookup, never a reconstruction).
//!
//! The slot map is sharded by key hash (8 `Mutex`-guarded shards) so that
//! hot-path probes from many request workers do not serialize on one lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ssair::feasibility::{
    compose_entries_chain, compose_table_pair, extension_candidates, precompute_entries,
    precompute_entries_collecting, EntryTable,
};
use ssair::interp::{run_frame, run_function, Frame, Machine, StepOutcome, Val};
use ssair::passes::{BlockFrequencies, LayoutBlocks, PassId, Pipeline};
use ssair::reconstruct::{apply_comp, CompStep, Direction, Variant};
use ssair::{Function, InstId, Module, ValueDef, ValueId};
use tinyvm::profile::loop_header_points;
use tinyvm::FunctionVersions;

/// Which optimization pipeline a cached artifact was produced by — one
/// rung of the engine's tier ladder.
///
/// Identified by name/pass-list (hashable) rather than by a built
/// [`Pipeline`] (which holds trait objects); workers materialize the
/// actual pipeline on their own thread via [`PipelineSpec::build`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PipelineSpec {
    /// Light CSE + DCE-style mix (`ssair::passes::Pipeline::light`): cheap
    /// to run, cheap to OSR out of — the first optimized rung.
    O1,
    /// The §5.4 standard mix including LICM hoisting
    /// (`ssair::passes::Pipeline::standard`).
    O2,
    /// The aggressive mix (`ssair::passes::Pipeline::aggressive`): the
    /// standard passes plus a second SCCP + sinking round — the top rung
    /// of the default transition graph, hardest to OSR out of.
    O3,
    /// The machine rung: the same aggressive mix as
    /// [`PipelineSpec::O3`], but *executed on the register-allocated
    /// machine substrate* — the optimized SSA is lowered to linear
    /// micro-IR ([`ssair::machine`]), colored onto a fixed register
    /// file, and dispatched without per-value hashing.  All OSR entry
    /// tables are the SSA tables unchanged; the artifact's location
    /// maps bridge registers and SSA values at every lowered point.
    O4,
    /// A named custom pass list (see [`PipelineSpec::custom`]).
    Custom {
        /// Stable display name (used in metrics and cache keys).
        name: String,
        /// The passes to run, in order.
        passes: Vec<PassId>,
    },
}

impl PipelineSpec {
    /// A named custom-pass-list spec.
    pub fn custom(name: impl Into<String>, passes: Vec<PassId>) -> Self {
        PipelineSpec::Custom {
            name: name.into(),
            passes,
        }
    }

    /// Builds the pipeline this spec names.
    pub fn build(&self) -> Pipeline {
        self.build_keeping(&Default::default())
    }

    /// Builds the pipeline with a §5.2 liveness-extension keep-set: the
    /// listed values survive dead-code elimination and sinking, which is
    /// how a blocked deoptimization entry gets its needed state back at
    /// the cost of keeping a few extra values live.
    pub fn build_keeping(&self, keep: &std::collections::BTreeSet<ValueId>) -> Pipeline {
        match self {
            PipelineSpec::O1 => Pipeline::light_keeping(keep),
            PipelineSpec::O2 => Pipeline::standard_keeping(keep.clone()),
            PipelineSpec::O3 | PipelineSpec::O4 => Pipeline::aggressive_keeping(keep),
            PipelineSpec::Custom { passes, .. } => Pipeline::from_ids_keeping(passes, keep),
        }
    }

    /// Stable display name (used in metrics and event streams).
    pub fn name(&self) -> &str {
        match self {
            PipelineSpec::O1 => "O1",
            PipelineSpec::O2 => "O2",
            PipelineSpec::O3 => "O3",
            PipelineSpec::O4 => "O4",
            PipelineSpec::Custom { name, .. } => name,
        }
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

pub use crate::assume::{
    pipeline_label, Assumption, AssumptionKind, AssumptionSet, Entity, InlineSpec,
    InvalidationCounts, Speculation, VersionKey,
};

/// The legacy name for [`VersionKey`] — kept as a thin alias so
/// cache-facing call sites read naturally.  The key shape itself (and
/// the `Speculation`/`InlineSpec` views re-exported above) lives in
/// [`crate::assume`]; nothing outside that module defines a key.
pub type CacheKey = VersionKey;

/// A compiled artifact: the `(baseline, optimized)` version pair for one
/// ladder rung plus both precomputed OSR entry tables and compile-time
/// metadata.
pub struct CompiledVersion {
    /// The spec this artifact was produced by.
    pub spec: PipelineSpec,
    /// The value speculation this artifact is specialized on — its entry
    /// guard.  Empty for generic artifacts.
    pub speculation: Speculation,
    /// The instrumented (loop-header) OSR points of the optimized
    /// version, precomputed so the engine's value-guard vetting never
    /// recomputes loop info on a hot path.
    pub header_points: Vec<InstId>,
    /// Baseline/optimized pair with the recorded action mapper.
    pub versions: Arc<FunctionVersions>,
    /// The optimized version, shared so ladder hops can continue executing
    /// it (`versions.opt` under an `Arc`).
    pub opt: Arc<Function>,
    /// The baseline version, shared so a guard-driven tier-down can hop a
    /// live frame back into it (`versions.base` under an `Arc`).
    pub base: Arc<Function>,
    /// Forward (tier-up) entries: baseline point → compensation.
    pub tier_up: Arc<EntryTable>,
    /// Backward (tier-down / deopt) entries: optimized point → compensation.
    pub tier_down: Arc<EntryTable>,
    /// §5.2 liveness-extension keep-set size: values kept alive through
    /// dead-code elimination so blocked deopt entries become feasible
    /// (`0` when the plain pipeline sufficed).
    pub keep: usize,
    /// Keep-set recompile rounds performed (`0` when the plain pipeline's
    /// backward table already served every loop-header entry).
    pub extension_rounds: usize,
    /// Wall-clock compile + precompute latency.
    pub compile_nanos: u64,
    /// Digest of the [`BlockFrequencies`] snapshot that shaped this
    /// artifact's block layout — `(branch block, hot successor)` pairs,
    /// sorted.  Empty when no layout ran (no profile yet, layout
    /// disabled, or a rung below O3).  A republish under a shifted
    /// profile produces a different digest, which is how layout-stale
    /// artifacts are told apart from fresh ones.
    pub layout_digest: Vec<(ssair::BlockId, ssair::BlockId)>,
    /// The register-allocated machine artifact backing `opt` when this
    /// rung executes on the machine substrate ([`PipelineSpec::O4`]);
    /// `None` for SSA-interpreted rungs.  The artifact's shadow roots
    /// are the backward table's transfer sources plus the keep set, so
    /// a deopt out of registers can always rebuild the SSA environment
    /// the validated tables read.
    pub machine: Option<Arc<ssair::machine::MachineArtifact>>,
    /// The inlining assumption this artifact was spliced under (part of
    /// its cache-key identity; empty for call-preserving artifacts).
    pub inline_spec: InlineSpec,
    /// The cross-function deopt plan when any site was actually spliced:
    /// everything a runtime needs to exit an inlined region into a
    /// reconstructed callee frame.  `None` when `inline_spec` is empty
    /// *or* every requested site declined to splice.
    pub inline: Option<Arc<InlinePlan>>,
}

/// The cross-function deopt plan of an inlined artifact.
///
/// A guard deopt at an optimized pc inside a spliced region cannot use the
/// ordinary backward table: the caller baseline has no pc for the middle
/// of a callee that, in baseline terms, is still a single `Call`.  The
/// plan carries a second validated backward table targeting the *spliced*
/// snapshot (the function as it stood right after [`ssair::passes::InlineCalls`] ran,
/// where region pcs are real instructions), plus the per-splice
/// [`ssair::passes::InlineRegion`] records that translate a spliced-frame environment
/// into a reconstructed *callee* frame and a caller resumption at the
/// call's continuation.
pub struct InlinePlan {
    /// The spliced (pre-optimization) caller the exit table lands in.
    pub spliced: Arc<Function>,
    /// Backward entries `optimized pc → spliced-snapshot compensation`,
    /// structurally and differentially validated like every other table.
    pub to_spliced: Arc<EntryTable>,
    /// One record per performed splice.
    pub regions: Vec<ssair::passes::InlineRegion>,
    /// Callee body snapshots (what was spliced), by name — the function a
    /// mid-region deopt re-enters.
    pub callees: std::collections::BTreeMap<String, Arc<Function>>,
    /// Speculatively biased branches that survived into the optimized
    /// CFG: `(branch block, hot successor)` in optimized coordinates.  A
    /// run that keeps taking a cold arm violates the inline speculation
    /// and deopts with an inline-kind
    /// [`crate::DeoptReason::AssumptionViolated`].
    pub guards: Vec<(ssair::BlockId, ssair::BlockId)>,
}

impl InlinePlan {
    /// The region containing the spliced-snapshot pc `at`, if any — a
    /// landing inside it must reconstruct that region's callee frame.
    pub fn region_at(&self, at: InstId) -> Option<&ssair::passes::InlineRegion> {
        self.regions.iter().find(|r| r.pc_map.contains_key(&at))
    }
}

/// Why a compiled version (or composed table) was rejected from the cache.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// A precomputed entry table failed its structural validation.
    InvalidTable {
        /// Which direction's table failed.
        direction: Direction,
        /// Human-readable reason.
        reason: String,
    },
    /// Differential validation replayed an entry's compensation steps on a
    /// sampled concrete frame and the transitioned run diverged from the
    /// reference run.
    Divergence {
        /// The OSR point whose entry diverged.
        at: InstId,
        /// Human-readable description of the divergence.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidTable { direction, reason } => {
                write!(f, "invalid {direction:?} entry table: {reason}")
            }
            CompileError::Divergence { at, reason } => {
                write!(f, "differential validation diverged at {at}: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Maximum §5.2 keep-set recompile rounds per compile job.
pub const MAX_EXTENSION_ROUNDS: usize = 3;

/// Compiles `base` under `spec`: optimizes, precomputes both OSR entry
/// tables, and validates them structurally (see [`validate_table`]).
///
/// A compile job must produce an artifact every climbed frame can *leave*
/// again: deoptimization fires at the optimized version's loop-header OSR
/// points, so when the backward table cannot serve a header entry —
/// typically because a baseline φ is dead in the optimized code yet
/// needed on the loop's exit path (§5.2) — the function is recompiled
/// with the blocking values in a liveness-extension keep-set
/// ([`PipelineSpec::build_keeping`]) and the precompute retried, up to
/// [`MAX_EXTENSION_ROUNDS`] times.  The published artifact is then the
/// keep-set recompiled version, not the plain pipeline's output; its
/// [`CompiledVersion::extension_rounds`] and [`CompiledVersion::keep`]
/// record the recompile.
///
/// # Errors
///
/// Returns [`CompileError`] if a precomputed table fails validation — the
/// artifact must then stay out of the cache.
pub fn compile_function(
    base: Function,
    spec: &PipelineSpec,
    variant: Variant,
) -> Result<CompiledVersion, CompileError> {
    compile_speculated(base, spec, &Speculation::none(), None, variant)
}

/// Like [`compile_function`], specialized on a value speculation: the
/// speculated parameter slots are seeded as constants
/// ([`ssair::passes::SeedValues`] prepended to the rung's normal mix, so
/// SCCP/DCE/branch folding run over the seeded constants) and the
/// speculation is recorded on the artifact as its entry guard.  The
/// *baseline* half of the pair stays the unspecialized original — the
/// version a violating frame deopts back into.
///
/// # Errors
///
/// Returns [`CompileError`] if a precomputed table fails validation.
pub fn compile_speculated(
    base: Function,
    spec: &PipelineSpec,
    speculation: &Speculation,
    frequencies: Option<&BlockFrequencies>,
    variant: Variant,
) -> Result<CompiledVersion, CompileError> {
    compile_inlined(
        base,
        spec,
        speculation,
        frequencies,
        variant,
        Vec::new(),
        InlineSpec::none(),
    )
}

/// Like [`compile_speculated`], with hot call sites spliced:
/// [`ssair::passes::InlineCalls`] runs ahead of the rung's normal mix
/// (before value seeding, so CP/CSE/SCCP optimize across the former call
/// boundary), and the artifact carries an [`InlinePlan`] — a validated
/// backward table into the spliced snapshot plus the region records a
/// cross-function deopt reads.  `inline_spec` becomes the artifact's
/// cache-key identity; sites that decline to splice (callee republished
/// into something uninlinable, site optimized away) are simply absent
/// from the plan.
///
/// # Errors
///
/// Returns [`CompileError`] if any precomputed table — including the
/// inline exit table — fails validation.
pub fn compile_inlined(
    base: Function,
    spec: &PipelineSpec,
    speculation: &Speculation,
    frequencies: Option<&BlockFrequencies>,
    variant: Variant,
    sites: Vec<ssair::passes::InlineSite>,
    inline_spec: InlineSpec,
) -> Result<CompiledVersion, CompileError> {
    let t0 = Instant::now();
    // Profile-guided layout runs only on the hottest rungs (O3 and the
    // machine rung it feeds) and only with a usable frequency summary —
    // lower rungs recompile too often for a layout snapshot to pay off.
    let layout = frequencies
        .filter(|fr| !fr.is_empty() && matches!(spec, PipelineSpec::O3 | PipelineSpec::O4));
    let seeds: Vec<(ValueId, i64)> = speculation
        .seeds()
        .iter()
        .filter(|(slot, _)| *slot < base.params.len())
        .map(|(slot, v)| (base.param_value(*slot), *v))
        .collect();
    let mut keep: std::collections::BTreeSet<ValueId> = Default::default();
    let mut rounds = 0;
    loop {
        let mut pipeline = spec.build_keeping(&keep);
        if !seeds.is_empty() {
            pipeline = pipeline.prepended(Box::new(ssair::passes::SeedValues::new(seeds.clone())));
        }
        // Splicing runs first (prepended last): seeds and the rest of the
        // mix then optimize over the spliced body.
        let inline_slot = if sites.is_empty() {
            None
        } else {
            let pass = ssair::passes::InlineCalls::new(sites.clone());
            let slot = pass.outcome_slot();
            pipeline = pipeline.prepended(Box::new(pass));
            Some(slot)
        };
        if let Some(fr) = layout {
            pipeline = pipeline.appended(Box::new(LayoutBlocks::new(fr.clone())));
        }
        let versions = FunctionVersions::new(base.clone(), &pipeline);
        let pair = versions.pair();
        let tier_up = precompute_entries(&pair, Direction::Forward, variant);
        let (tier_down, wanted) =
            precompute_entries_collecting(&pair, Direction::Backward, variant);
        drop(pair);
        // §5.2 keep-set recompile: a deopt-critical (loop-header) backward
        // entry is blocked — keep the values blocking *those* entries
        // alive and recompile.  Blockers of non-header points are left
        // alone: keeping them would pessimize the optimized code for
        // entries no deopt fires from.
        let headers = loop_header_points(&versions.opt);
        let header_blocked = headers.iter().any(|h| tier_down.get(*h).is_none());
        if header_blocked && rounds < MAX_EXTENSION_ROUNDS {
            let header_blockers = wanted
                .into_iter()
                .filter(|(p, _)| headers.contains(p))
                .map(|(_, v)| v);
            let fresh = extension_candidates(&versions.base, header_blockers, &keep);
            if !fresh.is_empty() {
                keep.extend(fresh);
                rounds += 1;
                continue;
            }
        }
        validate_table(&tier_up, &versions.base, &versions.opt)?;
        validate_table(&tier_down, &versions.opt, &versions.base)?;
        let inline_plan = build_inline_plan(
            inline_slot.as_ref(),
            &versions,
            &sites,
            speculation,
            variant,
        )?;
        let machine = if matches!(spec, PipelineSpec::O4) {
            let mut tables: Vec<&EntryTable> = vec![&tier_down];
            if let Some(plan) = &inline_plan {
                // A deopt out of registers inside a spliced region reads
                // the exit table's sources too — they must stay shadowed.
                tables.push(&plan.to_spliced);
            }
            Some(Arc::new(lower_machine(
                &versions.opt,
                &tables,
                &keep,
                speculation,
            )?))
        } else {
            None
        };
        let opt = Arc::new(versions.opt.clone());
        let base = Arc::new(versions.base.clone());
        return Ok(CompiledVersion {
            spec: spec.clone(),
            speculation: speculation.clone(),
            header_points: headers,
            versions: Arc::new(versions),
            opt,
            base,
            tier_up: Arc::new(tier_up),
            tier_down: Arc::new(tier_down),
            keep: keep.len(),
            extension_rounds: rounds,
            compile_nanos: t0.elapsed().as_nanos() as u64,
            layout_digest: layout.map(BlockFrequencies::digest).unwrap_or_default(),
            machine,
            inline_spec: inline_spec.clone(),
            inline: inline_plan.map(Arc::new),
        });
    }
}

/// Builds and validates the [`InlinePlan`] of a spliced compile, or `None`
/// when nothing was spliced.
///
/// The spliced-base → optimized mapper is recovered by replaying the
/// pipeline log's *suffix* (everything after [`InlineCalls`] deposited its
/// outcome) into a fresh mapper — see `osr::CodeMapper::replay`.  The
/// backward table precomputed from that pair lands mid-region deopts in
/// the spliced snapshot, where region pcs are real instructions; it is
/// validated structurally and differentially replayed (module-free, like
/// machine lowering — entries whose runs need other functions are covered
/// by the engine's tier-level replay instead).
fn build_inline_plan(
    inline_slot: Option<&std::sync::Arc<Mutex<Option<ssair::passes::InlineOutcome>>>>,
    versions: &FunctionVersions,
    sites: &[ssair::passes::InlineSite],
    speculation: &Speculation,
    variant: Variant,
) -> Result<Option<InlinePlan>, CompileError> {
    let Some(outcome) = inline_slot.and_then(|s| s.lock().expect("inline outcome lock").take())
    else {
        return Ok(None);
    };
    if outcome.regions.is_empty() {
        return Ok(None);
    }
    let mut suffix = ssair::SsaMapper::new();
    suffix.replay(&versions.cm.log()[outcome.prefix_actions..]);
    let spliced = outcome.spliced;
    let pair = ssair::reconstruct::OsrPair::new(&spliced, &versions.opt, &suffix);
    let to_spliced = precompute_entries(&pair, Direction::Backward, variant);
    drop(pair);
    validate_table(&to_spliced, &versions.opt, &spliced)?;
    differential_validate_pinned(
        &to_spliced,
        &versions.opt,
        &spliced,
        &Module::new(),
        3,
        speculation,
    )?;
    let callees = sites
        .iter()
        .map(|s| (s.callee.name.clone(), s.callee.clone()))
        .collect();
    // Speculatively biased callee branches that survived into the
    // optimized CFG keep their cloned block ids; everything folded or
    // threaded away needs no guard.
    let guards = outcome
        .regions
        .iter()
        .flat_map(|r| r.hot_arms.iter().copied())
        .filter(|(b, hot)| {
            versions.opt.block_exists(*b)
                && match versions.opt.block(*b).term {
                    ssair::Terminator::CondBr {
                        then_bb, else_bb, ..
                    } => then_bb == *hot || else_bb == *hot,
                    _ => false,
                }
        })
        .collect();
    Ok(Some(InlinePlan {
        spliced: Arc::new(spliced),
        to_spliced: Arc::new(to_spliced),
        regions: outcome.regions,
        callees,
        guards,
    }))
}

/// Lowers the optimized version onto the register-allocated machine
/// substrate and differentially validates the artifact before it may
/// ship inside a [`CompiledVersion`].
///
/// The shadow-root set — SSA values the artifact must keep reachable in
/// spill slots after their registers die — is the union of the backward
/// (deopt) table's transfer sources and the §5.2 keep set: exactly the
/// state a deopt out of registers reads when rebuilding the SSA
/// environment the validated entry tables consume.
///
/// Validation replays the machine entry-to-return against the SSA
/// interpreter on small deterministic arguments (speculated slots
/// pinned).  Functions whose reference run needs other functions are
/// skipped here — no module is in scope at compile time — and are
/// covered instead by the engine's tier-level differential replay of
/// every table that routes through the rung.
fn lower_machine(
    opt: &Function,
    tables: &[&EntryTable],
    keep: &std::collections::BTreeSet<ValueId>,
    pin: &Speculation,
) -> Result<ssair::machine::MachineArtifact, CompileError> {
    let mut roots: std::collections::BTreeSet<ValueId> = keep.clone();
    for table in tables {
        for (_, entry) in table.entries.values() {
            for step in &entry.comp.steps {
                if let CompStep::Transfer { src, .. } = step {
                    roots.insert(*src);
                }
            }
        }
    }
    let art = ssair::machine::lower_function(opt, &roots);
    const FUEL: usize = 2_000_000;
    let empty = Module::new();
    for k in [2i64, 3, 5] {
        let args: Vec<Val> = (0..opt.params.len())
            .map(|i| {
                let seeded = pin.seeds().iter().find(|(slot, _)| *slot == i);
                Val::Int(seeded.map_or(k + i as i64, |(_, v)| *v))
            })
            .collect();
        let Ok(expected) = run_function(opt, &args, &empty, FUEL) else {
            continue; // needs a module (calls) or faults: not comparable here
        };
        let mut machine = Machine::new(FUEL);
        let mut frame = art.enter_args(&args);
        match art.run_machine(art.entry_pc, &mut frame, &mut machine, &empty) {
            Ok(got) if got == expected => {}
            Ok(got) => {
                return Err(CompileError::Divergence {
                    at: art.pc_of.keys().next().copied().unwrap_or(InstId(0)),
                    reason: format!(
                        "machine lowering: args {args:?}: got {got:?}, expected {expected:?}"
                    ),
                })
            }
            Err(e) => {
                return Err(CompileError::Divergence {
                    at: art.pc_of.keys().next().copied().unwrap_or(InstId(0)),
                    reason: format!("machine lowering: args {args:?}: execution failed: {e}"),
                })
            }
        }
    }
    Ok(art)
}

/// Structural validation of a precomputed entry table: every step of every
/// entry must be executable against *some* source frame — transfers read
/// values the source version defines, copies and emits only consume values
/// produced by earlier steps, and each landing location is live in the
/// target version.  (Semantic correctness is Algorithm 1's theorem; this
/// check catches table corruption before the artifact is shared.)
pub fn validate_table(
    table: &EntryTable,
    src_fn: &Function,
    dst_fn: &Function,
) -> Result<(), CompileError> {
    let fail = |reason: String| {
        Err(CompileError::InvalidTable {
            direction: table.direction,
            reason,
        })
    };
    for (at, (landing, entry)) in &table.entries {
        if !dst_fn.inst_is_live(landing.loc) {
            return fail(format!(
                "landing {} for {at} not live in target",
                landing.loc
            ));
        }
        let mut produced: std::collections::BTreeSet<ValueId> = Default::default();
        for step in &entry.comp.steps {
            match step {
                CompStep::Transfer { src, dst } => {
                    if (src.0 as usize) >= src_fn.value_count() {
                        return fail(format!("transfer of {src} undefined in source"));
                    }
                    if let ValueDef::Inst(i) = src_fn.value_def(*src) {
                        if !src_fn.inst_is_live(i) {
                            return fail(format!("transfer of dead source value {src}"));
                        }
                    }
                    produced.insert(*dst);
                }
                CompStep::CopyDst { from, to } => {
                    if !produced.contains(from) {
                        return fail(format!("copy of unproduced value {from} at {at}"));
                    }
                    produced.insert(*to);
                }
                CompStep::Emit { inst } | CompStep::Materialize { inst } => {
                    let data = dst_fn.inst(*inst);
                    for op in data.kind.operands() {
                        // Loads may read memory cells; pure operands must
                        // have been produced by earlier steps.
                        if !produced.contains(&op)
                            && !matches!(data.kind, ssair::InstKind::Load { .. })
                        {
                            return fail(format!("emit at {at} reads unproduced {op}"));
                        }
                    }
                    if let Some(r) = data.result {
                        produced.insert(r);
                    }
                }
                // Instructions captured inline by table composition: the
                // kind is self-contained, so every operand — including a
                // load's address — must come from earlier steps.
                CompStep::Inline { kind, result } => {
                    for op in kind.operands() {
                        if !produced.contains(&op) {
                            return fail(format!("inline emit at {at} reads unproduced {op}"));
                        }
                    }
                    if let Some(r) = result {
                        produced.insert(*r);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Differential validation — the SSA analogue of `osr::validate_mapping`:
/// replays up to `samples` of the table's entries on *concrete* frames.
/// For each sampled OSR point, the source version is run on small
/// deterministic arguments until the point is reached (preferring a
/// second, mid-loop visit), the entry's compensation steps are applied to
/// the live frame, execution finishes in the target version from the
/// landing site, and the result is compared against a pure source-version
/// run.
///
/// # Errors
///
/// Returns [`CompileError::Divergence`] when a transitioned run disagrees
/// with the reference run (or the compensation code fails to execute on a
/// reached frame).  Samples whose point is never reached are skipped.
pub fn differential_validate(
    table: &EntryTable,
    src_fn: &Function,
    dst_fn: &Function,
    module: &Module,
    samples: usize,
) -> Result<(), CompileError> {
    differential_validate_pinned(table, src_fn, dst_fn, module, samples, &Speculation::none())
}

/// [`differential_validate`] with speculated argument slots *pinned* to
/// their seeded values.  A table whose endpoint is a constant-seeded
/// specialized version is only claimed correct for conforming frames (the
/// engine's value guard keeps violating frames out), so the replay must
/// sample conforming arguments — free-running samples would "diverge"
/// on exactly the inputs the speculation excludes.
pub fn differential_validate_pinned(
    table: &EntryTable,
    src_fn: &Function,
    dst_fn: &Function,
    module: &Module,
    samples: usize,
    pin: &Speculation,
) -> Result<(), CompileError> {
    const FUEL: usize = 2_000_000;
    let arg_sets: Vec<Vec<Val>> = [2i64, 3, 5]
        .iter()
        .map(|&k| {
            (0..src_fn.params.len())
                .map(|i| {
                    let seeded = pin.seeds().iter().find(|(slot, _)| *slot == i);
                    Val::Int(seeded.map_or(k + i as i64, |(_, v)| *v))
                })
                .collect()
        })
        .collect();
    if table.entries.is_empty() {
        return Ok(());
    }
    // Reference results depend only on the argument set, not on the
    // sampled point: compute each lazily, once.
    let mut references: Vec<Option<Result<Option<Val>, ()>>> = vec![None; arg_sets.len()];
    let step = (table.entries.len() / samples.max(1)).max(1);
    for (at, (landing, entry)) in table.entries.iter().step_by(step).take(samples.max(1)) {
        'args: for (ai, args) in arg_sets.iter().enumerate() {
            // Prefer pausing at the second visit (a mid-loop frame with
            // back-edge φ state); fall back to the first.
            for visit_target in [2usize, 1] {
                let mut machine = Machine::new(FUEL);
                let mut frame = Frame::enter(src_fn, args);
                let seen = std::cell::Cell::new(0usize);
                let outcome = run_frame(
                    src_fn,
                    &mut frame,
                    &mut machine,
                    module,
                    Some(&|_f, _fr, i| {
                        if i == *at {
                            seen.set(seen.get() + 1);
                            seen.get() == visit_target
                        } else {
                            false
                        }
                    }),
                );
                let Ok(StepOutcome::Paused { .. }) = outcome else {
                    continue; // point not reached at this visit count
                };
                // Reference: what this activation produces without the
                // transition (OSR must preserve exactly this value).
                let reference = *references[ai].get_or_insert_with(|| {
                    run_function(src_fn, args, module, FUEL).map_err(|_| ())
                });
                let Ok(expected) = reference else {
                    continue 'args; // reference itself fails; nothing to compare
                };
                let env = apply_comp(entry, dst_fn, &frame.values, &mut machine).map_err(|e| {
                    CompileError::Divergence {
                        at: *at,
                        reason: format!("compensation failed on a live frame: {e}"),
                    }
                })?;
                let mut dframe = Frame::at(dst_fn, landing.loc, env);
                let got = match run_frame(dst_fn, &mut dframe, &mut machine, module, None) {
                    Ok(StepOutcome::Returned(v)) => v,
                    Ok(StepOutcome::Paused { .. }) => unreachable!("no pause predicate"),
                    Err(e) => {
                        return Err(CompileError::Divergence {
                            at: *at,
                            reason: format!("target run failed after transition: {e}"),
                        })
                    }
                };
                if got != expected {
                    return Err(CompileError::Divergence {
                        at: *at,
                        reason: format!("args {args:?}: got {got:?}, expected {expected:?}"),
                    });
                }
                continue 'args; // one reached frame per arg set suffices
            }
        }
    }
    Ok(())
}

/// Vets the *violating-frame round trip* — hop into a specialized
/// version via `fwd_entry`, fire the value guard at the forward landing
/// before a single specialized instruction executes, and hop straight out
/// via `escape_entry` — for soundness on a frame whose arguments violate
/// the speculation.
///
/// The specialized version's recorded actions equate values with the
/// seeded constants, which holds only *under* the speculation: any value
/// that reaches the escaping frame through a specialized-version mapping
/// (an emitted constant, a replace-chain alias) may encode the speculated
/// constant and corrupt a violating frame.  The escape must therefore
/// read nothing the specialized version computed.  Two kinds of frame
/// state are provably *real* at the landing: (a) values the forward entry
/// transferred **under their own id** (`src == dst` — an identity copy of
/// untouched source-frame state, still addressable by the id the
/// speculation-free escape table reads), and (b) parameters (always
/// re-suppliable with the real arguments,
/// [`tinyvm::profile::TierTarget::pinned`]).  The round trip is safe
/// exactly when every value `escape_entry` reads is one of those; its
/// remaining steps are vetted transitively — emissions reference only the
/// escape target's (unspecialized) instructions and read only values
/// produced by earlier steps.
///
/// A third kind of provably-real state extends the two above: a value
/// whose *baseline* definition is a plain constant.  Constants are
/// version-independent literal facts (every version derived from the
/// baseline preserves the id and the literal — the §5.1 free-remat
/// observation), so the escape may pin them regardless of what the
/// specialized version did to them.  On success the returned pins are the
/// `(value, constant)` pairs the escape hop must supply
/// ([`tinyvm::profile::TierTarget::pinned`]); `None` means the round trip
/// cannot be proven safe and the violating frame must stay out.
///
/// The escape table itself must also be speculation-free — the engine
/// uses the generic artifact's own direct forward table at the landing,
/// never a table composed through the specialized version's mappings.
pub fn vet_generic_escape(
    fwd_entry: &ssair::reconstruct::SsaEntry,
    escape_entry: &ssair::reconstruct::SsaEntry,
    base: &Function,
) -> Option<Vec<(ValueId, Val)>> {
    let identity: std::collections::BTreeSet<ValueId> = fwd_entry
        .comp
        .steps
        .iter()
        .filter_map(|s| match s {
            CompStep::Transfer { src, dst } if src == dst => Some(*dst),
            _ => None,
        })
        .collect();
    let mut pins = Vec::new();
    for step in &escape_entry.comp.steps {
        let CompStep::Transfer { src, .. } = step else {
            continue;
        };
        if identity.contains(src) || (src.0 as usize) < base.params.len() {
            continue;
        }
        let base_const = ((src.0 as usize) < base.value_count())
            .then(|| base.value_def(*src))
            .and_then(|def| match def {
                ssair::ValueDef::Inst(i) if base.inst_is_live(i) => match base.inst(i).kind {
                    ssair::InstKind::Const(n) => Some(n),
                    _ => None,
                },
                _ => None,
            });
        match base_const {
            Some(n) => pins.push((*src, Val::Int(n))),
            None => return None,
        }
    }
    Some(pins)
}

/// State of one cache slot.
enum Slot {
    /// A compile job has been claimed/enqueued but not yet published.
    Compiling,
    /// Ready to serve transitions.
    Ready(Arc<CompiledVersion>),
}

/// Key of a composed version-to-version table: the `from` version
/// hopping straight to the `to` version.  Each endpoint is the full
/// [`VersionKey`] rung identity (so specialized and generic artifacts of
/// the same rung memoize independent tables) — which also makes the memo
/// its own rung-dependency record: a table is registered under exactly
/// the two [`Entity::Rung`]s it depends on, and
/// [`CodeCache::invalidate`] drops it when either is republished.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ComposedKey {
    from: VersionKey,
    to: VersionKey,
}

impl ComposedKey {
    fn between(function: &str, from: &CompiledVersion, to: &CompiledVersion) -> Self {
        ComposedKey {
            from: endpoint(function, from),
            to: endpoint(function, to),
        }
    }
}

/// The full [`VersionKey`] rung identity of a compiled version (one
/// composed-table endpoint).
fn endpoint(function: &str, cv: &CompiledVersion) -> VersionKey {
    VersionKey::inlined(
        function,
        cv.spec.clone(),
        cv.speculation.clone(),
        cv.inline_spec.clone(),
    )
}

const SHARD_COUNT: usize = 8;

fn shard_index<K: Hash>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARD_COUNT
}

type ComposedResult = Result<Arc<EntryTable>, CompileError>;

/// The concurrent code cache, sharded by key hash.
///
/// Lookups are counted once per *request* by the engine (not once per
/// probe), so hit/miss counters reflect request-level cache behaviour.
pub struct CodeCache {
    shards: Vec<Mutex<HashMap<CacheKey, Slot>>>,
    composed: Vec<Mutex<HashMap<ComposedKey, ComposedResult>>>,
    /// Probe history, keyed by [`VersionKey::generic`] views — how often
    /// a climb-ready frame found the artifact for a `(function,
    /// pipeline)` published vs. still compiling, aggregated across that
    /// rung's speculative variants.  An adaptive ladder reads these to
    /// cheapen climbs whose compiles are effectively free
    /// ([`crate::TierPolicy::threshold_with_cache`]).
    probes: Vec<Mutex<HashMap<CacheKey, (u64, u64)>>>,
    /// The dependency registry: for each [`Entity`], the published keys
    /// whose assumptions depend on it.  [`CodeCache::publish`] registers
    /// an artifact under one entity per assumption
    /// ([`Assumption::InlinedCallee`] → [`Entity::Callee`],
    /// [`Assumption::ValueStable`] → [`Entity::ValueStability`]);
    /// [`CodeCache::invalidate`] drains an entity's entry and evicts the
    /// registered dependents.  (Rung dependencies need no entry here —
    /// the composed memo's own [`ComposedKey`] endpoints are the
    /// registration.)
    deps: Mutex<HashMap<Entity, HashSet<CacheKey>>>,
    /// Per-function inline epoch: bumped on every *re*publication of any
    /// of the function's artifacts.  Callers splice a callee at a
    /// specific epoch (recorded in their [`InlineSpec`] view); a bump
    /// evicts every caller artifact referencing an older one.
    epochs: Mutex<HashMap<String, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    inline_invalidations: AtomicU64,
    value_invalidations: AtomicU64,
}

impl Default for CodeCache {
    fn default() -> Self {
        CodeCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            composed: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            probes: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            deps: Mutex::default(),
            epochs: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            inline_invalidations: AtomicU64::new(0),
            value_invalidations: AtomicU64::new(0),
        }
    }
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        CodeCache::default()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Slot>> {
        &self.shards[shard_index(key)]
    }

    /// Returns the ready artifact for `key`, if published.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CompiledVersion>> {
        match self.shard(key).lock().expect("cache lock").get(key) {
            Some(Slot::Ready(cv)) => Some(Arc::clone(cv)),
            _ => None,
        }
    }

    /// Records a request-level hit.
    pub fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request-level miss.
    pub fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one climb-eligible probe of `key` (at most one per request
    /// per rung — the controller batches): `hit` when the artifact was
    /// published.  History accumulates under the key's
    /// [`VersionKey::generic`] view, so a rung's speculative variants
    /// share one `(function, pipeline)` record.
    pub fn note_probe(&self, key: &CacheKey, hit: bool) {
        let key = key.generic();
        let mut map = self.probes[shard_index(&key)].lock().expect("probe lock");
        let stats = map.entry(key).or_insert((0, 0));
        if hit {
            stats.0 += 1;
        } else {
            stats.1 += 1;
        }
    }

    /// The accumulated `(hits, misses)` probe history of `key`'s
    /// [`VersionKey::generic`] view.
    pub fn probe_stats(&self, key: &CacheKey) -> (u64, u64) {
        let key = key.generic();
        self.probes[shard_index(&key)]
            .lock()
            .expect("probe lock")
            .get(&key)
            .copied()
            .unwrap_or((0, 0))
    }

    /// Atomically claims the right to compile `key`.  Returns `true` when
    /// the caller must enqueue (or perform) the compile; `false` when the
    /// artifact is ready or someone else already claimed it.
    pub fn claim(&self, key: &CacheKey) -> bool {
        let mut slots = self.shard(key).lock().expect("cache lock");
        if slots.contains_key(key) {
            return false;
        }
        slots.insert(key.clone(), Slot::Compiling);
        true
    }

    /// Publishes a compiled artifact (fulfilling a prior
    /// [`CodeCache::claim`]) and registers it in the dependency registry
    /// under every [`Entity`] its assumptions depend on.
    ///
    /// *Re*publishing over a ready artifact — e.g. a §5.2 keep-set
    /// recompile replacing a rung — flows through
    /// [`CodeCache::invalidate`] twice: once for the replaced
    /// [`Entity::Rung`] (dropping every memoized composed table routing
    /// through either endpoint, so the next hop re-composes against the
    /// republished version instead of transferring into a stale one) and
    /// once for the function's [`Entity::Callee`] identity (bumping its
    /// inline epoch and evicting every caller artifact that spliced this
    /// function at an older epoch — no stale-inline execution is
    /// possible).
    ///
    /// An artifact whose own assumptions already reference outdated
    /// callee epochs — a callee was republished while this compile was in
    /// flight — is *not* published: the claim is dropped and the eviction
    /// counter bumped, exactly as if it had been published and evicted.
    pub fn publish(&self, key: &CacheKey, cv: Arc<CompiledVersion>) {
        if key.assumptions.iter().any(|a| {
            matches!(a, Assumption::InlinedCallee { callee, epoch, .. }
                if *epoch < self.inline_epoch(callee))
        }) {
            self.abandon(key);
            self.inline_invalidations.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let replaced = {
            let mut slots = self.shard(key).lock().expect("cache lock");
            matches!(
                slots.insert(key.clone(), Slot::Ready(cv)),
                Some(Slot::Ready(_))
            )
        };
        self.register_dependencies(key);
        if replaced {
            self.invalidate(&Entity::Rung(key.clone()));
            self.invalidate(&Entity::Callee(key.function.clone()));
        }
    }

    /// Registers `key` under every entity its assumptions depend on —
    /// the publish half of the dependency registry.
    fn register_dependencies(&self, key: &CacheKey) {
        if key.assumptions.is_empty() {
            return;
        }
        let mut deps = self.deps.lock().expect("deps lock");
        for a in key.assumptions.iter() {
            let entity = match a {
                Assumption::InlinedCallee { callee, .. } => Entity::Callee(callee.clone()),
                Assumption::ValueStable { slot, .. } => Entity::ValueStability {
                    function: key.function.clone(),
                    slot: *slot,
                },
                // Bias bets are profile-local: they shape the artifact,
                // not its lifetime, and dissolve through republish.
                Assumption::BiasGuard { .. } => continue,
            };
            deps.entry(entity).or_default().insert(key.clone());
        }
    }

    /// The single invalidation path: every eviction — rung republish,
    /// callee republish, value-stability dissolution — names the changed
    /// [`Entity`] and flows through here.  Dependents registered at
    /// publish time are evicted, their own composed tables cascade
    /// through [`Entity::Rung`], and the matching per-kind counter
    /// ([`CodeCache::composed_invalidations`] /
    /// [`CodeCache::inline_invalidations`] /
    /// [`CodeCache::value_invalidations`]) absorbs the count.  Returns
    /// how many artifacts or tables this call invalidated.
    pub fn invalidate(&self, entity: &Entity) -> u64 {
        match entity {
            Entity::Rung(key) => self.invalidate_rung(key),
            Entity::Callee(function) => self.invalidate_callee(function),
            Entity::ValueStability { function, slot } => self.invalidate_value(function, *slot),
        }
    }

    /// Drops every memoized composed table with `key` as either endpoint
    /// (including memoized failures, which may now succeed against the
    /// republished artifact).
    fn invalidate_rung(&self, key: &VersionKey) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.composed {
            let mut map = shard.lock().expect("composed lock");
            map.retain(|k, _| {
                let stale = k.from == *key || k.to == *key;
                if stale {
                    dropped += 1;
                }
                !stale
            });
        }
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Bumps `function`'s inline epoch and evicts every registered
    /// dependent — any caller — whose assumptions splice `function` at an
    /// older epoch, cascading each eviction through [`Entity::Rung`].
    fn invalidate_callee(&self, function: &str) -> u64 {
        let epoch = {
            let mut epochs = self.epochs.lock().expect("epoch lock");
            let e = epochs.entry(function.to_string()).or_insert(0);
            *e += 1;
            *e
        };
        let dependents: Vec<CacheKey> = {
            let mut deps = self.deps.lock().expect("deps lock");
            deps.remove(&Entity::Callee(function.to_string()))
                .map(|s| s.into_iter().collect())
                .unwrap_or_default()
        };
        let mut evicted: Vec<CacheKey> = Vec::new();
        let mut spared: Vec<CacheKey> = Vec::new();
        for k in dependents {
            let stale = k.assumptions.iter().any(|a| {
                matches!(a, Assumption::InlinedCallee { callee, epoch: e, .. }
                    if callee == function && *e < epoch)
            });
            if !stale {
                // A dependent already at the bumped epoch (it registered
                // between our bump and our drain) stays live — put it
                // back so the *next* republish still finds it.
                spared.push(k);
                continue;
            }
            let mut slots = self.shard(&k).lock().expect("cache lock");
            if matches!(slots.get(&k), Some(Slot::Ready(_))) {
                slots.remove(&k);
                drop(slots);
                evicted.push(k);
            }
        }
        if !spared.is_empty() {
            let mut deps = self.deps.lock().expect("deps lock");
            let set = deps
                .entry(Entity::Callee(function.to_string()))
                .or_default();
            set.extend(spared);
        }
        self.inline_invalidations
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        let count = evicted.len() as u64;
        for k in evicted {
            self.invalidate_rung(&k);
        }
        count
    }

    /// Evicts every registered dependent seeded on `function`'s `slot` —
    /// the cache half of value-stability dissolution
    /// ([`tinyvm::profile::ProfileTable::stable_value`] going `None`) —
    /// cascading each eviction through [`Entity::Rung`].
    fn invalidate_value(&self, function: &str, slot: usize) -> u64 {
        let dependents: Vec<CacheKey> = {
            let mut deps = self.deps.lock().expect("deps lock");
            deps.remove(&Entity::ValueStability {
                function: function.to_string(),
                slot,
            })
            .map(|s| s.into_iter().collect())
            .unwrap_or_default()
        };
        let mut evicted: Vec<CacheKey> = Vec::new();
        for k in dependents {
            let mut slots = self.shard(&k).lock().expect("cache lock");
            if matches!(slots.get(&k), Some(Slot::Ready(_))) {
                slots.remove(&k);
                drop(slots);
                evicted.push(k);
            }
        }
        self.value_invalidations
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        let count = evicted.len() as u64;
        for k in evicted {
            self.invalidate_rung(&k);
        }
        count
    }

    /// The current inline epoch of `function`: the version identity a
    /// caller splices it at.  Starts at 0 and bumps on every
    /// republication of any of the function's artifacts.
    pub fn inline_epoch(&self, function: &str) -> u64 {
        self.epochs
            .lock()
            .expect("epoch lock")
            .get(function)
            .copied()
            .unwrap_or(0)
    }

    /// Composed tables dropped by rung republications.
    pub fn composed_invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Inlined caller artifacts evicted by callee republications
    /// (including in-flight compiles abandoned at publish time).
    pub fn inline_invalidations(&self) -> u64 {
        self.inline_invalidations.load(Ordering::Relaxed)
    }

    /// Value-specialized artifacts evicted by stability dissolution.
    pub fn value_invalidations(&self) -> u64 {
        self.value_invalidations.load(Ordering::Relaxed)
    }

    /// The per-kind invalidation counters, bundled for a metrics
    /// snapshot; their sum is the `assumption_invalidations` aggregate.
    pub fn invalidation_counts(&self) -> InvalidationCounts {
        InvalidationCounts {
            composed: self.composed_invalidations(),
            inline: self.inline_invalidations(),
            value: self.value_invalidations(),
        }
    }

    /// Whether `cv` does not conflict with the published artifact for
    /// its key — the memoization guard against a republish racing a
    /// composed-table build: a table built (outside the lock) against a
    /// since-replaced artifact must not be inserted, or it would
    /// resurrect exactly the stale entry [`CodeCache::publish`]'s
    /// invalidation just dropped.  (The *returned* table is still
    /// correct for the caller, whose own `Arc`s keep its build
    /// self-consistent.)  An unpublished `cv` conflicts with nothing: a
    /// republish always replaces a `Ready` slot in place, so mid-race
    /// the slot is never absent.  Callers hold a composed shard lock
    /// while checking; `publish` releases the slot lock before
    /// invalidating, so the orders interleave safely: a slot replaced
    /// before the check fails it, and one replaced after is followed by
    /// an invalidation that must wait for the shard lock and then drops
    /// the fresh insert.
    fn is_current(&self, function: &str, cv: &CompiledVersion) -> bool {
        let key = CacheKey::inlined(
            function,
            cv.spec.clone(),
            cv.speculation.clone(),
            cv.inline_spec.clone(),
        );
        match self.get(&key) {
            Some(cur) => std::ptr::eq(Arc::as_ptr(&cur), std::ptr::from_ref(cv)),
            None => true,
        }
    }

    /// Drops a claim without publishing (compile failed validation).
    pub fn abandon(&self, key: &CacheKey) {
        let mut slots = self.shard(key).lock().expect("cache lock");
        if let Some(Slot::Compiling) = slots.get(key) {
            slots.remove(key);
        }
    }

    /// Every ready artifact published for `function`, across all
    /// pipeline/speculation/inline key dimensions — the inspection hook
    /// for benches and tests that need an artifact without reconstructing
    /// its exact (speculation, inline-epoch) coordinates.
    pub fn ready_versions(&self, function: &str) -> Vec<Arc<CompiledVersion>> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache lock")
                    .iter()
                    .filter(|(key, _)| key.function == function)
                    .filter_map(|(_, slot)| match slot {
                        Slot::Ready(cv) => Some(Arc::clone(cv)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Number of ready artifacts.
    pub fn ready_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache lock")
                    .values()
                    .filter(|s| matches!(s, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Request-level (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The composed `from.opt → to.opt` entry table for `function`,
    /// building (and memoizing) it on first use: the two direct tables are
    /// composed through their shared baseline
    /// ([`ssair::feasibility::compose_entries`], the SSA analogue of
    /// Theorem 3.4), validated structurally, and differentially replayed
    /// on sampled concrete frames before it is published.  Failures are
    /// memoized too, so a rejected composition is not rebuilt on every hot
    /// visit.
    ///
    /// The boolean is `true` when this call built the table (the caller
    /// may want to log the outcome exactly once).
    ///
    /// # Errors
    ///
    /// Returns the (possibly memoized) [`CompileError`] when the composed
    /// table fails validation.
    pub fn composed(
        &self,
        function: &str,
        from: &CompiledVersion,
        to: &CompiledVersion,
        module: &Module,
    ) -> (ComposedResult, bool) {
        let key = ComposedKey::between(function, from, to);
        let idx = shard_index(&key);
        if let Some(r) = self.composed[idx].lock().expect("composed lock").get(&key) {
            return (r.clone(), false);
        }
        // Build outside the lock; identical-version racing builders
        // produce identical tables, first publish wins, and only the
        // publisher reports `built` (losers duplicated the work but must
        // not duplicate the build event).  Memoize only when both
        // endpoints are still the published artifacts — see
        // [`CodeCache::is_current`].
        let result = build_composed(from, to, module).map(Arc::new);
        let mut map = self.composed[idx].lock().expect("composed lock");
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                if self.is_current(function, from) && self.is_current(function, to) {
                    e.insert(result.clone());
                }
                (result, true)
            }
        }
    }

    /// Extends a memoized composed-chain *prefix* by one rung — the
    /// table-level fold step of
    /// [`ssair::feasibility::compose_entries_chain`]: `prefix` maps
    /// `from.opt` straight into `via.opt`, `adjacent` maps `via.opt` into
    /// `to.opt`, and the result (validated structurally and
    /// differentially, memoized under `from → to` like any composed
    /// table) maps `from.opt` straight into `to.opt`.  Extending a chain
    /// by one rung therefore costs one fold, never a recomposition of
    /// the whole sequence.
    ///
    /// The boolean is `true` when this call built the table.
    ///
    /// # Errors
    ///
    /// Returns the (possibly memoized) [`CompileError`] when the folded
    /// table fails validation.
    #[allow(clippy::too_many_arguments)]
    pub fn composed_prefix(
        &self,
        function: &str,
        from: &CompiledVersion,
        via: &CompiledVersion,
        to: &CompiledVersion,
        prefix: &EntryTable,
        adjacent: &EntryTable,
        module: &Module,
    ) -> (ComposedResult, bool) {
        let key = ComposedKey::between(function, from, to);
        let idx = shard_index(&key);
        if let Some(r) = self.composed[idx].lock().expect("composed lock").get(&key) {
            return (r.clone(), false);
        }
        let result = compose_table_pair(prefix, &via.versions.opt, adjacent);
        let result = validate_table(&result, &from.versions.opt, &to.versions.opt)
            .and_then(|()| {
                differential_validate_pinned(
                    &result,
                    &from.versions.opt,
                    &to.versions.opt,
                    module,
                    3,
                    &pin_for(from, to),
                )
            })
            .map(|()| Arc::new(result));
        let mut map = self.composed[idx].lock().expect("composed lock");
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                // Every version the fold read must still be published —
                // see [`CodeCache::is_current`].
                if self.is_current(function, from)
                    && self.is_current(function, via)
                    && self.is_current(function, to)
                {
                    e.insert(result.clone());
                }
                (result, true)
            }
        }
    }

    /// Number of successfully composed tables currently memoized.
    pub fn composed_count(&self) -> usize {
        self.composed
            .iter()
            .map(|s| {
                s.lock()
                    .expect("composed lock")
                    .values()
                    .filter(|r| r.is_ok())
                    .count()
            })
            .sum()
    }
}

/// Builds and validates one composed version-to-version table:
/// `from.opt → baseline → to.opt`, flattened so the runtime hop never
/// touches the baseline — the single-stage case of the Theorem 3.4 chain
/// fold ([`compose_entries_chain`]; the first stage is reconstructed on
/// demand from `from`'s recorded actions).  The result is validated
/// structurally and then differentially replayed on sampled concrete
/// frames.  Longer chains extend these tables one fold at a time via
/// [`CodeCache::composed_prefix`].
fn build_composed(
    from: &CompiledVersion,
    to: &CompiledVersion,
    module: &Module,
) -> Result<EntryTable, CompileError> {
    let pair = from.versions.pair();
    let table = compose_entries_chain(
        &pair,
        Direction::Backward,
        &[(&from.versions.base, &to.tier_up)],
    )
    .pop()
    .expect("one stage, one prefix");
    drop(pair);
    validate_table(&table, &from.versions.opt, &to.versions.opt)?;
    differential_validate_pinned(
        &table,
        &from.versions.opt,
        &to.versions.opt,
        module,
        3,
        &pin_for(from, to),
    )?;
    Ok(table)
}

/// The argument pin for differentially replaying a table between `from`
/// and `to`: the union of both endpoints' speculations (the table is only
/// claimed correct for frames conforming to both — the engine's value
/// guard keeps every other frame out).  The endpoints an engine composes
/// never conflict on a slot; if a custom caller's do, `from`'s seed wins.
fn pin_for(from: &CompiledVersion, to: &CompiledVersion) -> Speculation {
    Speculation::on(
        from.speculation
            .seeds()
            .iter()
            .chain(to.speculation.seeds())
            .copied(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fn f(x, n) {
         var s = 0;
         for (var i = 0; i < n; i = i + 1) { s = s + x * x + i; }
         return s;
     }";

    fn compiled(spec: PipelineSpec) -> CompiledVersion {
        let m = minic::compile(SRC).unwrap();
        compile_function(m.get("f").unwrap().clone(), &spec, Variant::Avail)
            .expect("compiles and validates")
    }

    #[test]
    fn compile_precomputes_both_tables() {
        let cv = compiled(PipelineSpec::O2);
        assert!(cv.tier_up.coverage() > 0.8, "forward mostly feasible");
        assert!(cv.tier_down.coverage() > 0.8, "backward mostly feasible");
        assert!(cv.compile_nanos > 0);
    }

    #[test]
    fn light_pipeline_compiles_too() {
        let cv = compiled(PipelineSpec::O1);
        assert!(cv.tier_up.coverage() > 0.8);
        assert_eq!(cv.spec.name(), "O1");
    }

    #[test]
    fn aggressive_pipeline_compiles_as_o3() {
        let cv = compiled(PipelineSpec::O3);
        assert_eq!(cv.spec.name(), "O3");
        assert!(cv.tier_up.coverage() > 0.7, "forward mostly feasible");
        assert!(cv.tier_down.coverage() > 0.7, "backward mostly feasible");
    }

    #[test]
    fn republish_invalidates_composed_tables_through_the_rung() {
        let module = minic::compile(SRC).unwrap();
        let cache = CodeCache::new();
        let o1 = Arc::new(compiled(PipelineSpec::O1));
        let o2 = Arc::new(compiled(PipelineSpec::O2));
        let o3 = Arc::new(compiled(PipelineSpec::O3));
        let k1 = CacheKey::new("f", PipelineSpec::O1);
        let k2 = CacheKey::new("f", PipelineSpec::O2);
        assert!(cache.claim(&k1) && cache.claim(&k2));
        cache.publish(&k1, Arc::clone(&o1));
        cache.publish(&k2, Arc::clone(&o2));
        cache.composed("f", &o1, &o2, &module).0.unwrap();
        cache.composed("f", &o2, &o3, &module).0.unwrap();
        assert_eq!(cache.composed_count(), 2);
        assert_eq!(cache.composed_invalidations(), 0, "first publishes free");
        // A keep-set recompile republishes O2: both tables route through
        // it and must go; a fresh composition then rebuilds.
        cache.publish(&k2, Arc::new(compiled(PipelineSpec::O2)));
        assert_eq!(cache.composed_count(), 0);
        assert_eq!(cache.composed_invalidations(), 2);
        let (r, built) = cache.composed("f", &o1, &o2, &module);
        assert!(built, "invalidation forces a rebuild");
        r.unwrap();
    }

    #[test]
    fn composed_prefix_extends_the_chain_one_fold_at_a_time() {
        let module = minic::compile(SRC).unwrap();
        let cache = CodeCache::new();
        let o1 = Arc::new(compiled(PipelineSpec::O1));
        let o2 = Arc::new(compiled(PipelineSpec::O2));
        let o3 = Arc::new(compiled(PipelineSpec::O3));
        let (p12, _) = cache.composed("f", &o1, &o2, &module);
        let p12 = p12.expect("O1→O2 composes");
        let (a23, _) = cache.composed("f", &o2, &o3, &module);
        let a23 = a23.expect("O2→O3 composes");
        let (p13, built) = cache.composed_prefix("f", &o1, &o2, &o3, &p12, &a23, &module);
        let p13 = p13.expect("the chained O1→O3 prefix validates");
        assert!(built);
        assert!(!p13.entries.is_empty(), "the chained table serves points");
        assert_eq!(cache.composed_count(), 3, "every prefix is memoized");
        let (again, built2) = cache.composed_prefix("f", &o1, &o2, &o3, &p12, &a23, &module);
        assert!(!built2, "memoized");
        assert!(Arc::ptr_eq(&p13, &again.unwrap()));
    }

    #[test]
    fn stale_prefix_extension_after_republish_is_never_memoized() {
        // The §5.2-republish window, closed by `is_current`: a caller
        // builds a chained prefix against the pre-republish endpoints, a
        // keep-set recompile republishes the middle rung (invalidating
        // every table routing through it), and the caller — still holding
        // `Arc`s to the stale artifacts — extends and tries to publish
        // the fold.  The returned table is self-consistent for the
        // caller, but memoizing it would resurrect exactly the entry the
        // invalidation dropped.
        let module = minic::compile(SRC).unwrap();
        let cache = CodeCache::new();
        let o1 = Arc::new(compiled(PipelineSpec::O1));
        let o2_old = Arc::new(compiled(PipelineSpec::O2));
        let o3 = Arc::new(compiled(PipelineSpec::O3));
        let (k1, k2, k3) = (
            CacheKey::new("f", PipelineSpec::O1),
            CacheKey::new("f", PipelineSpec::O2),
            CacheKey::new("f", PipelineSpec::O3),
        );
        assert!(cache.claim(&k1) && cache.claim(&k2) && cache.claim(&k3));
        cache.publish(&k1, Arc::clone(&o1));
        cache.publish(&k2, Arc::clone(&o2_old));
        cache.publish(&k3, Arc::clone(&o3));
        let p12 = cache.composed("f", &o1, &o2_old, &module).0.unwrap();
        let a23 = cache.composed("f", &o2_old, &o3, &module).0.unwrap();
        assert_eq!(cache.composed_count(), 2);
        // The keep-set recompile republishes O2 mid-extension.
        cache.publish(&k2, Arc::new(compiled(PipelineSpec::O2)));
        assert_eq!(cache.composed_count(), 0, "both stale tables dropped");
        // Extending the stale prefix still *returns* a table (correct for
        // the holder's own Arcs) but must not be memoized under O1→O3.
        let (stale, built) = cache.composed_prefix("f", &o1, &o2_old, &o3, &p12, &a23, &module);
        stale.expect("the fold itself validates against the held Arcs");
        assert!(built, "nothing memoized to return");
        assert_eq!(
            cache.composed_count(),
            0,
            "a fold through a replaced endpoint must not resurrect the \
             invalidated O1→O3 entry"
        );
        // Ditto for a plain composition against the replaced endpoint.
        let (r, _) = cache.composed("f", &o1, &o2_old, &module);
        r.unwrap();
        assert_eq!(cache.composed_count(), 0, "stale O1→O2 not re-memoized");
        // Fresh endpoints memoize again as usual.
        let o2_new = cache.get(&k2).expect("republished artifact");
        cache.composed("f", &o1, &o2_new, &module).0.unwrap();
        assert_eq!(cache.composed_count(), 1);
    }

    #[test]
    fn concurrent_republish_and_composition_leave_no_stale_tables() {
        // Build/republish interleaving under real concurrency: builders
        // race composed-table construction against keep-set-style
        // republishes of the shared middle rung.  Afterwards, every
        // memoized table must have current endpoints — republishing once
        // more must drop *at most* what the final round of builders
        // inserted against the final artifact, never a stale survivor.
        let module = minic::compile(SRC).unwrap();
        let cache = Arc::new(CodeCache::new());
        let o1 = Arc::new(compiled(PipelineSpec::O1));
        let o2: Vec<Arc<CompiledVersion>> = (0..4)
            .map(|_| Arc::new(compiled(PipelineSpec::O2)))
            .collect();
        let (k1, k2) = (
            CacheKey::new("f", PipelineSpec::O1),
            CacheKey::new("f", PipelineSpec::O2),
        );
        assert!(cache.claim(&k1) && cache.claim(&k2));
        cache.publish(&k1, Arc::clone(&o1));
        cache.publish(&k2, Arc::clone(&o2[0]));
        std::thread::scope(|s| {
            for versions in o2.chunks(2) {
                let cache = Arc::clone(&cache);
                let k2 = k2.clone();
                s.spawn(move || {
                    for cv in versions {
                        cache.publish(&k2, Arc::clone(cv));
                    }
                });
            }
            for _ in 0..2 {
                let cache = Arc::clone(&cache);
                let o1 = Arc::clone(&o1);
                let o2 = &o2;
                let module = &module;
                s.spawn(move || {
                    for cv in o2 {
                        let _ = cache.composed("f", &o1, cv, module);
                    }
                });
            }
        });
        // Whatever survived the storm was built against *some* endpoints;
        // verify none are stale: every memoized O1→O2 table must match
        // the currently-published O2, so composing with the current
        // artifact either hits the memo or rebuilds — and a final
        // republish drops exactly the current-endpoint tables, leaving
        // the map empty.
        let current = cache.get(&k2).expect("an O2 artifact is published");
        let (r, _) = cache.composed("f", &o1, &current, &module);
        r.unwrap();
        cache.publish(&k2, Arc::new(compiled(PipelineSpec::O2)));
        let dropped_all = cache.composed_count();
        assert_eq!(
            dropped_all, 0,
            "after invalidating the only shared endpoint, no composed \
             table may survive — a survivor would be a stale fold"
        );
    }

    #[test]
    fn probe_stats_accumulate_per_key() {
        let cache = CodeCache::new();
        let k = CacheKey::new("f", PipelineSpec::O2);
        assert_eq!(cache.probe_stats(&k), (0, 0));
        cache.note_probe(&k, false);
        cache.note_probe(&k, true);
        cache.note_probe(&k, true);
        assert_eq!(cache.probe_stats(&k), (2, 1));
        assert_eq!(
            cache.probe_stats(&CacheKey::new("f", PipelineSpec::O1)),
            (0, 0),
            "per (function, pipeline)"
        );
    }

    #[test]
    fn speculation_guard_checks_and_labels() {
        let s = Speculation::on([(1, 7), (0, 3), (1, 99)]);
        assert_eq!(s.seeds(), &[(0, 3), (1, 7)], "sorted, first per slot");
        assert!(s.matches(&[Val::Int(3), Val::Int(7)]));
        assert!(!s.matches(&[Val::Int(3), Val::Int(8)]));
        assert!(!s.matches(&[Val::Int(3)]), "a missing slot violates");
        assert_eq!(s.violation(&[Val::Int(3), Val::Int(7)]), None);
        assert_eq!(
            s.violation(&[Val::Int(4), Val::Int(7)]),
            Some((0, 3, Some(4)))
        );
        assert_eq!(
            s.violation(&[Val::Int(3)]),
            Some((1, 7, None)),
            "a missing slot reports no fabricated value"
        );
        assert_eq!(s.to_string(), "p0=3,p1=7");
        assert_eq!(pipeline_label(&PipelineSpec::O2, &s), "O2[p0=3,p1=7]");
        assert_eq!(
            pipeline_label(&PipelineSpec::O2, &Speculation::none()),
            "O2"
        );
        assert!(Speculation::none().matches(&[]));
        assert_eq!(
            CacheKey::speculated("f", PipelineSpec::O1, s.clone()).pipeline_label(),
            "O1[p0=3,p1=7]"
        );
        assert_ne!(
            CacheKey::new("f", PipelineSpec::O1),
            CacheKey::speculated("f", PipelineSpec::O1, s),
            "specialized and generic artifacts occupy distinct slots"
        );
    }

    #[test]
    fn speculated_compile_folds_and_guards() {
        let m = minic::compile(
            "fn g(mode, n) {
                 var acc = 0;
                 for (var i = 0; i < n; i = i + 1) {
                     if (mode > 6) { acc = acc + (acc % 11) + i; }
                     else { acc = acc + i * (mode + 2); }
                 }
                 return acc;
             }",
        )
        .unwrap();
        let base = m.get("g").unwrap().clone();
        let spec = compile_speculated(
            base.clone(),
            &PipelineSpec::O2,
            &Speculation::on([(0, 3)]),
            None,
            Variant::Avail,
        )
        .expect("specialized compile validates");
        let generic =
            compile_function(base, &PipelineSpec::O2, Variant::Avail).expect("generic compiles");
        assert_eq!(spec.speculation, Speculation::on([(0, 3)]));
        assert!(generic.speculation.is_empty());
        assert!(
            spec.opt.live_inst_count() < generic.opt.live_inst_count(),
            "seeding mode=3 must fold the dispatch branch: {} !< {}",
            spec.opt.live_inst_count(),
            generic.opt.live_inst_count()
        );
        // The specialized version is equivalent under the speculation —
        // checked on concrete frames with the speculated slot pinned.
        differential_validate_pinned(
            &spec.tier_up,
            &spec.versions.base,
            &spec.versions.opt,
            &m,
            4,
            &spec.speculation,
        )
        .expect("conforming frames transfer correctly");
        assert!(!spec.header_points.is_empty(), "headers precomputed");
    }

    #[test]
    fn roundtrip_vet_rejects_speculation_tainted_reads() {
        use ssair::reconstruct::{CompCode, SsaEntry};
        let m = minic::compile("fn id(a, b) { return a + b; }").unwrap();
        let base = m.get("id").unwrap();
        let entry = |steps: Vec<CompStep>| SsaEntry {
            target: InstId(0),
            comp: CompCode { steps },
            keep: Default::default(),
        };
        let id = |n: u32| ValueId(n);
        let fwd = entry(vec![
            CompStep::Transfer {
                src: id(10),
                dst: id(10),
            }, // identity: real
            CompStep::Transfer {
                src: id(11),
                dst: id(20),
            }, // renamed: not addressable by the escape
        ]);
        // Reads an identity value and both params: safe, no pins.
        let ok = entry(vec![
            CompStep::Transfer {
                src: id(10),
                dst: id(10),
            },
            CompStep::Transfer {
                src: id(0),
                dst: id(0),
            },
            CompStep::Transfer {
                src: id(1),
                dst: id(1),
            },
        ]);
        assert_eq!(vet_generic_escape(&fwd, &ok, base), Some(vec![]));
        // Reads the *renamed* transfer's destination: the real value is
        // there but under a different id — rejected.
        let renamed = entry(vec![CompStep::Transfer {
            src: id(20),
            dst: id(20),
        }]);
        assert_eq!(vet_generic_escape(&fwd, &renamed, base), None);
        // Reads a value the forward leg never provided at all: rejected
        // (it could only come from the specialized version's mappings).
        let unprovided = entry(vec![CompStep::Transfer {
            src: id(11),
            dst: id(11),
        }]);
        assert_eq!(vet_generic_escape(&fwd, &unprovided, base), None);
    }

    #[test]
    fn custom_spec_builds_named_pipeline() {
        let spec = PipelineSpec::custom("cse-only", vec![PassId::Cse, PassId::Adce]);
        assert_eq!(spec.name(), "cse-only");
        let cv = compiled(spec.clone());
        assert_eq!(cv.spec, spec);
    }

    #[test]
    fn cache_claim_publish_lookup() {
        let cache = CodeCache::new();
        let key = CacheKey::new("f", PipelineSpec::O2);
        assert!(cache.get(&key).is_none());
        assert!(cache.claim(&key), "first claim wins");
        assert!(!cache.claim(&key), "second claim loses");
        assert!(cache.get(&key).is_none(), "not ready while compiling");
        cache.publish(&key, Arc::new(compiled(PipelineSpec::O2)));
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.ready_count(), 1);
    }

    #[test]
    fn per_tier_slots_are_independent() {
        let cache = CodeCache::new();
        let k1 = CacheKey::new("f", PipelineSpec::O1);
        let k2 = CacheKey::new("f", PipelineSpec::O2);
        assert!(cache.claim(&k1));
        assert!(cache.claim(&k2), "same function, different rung");
        cache.publish(&k1, Arc::new(compiled(PipelineSpec::O1)));
        cache.publish(&k2, Arc::new(compiled(PipelineSpec::O2)));
        assert_eq!(cache.ready_count(), 2);
    }

    #[test]
    fn abandon_releases_claim() {
        let cache = CodeCache::new();
        let key = CacheKey::new("g", PipelineSpec::O2);
        assert!(cache.claim(&key));
        cache.abandon(&key);
        assert!(cache.claim(&key), "claim available again");
    }

    #[test]
    fn composed_table_is_built_validated_and_memoized() {
        let module = minic::compile(SRC).unwrap();
        let cache = CodeCache::new();
        let o1 = compiled(PipelineSpec::O1);
        let o2 = compiled(PipelineSpec::O2);
        let (r, built) = cache.composed("f", &o1, &o2, &module);
        let table = r.expect("composition validates");
        assert!(built, "first call builds");
        assert!(
            !table.entries.is_empty(),
            "composed O1→O2 table serves points"
        );
        assert_eq!(table.direction, Direction::Forward);
        let (r2, built2) = cache.composed("f", &o1, &o2, &module);
        assert!(!built2, "second call is memoized");
        assert!(Arc::ptr_eq(&table, &r2.unwrap()));
        assert_eq!(cache.composed_count(), 1);
    }

    #[test]
    fn differential_validation_accepts_direct_tables() {
        let module = minic::compile(SRC).unwrap();
        let cv = compiled(PipelineSpec::O2);
        differential_validate(&cv.tier_up, &cv.versions.base, &cv.versions.opt, &module, 4)
            .expect("forward table replays cleanly");
        differential_validate(
            &cv.tier_down,
            &cv.versions.opt,
            &cv.versions.base,
            &module,
            4,
        )
        .expect("backward table replays cleanly");
    }

    #[test]
    fn differential_validation_rejects_corrupted_entries() {
        use ssair::reconstruct::CompStep;
        let module = minic::compile(SRC).unwrap();
        let cv = compiled(PipelineSpec::O2);
        let mut broken = (*cv.tier_up).clone();
        // Corrupt every entry: bolt a bogus constant re-definition of each
        // transferred value onto the end of the compensation code.
        for (_, entry) in broken.entries.values_mut() {
            let dsts: Vec<_> = entry
                .comp
                .steps
                .iter()
                .filter_map(|s| match s {
                    CompStep::Transfer { dst, .. } => Some(*dst),
                    _ => None,
                })
                .collect();
            for dst in dsts {
                entry.comp.steps.push(CompStep::Inline {
                    kind: ssair::InstKind::Const(987_654_321),
                    result: Some(dst),
                });
            }
        }
        let err = differential_validate(&broken, &cv.versions.base, &cv.versions.opt, &module, 4)
            .expect_err("corrupted table must diverge");
        assert!(matches!(err, CompileError::Divergence { .. }));
    }

    const CALL_SRC: &str = "fn poly_step(acc, c, x) {
         if (x < c) { return acc - x; }
         return acc * x + c;
     }
     fn f(x, n) {
         var s = 0;
         for (var i = 0; i < n; i = i + 1) { s = s + poly_step(s, x, 3); }
         return s;
     }";

    fn call_site(f: &Function, callee: &str) -> InstId {
        for b in f.block_ids() {
            for &i in &f.block(b).insts {
                if matches!(&f.inst(i).kind, ssair::InstKind::Call { callee: c, .. } if c == callee)
                {
                    return i;
                }
            }
        }
        panic!("no call to {callee}");
    }

    fn inline_compiled(spec: PipelineSpec) -> (Module, CompiledVersion, CacheKey) {
        let m = minic::compile(CALL_SRC).unwrap();
        let base = m.get("f").unwrap().clone();
        let helper = Arc::new(m.get("poly_step").unwrap().clone());
        let at = call_site(&base, "poly_step");
        let sites = vec![ssair::passes::InlineSite {
            at,
            callee: helper,
            bias: Vec::new(),
        }];
        let ispec = InlineSpec::on([(at, "poly_step".to_string(), 0)]);
        let cv = compile_inlined(
            base,
            &spec,
            &Speculation::none(),
            None,
            Variant::Avail,
            sites,
            ispec.clone(),
        )
        .expect("inlined compile validates");
        let key = CacheKey::inlined("f", spec, Speculation::none(), ispec);
        (m, cv, key)
    }

    #[test]
    fn inlined_compile_splices_and_validates_an_exit_table() {
        let (m, cv, key) = inline_compiled(PipelineSpec::O3);
        assert_eq!(key.pipeline_label(), "O3+inl[poly_step@0]");
        let plan = cv.inline.as_ref().expect("a region was spliced");
        assert_eq!(plan.regions.len(), 1);
        // The call dissolved: no dispatch remains in the optimized body.
        for b in cv.versions.opt.block_ids() {
            for &i in &cv.versions.opt.block(b).insts {
                assert!(
                    !matches!(cv.versions.opt.inst(i).kind, ssair::InstKind::Call { .. }),
                    "no call survives inlining"
                );
            }
        }
        // The exit table serves entries, some of which land *inside* the
        // spliced region — the cross-function deopt path.
        assert!(!plan.to_spliced.entries.is_empty());
        assert!(
            plan.to_spliced
                .entries
                .values()
                .any(|(landing, _)| plan.region_at(landing.loc).is_some()),
            "at least one exit lands mid-region"
        );
        // The inlined artifact computes exactly what the calling base does.
        for (x, n) in [(3i64, 10i64), (7, 1), (2, 25)] {
            let args = vec![Val::Int(x), Val::Int(n)];
            assert_eq!(
                run_function(&cv.versions.opt, &args, &m, 2_000_000).unwrap(),
                run_function(m.get("f").unwrap(), &args, &m, 2_000_000).unwrap(),
            );
        }
    }

    #[test]
    fn republishing_a_callee_evicts_inlined_callers() {
        let (m, cv, key) = inline_compiled(PipelineSpec::O3);
        let cache = CodeCache::new();
        let helper = m.get("poly_step").unwrap().clone();
        let hkey = CacheKey::new("poly_step", PipelineSpec::O1);
        let hcv = compile_function(helper.clone(), &PipelineSpec::O1, Variant::Avail).unwrap();
        assert!(cache.claim(&hkey));
        cache.publish(&hkey, Arc::new(hcv));
        assert_eq!(cache.inline_epoch("poly_step"), 0, "first publish: no bump");
        assert!(cache.claim(&key));
        cache.publish(&key, Arc::new(cv));
        assert!(cache.get(&key).is_some());
        // A keep-set recompile (or layout re-snapshot) republishes the
        // callee: the epoch bumps and the spliced caller is evicted.
        let hcv2 = compile_function(helper, &PipelineSpec::O1, Variant::Avail).unwrap();
        cache.publish(&hkey, Arc::new(hcv2));
        assert_eq!(cache.inline_epoch("poly_step"), 1);
        assert!(cache.get(&key).is_none(), "stale inlined caller evicted");
        assert_eq!(cache.inline_invalidations(), 1);
    }

    #[test]
    fn stale_inflight_inlined_compile_is_abandoned_at_publish() {
        let cache = CodeCache::new();
        let m = minic::compile(CALL_SRC).unwrap();
        let helper = m.get("poly_step").unwrap().clone();
        let hkey = CacheKey::new("poly_step", PipelineSpec::O1);
        assert!(cache.claim(&hkey));
        let hcv = compile_function(helper.clone(), &PipelineSpec::O1, Variant::Avail).unwrap();
        cache.publish(&hkey, Arc::new(hcv));
        let hcv2 = compile_function(helper, &PipelineSpec::O1, Variant::Avail).unwrap();
        cache.publish(&hkey, Arc::new(hcv2)); // epoch → 1
                                              // A caller compile that started before the republish references
                                              // epoch 0; its publish must be dropped, not served stale.
        let (_m, cv, key) = inline_compiled(PipelineSpec::O3);
        assert!(cache.claim(&key));
        cache.publish(&key, Arc::new(cv));
        assert!(cache.get(&key).is_none(), "stale publish abandoned");
        assert!(cache.inline_invalidations() >= 1);
    }
}
