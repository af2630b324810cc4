//! Profiling and tier-decision hooks, split out of [`crate::runtime::Vm`]
//! so external runtimes can subscribe to hotness information and drive
//! tiering themselves.
//!
//! The interpreter instruments the OSR points returned by
//! [`loop_header_points`] (the first non-φ instruction of every loop
//! header, where HotSpot and Jikes place their counters, §8 of the paper).
//! Each visit is counted by a [`HotnessProfiler`] and reported to a
//! [`TierController`], which answers with a [`TierDecision`]: keep
//! interpreting, or take one transition — between the halves of a prepared
//! [`FunctionVersions`] pair, or along a tier ladder.
//!
//! Two kinds of controller exist:
//!
//! * the fixed-threshold policies behind
//!   [`crate::runtime::Vm::run_with_osr`] and
//!   [`crate::runtime::Vm::run_with_deopt`] — the classic single-function
//!   shape: fire at a fixed visit count, then run the target to completion;
//! * the `engine` crate's controller, which aggregates counters across
//!   concurrent requests, compiles in the background, and only fires once
//!   the shared code cache holds a ready version.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ssair::cfg::Cfg;
use ssair::dom::DomTree;
use ssair::feasibility::EntryTable;
use ssair::interp::Frame;
use ssair::loops::LoopInfo;
use ssair::reconstruct::Direction;
use ssair::{BlockId, Function, InstId, Terminator};

use crate::FunctionVersions;

/// A rung of an optimization tier ladder.  `Tier(0)` is the baseline
/// (interpreted) version; `Tier(k)` for `k ≥ 1` names the k-th optimized
/// version a policy ladder defines (conventionally `O1`, `O2`, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tier(pub u8);

impl Tier {
    /// The baseline (unoptimized, interpreted) tier.
    pub const BASELINE: Tier = Tier(0);

    /// The rung above this one.
    #[must_use]
    pub fn next(self) -> Tier {
        Tier(self.0 + 1)
    }

    /// Whether this is the baseline tier.
    pub fn is_baseline(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// The kind of speculative assumption an optimized version baked in — the
/// label dimension of the unified guard/deopt taxonomy.
///
/// Every speculation an engine compiles into a version (a branch-bias
/// guard, a constant-seeded stable value, a spliced callee) is an
/// *assumption*; every deoptimizing transition that fires because live
/// execution contradicted one is an *assumption violation* of exactly one
/// of these kinds.  The kind is carried on [`TierTarget::violated`] /
/// [`InlineExitTarget::violated`] and stamped onto the resulting
/// [`crate::runtime::OsrEvent`], so consumers (event streams, request
/// traces, metrics) classify deopts without re-deriving the cause.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AssumptionKind {
    /// A branch-bias guard: the profiled hot successor keeps winning.
    Bias,
    /// A stable-argument value speculation (constant-seeded version).
    Value,
    /// An inlined-callee speculation (call site spliced at a callee
    /// epoch).
    Inline,
    /// Reserved for memory-cell stability — the future assumption kind a
    /// heap-aware engine would guard on.  No current speculation produces
    /// it.
    Memory,
}

impl AssumptionKind {
    /// The canonical label of this kind — the single source of truth for
    /// every rendering (metrics `Display`, the event stream, request
    /// traces, per-kind invalidation counters).
    pub fn label(self) -> &'static str {
        match self {
            AssumptionKind::Bias => "bias",
            AssumptionKind::Value => "value",
            AssumptionKind::Inline => "inline",
            AssumptionKind::Memory => "memory",
        }
    }
}

impl fmt::Display for AssumptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shared cross-request hotness counters, one per `(function, tier)` pair:
/// how often instrumented OSR points of `function`'s `tier` version have
/// been visited across *all* frames of *all* requests.  A multi-tier
/// policy reads the counter of the tier a frame currently runs to decide
/// when the next rung becomes eligible.
///
/// Beyond hotness, the table holds the *speculation profile*: per-branch
/// edge counters recorded while a function runs at the baseline tier
/// (which successor each conditional branch took), shared uncommon-path
/// hit counters for climbed frames whose execution contradicts that
/// profile (observability: how contested a function's speculation is),
/// and per-function deopt counts an adaptive ladder policy reads to
/// demote its thresholds.  Block identity is preserved by every
/// optimization pass, so edges profiled on the baseline CFG remain
/// meaningful in any optimized version.
#[derive(Default)]
pub struct ProfileTable {
    counters: Mutex<HashMap<(String, Tier), Arc<AtomicU64>>>,
    /// Profiled edge executions, nested per function (so reads and
    /// steady-state flushes look up by `&str` without allocating),
    /// grouped per branch (so a bias query touches one entry), and keyed
    /// per *rung* within the branch: a frame records the edges it takes
    /// at whatever tier it runs (the baseline always; a climbed frame for
    /// every branch its rung does not guard), so a partially-deoptimized
    /// frame keeps correcting the profile without re-entering the
    /// baseline.  Bias queries aggregate over the rungs.
    edges: Mutex<HashMap<String, HashMap<BlockId, EdgeCounts>>>,
    /// Uncommon-path hits observed from climbed frames, nested per
    /// function: `tier, branch block → count`.
    uncommon: Mutex<HashMap<String, UncommonCounts>>,
    /// Speculation-failure deopts per function.
    deopts: Mutex<HashMap<String, Arc<AtomicU64>>>,
    /// The *value* profile: per-function, per-argument-slot observations
    /// of the concrete integer each request supplied — the input to value
    /// speculation ([`ProfileTable::stable_value`]).  Batched and flushed
    /// by controllers exactly like the edge profile.
    values: Mutex<HashMap<String, HashMap<usize, ValueProfile>>>,
    /// Wall-clock nanoseconds spent *executing* at each `(function, tier)`
    /// — the time sibling of the visit counters above.  Controllers
    /// accumulate per-rung deltas locally (one `Instant` stamp per hop,
    /// never per instruction) and flush once per request, so this map is
    /// locked a handful of times per request, off the interpreter loop.
    time_nanos: Mutex<HashMap<(String, Tier), u64>>,
    /// The *call-edge* profile: per caller, per call-site pc, how often
    /// each callee was invoked from that site — the input to inline
    /// speculation ([`ProfileTable::inline_sites`]).  Sites are keyed by
    /// the call's [`InstId`], which every pass preserves (block merging
    /// and jump threading move instructions between blocks but never
    /// renumber them), so attribution survives superblock formation.
    calls: Mutex<HashMap<String, HashMap<InstId, Vec<(String, u64)>>>>,
    /// The *drain epoch*: a monotone counter consumers bump
    /// ([`ProfileTable::advance_epoch`]) whenever they are about to *read*
    /// the profile (e.g. snapshotting it into a compile job).  A
    /// [`LocalProfile`] buffer drains into the shared maps only when the
    /// epoch moved past its last drain (or at a forced flush point), so
    /// the steady-state observe path — including its periodic flush checks
    /// — touches no shared lock at all.
    epoch: AtomicU64,
}

/// A thread-local (per-frame) profile buffer: the observations a frame
/// accumulates between drains into the shared [`ProfileTable`].
///
/// The buffer exists so the per-instruction observe path writes only
/// unshared memory.  [`ProfileTable::flush_local`] drains it when the
/// table's epoch has advanced (someone wants to read fresh data) or when
/// the caller forces it (hop boundaries and request end, where the next
/// consumer is the frame itself).
#[derive(Debug, Default)]
pub struct LocalProfile {
    /// Edge observations `(from, to) → count` at the owning frame's
    /// current rung.
    pub edges: HashMap<(BlockId, BlockId), u64>,
    /// Uncommon-path hits per guarded branch, not yet shared.
    pub uncommon: HashMap<BlockId, u64>,
    /// One-shot argument-value observations, drained with the first
    /// flush.
    pub values: Option<Vec<((usize, i64), u64)>>,
    /// Call-edge observations `(call-site pc, callee) → count`, recorded
    /// while the frame runs the baseline.
    pub calls: HashMap<(InstId, String), u64>,
    /// The table epoch this buffer last drained at.
    seen_epoch: u64,
}

impl LocalProfile {
    /// A fresh buffer carrying the request's one-shot value observations.
    pub fn new(values: Vec<((usize, i64), u64)>) -> Self {
        LocalProfile {
            values: Some(values),
            ..LocalProfile::default()
        }
    }

    /// Whether the buffer currently holds nothing to drain.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
            && self.uncommon.is_empty()
            && self.calls.is_empty()
            && self.values.as_ref().map_or(true, Vec::is_empty)
    }
}

/// Observed values of one argument slot: distinct values with counts, plus
/// an overflow bucket once the slot has shown more distinct values than
/// worth tracking (such a slot can never be stable anyway).
#[derive(Default)]
struct ValueProfile {
    counts: Vec<(i64, u64)>,
    other: u64,
}

/// Distinct values tracked per argument slot before overflowing.
const MAX_TRACKED_VALUES: usize = 16;

/// Per-branch successor counts, keyed by the rung that observed them:
/// which blocks a conditional branch jumped to, how often, and at which
/// tier (a conditional has two successors and few rungs observe it, so a
/// flat vector beats a map).
type EdgeCounts = Vec<((Tier, BlockId), u64)>;

/// One function's uncommon-path hits, per `(tier, branch block)`.
type UncommonCounts = HashMap<(Tier, BlockId), u64>;

/// Looks up `map[function]` mutably, inserting an empty entry first when
/// absent — without allocating a `String` on the steady-state (present)
/// path.
fn per_function<'m, V: Default>(map: &'m mut HashMap<String, V>, function: &str) -> &'m mut V {
    if !map.contains_key(function) {
        map.insert(function.to_string(), V::default());
    }
    map.get_mut(function).expect("just ensured")
}

impl ProfileTable {
    /// The shared counter for `function` at `tier` (created on first use).
    pub fn counter(&self, function: &str, tier: Tier) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().expect("profile lock");
        Arc::clone(
            map.entry((function.to_string(), tier))
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Current hotness of `function` at `tier`.
    pub fn hotness(&self, function: &str, tier: Tier) -> u64 {
        self.counter(function, tier).load(Ordering::Relaxed)
    }

    /// Total hotness of `function` across every tier.
    pub fn total_hotness(&self, function: &str) -> u64 {
        let map = self.counters.lock().expect("profile lock");
        map.iter()
            .filter(|((f, _), _)| f == function)
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Cumulative instrumented *visits* per rung, summed over every
    /// function — the count dimension of per-rung residency (how often
    /// traffic reaches each tier's OSR points, **not** how long it runs
    /// there; for wall-clock time see
    /// [`ProfileTable::per_tier_time_nanos`]).
    pub fn per_tier_totals(&self) -> BTreeMap<Tier, u64> {
        let map = self.counters.lock().expect("profile lock");
        let mut out: BTreeMap<Tier, u64> = BTreeMap::new();
        for ((_, tier), c) in map.iter() {
            *out.entry(*tier).or_insert(0) += c.load(Ordering::Relaxed);
        }
        out
    }

    /// Records `nanos` of execution time attributed to `function` running
    /// at `tier`, in bulk: a controller stamps `Instant`s only at frame
    /// creation and hop boundaries, accumulates the deltas locally, and
    /// flushes the whole batch here once per request.
    pub fn record_time(&self, function: &str, batch: impl IntoIterator<Item = (Tier, u64)>) {
        let mut map = self.time_nanos.lock().expect("time lock");
        for (tier, nanos) in batch {
            if nanos == 0 {
                continue;
            }
            if let Some(slot) = map.get_mut(&(function.to_string(), tier)) {
                *slot = slot.saturating_add(nanos);
            } else {
                map.insert((function.to_string(), tier), nanos);
            }
        }
    }

    /// Cumulative execution nanoseconds per rung, summed over every
    /// function — the *time* dimension of per-rung residency, alongside
    /// the visit counts of [`ProfileTable::per_tier_totals`].
    pub fn per_tier_time_nanos(&self) -> BTreeMap<Tier, u64> {
        let map = self.time_nanos.lock().expect("time lock");
        let mut out: BTreeMap<Tier, u64> = BTreeMap::new();
        for ((_, tier), nanos) in map.iter() {
            *out.entry(*tier).or_insert(0) += nanos;
        }
        out
    }

    /// Records branch-edge executions observed at `tier` in bulk (a
    /// frame's controller batches its local observations and flushes them
    /// at instrumented visits, so the shared map is not locked per
    /// branch).  The baseline records every conditional edge; a climbed
    /// frame records the branches its rung does not guard, so the profile
    /// keeps converging even for frames that never touch the baseline.
    pub fn record_edges(
        &self,
        function: &str,
        tier: Tier,
        batch: impl IntoIterator<Item = ((BlockId, BlockId), u64)>,
    ) {
        let mut map = self.edges.lock().expect("edge lock");
        let branches = per_function(&mut map, function);
        for ((from, to), n) in batch {
            let succs = branches.entry(from).or_default();
            match succs.iter_mut().find(|(k, _)| *k == (tier, to)) {
                Some((_, count)) => *count += n,
                None => succs.push(((tier, to), n)),
            }
        }
    }

    /// The speculation verdict for `function`'s conditional branch at
    /// `branch`, under `policy`: `Some(hot successor)` when the profile —
    /// aggregated over every rung that observed the branch — is biased
    /// enough to guard on, `None` when the branch is unprofiled or too
    /// balanced.  Because a policy may hand different `policy` knobs to
    /// different rungs, the same branch can bias at one rung and stay
    /// neutral at another — the adaptive-deopt decider.  Ties between
    /// equally-hot successors break toward the lowest block id, so the
    /// verdict is deterministic even under a degenerate
    /// `bias_percent ≤ 50`.
    pub fn edge_bias(
        &self,
        function: &str,
        branch: BlockId,
        policy: &SpeculationPolicy,
    ) -> Option<BlockId> {
        let map = self.edges.lock().expect("edge lock");
        let succs = map.get(function)?.get(&branch)?;
        let mut total = 0u64;
        // Aggregate per successor across rungs (a conditional has two).
        let mut by_succ: Vec<(BlockId, u64)> = Vec::with_capacity(2);
        for ((_, to), n) in succs {
            total += n;
            match by_succ.iter_mut().find(|(s, _)| s == to) {
                Some((_, count)) => *count += n,
                None => by_succ.push((*to, *n)),
            }
        }
        let mut hot: Option<(BlockId, u64)> = None;
        for (to, n) in by_succ {
            if hot.is_none_or(|(b, best)| n > best || (n == best && to < b)) {
                hot = Some((to, n));
            }
        }
        let (succ, n) = hot?;
        (total >= policy.min_samples && n * 100 >= total * policy.bias_percent as u64)
            .then_some(succ)
    }

    /// Records uncommon-path hits in bulk (a frame's controller batches
    /// its guard observations and flushes them at instrumented visits, so
    /// the shared map is not locked per hit).
    pub fn record_uncommon_batch(
        &self,
        function: &str,
        tier: Tier,
        batch: impl IntoIterator<Item = (BlockId, u64)>,
    ) {
        let mut map = self.uncommon.lock().expect("uncommon lock");
        let hits = per_function(&mut map, function);
        for (branch, n) in batch {
            *hits.entry((tier, branch)).or_insert(0) += n;
        }
    }

    /// The shared speculation-failure deopt counter for `function`
    /// (created on first use) — cache the `Arc` instead of calling
    /// [`ProfileTable::deopt_count`] on a hot path.
    pub fn deopt_counter(&self, function: &str) -> Arc<AtomicU64> {
        let mut map = self.deopts.lock().expect("deopt lock");
        Arc::clone(
            map.entry(function.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Total uncommon-path hits recorded for `function` across all tiers
    /// and branches.
    pub fn uncommon_hits(&self, function: &str) -> u64 {
        let map = self.uncommon.lock().expect("uncommon lock");
        map.get(function).map_or(0, |hits| hits.values().sum())
    }

    /// Counts one speculation-failure deopt of `function`; returns the
    /// updated count.
    pub fn record_deopt(&self, function: &str) -> u64 {
        self.deopt_counter(function).fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Speculation-failure deopts recorded for `function`.
    pub fn deopt_count(&self, function: &str) -> u64 {
        let map = self.deopts.lock().expect("deopt lock");
        map.get(function).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Records argument-value observations in bulk: each batch item is
    /// `((slot, value), count)` — one per integer argument per request,
    /// batched by the controller and flushed with the edge profile so the
    /// shared map is locked once per flush, not once per observation.
    pub fn record_values(
        &self,
        function: &str,
        batch: impl IntoIterator<Item = ((usize, i64), u64)>,
    ) {
        let mut map = self.values.lock().expect("value lock");
        let slots = per_function(&mut map, function);
        for ((slot, value), n) in batch {
            let profile = slots.entry(slot).or_default();
            if let Some((_, count)) = profile.counts.iter_mut().find(|(v, _)| *v == value) {
                *count += n;
            } else if profile.counts.len() < MAX_TRACKED_VALUES {
                profile.counts.push((value, n));
            } else {
                profile.other += n;
            }
        }
    }

    /// The value-speculation verdict for `function`'s argument `slot`
    /// under `policy`: `Some(v)` when at least
    /// [`ValueSpeculationPolicy::min_samples`] observations have been
    /// recorded and a single value `v` drew at least
    /// [`ValueSpeculationPolicy::stability_percent`] of them — a *stable*
    /// value an engine may compile a constant-seeded specialized version
    /// for.  Ties break toward the smallest value, so the verdict is
    /// deterministic even under a degenerate `stability_percent ≤ 50`.
    pub fn stable_value(
        &self,
        function: &str,
        slot: usize,
        policy: &ValueSpeculationPolicy,
    ) -> Option<i64> {
        let map = self.values.lock().expect("value lock");
        let profile = map.get(function)?.get(&slot)?;
        let total: u64 = profile.other + profile.counts.iter().map(|(_, n)| *n).sum::<u64>();
        let mut hot: Option<(i64, u64)> = None;
        for (v, n) in &profile.counts {
            if hot.is_none_or(|(bv, best)| *n > best || (*n == best && *v < bv)) {
                hot = Some((*v, *n));
            }
        }
        let (value, n) = hot?;
        (total >= policy.min_samples && n * 100 >= total * policy.stability_percent as u64)
            .then_some(value)
    }

    /// Records call-edge executions in bulk: each batch item is
    /// `((call-site pc, callee), count)`, batched by the controller and
    /// flushed with the edge profile so the shared map is locked once per
    /// flush, not once per call.
    pub fn record_calls(
        &self,
        function: &str,
        batch: impl IntoIterator<Item = ((InstId, String), u64)>,
    ) {
        let mut map = self.calls.lock().expect("call lock");
        let sites = per_function(&mut map, function);
        for ((site, callee), n) in batch {
            let callees = sites.entry(site).or_default();
            match callees.iter_mut().find(|(c, _)| *c == callee) {
                Some((_, count)) => *count += n,
                None => callees.push((callee, n)),
            }
        }
    }

    /// Raw per-site callee totals for `function` — each call site's
    /// observed callees with counts, sorted by site pc.
    pub fn call_site_totals(&self, function: &str) -> BTreeMap<InstId, Vec<(String, u64)>> {
        let map = self.calls.lock().expect("call lock");
        map.get(function)
            .map(|sites| {
                sites
                    .iter()
                    .map(|(site, callees)| (*site, callees.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The inline-speculation verdict for `function` under `policy`: the
    /// call sites whose profile is dominated by a single callee — at
    /// least [`InlineSpeculationPolicy::min_samples`] observed calls, the
    /// dominant callee drawing at least
    /// [`InlineSpeculationPolicy::dominance_percent`] of them, and the
    /// callee's body (as sized by `callee_size`, which also filters
    /// non-inlinable callees by answering `None`) within
    /// [`InlineSpeculationPolicy::callee_budget`].  Sites are returned
    /// sorted by pc, so the verdict is deterministic; callee ties break
    /// toward the lexicographically smallest name.
    pub fn inline_sites(
        &self,
        function: &str,
        policy: &InlineSpeculationPolicy,
        mut callee_size: impl FnMut(&str) -> Option<usize>,
    ) -> Vec<(InstId, String)> {
        let map = self.calls.lock().expect("call lock");
        let Some(sites) = map.get(function) else {
            return Vec::new();
        };
        let mut out: Vec<(InstId, String)> = Vec::new();
        for (site, callees) in sites {
            let total: u64 = callees.iter().map(|(_, n)| *n).sum();
            if total < policy.min_samples {
                continue;
            }
            let mut hot: Option<(&str, u64)> = None;
            for (c, n) in callees {
                if hot.is_none_or(|(bc, best)| *n > best || (*n == best && c.as_str() < bc)) {
                    hot = Some((c, *n));
                }
            }
            let Some((callee, n)) = hot else { continue };
            if n * 100 < total * policy.dominance_percent as u64 {
                continue;
            }
            match callee_size(callee) {
                Some(size) if size <= policy.callee_budget => {
                    out.push((*site, callee.to_string()));
                }
                _ => {}
            }
        }
        out.sort_by_key(|(site, _)| *site);
        out
    }

    /// The current drain epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Bumps the drain epoch, asking every [`LocalProfile`] holder to
    /// drain at its next flush check — called by consumers about to read
    /// the profile (e.g. an engine snapshotting edge counts into a
    /// compile job).  Returns the new epoch.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drains `local` into the shared maps when `force` is set or the
    /// drain epoch advanced since the buffer's last drain; returns whether
    /// a drain happened.  On the steady state (no epoch movement, not
    /// forced) this is one relaxed atomic load — no shared lock.
    pub fn flush_local(
        &self,
        function: &str,
        tier: Tier,
        local: &mut LocalProfile,
        force: bool,
    ) -> bool {
        let now = self.epoch.load(Ordering::Relaxed);
        if !force && now == local.seen_epoch {
            return false;
        }
        local.seen_epoch = now;
        if let Some(values) = local.values.take() {
            if !values.is_empty() {
                self.record_values(function, values);
            }
        }
        if !local.edges.is_empty() {
            self.record_edges(function, tier, local.edges.drain());
        }
        if !local.uncommon.is_empty() {
            self.record_uncommon_batch(function, tier, local.uncommon.drain());
        }
        if !local.calls.is_empty() {
            self.record_calls(function, local.calls.drain());
        }
        true
    }

    /// Raw per-branch successor totals for `function`, aggregated over
    /// the rungs that observed each branch — the input to a layout
    /// frequency summary (`ssair::passes::BlockFrequencies`).
    pub fn edge_totals(&self, function: &str) -> BTreeMap<BlockId, Vec<(BlockId, u64)>> {
        let map = self.edges.lock().expect("edge lock");
        let Some(branches) = map.get(function) else {
            return BTreeMap::new();
        };
        branches
            .iter()
            .map(|(from, succs)| {
                let mut agg: Vec<(BlockId, u64)> = Vec::new();
                for ((_, to), n) in succs {
                    match agg.iter_mut().find(|(s, _)| s == to) {
                        Some((_, count)) => *count += n,
                        None => agg.push((*to, *n)),
                    }
                }
                (*from, agg)
            })
            .collect()
    }
}

/// When a profiled value is *stable* enough to specialize on.
///
/// Beyond branch-edge bias, a controller records the concrete integer
/// arguments every request supplies ([`ProfileTable::record_values`]).  An
/// argument slot whose observations are dominated by a single value — at
/// least `min_samples` observations, the dominant value drawing at least
/// `stability_percent` of them — is *stable*: an engine may compile a
/// specialized version with that value seeded as a constant, guard entries
/// into it, and deoptimize any frame whose actual argument violates the
/// speculation.
#[derive(Clone, Copy, Debug)]
pub struct ValueSpeculationPolicy {
    /// Minimum recorded observations of a slot before it can be stable.
    pub min_samples: u64,
    /// Percentage of observations the dominant value must draw (> 50).
    pub stability_percent: u8,
}

impl Default for ValueSpeculationPolicy {
    fn default() -> Self {
        ValueSpeculationPolicy {
            min_samples: 16,
            stability_percent: 90,
        }
    }
}

/// When a profiled call site is worth inlining.
///
/// While a function runs at the baseline, every `call` instruction's
/// callee is profiled ([`ProfileTable::record_calls`]).  A site whose
/// observations are dominated by a single callee — at least `min_samples`
/// observed calls, the dominant callee drawing at least
/// `dominance_percent` of them — is *inline-worthy* when the callee's
/// body fits the size budget: an engine may splice the callee into the
/// caller's optimized version, guard the inlined region's profiled
/// branches, and deoptimize across the former call boundary when the
/// speculation fails.
#[derive(Clone, Copy, Debug)]
pub struct InlineSpeculationPolicy {
    /// Minimum profiled calls at a site before it can be inline-worthy.
    pub min_samples: u64,
    /// Percentage of calls the dominant callee must draw (> 50).
    pub dominance_percent: u8,
    /// Maximum live instruction count of an inlinable callee body.
    pub callee_budget: usize,
}

impl Default for InlineSpeculationPolicy {
    fn default() -> Self {
        InlineSpeculationPolicy {
            min_samples: 16,
            dominance_percent: 90,
            callee_budget: 48,
        }
    }
}

/// When a climbed frame's speculation guards fire.
///
/// While a function runs at the baseline, every conditional branch's taken
/// edge is profiled.  A branch whose profile is *biased* (at least
/// `min_samples` observations, the hot successor drawing at least
/// `bias_percent` of them) becomes a speculation guard in every climbed
/// version: the optimized code is presumed shaped for the hot path, and
/// each execution of the cold edge counts as an uncommon-path hit.
///
/// A guard fires only when the speculation is actually *wrong*, i.e. the
/// frame's observed traffic contradicts the profile: at least `tolerance`
/// uncommon hits on the branch since the last hop, **and** the frame's
/// observed cold-path rate on that branch exceeds the rate the profile
/// already allowed (`100 - bias_percent`).  A steady 95/5 branch under a
/// 90% bias therefore never deopts — its cold path runs at the profiled
/// rate — while a hot path that flips crosses both conditions within a
/// few iterations.
#[derive(Clone, Copy, Debug)]
pub struct SpeculationPolicy {
    /// Minimum profiled executions of a branch before it can bias.
    pub min_samples: u64,
    /// Percentage of executions the hot successor must draw (> 50).
    pub bias_percent: u8,
    /// Minimum uncommon-path hits on a branch within one climbed frame
    /// before its guard may fire (the rate condition must also hold).
    pub tolerance: u64,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            min_samples: 16,
            bias_percent: 90,
            tolerance: 4,
        }
    }
}

/// Maps the instruction boundaries where conditional-branch outcomes
/// become observable: the first non-φ, non-debug instruction of every
/// block, paired with the block it opens.  When the interpreter pauses at
/// such an instruction and the frame's `came_from` block ends in a
/// conditional branch, exactly one edge `(came_from → block)` has been
/// taken — which is how [`crate::runtime::Vm::run_tiered`] feeds
/// [`TierController::observe_edge`] without any interpreter support
/// beyond the existing per-instruction hook.
///
/// A branch arm may carry no observable instruction at all — lowering
/// emits empty `else`/join blocks, and optimization can empty an arm the
/// baseline profiled (CSE/sink/ADCE).  Such *transparent* blocks would be
/// blind spots: the edge into them never fires the hook, and the next
/// hook fires with `came_from` naming the empty block, not the branch.
/// The observer therefore resolves single-predecessor chains of empty
/// blocks back to their conditional branch at construction time, so an
/// edge through an emptied arm is still attributed to the branch — and to
/// the *same* successor id the baseline profiled, keeping bias keys
/// comparable across versions.
#[derive(Clone, Debug, Default)]
pub struct EdgeObserver {
    /// First real instruction of each block → the block it opens.
    entry_of: BTreeMap<InstId, BlockId>,
    /// Blocks terminated by a conditional branch.
    cond_blocks: BTreeSet<BlockId>,
    /// Arriving with `came_from` = key witnesses this conditional edge:
    /// the key block has no observable instruction, exactly one
    /// predecessor, and chains (through equally transparent blocks) back
    /// to a conditional branch.
    transparent: BTreeMap<BlockId, (BlockId, BlockId)>,
}

impl EdgeObserver {
    /// Builds the observer for one program version.
    pub fn for_function(f: &Function) -> Self {
        let blocks = f.block_ids();
        let mut entry_of = BTreeMap::new();
        let mut cond_blocks = BTreeSet::new();
        let mut empty: BTreeSet<BlockId> = BTreeSet::new();
        let mut preds: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
        for &b in &blocks {
            match f
                .block(b)
                .insts
                .iter()
                .find(|i| !f.inst(**i).kind.is_phi() && !f.inst(**i).kind.is_dbg())
            {
                Some(first) => {
                    entry_of.insert(*first, b);
                }
                None => {
                    empty.insert(b);
                }
            }
            match f.block(b).term {
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    cond_blocks.insert(b);
                    preds.entry(then_bb).or_default().push(b);
                    preds.entry(else_bb).or_default().push(b);
                }
                Terminator::Br(t) => preds.entry(t).or_default().push(b),
                Terminator::Ret(_) => {}
            }
        }
        // Resolve each empty single-predecessor block to the conditional
        // edge that dominates it, following chains of equally transparent
        // blocks (chains are acyclic and short; iterate to a fixpoint).
        let mut transparent: BTreeMap<BlockId, (BlockId, BlockId)> = BTreeMap::new();
        loop {
            let mut changed = false;
            for &b in &empty {
                if transparent.contains_key(&b) {
                    continue;
                }
                let Some([p]) = preds.get(&b).map(|v| v.as_slice()) else {
                    continue; // no or multiple predecessors: ambiguous
                };
                let resolved = if cond_blocks.contains(p) {
                    Some((*p, b))
                } else {
                    transparent.get(p).copied()
                };
                if let Some(edge) = resolved {
                    transparent.insert(b, edge);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        EdgeObserver {
            entry_of,
            cond_blocks,
            transparent,
        }
    }

    /// The conditional edge `(branch block, taken successor)` whose
    /// execution the pause at `at` witnesses, if any: `at` opens its
    /// block, and the frame arrived either directly from a conditional
    /// branch or through a transparent (empty, single-predecessor) chain
    /// from one.  The free checks run first — this is consulted for every
    /// instruction the interpreter executes.
    pub fn taken_edge(&self, frame: &Frame, at: InstId) -> Option<(BlockId, BlockId)> {
        let from = frame.came_from?;
        let edge = if self.cond_blocks.contains(&from) {
            None // the direct edge, resolved after the entry check
        } else {
            Some(*self.transparent.get(&from)?)
        };
        let block = *self.entry_of.get(&at)?;
        if block != frame.block {
            return None;
        }
        Some(edge.unwrap_or((from, block)))
    }
}

/// The OSR points the profiler instruments: the first non-φ, non-debug
/// instruction of every loop header.
pub fn loop_header_points(f: &Function) -> Vec<InstId> {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let li = LoopInfo::compute(f, &cfg, &dt);
    li.loops
        .iter()
        .filter_map(|l| {
            f.block(l.header)
                .insts
                .iter()
                .find(|i| !f.inst(**i).kind.is_phi() && !f.inst(**i).kind.is_dbg())
                .copied()
        })
        .collect()
}

/// What a [`TierController`] tells the interpreter to do at an
/// instrumented point.
///
/// Every non-[`Continue`](TierDecision::Continue) answer is the paper's
/// one transition — look up the mapping at the current point, run the
/// compensation code on the live state, resume at the landing — and
/// [`crate::runtime::Vm::run_tiered`] serves all of them through one
/// handler on either execution substrate.  The variants differ only in
/// what happens *after* the landing: keep profiling the target
/// ([`Transition`](TierDecision::Transition)), undo a call-site splice
/// first ([`InlineExit`](TierDecision::InlineExit)), or run the target to
/// its return ([`RunToCompletion`](TierDecision::RunToCompletion)).
pub enum TierDecision {
    /// Keep interpreting the current version.
    Continue,
    /// Transition between the two halves of a version pair and run the
    /// target to completion — the classic single OSR of §5.4 and §6.1
    /// (`Forward`: an optimizing OSR out of `versions.base`) and the
    /// debugger-attach tier-down of §7 (`Backward`: out of
    /// `versions.opt`).  If the point is infeasible, execution continues
    /// in the current version and [`TierController::on_infeasible`] is
    /// invoked.
    RunToCompletion {
        /// The pair to move across; the frame must be running the half
        /// that `direction` leaves.
        versions: Arc<FunctionVersions>,
        /// `Forward` leaves the baseline, `Backward` the optimized half.
        direction: Direction,
        /// Serve the transition from this precomputed table (as a shared
        /// code cache does); `None` resolves the landing site and builds
        /// the compensation code on demand, at transition time.
        table: Option<Arc<EntryTable>>,
    },
    /// Hop to an arbitrary program version through a precomputed (possibly
    /// composed, `fopt → fopt'`) entry table and *keep profiling there*:
    /// unlike [`TierDecision::RunToCompletion`], execution does not run
    /// to completion after the transition — the interpreter re-instruments
    /// the target version's OSR points and keeps consulting the
    /// controller, so a frame can climb a whole tier ladder, fall back off
    /// it when a speculation guard fails, and climb again (the controller
    /// is told each landing via [`TierController::on_transition`]).
    Transition(TierTarget),
    /// Deoptimize out of an *inlined* version — cross-function OSR.  The
    /// frame hops backward into the spliced caller base through the
    /// supplied table; if the landing falls inside an inlined region, the
    /// callee's frame is reconstructed from the splice records and run to
    /// its return, and the TRUE (pre-splice) caller base resumes at the
    /// call's continuation with the result bound.  Like
    /// [`TierDecision::Transition`], the frame stays under profiling so it
    /// can re-climb.
    InlineExit(InlineExitTarget),
}

/// The destination of a [`TierDecision::InlineExit`] hop: everything the
/// runtime needs to undo a call-site splice at deoptimization time.
///
/// A guard failure at a pc *inside* an inlined region cannot simply land
/// in the caller's true baseline — that function still performs the call,
/// and the frame is part-way through the callee's logic.  Instead the hop
/// composes two ordinary mappings: the normal backward entry table lands
/// the frame in the *spliced* base (where the callee's body is ordinary
/// caller code), and the [`ssair::passes::InlineRegion`] records translate
/// that landing into a reconstructed frame of the *callee*, which runs to
/// its return exactly as if it had been called.
#[derive(Clone)]
pub struct InlineExitTarget {
    /// The spliced caller base — the backward table's target function.
    pub spliced: Arc<Function>,
    /// Backward entries mapping the optimized version's points into the
    /// spliced base.
    pub table: Arc<EntryTable>,
    /// The TRUE (pre-splice) caller base the frame resumes in; the `call`
    /// instructions still exist here.
    pub base: Arc<Function>,
    /// The splice records, one per inlined call site.
    pub regions: Arc<Vec<ssair::passes::InlineRegion>>,
    /// Callee snapshots by name, exactly as spliced (a republished callee
    /// invalidates the whole version rather than mutating this map).
    pub callees: BTreeMap<String, Arc<Function>>,
    /// Rung index recorded on the resulting event (the caller lands back
    /// on its baseline).
    pub rung: Tier,
    /// Values pinned into the source frame before compensation runs
    /// (parameter rematerialization), as for [`TierTarget::pinned`].
    pub pinned: Vec<(ssair::ValueId, ssair::interp::Val)>,
    /// Whether failing this exit aborts the run, as for
    /// [`TierTarget::mandatory`]: an inline-guard escape leaves code that
    /// speculated on a callee body the frame is contradicting.
    pub mandatory: bool,
    /// The assumption kind whose violation forced this exit (always
    /// [`AssumptionKind::Inline`] for a real inline exit), stamped onto
    /// the resulting [`crate::runtime::OsrEvent`].
    pub violated: Option<AssumptionKind>,
}

/// The destination of a [`TierDecision::Transition`] hop.
#[derive(Clone)]
pub struct TierTarget {
    /// The program version to continue execution in.
    pub target: Arc<Function>,
    /// Precomputed entries mapping the *current* version's OSR points to
    /// landing sites and compensation code in `target`.  May be a direct
    /// table or a composed version-to-version table
    /// (`ssair::feasibility::compose_entries`,
    /// `ssair::feasibility::compose_entries_chain`).
    pub table: Arc<EntryTable>,
    /// The *semantic* direction of the hop — `Forward` for a climb,
    /// `Backward` for a guard-driven tier-down.  Recorded on the resulting
    /// [`crate::runtime::OsrEvent`] instead of the table's own direction,
    /// because a composed down-hop (e.g. `O3 → O2` routed through the
    /// baseline) is served by a table whose final stage is a *forward*
    /// entry table.
    pub direction: Direction,
    /// The *rung index* of the destination version, as the controller's
    /// tier graph numbers it — what makes hops rung-based rather than
    /// pair-based: one frame can climb `O0 → O1 → O2 → O3` and fall
    /// `O3 → O2` without the runtime ever assuming a two-version world.
    /// Recorded on the resulting [`crate::runtime::OsrEvent`].
    pub rung: Tier,
    /// Values pinned into the *source* frame before the compensation code
    /// runs, supplied only where the frame is missing them — parameter
    /// rematerialization, the argument analogue of the §5.1 constant
    /// rematerialization: an activation's arguments never change in SSA,
    /// so a controller that knows them (the engine knows every request's
    /// args) can always re-supply a parameter an OSR-entered frame never
    /// transferred.  Without this, a frame that hopped into a version
    /// where a parameter is dead (e.g. a constant-seeded specialized
    /// version) could never take a table whose compensation reads it back
    /// out.
    pub pinned: Vec<(ssair::ValueId, ssair::interp::Val)>,
    /// Whether the frame *must not* keep running its current version if
    /// this hop proves infeasible: instead of notifying
    /// [`TierController::on_infeasible`] and continuing, the run aborts
    /// with [`ssair::interp::ExecError::MandatoryTransitionFailed`].
    /// Used for guard escapes out of value-specialized code, where the
    /// current version is not semantically valid for the frame — wrong
    /// answers are never an acceptable fallback.
    pub mandatory: bool,
    /// The register-allocated machine artifact backing `target`, when the
    /// destination rung executes on the machine substrate instead of the
    /// SSA interpreter.  After the table hop lands, the runtime tries
    /// [`ssair::machine::MachineArtifact::enter`] at the landing point;
    /// if the location map accepts the reconstructed environment, the
    /// frame runs in registers (same semantics, no value-map hashing)
    /// until it returns or a controller decision hops it elsewhere.  On
    /// refusal the frame interprets the same SSA function — the artifact
    /// is an execution substrate, never a semantic requirement.
    pub machine: Option<Arc<ssair::machine::MachineArtifact>>,
    /// For a deoptimizing hop: the kind of assumption whose violation
    /// forced it ([`AssumptionKind::Bias`] for a branch-guard failure,
    /// [`AssumptionKind::Value`] for a value-guard escape).  `None` for
    /// climbs and non-speculative tier-downs (debugger attach).  Stamped
    /// onto the resulting [`crate::runtime::OsrEvent`].
    pub violated: Option<AssumptionKind>,
}

/// Receives visit counts for instrumented points and decides when the
/// interpreter should attempt a tier-up transition.
pub trait TierController {
    /// Called on every visit of instrumented point `at`; `count` is the
    /// cumulative visit count within the current frame.
    fn observe(&mut self, at: InstId, count: usize) -> TierDecision;

    /// Whether this controller wants [`TierController::observe_edge`]
    /// callbacks.  Defaults to `false`, which lets the interpreter skip
    /// building and consulting the per-instruction [`EdgeObserver`]
    /// entirely — controllers that implement `observe_edge` must override
    /// this to `true`.
    fn observes_edges(&self) -> bool {
        false
    }

    /// Called whenever the frame enters a block along a conditional-branch
    /// edge `from → to`, at the block's first real instruction `at` (or
    /// the first real instruction downstream of a transparent chain, see
    /// [`EdgeObserver`]) — the speculation-guard hook.  Only consulted
    /// when [`TierController::observes_edges`] returns `true`.  A
    /// controller profiles these at the baseline tier and, in a climbed
    /// frame, may answer with a deoptimizing [`TierDecision::Transition`]
    /// when the taken edge contradicts the recorded bias often enough.
    /// Default: keep going.
    fn observe_edge(&mut self, _from: BlockId, _to: BlockId, _at: InstId) -> TierDecision {
        TierDecision::Continue
    }

    /// Whether this controller wants [`TierController::observe_call`]
    /// callbacks.  Defaults to `false`, which keeps the per-instruction
    /// hook free of the call check — controllers profiling call edges
    /// (typically only while the frame runs the baseline) must override
    /// this to `true`.
    fn observes_calls(&self) -> bool {
        false
    }

    /// Called when the frame is about to execute the `call` instruction
    /// `at` invoking `callee` — the call-edge-profile hook.  Only
    /// consulted when [`TierController::observes_calls`] returns `true`.
    /// Purely observational: the interpreter proceeds with the call
    /// either way.
    fn observe_call(&mut self, _at: InstId, _callee: &str) {}

    /// Called when a requested transition was infeasible at `at` (no
    /// landing site or no compensation code); the interpreter carries on
    /// in the current version.
    fn on_infeasible(&mut self, _at: InstId) {}

    /// Called after a [`TierDecision::Transition`] hop landed successfully
    /// (the frame now runs the requested target version); `at` is the
    /// source location the frame left.  Controllers tracking a tier ladder
    /// commit their pending rung here.
    fn on_transition(&mut self, _at: InstId) {}
}

/// Per-frame hotness counters over a fixed set of instrumented points.
#[derive(Clone, Debug, Default)]
pub struct HotnessProfiler {
    points: Vec<InstId>,
    counters: BTreeMap<InstId, usize>,
}

impl HotnessProfiler {
    /// A profiler over an explicit point set.
    pub fn new(points: Vec<InstId>) -> Self {
        HotnessProfiler {
            points,
            counters: BTreeMap::new(),
        }
    }

    /// A profiler over the loop-header OSR points of `f`.
    pub fn for_function(f: &Function) -> Self {
        HotnessProfiler::new(loop_header_points(f))
    }

    /// Whether `at` is instrumented.
    pub fn is_instrumented(&self, at: InstId) -> bool {
        self.points.contains(&at)
    }

    /// Counts one visit of `at`; returns the updated count, or `None` if
    /// the point is not instrumented.
    pub fn visit(&mut self, at: InstId) -> Option<usize> {
        if !self.is_instrumented(at) {
            return None;
        }
        let n = self.counters.entry(at).or_insert(0);
        *n += 1;
        Some(*n)
    }

    /// The accumulated counters.
    pub fn counters(&self) -> &BTreeMap<InstId, usize> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_counts_only_instrumented_points() {
        let mut p = HotnessProfiler::new(vec![InstId(3)]);
        assert_eq!(p.visit(InstId(4)), None);
        assert_eq!(p.visit(InstId(3)), Some(1));
        assert_eq!(p.visit(InstId(3)), Some(2));
        assert_eq!(p.counters().get(&InstId(3)), Some(&2));
    }

    #[test]
    fn edge_bias_needs_samples_and_skew() {
        let t = ProfileTable::default();
        let policy = SpeculationPolicy {
            min_samples: 10,
            bias_percent: 90,
            tolerance: 4,
        };
        let branch = BlockId(5);
        let hot = BlockId(6);
        let cold = BlockId(7);
        assert_eq!(t.edge_bias("f", branch, &policy), None, "unprofiled");
        t.record_edges("f", Tier::BASELINE, [((branch, hot), 9u64)]);
        assert_eq!(t.edge_bias("f", branch, &policy), None, "below min_samples");
        t.record_edges("f", Tier::BASELINE, [((branch, hot), 9u64)]);
        assert_eq!(t.edge_bias("f", branch, &policy), Some(hot), "18/18 hot");
        t.record_edges("f", Tier::BASELINE, [((branch, cold), 3u64)]);
        assert_eq!(
            t.edge_bias("f", branch, &policy),
            None,
            "18/21 < 90%: the bias dissolves once the cold path gets share"
        );
        assert_eq!(t.edge_bias("g", branch, &policy), None, "per function");
    }

    #[test]
    fn edge_profile_aggregates_across_rungs() {
        let t = ProfileTable::default();
        let policy = SpeculationPolicy {
            min_samples: 10,
            bias_percent: 90,
            tolerance: 4,
        };
        let branch = BlockId(5);
        let hot = BlockId(6);
        let cold = BlockId(7);
        t.record_edges("f", Tier::BASELINE, [((branch, hot), 18u64)]);
        assert_eq!(t.edge_bias("f", branch, &policy), Some(hot));
        // Cold edges recorded by a partially-deoptimized frame at O2 count
        // against the same bias: the profile converges without the frame
        // ever re-entering the baseline.
        t.record_edges("f", Tier(2), [((branch, cold), 3u64)]);
        assert_eq!(
            t.edge_bias("f", branch, &policy),
            None,
            "18/21 < 90%: rung-keyed observations share one bias"
        );
        // A tighter per-rung policy sees the same aggregate differently.
        let loose = SpeculationPolicy {
            bias_percent: 80,
            ..policy
        };
        assert_eq!(t.edge_bias("f", branch, &loose), Some(hot), "18/21 ≥ 80%");
    }

    #[test]
    fn value_profile_needs_samples_and_dominance() {
        let t = ProfileTable::default();
        let policy = ValueSpeculationPolicy {
            min_samples: 10,
            stability_percent: 90,
        };
        assert_eq!(t.stable_value("f", 0, &policy), None, "unprofiled");
        t.record_values("f", [((0usize, 3i64), 9u64)]);
        assert_eq!(t.stable_value("f", 0, &policy), None, "below min_samples");
        t.record_values("f", [((0, 3), 9)]);
        assert_eq!(t.stable_value("f", 0, &policy), Some(3), "18/18 of 3");
        t.record_values("f", [((0, 5), 3)]);
        assert_eq!(
            t.stable_value("f", 0, &policy),
            None,
            "18/21 < 90%: stability dissolves once another value gets share"
        );
        assert_eq!(t.stable_value("f", 1, &policy), None, "per slot");
        assert_eq!(t.stable_value("g", 0, &policy), None, "per function");
    }

    #[test]
    fn value_profile_overflow_bucket_blocks_stability() {
        let t = ProfileTable::default();
        let policy = ValueSpeculationPolicy {
            min_samples: 4,
            stability_percent: 60,
        };
        // Flood the slot with more distinct values than the profile
        // tracks; the overflow bucket keeps the denominator honest, so a
        // late flurry of one value cannot fake dominance.
        for v in 0..40i64 {
            t.record_values("f", [((0usize, v), 1u64)]);
        }
        t.record_values("f", [((0, 1), 20)]);
        assert_eq!(
            t.stable_value("f", 0, &policy),
            None,
            "21/60 is not dominance even though only 16 values are tracked"
        );
        t.record_values("f", [((0, 1), 100)]);
        assert_eq!(t.stable_value("f", 0, &policy), Some(1), "121/160 ≥ 60%");
    }

    #[test]
    fn per_tier_totals_report_residency() {
        let t = ProfileTable::default();
        t.counter("f", Tier::BASELINE)
            .fetch_add(7, Ordering::Relaxed);
        t.counter("f", Tier(2)).fetch_add(5, Ordering::Relaxed);
        t.counter("g", Tier(2)).fetch_add(1, Ordering::Relaxed);
        let totals = t.per_tier_totals();
        assert_eq!(totals.get(&Tier::BASELINE), Some(&7));
        assert_eq!(totals.get(&Tier(2)), Some(&6), "summed across functions");
        assert_eq!(totals.get(&Tier(1)), None, "never-visited rung absent");
    }

    #[test]
    fn per_tier_time_accumulates_batches() {
        let t = ProfileTable::default();
        assert!(t.per_tier_time_nanos().is_empty());
        t.record_time("f", [(Tier::BASELINE, 100), (Tier(2), 40)]);
        t.record_time("f", [(Tier(2), 10), (Tier(1), 0)]);
        t.record_time("g", [(Tier(2), 1)]);
        let times = t.per_tier_time_nanos();
        assert_eq!(times.get(&Tier::BASELINE), Some(&100));
        assert_eq!(times.get(&Tier(2)), Some(&51), "summed across functions");
        assert_eq!(times.get(&Tier(1)), None, "zero deltas are not recorded");
    }

    #[test]
    fn deopt_and_uncommon_counters_accumulate() {
        let t = ProfileTable::default();
        assert_eq!(t.deopt_count("f"), 0);
        assert_eq!(t.record_deopt("f"), 1);
        assert_eq!(t.record_deopt("f"), 2);
        assert_eq!(t.deopt_count("f"), 2);
        assert_eq!(t.deopt_count("g"), 0);
        t.deopt_counter("f").fetch_add(1, Ordering::Relaxed);
        assert_eq!(t.deopt_count("f"), 3, "counter Arc is the same counter");
        t.record_uncommon_batch("f", Tier(2), [(BlockId(1), 2)]);
        t.record_uncommon_batch("f", Tier(1), [(BlockId(1), 1)]);
        assert_eq!(t.uncommon_hits("f"), 3);
        assert_eq!(t.uncommon_hits("g"), 0);
    }

    #[test]
    fn edge_observer_sees_conditional_entries_only() {
        let m = minic::compile(
            "fn f(x) {
                 var r = 0;
                 if (x > 3) { r = x * 2; } else { r = x - 1; }
                 return r;
             }",
        )
        .unwrap();
        let f = m.get("f").unwrap();
        let obs = EdgeObserver::for_function(f);
        // Find the conditional branch and its successors.
        let (branch, then_bb) = f
            .block_ids()
            .into_iter()
            .find_map(|b| match f.block(b).term {
                ssair::Terminator::CondBr { then_bb, .. } => Some((b, then_bb)),
                _ => None,
            })
            .expect("an if lowers to a cond-br");
        let entry = f
            .block(then_bb)
            .insts
            .iter()
            .copied()
            .find(|i| !f.inst(*i).kind.is_phi() && !f.inst(*i).kind.is_dbg())
            .expect("then block has a real instruction");
        let mut frame = crate::runtime::Vm::new(m.clone())
            .module
            .get("f")
            .map(|f| ssair::interp::Frame::enter(f, &[ssair::interp::Val::Int(5)]))
            .unwrap();
        frame.block = then_bb;
        frame.came_from = Some(branch);
        assert_eq!(obs.taken_edge(&frame, entry), Some((branch, then_bb)));
        frame.came_from = None;
        assert_eq!(obs.taken_edge(&frame, entry), None, "no incoming edge");
    }

    #[test]
    fn edge_observer_survives_constant_seeded_branch_folding() {
        // Regression companion to the value-speculation pass: when
        // constant seeding lets SCCP fold a *guarded* branch away
        // entirely, the specialized version's observer must (a) not
        // misattribute traffic flowing through the blocks the fold
        // emptied, and (b) keep attributing the *surviving* conditional's
        // edges — including through arms the folding emptied — to the
        // same block ids the baseline profiled.  A blind spot here would
        // let a partially-specialized frame run guarded branches
        // unobserved.
        use ssair::passes::{Pipeline, SeedValues};
        use ssair::{BinOp, FunctionBuilder, Ty};

        // entry: cond_br (p > 3) armA armB     — the branch seeding folds
        // armA:  a = p + 1       ; br mid
        // armB:  a2 = x * 2      ; br mid
        // mid:   m = φ(a, a2); cond_br (x > m) c d   — survives
        // c:     cc = p + 2      ; br join     — emptied by the fold
        // d:     dd = x - 1      ; br join
        // join:  φ(cc, dd); ret
        let mut b = FunctionBuilder::new("g", &[("p", Ty::I64), ("x", Ty::I64)]);
        let p = b.param(0);
        let x = b.param(1);
        let three = b.const_i64(3);
        let one = b.const_i64(1);
        let two = b.const_i64(2);
        let cmp1 = b.binop(BinOp::Gt, p, three);
        let arm_a = b.create_block("armA");
        let arm_b = b.create_block("armB");
        let mid = b.create_block("mid");
        let c = b.create_block("c");
        let d = b.create_block("d");
        let join = b.create_block("join");
        b.cond_br(cmp1, arm_a, arm_b);
        b.switch_to(arm_a);
        let a = b.binop(BinOp::Add, p, one);
        b.br(mid);
        b.switch_to(arm_b);
        let a2 = b.binop(BinOp::Mul, x, two);
        b.br(mid);
        b.switch_to(mid);
        let m = b.phi(&[(arm_a, a), (arm_b, a2)]);
        let cmp2 = b.binop(BinOp::Gt, x, m);
        b.cond_br(cmp2, c, d);
        b.switch_to(c);
        let cc = b.binop(BinOp::Add, p, two);
        b.br(join);
        b.switch_to(d);
        let dd = b.binop(BinOp::Sub, x, one);
        b.br(join);
        b.switch_to(join);
        let r = b.phi(&[(c, cc), (d, dd)]);
        let out = b.binop(BinOp::Add, r, x);
        b.ret(Some(out));
        let base = b.finish();
        ssair::verify(&base).unwrap();

        // Specialize on p = 5: `p > 3` folds, armB dies, and the
        // constant chains empty both armA and c.
        let pipeline = Pipeline::standard()
            .prepended(Box::new(SeedValues::new(vec![(base.param_value(0), 5)])));
        let (spec, _cm, _) = pipeline.optimize(&base);
        ssair::verify(&spec).unwrap();
        assert!(
            !spec.block_exists(arm_b)
                || spec
                    .block(arm_b)
                    .insts
                    .iter()
                    .all(|i| { !spec.inst_is_live(*i) }),
            "seeding p=5 must fold the guarded branch's dead arm away"
        );
        assert!(
            !matches!(
                spec.block(spec.entry).term,
                ssair::Terminator::CondBr { .. }
            ),
            "the guarded branch itself folded to an unconditional edge"
        );

        let obs = EdgeObserver::for_function(&spec);
        let first_real = |block: BlockId| {
            spec.block(block)
                .insts
                .iter()
                .copied()
                .find(|i| !spec.inst(*i).kind.is_phi() && !spec.inst(*i).kind.is_dbg())
        };
        let mut frame = ssair::interp::Frame::enter(&spec, &[]);

        // (b) the surviving conditional still attributes both edges — the
        // direct one and the one through the arm the fold emptied — under
        // the baseline's block ids.
        let join_entry = first_real(join).expect("join keeps a real instruction");
        frame.block = join;
        frame.came_from = Some(c);
        assert_eq!(
            obs.taken_edge(&frame, join_entry),
            Some((mid, c)),
            "the emptied arm still attributes to the surviving branch"
        );
        if let Some(d_entry) = first_real(d) {
            frame.block = d;
            frame.came_from = Some(mid);
            assert_eq!(obs.taken_edge(&frame, d_entry), Some((mid, d)));
        }

        // (a) traffic through the blocks the *folded* branch left behind
        // is not misattributed to any branch: the chain upstream of `mid`
        // ends at an unconditional entry block now.
        let mid_entry = first_real(mid).expect("mid keeps the live comparison");
        frame.block = mid;
        frame.came_from = Some(arm_a);
        assert_eq!(
            obs.taken_edge(&frame, mid_entry),
            None,
            "no conditional edge exists upstream anymore — attributing one \
             would poison the shared profile"
        );
    }

    #[test]
    fn edge_observer_attributes_edges_through_empty_arms() {
        use ssair::{BinOp, FunctionBuilder, Ty};
        // cond ──► empty_arm ──► join        (then: no real instruction)
        //      └──────────────► join        (else: direct)
        let mut b = FunctionBuilder::new("g", &[("x", Ty::I64)]);
        let x = b.param(0);
        let three = b.const_i64(3);
        let cmp = b.binop(BinOp::Gt, x, three);
        let cond = b.current_block();
        let empty_arm = b.create_block("empty_arm");
        let join = b.create_block("join");
        b.cond_br(cmp, empty_arm, join);
        b.switch_to(empty_arm);
        b.br(join);
        b.switch_to(join);
        let r = b.binop(BinOp::Add, x, three);
        b.ret(Some(r));
        let f = b.finish();
        ssair::verify(&f).unwrap();

        let obs = EdgeObserver::for_function(&f);
        let join_entry = f
            .block(join)
            .insts
            .iter()
            .copied()
            .find(|i| !f.inst(*i).kind.is_phi() && !f.inst(*i).kind.is_dbg())
            .unwrap();
        let mut frame = ssair::interp::Frame::enter(&f, &[ssair::interp::Val::Int(5)]);
        frame.block = join;
        // Through the empty arm: attributed to the branch's edge into the
        // arm (the id the baseline would have profiled, were it non-empty).
        frame.came_from = Some(empty_arm);
        assert_eq!(obs.taken_edge(&frame, join_entry), Some((cond, empty_arm)));
        // Direct else edge: attributed as usual.
        frame.came_from = Some(cond);
        assert_eq!(obs.taken_edge(&frame, join_entry), Some((cond, join)));
    }

    #[test]
    fn edge_observer_attributes_edges_to_merged_blocks() {
        // Superblock formation (ssair's MergeBlocks) fuses a straight-line
        // chain into one block.  The conditional's successor ids — the
        // keys the baseline's edge profile biased on — survive the merge,
        // and the fused-in tail must not open a second attribution point.
        use ssair::passes::{MergeBlocks, Pass};
        use ssair::{BinOp, FunctionBuilder, Ty};
        // entry: cond_br (x > 3) a b
        // a:     a1 = x + 1 ; br m
        // m:     a2 = a1 * 2 ; br j     — fused into `a`
        // b:     b1 = x - 1 ; br j
        // j:     r = x * x ; ret r      — no φs, so the chain may fuse
        let mut bld = FunctionBuilder::new("g", &[("x", Ty::I64)]);
        let x = bld.param(0);
        let three = bld.const_i64(3);
        let one = bld.const_i64(1);
        let two = bld.const_i64(2);
        let cmp = bld.binop(BinOp::Gt, x, three);
        let entry = bld.current_block();
        let a = bld.create_block("a");
        let m = bld.create_block("m");
        let b = bld.create_block("b");
        let j = bld.create_block("j");
        bld.cond_br(cmp, a, b);
        bld.switch_to(a);
        let a1 = bld.binop(BinOp::Add, x, one);
        bld.br(m);
        bld.switch_to(m);
        let _a2 = bld.binop(BinOp::Mul, a1, two);
        bld.br(j);
        bld.switch_to(b);
        let _b1 = bld.binop(BinOp::Sub, x, one);
        bld.br(j);
        bld.switch_to(j);
        let r = bld.binop(BinOp::Mul, x, x);
        bld.ret(Some(r));
        let mut f = bld.finish();
        let mut cm = ssair::SsaMapper::new();
        assert!(MergeBlocks.run(&mut f, &mut cm), "the a → m chain fuses");
        ssair::verify(&f).unwrap();
        assert!(!f.block_exists(m), "m was fused into a");

        let obs = EdgeObserver::for_function(&f);
        let mut frame = ssair::interp::Frame::enter(&f, &[ssair::interp::Val::Int(5)]);
        frame.block = a;
        frame.came_from = Some(entry);
        // The conditional edge keys on the same successor id the baseline
        // profiled, witnessed by exactly one instruction of the merged
        // block (the fused-in tail is mid-block, not an entry point).
        let attributions: Vec<_> = f
            .block(a)
            .insts
            .iter()
            .filter_map(|&i| obs.taken_edge(&frame, i))
            .collect();
        assert_eq!(attributions, vec![(entry, a)]);
        // The merged block's outgoing edge is unconditional — never a
        // guard key, so it must not attribute.
        frame.block = j;
        frame.came_from = Some(a);
        let j_entry = f.block(j).insts[0];
        assert_eq!(obs.taken_edge(&frame, j_entry), None);
    }

    #[test]
    fn edge_observer_attributes_edges_through_threaded_forwarders() {
        // Jump threading (ssair's SimplifyJumps) retargets unconditional
        // predecessors of an empty forwarder while the conditional
        // predecessor deliberately keeps routing through it: the observer
        // must keep attributing the conditional's traffic to the
        // forwarder's id — the successor the baseline profiled.
        use ssair::passes::{Pass, SimplifyJumps};
        use ssair::{BinOp, FunctionBuilder, Ty};
        // entry: cond_br (x > 3) e q    — conditional predecessor of e
        // q:     q1 = x + 1 ; br e      — unconditional: threaded past e
        // e:     (empty) br t
        // t:     r = x * x ; ret r
        let mut bld = FunctionBuilder::new("g", &[("x", Ty::I64)]);
        let x = bld.param(0);
        let three = bld.const_i64(3);
        let one = bld.const_i64(1);
        let cmp = bld.binop(BinOp::Gt, x, three);
        let entry = bld.current_block();
        let e = bld.create_block("e");
        let q = bld.create_block("q");
        let t = bld.create_block("t");
        bld.cond_br(cmp, e, q);
        bld.switch_to(q);
        let _q1 = bld.binop(BinOp::Add, x, one);
        bld.br(e);
        bld.switch_to(e);
        bld.br(t);
        bld.switch_to(t);
        let r = bld.binop(BinOp::Mul, x, x);
        bld.ret(Some(r));
        let mut f = bld.finish();
        let mut cm = ssair::SsaMapper::new();
        assert!(SimplifyJumps.run(&mut f, &mut cm), "q threads past e");
        ssair::verify(&f).unwrap();
        assert!(f.block_exists(e), "the conditional predecessor keeps e");
        assert!(
            matches!(f.block(q).term, ssair::Terminator::Br(x2) if x2 == t),
            "the unconditional predecessor branches straight to t"
        );

        let obs = EdgeObserver::for_function(&f);
        let t_entry = f
            .block(t)
            .insts
            .iter()
            .copied()
            .find(|i| !f.inst(*i).kind.is_phi() && !f.inst(*i).kind.is_dbg())
            .unwrap();
        let mut frame = ssair::interp::Frame::enter(&f, &[ssair::interp::Val::Int(5)]);
        frame.block = t;
        // Through the surviving forwarder: attributed to the conditional's
        // edge into it, exactly as the baseline profiled.
        frame.came_from = Some(e);
        assert_eq!(obs.taken_edge(&frame, t_entry), Some((entry, e)));
        // The threaded predecessor's new direct edge is unconditional —
        // not a guard key, no attribution (same as before the threading,
        // where q reached t through the multi-predecessor e).
        frame.came_from = Some(q);
        assert_eq!(obs.taken_edge(&frame, t_entry), None);
    }

    #[test]
    fn call_profile_aggregates_and_flushes_with_the_local_buffer() {
        let t = ProfileTable::default();
        let site = InstId(9);
        let mut local = LocalProfile::default();
        *local.calls.entry((site, "helper".to_string())).or_insert(0) += 12;
        *local.calls.entry((site, "other".to_string())).or_insert(0) += 1;
        assert!(!local.is_empty(), "call observations make the buffer dirty");
        // Steady state: no epoch movement, no force — no drain.
        assert!(!t.flush_local("caller", Tier::BASELINE, &mut local, false));
        t.advance_epoch();
        assert!(t.flush_local("caller", Tier::BASELINE, &mut local, false));
        assert!(local.calls.is_empty(), "drained");
        t.record_calls("caller", [((site, "helper".to_string()), 8)]);
        let totals = t.call_site_totals("caller");
        let callees = &totals[&site];
        assert!(callees.contains(&("helper".to_string(), 20)));
        assert!(callees.contains(&("other".to_string(), 1)));
        assert!(t.call_site_totals("nobody").is_empty());
    }

    #[test]
    fn inline_sites_need_samples_dominance_and_budget() {
        let t = ProfileTable::default();
        let policy = InlineSpeculationPolicy {
            min_samples: 10,
            dominance_percent: 90,
            callee_budget: 20,
        };
        let hot = InstId(3);
        let cold = InstId(5);
        let mega = InstId(7);
        t.record_calls("caller", [((hot, "helper".to_string()), 19)]);
        t.record_calls("caller", [((hot, "rare".to_string()), 1)]);
        t.record_calls("caller", [((cold, "helper".to_string()), 5)]);
        t.record_calls(
            "caller",
            [
                ((mega, "a".to_string()), 6),
                ((mega, "b".to_string()), 6),
                ((mega, "c".to_string()), 6),
            ],
        );
        let sites = t.inline_sites("caller", &policy, |_| Some(10));
        assert_eq!(
            sites,
            vec![(hot, "helper".to_string())],
            "only the sampled, dominated site qualifies"
        );
        // The callee-size budget and the non-inlinable filter both veto.
        assert!(t.inline_sites("caller", &policy, |_| Some(21)).is_empty());
        assert!(t.inline_sites("caller", &policy, |_| None).is_empty());
        assert!(t.inline_sites("nobody", &policy, |_| Some(1)).is_empty());
    }

    #[test]
    fn call_site_attribution_survives_merge_blocks() {
        // A call site fused into a superblock keeps its InstId — the key
        // the call-edge profile attributes samples to — so samples
        // recorded before block merging still nominate the surviving
        // instruction afterwards.
        use ssair::passes::{MergeBlocks, Pass};
        use ssair::{BinOp, FunctionBuilder, Ty};
        // entry → m (call helper) → exit: a pure Br chain MergeBlocks
        // collapses into one superblock.
        let mut bld = FunctionBuilder::new("caller", &[("x", Ty::I64)]);
        let x = bld.param(0);
        let entry = bld.current_block();
        let m = bld.create_block("m");
        let exit = bld.create_block("exit");
        let one = bld.const_i64(1);
        let t0 = bld.binop(BinOp::Add, x, one);
        bld.br(m);
        bld.switch_to(m);
        let call = bld.call("helper", &[t0]);
        bld.br(exit);
        bld.switch_to(exit);
        let r = bld.binop(BinOp::Mul, call, call);
        bld.ret(Some(r));
        let mut f = bld.finish();
        let site = f
            .block(m)
            .insts
            .iter()
            .copied()
            .find(|i| matches!(f.inst(*i).kind, ssair::InstKind::Call { .. }))
            .unwrap();

        // Samples recorded against the pre-merge shape.
        let t = ProfileTable::default();
        t.record_calls("caller", [((site, "helper".to_string()), 32)]);

        let mut cm = ssair::SsaMapper::new();
        assert!(MergeBlocks.run(&mut f, &mut cm), "the Br chain fuses");
        ssair::verify(&f).unwrap();
        assert!(f.inst_is_live(site), "the call survives under its id");
        assert_eq!(
            f.block_of(site),
            Some(entry),
            "the site now lives in the surviving superblock"
        );
        let sites = t.inline_sites("caller", &InlineSpeculationPolicy::default(), |_| Some(4));
        assert_eq!(
            sites,
            vec![(site, "helper".to_string())],
            "attribution keyed by pc is untouched by the merge"
        );
    }

    #[test]
    fn call_site_attribution_survives_simplify_jumps() {
        // Jump threading rewrites terminators and φ-incomings but never
        // creates, deletes, or moves an instruction: a call site next to a
        // threaded-away forwarder keeps both its id and its block, and
        // call-edge samples keep attributing to it.
        use ssair::passes::{Pass, SimplifyJumps};
        use ssair::{BinOp, FunctionBuilder, Ty};
        // entry: cond_br (x > 3) e q;  q: call helper; br e;
        // e: (empty) br t;  t: ret — q threads straight to t.
        let mut bld = FunctionBuilder::new("caller", &[("x", Ty::I64)]);
        let x = bld.param(0);
        let three = bld.const_i64(3);
        let cmp = bld.binop(BinOp::Gt, x, three);
        let e = bld.create_block("e");
        let q = bld.create_block("q");
        let t_bb = bld.create_block("t");
        bld.cond_br(cmp, e, q);
        bld.switch_to(q);
        let call = bld.call("helper", &[x]);
        bld.br(e);
        bld.switch_to(e);
        bld.br(t_bb);
        bld.switch_to(t_bb);
        let r = bld.binop(BinOp::Mul, x, x);
        bld.ret(Some(r));
        let _ = (call, r);
        let mut f = bld.finish();
        let site = f
            .block(q)
            .insts
            .iter()
            .copied()
            .find(|i| matches!(f.inst(*i).kind, ssair::InstKind::Call { .. }))
            .unwrap();

        let table = ProfileTable::default();
        table.record_calls("caller", [((site, "helper".to_string()), 32)]);

        let mut cm = ssair::SsaMapper::new();
        assert!(SimplifyJumps.run(&mut f, &mut cm), "q threads past e");
        ssair::verify(&f).unwrap();
        assert!(f.inst_is_live(site));
        assert_eq!(f.block_of(site), Some(q), "the call never moved");
        assert!(
            matches!(f.block(q).term, ssair::Terminator::Br(x2) if x2 == t_bb),
            "the threading rewired q's terminator around the forwarder"
        );
        let sites = table.inline_sites("caller", &InlineSpeculationPolicy::default(), |_| Some(4));
        assert_eq!(sites, vec![(site, "helper".to_string())]);
    }
}
