//! The tier transition graph: which pipeline each rung runs, which hops
//! between rungs are allowed, and when a hot function takes them.
//!
//! A [`TierPolicy`] exposes a [`TierGraph`] — rungs plus allowed up/down
//! edges with per-edge thresholds — instead of the old baked-in pair of
//! thresholds: the [`crate::Engine`]'s controller reads the shared
//! `(function, tier)` counter of the rung a frame currently runs
//! ([`tinyvm::profile::ProfileTable`]) and follows the graph's outgoing
//! *up* edge once that counter crosses the edge's threshold; a guard
//! failure follows one of the graph's *down* edges.
//!
//! The policy also owns the *speculation* knobs: the per-rung guard
//! policy ([`TierPolicy::speculation_at`] — deeper rungs speculate more
//! aggressively by default), where a failing frame falls
//! ([`TierPolicy::deopt_strategy`], adaptive by default: one rung when
//! the rung below is bias-neutral for the failing branch, the baseline
//! otherwise), and how repeated deopts and the code cache's hit rate
//! reshape the climb thresholds ([`TierPolicy::threshold_after_deopts`],
//! [`TierPolicy::threshold_with_cache`]).

use std::fmt;

use crate::cache::PipelineSpec;

pub use tinyvm::profile::{SpeculationPolicy, Tier, ValueSpeculationPolicy};

/// One allowed transition of a [`TierGraph`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TierEdge {
    /// Rung the edge leaves.
    pub from: Tier,
    /// Rung the edge enters.
    pub to: Tier,
    /// For an *up* edge: cumulative shared `(function, from)` OSR-point
    /// visits before the hop becomes eligible.  Down edges are
    /// threshold-free (guards decide when they fire) and carry `0`.
    pub threshold: u64,
}

/// The transition graph over N rungs: `Tier(0)` is the baseline
/// interpreter, `Tier(k)` for `k ≥ 1` runs `rungs()[k-1]`, and the only
/// legal hops are the listed edges.
///
/// [`TierGraph::chain`] builds the standard ladder shape — up edges
/// `k → k+1` gated by per-edge thresholds, down edges `k → k-1` (the
/// adaptive one-rung deopt) and `k → 0` (the full deopt) — but arbitrary
/// DAG-shaped graphs (skip edges, multiple down targets) are legal as
/// long as up edges go up and down edges go down.
#[derive(Clone, Debug)]
pub struct TierGraph {
    rungs: Vec<PipelineSpec>,
    up: Vec<TierEdge>,
    down: Vec<TierEdge>,
}

impl TierGraph {
    /// A graph from explicit rungs and edges.
    ///
    /// # Panics
    ///
    /// Panics when an edge references a rung outside the graph or does
    /// not strictly ascend/descend — a policy-construction bug, never a
    /// user error.
    pub fn new(rungs: Vec<PipelineSpec>, edges: Vec<TierEdge>) -> Self {
        let top = rungs.len() as u8;
        let (mut up, mut down) = (Vec::new(), Vec::new());
        for e in edges {
            assert!(
                e.from.0 <= top && e.to.0 <= top && e.from != e.to,
                "edge {:?}→{:?} leaves the {top}-rung graph",
                e.from,
                e.to
            );
            if e.to > e.from {
                up.push(e);
            } else {
                down.push(e);
            }
        }
        // Down edges out of one rung are tried highest-target-first.
        down.sort_by(|a, b| a.from.cmp(&b.from).then(b.to.cmp(&a.to)));
        TierGraph { rungs, up, down }
    }

    /// The standard ladder: up edges `k → k+1` (edge `k`'s threshold is
    /// `rungs[k].1`, the visits at `Tier(k)` before `Tier(k+1)` becomes
    /// eligible), down edges `k → k-1` and `k → 0` from every optimized
    /// rung.
    pub fn chain(rungs: Vec<(PipelineSpec, u64)>) -> Self {
        let mut edges = Vec::new();
        for (k, (_, threshold)) in rungs.iter().enumerate() {
            let k = k as u8;
            edges.push(TierEdge {
                from: Tier(k),
                to: Tier(k + 1),
                threshold: *threshold,
            });
            let from = Tier(k + 1);
            edges.push(TierEdge {
                from,
                to: Tier(k),
                threshold: 0,
            });
            if k > 0 {
                edges.push(TierEdge {
                    from,
                    to: Tier::BASELINE,
                    threshold: 0,
                });
            }
        }
        TierGraph::new(rungs.into_iter().map(|(spec, _)| spec).collect(), edges)
    }

    /// The optimized rungs in ascending order: `rungs()[k-1]` is the
    /// pipeline of `Tier(k)`.
    pub fn rungs(&self) -> &[PipelineSpec] {
        &self.rungs
    }

    /// The highest rung.
    pub fn top(&self) -> Tier {
        Tier(self.rungs.len() as u8)
    }

    /// The pipeline of `tier` (`None` for the baseline or rungs above the
    /// graph).
    pub fn spec(&self, tier: Tier) -> Option<&PipelineSpec> {
        if tier.is_baseline() {
            None
        } else {
            self.rungs.get(tier.0 as usize - 1)
        }
    }

    /// The up edge out of `from`, if the graph has one (the first listed
    /// wins when a custom graph declares several).
    pub fn up_edge(&self, from: Tier) -> Option<&TierEdge> {
        self.up.iter().find(|e| e.from == from)
    }

    /// The down-edge targets out of `from`, highest rung first — the
    /// candidate landing rungs of an adaptive deopt.
    pub fn down_targets(&self, from: Tier) -> impl Iterator<Item = Tier> + '_ {
        self.down
            .iter()
            .filter(move |e| e.from == from)
            .map(|e| e.to)
    }

    /// Whether the graph allows a direct `from → to` hop.
    pub fn has_edge(&self, from: Tier, to: Tier) -> bool {
        self.up
            .iter()
            .chain(self.down.iter())
            .any(|e| e.from == from && e.to == to)
    }

    /// Every edge of the graph (up edges first).
    pub fn edges(&self) -> impl Iterator<Item = &TierEdge> {
        self.up.iter().chain(self.down.iter())
    }
}

/// Where a bias-kind assumption violation (a branch guard firing — see
/// [`crate::DeoptReason::AssumptionViolated`]) lands the deopting frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeoptStrategy {
    /// Follow the graph's down edges to the highest rung that is
    /// *bias-neutral* for the failing branch — a rung whose speculation
    /// policy ([`TierPolicy::speculation_at`]) would not guard the branch
    /// under the current profile, so the landed frame keeps the rest of
    /// its optimization instead of re-interpreting everything.  When
    /// every intermediate candidate still speculates on the branch, fall
    /// all the way to the baseline, where the edge profile is corrected
    /// fastest.
    Adaptive,
    /// Always fall to the given rung.  Clamped to the baseline — always
    /// a legal emergency landing, every artifact carries a direct
    /// backward table — when the target is not below the deopting
    /// frame's rung or the graph declares no such down edge.
    Fixed(Tier),
}

/// Policy hook deciding the engine's tier transition graph: the pipeline
/// rungs above the baseline interpreter, the allowed hops between them,
/// and the thresholds/speculation knobs that gate each hop.
pub trait TierPolicy: fmt::Debug + Send + Sync {
    /// The transition graph.
    fn graph(&self) -> &TierGraph;

    /// The optimized rungs in ascending order: `ladder()[k-1]` is the
    /// pipeline of `Tier(k)`.  An empty ladder never tiers up.
    fn ladder(&self) -> &[PipelineSpec] {
        self.graph().rungs()
    }

    /// Cumulative shared `(function, from)` OSR-point visits before the
    /// up edge out of `from` becomes eligible (compile enqueued, then
    /// transition once the artifact and — off the baseline — the composed
    /// table are ready).
    fn threshold(&self, from: Tier) -> u64 {
        self.graph().up_edge(from).map_or(u64::MAX, |e| e.threshold)
    }

    /// The highest rung.
    fn top(&self) -> Tier {
        self.graph().top()
    }

    /// The pipeline of `tier` (`None` for the baseline or rungs above the
    /// graph).
    fn spec(&self, tier: Tier) -> Option<&PipelineSpec> {
        self.graph().spec(tier)
    }

    /// The rung the up edge out of `from` enters, if the graph has one.
    fn next_tier(&self, from: Tier) -> Option<Tier> {
        self.graph().up_edge(from).map(|e| e.to)
    }

    /// The base speculation-guard knobs.
    fn speculation(&self) -> SpeculationPolicy {
        SpeculationPolicy::default()
    }

    /// The speculation-guard knobs frames at `tier` run under.  Default:
    /// the base [`TierPolicy::speculation`] at every rung; policies with
    /// a speculation *gradient* (deeper rungs guard more branches) return
    /// rung-specific knobs here — which is what gives the adaptive deopt
    /// its one-rung landing sites.
    fn speculation_at(&self, _tier: Tier) -> SpeculationPolicy {
        self.speculation()
    }

    /// Where a frame whose guard failed at `from` falls.  Default:
    /// [`DeoptStrategy::Adaptive`].
    fn deopt_strategy(&self, _from: Tier) -> DeoptStrategy {
        DeoptStrategy::Adaptive
    }

    /// The *value*-speculation knobs: when an argument slot's observed
    /// values are stable enough that a climb may target a constant-seeded
    /// specialized version of the next rung ([`ValueSpeculationPolicy`]).
    /// `None` disables value speculation entirely (climbs only ever use
    /// generic artifacts).  Default: the standard knobs (16 samples, 90%
    /// stability).
    fn value_speculation(&self) -> Option<ValueSpeculationPolicy> {
        Some(ValueSpeculationPolicy::default())
    }

    /// The climb threshold at `from` after `deopts` recorded
    /// speculation-failure deopts of the function: adaptive demotion.
    /// Default: the base threshold doubles per deopt, capped at 64× —
    /// a function that repeatedly speculates wrong re-earns each rung
    /// with a longer profile, but a long-lived service never pins a
    /// function to the interpreter permanently (demotion is a delay, not
    /// a one-way ratchet).
    fn threshold_after_deopts(&self, from: Tier, deopts: u64) -> u64 {
        const MAX_DEMOTION_SHIFT: u64 = 6;
        let factor = 1u64 << deopts.min(MAX_DEMOTION_SHIFT);
        self.threshold(from).saturating_mul(factor)
    }

    /// The climb threshold at `from` given every adaptive input: recorded
    /// deopts plus the code cache's probe history `(hits, misses)` for
    /// the *next* rung's `(function, pipeline)` artifact.  Default: the
    /// demoted threshold, halved when at least ¾ of the probes hit (the
    /// artifact is routinely ready — compiling is effectively free, climb
    /// sooner) and doubled under sustained misses (at least ¾ — the
    /// compile pipeline is behind this function, don't pile on).  Fewer
    /// than 4 probes adapt nothing.
    fn threshold_with_cache(&self, from: Tier, deopts: u64, hits: u64, misses: u64) -> u64 {
        const MIN_PROBES: u64 = 4;
        let base = self.threshold_after_deopts(from, deopts);
        let total = hits + misses;
        if total < MIN_PROBES || base == u64::MAX {
            return base;
        }
        if hits * 4 >= total * 3 {
            (base / 2).max(1)
        } else if misses * 4 >= total * 3 {
            base.saturating_mul(2)
        } else {
            base
        }
    }
}

/// How many percentage points of branch bias each rung below the top
/// rung adds to its guard requirement under [`LadderPolicy`]'s default
/// speculation gradient (see [`LadderPolicy::with_bias_step`]).
pub const DEFAULT_BIAS_STEP: u8 = 5;

/// A climb threshold no realistic request stream reaches (`2⁴⁰` visits).
/// Ladders built with every threshold at this value never tier up — how
/// differential tests drive compile-heavy kernels through the engine
/// path without paying for their optimized-rung compiles.
pub const NEVER_HOT: u64 = 1 << 40;

/// The standard [`TierPolicy`]: a chain-shaped [`TierGraph`] from
/// explicit `(pipeline, threshold)` rungs, a per-rung speculation
/// gradient, and configurable deopt strategy.
#[derive(Clone, Debug)]
pub struct LadderPolicy {
    graph: TierGraph,
    speculation: SpeculationPolicy,
    value_speculation: Option<ValueSpeculationPolicy>,
    strategy: DeoptStrategy,
    /// Per-rung bias tightening below the top (percentage points per
    /// rung): rung `top - d` guards a branch only at
    /// `bias_percent + d * bias_step` (capped at 100).
    bias_step: u8,
}

impl LadderPolicy {
    /// A chain graph from explicit `(pipeline, threshold)` rungs;
    /// `threshold` of rung `k` is the visit count at `Tier(k-1)` that
    /// makes the climb to `Tier(k)` eligible.
    pub fn new(rungs: Vec<(PipelineSpec, u64)>) -> Self {
        LadderPolicy::from_graph(TierGraph::chain(rungs))
    }

    /// A policy over an explicit (possibly non-chain) transition graph.
    pub fn from_graph(graph: TierGraph) -> Self {
        LadderPolicy {
            graph,
            speculation: SpeculationPolicy::default(),
            value_speculation: Some(ValueSpeculationPolicy::default()),
            strategy: DeoptStrategy::Adaptive,
            bias_step: DEFAULT_BIAS_STEP,
        }
    }

    /// Overrides the top rung's speculation-guard knobs (lower rungs
    /// tighten them by the bias step).
    #[must_use]
    pub fn with_speculation(mut self, speculation: SpeculationPolicy) -> Self {
        self.speculation = speculation;
        self
    }

    /// Replaces the adaptive deopt with a fixed guard-failure fallback
    /// rung (clamped below the deopting frame's rung at fire time).
    #[must_use]
    pub fn with_deopt_target(mut self, target: Tier) -> Self {
        self.strategy = DeoptStrategy::Fixed(target);
        self
    }

    /// Overrides the value-speculation knobs; `None` disables value
    /// speculation (climbs only ever target generic artifacts).
    #[must_use]
    pub fn with_value_speculation(mut self, policy: Option<ValueSpeculationPolicy>) -> Self {
        self.value_speculation = policy;
        self
    }

    /// Overrides the speculation gradient: each rung below the top
    /// requires `step` more percentage points of branch bias before it
    /// guards.  `0` makes every rung speculate identically (an adaptive
    /// deopt then always falls to the baseline, since a branch biased
    /// enough to fail at rung `k` is biased enough to guard at `k-1`).
    #[must_use]
    pub fn with_bias_step(mut self, step: u8) -> Self {
        self.bias_step = step;
        self
    }

    /// The full SSA chain `O0 → O1 → O2 → O3` (the pre-machine default
    /// graph).
    pub fn three_tier(o1_after: u64, o2_after: u64, o3_after: u64) -> Self {
        LadderPolicy::new(vec![
            (PipelineSpec::O1, o1_after),
            (PipelineSpec::O2, o2_after),
            (PipelineSpec::O3, o3_after),
        ])
    }

    /// The default graph: the `O0 → O1 → O2 → O3 → O4` chain ending at
    /// the register-allocated machine rung ([`PipelineSpec::O4`]) with
    /// the default thresholds.
    pub fn four_tier(o1_after: u64, o2_after: u64, o3_after: u64, o4_after: u64) -> Self {
        LadderPolicy::new(vec![
            (PipelineSpec::O1, o1_after),
            (PipelineSpec::O2, o2_after),
            (PipelineSpec::O3, o3_after),
            (PipelineSpec::O4, o4_after),
        ])
    }

    /// A two-rung chain: `O1` once a function's baseline visits reach
    /// `o1_after`, then `O2` once its O1 visits reach `o2_after`.
    pub fn two_tier(o1_after: u64, o2_after: u64) -> Self {
        LadderPolicy::new(vec![
            (PipelineSpec::O1, o1_after),
            (PipelineSpec::O2, o2_after),
        ])
    }
}

impl Default for LadderPolicy {
    /// The default transition graph: `O0 → O1 → O2 → O3 → O4`, topped
    /// by the register-allocated machine rung.
    fn default() -> Self {
        LadderPolicy::four_tier(32, 96, 224, 448)
    }
}

impl TierPolicy for LadderPolicy {
    fn graph(&self) -> &TierGraph {
        &self.graph
    }

    fn speculation(&self) -> SpeculationPolicy {
        self.speculation
    }

    fn speculation_at(&self, tier: Tier) -> SpeculationPolicy {
        let depth = self.graph.top().0.saturating_sub(tier.0);
        let tightened = self
            .speculation
            .bias_percent
            .saturating_add(self.bias_step.saturating_mul(depth))
            .min(100);
        SpeculationPolicy {
            bias_percent: tightened,
            ..self.speculation
        }
    }

    fn deopt_strategy(&self, _from: Tier) -> DeoptStrategy {
        self.strategy
    }

    fn value_speculation(&self) -> Option<ValueSpeculationPolicy> {
        self.value_speculation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_graph_indexing() {
        let p = LadderPolicy::two_tier(8, 24);
        assert_eq!(p.top(), Tier(2));
        assert_eq!(p.spec(Tier::BASELINE), None);
        assert_eq!(p.spec(Tier(1)), Some(&PipelineSpec::O1));
        assert_eq!(p.spec(Tier(2)), Some(&PipelineSpec::O2));
        assert_eq!(p.spec(Tier(3)), None);
        assert_eq!(p.threshold(Tier::BASELINE), 8);
        assert_eq!(p.threshold(Tier(1)), 24);
        assert_eq!(p.threshold(Tier(2)), u64::MAX, "top never climbs");
        assert_eq!(p.next_tier(Tier::BASELINE), Some(Tier(1)));
        assert_eq!(p.next_tier(Tier(2)), None);
    }

    #[test]
    fn default_graph_is_the_machine_topped_chain() {
        let p = LadderPolicy::default();
        assert_eq!(p.top(), Tier(4));
        assert_eq!(
            p.ladder(),
            &[
                PipelineSpec::O1,
                PipelineSpec::O2,
                PipelineSpec::O3,
                PipelineSpec::O4
            ]
        );
        assert_eq!(p.next_tier(Tier(3)), Some(Tier(4)));
    }

    #[test]
    fn chain_down_edges_offer_one_rung_then_baseline() {
        let g = LadderPolicy::three_tier(8, 24, 48).graph().clone();
        assert_eq!(
            g.down_targets(Tier(3)).collect::<Vec<_>>(),
            vec![Tier(2), Tier::BASELINE],
            "highest candidate first"
        );
        assert_eq!(
            g.down_targets(Tier(1)).collect::<Vec<_>>(),
            vec![Tier::BASELINE],
            "O1 has only the full deopt"
        );
        assert!(g.has_edge(Tier(2), Tier(3)));
        assert!(g.has_edge(Tier(3), Tier(0)));
        assert!(!g.has_edge(Tier(1), Tier(3)), "no skip edges in a chain");
        assert_eq!(g.edges().count(), 3 + 3 + 2);
    }

    #[test]
    #[should_panic(expected = "leaves the 1-rung graph")]
    fn graph_rejects_out_of_range_edges() {
        TierGraph::new(
            vec![PipelineSpec::O1],
            vec![TierEdge {
                from: Tier(1),
                to: Tier(2),
                threshold: 1,
            }],
        );
    }

    #[test]
    fn empty_ladder_never_tiers() {
        let p = LadderPolicy::new(vec![]);
        assert_eq!(p.top(), Tier::BASELINE);
        assert_eq!(p.next_tier(Tier::BASELINE), None);
    }

    #[test]
    fn tier_display() {
        assert_eq!(Tier::BASELINE.to_string(), "O0");
        assert_eq!(Tier(2).to_string(), "O2");
        assert!(Tier::BASELINE.is_baseline());
        assert_eq!(Tier::BASELINE.next(), Tier(1));
    }

    #[test]
    fn thresholds_demote_adaptively_after_deopts() {
        let p = LadderPolicy::two_tier(8, 24);
        assert_eq!(p.threshold_after_deopts(Tier::BASELINE, 0), 8);
        assert_eq!(p.threshold_after_deopts(Tier::BASELINE, 1), 16);
        assert_eq!(p.threshold_after_deopts(Tier::BASELINE, 3), 64);
        assert_eq!(p.threshold_after_deopts(Tier(1), 2), 96);
        assert_eq!(
            p.threshold_after_deopts(Tier::BASELINE, 200),
            8 * 64,
            "demotion is capped: a function can always re-climb eventually"
        );
        assert_eq!(
            p.threshold_after_deopts(Tier(2), 1),
            u64::MAX,
            "rungs above the graph stay unclimbable"
        );
    }

    #[test]
    fn thresholds_adapt_to_cache_hit_rates() {
        let p = LadderPolicy::two_tier(8, 24);
        let t = |hits, misses| p.threshold_with_cache(Tier::BASELINE, 0, hits, misses);
        assert_eq!(t(0, 0), 8, "no probes: base threshold");
        assert_eq!(t(3, 0), 8, "below the probe minimum: no adaptation");
        assert_eq!(t(4, 0), 4, "hot cache halves the threshold");
        assert_eq!(t(9, 3), 4, "75% hits still halves");
        assert_eq!(t(0, 4), 16, "sustained misses double it");
        assert_eq!(t(2, 2), 8, "mixed probes leave it alone");
        assert_eq!(
            p.threshold_with_cache(Tier(2), 0, 100, 0),
            u64::MAX,
            "the top rung stays unclimbable no matter how warm the cache"
        );
        assert_eq!(
            p.threshold_with_cache(Tier::BASELINE, 1, 8, 0),
            8,
            "cache adaptation composes with deopt demotion (16 / 2)"
        );
    }

    #[test]
    fn speculation_gradient_tightens_below_the_top() {
        let p = LadderPolicy::three_tier(8, 24, 48);
        assert_eq!(p.speculation_at(Tier(3)).bias_percent, 90, "top: base");
        assert_eq!(p.speculation_at(Tier(2)).bias_percent, 95);
        assert_eq!(p.speculation_at(Tier(1)).bias_percent, 100);
        let flat = LadderPolicy::three_tier(8, 24, 48).with_bias_step(0);
        assert_eq!(flat.speculation_at(Tier(1)).bias_percent, 90, "no gradient");
    }

    #[test]
    fn speculation_knobs_are_configurable() {
        let p = LadderPolicy::two_tier(8, 24);
        assert_eq!(
            p.deopt_strategy(Tier(2)),
            DeoptStrategy::Adaptive,
            "default: adaptive one-rung deopt"
        );
        assert_eq!(
            p.speculation().tolerance,
            SpeculationPolicy::default().tolerance
        );
        let custom = LadderPolicy::two_tier(8, 24)
            .with_deopt_target(Tier(1))
            .with_speculation(SpeculationPolicy {
                min_samples: 4,
                bias_percent: 75,
                tolerance: 2,
            });
        assert_eq!(
            custom.deopt_strategy(Tier(2)),
            DeoptStrategy::Fixed(Tier(1))
        );
        assert_eq!(custom.speculation().bias_percent, 75);
    }
}
