//! Substrate parity of `Vm::run_tiered`'s decision handler: one scripted
//! controller drives the same kernel twice — once with the optimized
//! version backed by its register-machine artifact, once interpreting the
//! same SSA function — and everything the controller and the caller can
//! see must be identical: results, transition events, the observation
//! stream, the refusal callbacks, and the mandatory-hop failure.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ssair::feasibility::{precompute_entries, EntryTable};
use ssair::interp::{ExecError, Val};
use ssair::machine::{lower_function, MachineArtifact};
use ssair::reconstruct::{CompStep, Direction, Variant};
use ssair::{BlockId, Function, InstId, ValueId};
use tinyvm::profile::{Tier, TierController, TierDecision, TierTarget};
use tinyvm::runtime::{OsrEvent, TransitionOptions, Vm};
use tinyvm::FunctionVersions;

const KERNEL: &str = "fn grid(n, seed) {
    var acc = seed;
    for (var i = 0; i < n; i = i + 1) {
        var row = i * 3 + seed;
        for (var j = 0; j < n; j = j + 1) {
            if ((i + j) % 3 == 0) { acc = acc + row * j; } else { acc = acc - j; }
        }
        acc = acc % 100003;
    }
    return acc;
}";

/// Observation numbers (1-based, counted over `observe` calls across all
/// versions) at which the script acts.
const HOP_UP: usize = 3;
const REFUSED: usize = 7;
const HOP_DOWN: usize = 12;

/// What the script does at observation [`REFUSED`].
#[derive(Clone, Copy, PartialEq, Debug)]
enum Refusal {
    /// Nothing — the reference stream a refused hop must not disturb.
    Skip,
    /// A hop whose table has no entry at the point.
    Optional,
    /// The same, marked mandatory.
    Mandatory,
}

struct Fixture {
    opt: Arc<Function>,
    base: Arc<Function>,
    up: Arc<EntryTable>,
    down: Arc<EntryTable>,
    empty: Arc<EntryTable>,
    pinned: Vec<(ValueId, Val)>,
}

struct Script<'a> {
    fx: &'a Fixture,
    machine: Option<Arc<MachineArtifact>>,
    refusal: Refusal,
    observations: Vec<(InstId, usize)>,
    edges: Vec<(BlockId, BlockId, InstId)>,
    infeasible: Vec<InstId>,
    landed: Vec<InstId>,
}

impl Script<'_> {
    fn hop(&self, target: &Arc<Function>, table: &Arc<EntryTable>, up: bool) -> TierTarget {
        TierTarget {
            target: Arc::clone(target),
            table: Arc::clone(table),
            direction: if up {
                Direction::Forward
            } else {
                Direction::Backward
            },
            rung: if up { Tier(1) } else { Tier::BASELINE },
            pinned: self.fx.pinned.clone(),
            mandatory: false,
            machine: if up { self.machine.clone() } else { None },
            violated: None,
        }
    }
}

impl TierController for Script<'_> {
    fn observe(&mut self, at: InstId, count: usize) -> TierDecision {
        self.observations.push((at, count));
        let fx = self.fx;
        match self.observations.len() {
            HOP_UP => TierDecision::Transition(self.hop(&fx.opt, &fx.up, true)),
            REFUSED if self.refusal != Refusal::Skip => TierDecision::Transition(TierTarget {
                mandatory: self.refusal == Refusal::Mandatory,
                ..self.hop(&fx.opt, &fx.empty, true)
            }),
            HOP_DOWN => TierDecision::Transition(self.hop(&fx.base, &fx.down, false)),
            _ => TierDecision::Continue,
        }
    }

    fn observes_edges(&self) -> bool {
        true
    }

    fn observe_edge(&mut self, from: BlockId, to: BlockId, at: InstId) -> TierDecision {
        self.edges.push((from, to, at));
        TierDecision::Continue
    }

    fn on_infeasible(&mut self, at: InstId) {
        self.infeasible.push(at);
    }

    fn on_transition(&mut self, at: InstId) {
        self.landed.push(at);
    }
}

/// The fields of an event that do not depend on the clock.
fn shape(e: &OsrEvent) -> (Direction, InstId, InstId, Tier, usize, usize) {
    (
        e.direction,
        e.from,
        e.to,
        e.rung,
        e.comp_size,
        e.transferred,
    )
}

#[test]
fn decision_handler_behaves_identically_on_both_substrates() {
    let module = minic::compile(KERNEL).expect("kernel compiles");
    let v = FunctionVersions::standard(module.get("grid").expect("entry exists").clone());
    let args = [Val::Int(9), Val::Int(5)];
    let up = precompute_entries(&v.pair(), Direction::Forward, Variant::Avail);
    let down = precompute_entries(&v.pair(), Direction::Backward, Variant::Avail);
    // Shadow roots as a code cache chooses them: everything the backward
    // table reads must survive in the register frame.
    let roots: BTreeSet<ValueId> = down
        .entries
        .values()
        .flat_map(|(_, entry)| &entry.comp.steps)
        .filter_map(|step| match step {
            CompStep::Transfer { src, .. } => Some(*src),
            _ => None,
        })
        .collect();
    let artifact = Arc::new(lower_function(&v.opt, &roots));
    let fx = Fixture {
        empty: Arc::new(EntryTable {
            entries: BTreeMap::new(),
            ..up.clone()
        }),
        up: Arc::new(up),
        down: Arc::new(down),
        pinned: (0..).map(ValueId).zip(args).collect(),
        opt: Arc::new(v.opt.clone()),
        base: Arc::new(v.base.clone()),
    };
    let vm = Vm::new(module);
    let expected = vm.run_plain(&v.base, &args).expect("plain run");
    let run = |machine: Option<&Arc<MachineArtifact>>, refusal| {
        let mut script = Script {
            fx: &fx,
            machine: machine.cloned(),
            refusal,
            observations: Vec::new(),
            edges: Vec::new(),
            infeasible: Vec::new(),
            landed: Vec::new(),
        };
        let outcome = vm.run_tiered(&v.base, &args, &TransitionOptions::default(), &mut script);
        (outcome, script)
    };

    let jumps_before = artifact.jump_counts();
    let (on_machine, m) = run(Some(&artifact), Refusal::Optional);
    let (on_ssa, s) = run(None, Refusal::Optional);
    assert_ne!(
        artifact.jump_counts(),
        jumps_before,
        "the artifact accepted the frame: the first run really executed in registers"
    );

    let (m_result, m_events) = on_machine.expect("machine-backed run");
    let (s_result, s_events) = on_ssa.expect("interpreted run");
    assert_eq!(m_result, expected);
    assert_eq!(s_result, expected);
    let shapes: Vec<_> = m_events.iter().map(shape).collect();
    assert_eq!(shapes, s_events.iter().map(shape).collect::<Vec<_>>());
    assert_eq!(
        shapes.iter().map(|e| (e.0, e.3)).collect::<Vec<_>>(),
        [
            (Direction::Forward, Tier(1)),
            (Direction::Backward, Tier::BASELINE)
        ],
        "the climb and the deopt both landed"
    );
    assert_eq!(m.observations, s.observations);
    assert_eq!(m.edges, s.edges);
    assert_eq!(m.landed, s.landed);
    assert_eq!(m.landed.len(), 2);
    // One refusal, reported once, at the point that asked.
    assert_eq!(m.infeasible, [m.observations[REFUSED - 1].0]);
    assert_eq!(s.infeasible, m.infeasible);

    // A refused hop is observationally a no-op: the visit that asked is
    // counted once, so the stream equals that of a run that never asked.
    for machine in [Some(&artifact), None] {
        let (outcome, quiet) = run(machine, Refusal::Skip);
        assert_eq!(outcome.expect("reference run").0, expected);
        assert!(quiet.infeasible.is_empty());
        assert_eq!(quiet.observations, m.observations);
        assert_eq!(quiet.edges, m.edges);
    }

    // The same refusal, marked mandatory, aborts the run on both.
    for machine in [Some(&artifact), None] {
        let (outcome, script) = run(machine, Refusal::Mandatory);
        assert_eq!(outcome.err(), Some(ExecError::MandatoryTransitionFailed));
        assert!(script.infeasible.is_empty(), "aborted, not refused");
        assert_eq!(script.observations.len(), REFUSED);
        assert_eq!(script.observations, m.observations[..REFUSED]);
    }
}
