//! The VM: profiling interpretation with on-stack replacement.
//!
//! Profiling and tiering *policy* live in [`crate::profile`]; this module
//! owns transition *mechanics*, written once for every kind of transition
//! and both execution substrates ([`Vm::run_tiered`]): capturing the live
//! state, landing-site resolution, compensation-code execution, and
//! resuming in the target version (directly or through a generated
//! continuation function).  The loop reports hotness to a
//! [`TierController`] and fires whatever the controller decides, which is
//! how the `engine` crate plugs background compilation into the same loop.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use ssair::feasibility::{landing_site, EntryTable, Landing};
use ssair::interp::{run_frame, ExecError, Frame, Machine, StepOutcome, Val};
use ssair::machine::{MachineArtifact, MachineFrame, MachineStep};
use ssair::reconstruct::{apply_comp, CompStep, Direction, SsaEntry, Variant};
use ssair::{Function, InstId, InstKind, Module, ValueDef, ValueId};

use crate::continuation::extract_continuation;
use crate::profile::{
    EdgeObserver, HotnessProfiler, InlineExitTarget, Tier, TierController, TierDecision, TierTarget,
};
use crate::FunctionVersions;

pub use crate::profile::loop_header_points;

/// When and how the VM fires OSR transitions.
#[derive(Clone, Debug)]
pub struct OsrPolicy {
    /// Number of visits to a loop-header OSR point before the transition
    /// fires.
    pub hotness_threshold: usize,
    /// Which reconstruction variant to use.
    pub variant: Variant,
    /// Execute the transition through a generated continuation function
    /// (`f'to`, as OSRKit does) instead of direct frame surgery.
    pub use_continuation: bool,
}

impl Default for OsrPolicy {
    fn default() -> Self {
        OsrPolicy {
            hotness_threshold: 10,
            variant: Variant::Avail,
            use_continuation: true,
        }
    }
}

/// How a fired transition is executed (the policy knobs that are about
/// mechanics rather than *when* to fire — the latter is the controller's
/// job).
#[derive(Clone, Copy, Debug)]
pub struct TransitionOptions {
    /// Which reconstruction variant to use.
    pub variant: Variant,
    /// Execute through a generated continuation function instead of direct
    /// frame surgery.
    pub use_continuation: bool,
}

impl Default for TransitionOptions {
    fn default() -> Self {
        TransitionOptions {
            variant: Variant::Avail,
            use_continuation: true,
        }
    }
}

impl From<&OsrPolicy> for TransitionOptions {
    fn from(p: &OsrPolicy) -> Self {
        TransitionOptions {
            variant: p.variant,
            use_continuation: p.use_continuation,
        }
    }
}

/// When the VM fires a deoptimizing (tier-down) transition while running
/// the optimized version — the debugger-attach scenario of §7.
#[derive(Clone, Debug)]
pub struct DeoptPolicy {
    /// Visits to an optimized-code loop-header point before deoptimizing
    /// (1 deoptimizes at the first opportunity, as a debugger would).
    pub after_visits: usize,
    /// Transition mechanics.
    pub options: TransitionOptions,
}

impl Default for DeoptPolicy {
    fn default() -> Self {
        DeoptPolicy {
            after_visits: 1,
            options: TransitionOptions::default(),
        }
    }
}

/// A recorded transition.
#[derive(Clone, Debug)]
pub struct OsrEvent {
    /// Transition direction: `Forward` is an optimizing tier-up
    /// (`fbase → fopt`), `Backward` a deoptimizing tier-down.
    pub direction: Direction,
    /// Source location (in the version being left).
    pub from: InstId,
    /// Landing location (in the version being entered).
    pub to: InstId,
    /// Rung index of the version entered, as the controller numbers it
    /// ([`TierTarget::rung`] for ladder hops; run-to-completion
    /// transitions land on `Tier(1)` forward and the baseline backward).
    pub rung: crate::profile::Tier,
    /// `|c|`: generated compensation instructions executed.
    pub comp_size: usize,
    /// Number of live values transferred.
    pub transferred: usize,
    /// Whether a continuation function was generated.
    pub via_continuation: bool,
    /// For a cross-function inline exit that landed *inside* an inlined
    /// region: the callee whose frame was reconstructed and run to its
    /// return before the caller resumed.  `None` for every ordinary hop
    /// and for inline exits that landed in caller code.
    pub callee: Option<String>,
    /// Wall-clock cost of the hop itself: resolving the landing site,
    /// running compensation code, and constructing the target frame —
    /// excluding execution in the entered version.  One `Instant` pair per
    /// transition, never touched on the interpreter loop.
    pub nanos: u64,
    /// For a deoptimizing hop forced by a speculation failure: the kind of
    /// assumption that was violated, copied from the controller's
    /// [`crate::profile::TierTarget::violated`] /
    /// [`crate::profile::InlineExitTarget::violated`].  `None` for climbs,
    /// debugger-attach tier-downs, and run-to-completion transitions.
    pub violated: Option<crate::profile::AssumptionKind>,
}

impl fmt::Display for OsrEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} lands {} (|c| = {}, {} values{})",
            match self.direction {
                Direction::Forward => "OSR",
                Direction::Backward => "Deopt",
            },
            self.from,
            self.to,
            self.rung,
            self.comp_size,
            self.transferred,
            if self.via_continuation {
                ", via continuation"
            } else {
                ""
            }
        )?;
        if let Some(callee) = &self.callee {
            write!(f, " reconstructing {callee}")?;
        }
        Ok(())
    }
}

/// The virtual machine: a module of functions plus transition machinery.
pub struct Vm {
    /// Functions callable from interpreted code.
    pub module: Module,
    fuel: usize,
}

/// The fixed-threshold policy behind [`Vm::run_with_osr`] and
/// [`Vm::run_with_deopt`]: answers `fire()` exactly when a point's visit
/// count reaches the threshold.
struct Threshold<F> {
    threshold: usize,
    fire: F,
}

impl<F: FnMut() -> TierDecision> TierController for Threshold<F> {
    fn observe(&mut self, _at: InstId, count: usize) -> TierDecision {
        if count == self.threshold {
            (self.fire)()
        } else {
            TierDecision::Continue
        }
    }
}

impl Vm {
    /// Creates a VM over `module` with the default fuel budget.
    pub fn new(module: Module) -> Self {
        Vm {
            module,
            fuel: 50_000_000,
        }
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: usize) -> Self {
        self.fuel = fuel;
        self
    }

    /// The configured fuel budget.
    pub fn fuel(&self) -> usize {
        self.fuel
    }

    /// Runs the baseline version of `versions`, firing an optimizing OSR at
    /// the first loop-header OSR point that crosses the hotness threshold.
    ///
    /// Returns the function result together with the transitions performed.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures ([`ExecError`]).
    pub fn run_with_osr(
        &self,
        versions: &FunctionVersions,
        args: &[Val],
        policy: &OsrPolicy,
    ) -> Result<(Option<Val>, Vec<OsrEvent>), ExecError> {
        // Clone the version pair only if the threshold actually fires; cold
        // runs (threshold never reached) stay allocation-free.
        let mut shared: Option<Arc<FunctionVersions>> = None;
        let mut controller = Threshold {
            threshold: policy.hotness_threshold,
            fire: || TierDecision::RunToCompletion {
                versions: Arc::clone(shared.get_or_insert_with(|| Arc::new(versions.clone()))),
                direction: Direction::Forward,
                table: None,
            },
        };
        self.run_tiered(&versions.base, args, &policy.into(), &mut controller)
    }

    /// Runs the *optimized* version of `versions` and fires a deoptimizing
    /// (tier-down) transition back into the baseline version once a
    /// loop-header point of the optimized code has been visited
    /// `policy.after_visits` times — the on-demand deoptimization a
    /// debugger attach triggers (§7).  With `table` (direction `Backward`)
    /// the transition is served from precomputed entries, the path a
    /// shared code cache uses; without, compensation code is reconstructed
    /// at transition time.  If no visited point admits a backward
    /// transition, the optimized version simply runs to completion (no
    /// event is recorded).
    ///
    /// Pair and table are taken as `Arc`s because the decision hands them
    /// to [`Vm::run_tiered`] as-is: a cache serving many requests shares
    /// its artifacts instead of copying them per request.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures ([`ExecError`]).
    pub fn run_with_deopt(
        &self,
        versions: &Arc<FunctionVersions>,
        args: &[Val],
        policy: &DeoptPolicy,
        table: Option<&Arc<EntryTable>>,
    ) -> Result<(Option<Val>, Vec<OsrEvent>), ExecError> {
        let mut controller = Threshold {
            threshold: policy.after_visits,
            fire: || TierDecision::RunToCompletion {
                versions: Arc::clone(versions),
                direction: Direction::Backward,
                table: table.cloned(),
            },
        };
        self.run_tiered(&versions.opt, args, &policy.options, &mut controller)
    }

    /// The tiered-execution core — the single frame-surgery code path
    /// every execution mode is built on: one event loop, one decision
    /// handler and one landing routine, over either execution substrate.
    ///
    /// The loop enters a version (`base` first) — on the register machine
    /// when the hop that led there carried an artifact accepting the frame
    /// ([`TierTarget::machine`]), on the SSA interpreter otherwise — and
    /// runs it until it returns or `controller` answers something other
    /// than [`TierDecision::Continue`].  Both substrates observe alike, at
    /// instruction boundaries: call sites and conditional-branch edges
    /// taken where the controller asked for them
    /// ([`TierController::observe_call`], and the speculation-guard hook
    /// [`TierController::observe_edge`]), and counted visits to the running
    /// version's loop-header OSR points ([`TierController::observe`]).
    ///
    /// Every decision is the paper's one transition and is served one way,
    /// whichever substrate the frame was on: capture the SSA environment at
    /// the paused point, look the point up in the decision's entry table,
    /// run the compensation code on the live state, resume at the landing.
    /// [`TierDecision::Transition`] and [`TierDecision::InlineExit`] land by
    /// direct frame surgery and *stay under profiling*: the target's OSR
    /// points and branch edges are re-instrumented, the controller is told
    /// ([`TierController::on_transition`]) and keeps observing, so a frame
    /// can climb a whole tier ladder (`O0 → O1 → O2 → …`), deopt back down
    /// mid-loop when a speculation guard fails (a hop whose
    /// [`TierTarget::direction`] is `Backward`), and re-climb.
    /// [`TierDecision::RunToCompletion`] lands in the other half of a
    /// version pair — directly or through a generated continuation
    /// function, as `options` says — and runs it to its return.
    ///
    /// A decision that cannot be served at this point (no table entry,
    /// compensation code that cannot execute, a register frame with no
    /// location map here) notifies [`TierController::on_infeasible`], and
    /// the current version resumes where it stopped without observing the
    /// same physical visit a second time — unless the decision was
    /// `mandatory`, which aborts the run instead.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures ([`ExecError`]), and reports a
    /// mandatory hop that proved infeasible as
    /// [`ExecError::MandatoryTransitionFailed`].
    pub fn run_tiered(
        &self,
        base: &Function,
        args: &[Val],
        options: &TransitionOptions,
        controller: &mut dyn TierController,
    ) -> Result<(Option<Val>, Vec<OsrEvent>), ExecError> {
        let mut machine = Machine::new(self.fuel);
        let mut events = Vec::new();
        // The version currently executing: the borrowed baseline until the
        // first hop replaces it with a shared target version.
        let mut owned: Option<Arc<Function>> = None;
        // How the loop enters it: the positioned frame, and the machine
        // artifact backing the version if the hop supplied one.
        let mut entry = (Frame::enter(base, args), None::<Arc<MachineArtifact>>);

        loop {
            let current: &Function = owned.as_deref().unwrap_or(base);
            let profiler = RefCell::new(HotnessProfiler::for_function(current));
            // Edge and call observation are opt-in: modes without
            // speculation guards (debugger deopts, plain thresholds) pay
            // nothing for them, and controllers profile call sites only at
            // the baseline tier.
            let edges = controller
                .observes_edges()
                .then(|| EdgeObserver::for_function(current));
            let calls_on = controller.observes_calls();
            let controller = RefCell::new(&mut *controller);
            let observe = |fr: &Frame, at: InstId| {
                if calls_on {
                    if let InstKind::Call { callee, .. } = &current.inst(at).kind {
                        controller.borrow_mut().observe_call(at, callee);
                    }
                }
                // Speculation guards first: entering a block along a
                // conditional edge is reported before the hotness check, so
                // a guard can fire at the very instruction that witnessed
                // the uncommon path.
                if let Some((from, to)) = edges.as_ref().and_then(|e| e.taken_edge(fr, at)) {
                    let decision = controller.borrow_mut().observe_edge(from, to, at);
                    if !matches!(decision, TierDecision::Continue) {
                        return decision;
                    }
                }
                match profiler.borrow_mut().visit(at) {
                    Some(count) => controller.borrow_mut().observe(at, count),
                    None => TierDecision::Continue,
                }
            };

            let mut exec = Substrate::enter(current, entry.0, entry.1);
            // Set after an infeasible hop: the boundary the substrate is
            // stopped at has been observed already.
            let mut observed = false;
            entry = loop {
                let resume = std::mem::take(&mut observed);
                let (at, decision) =
                    match exec.run(current, &mut machine, &self.module, resume, &observe)? {
                        Stop::Returned(v) => return Ok((v, events)),
                        Stop::Decision(at, decision) => (at, decision),
                    };
                let paused = exec.capture(current, at);
                let (hop, mandatory) = match decision {
                    TierDecision::Continue => unreachable!("substrates stop on decisions only"),
                    TierDecision::Transition(t) => {
                        let hop = table_hop(&t, &paused, &mut machine);
                        let next = hop.map(|(frame, event)| (frame, event, t.target, t.machine));
                        (next, t.mandatory)
                    }
                    TierDecision::InlineExit(t) => {
                        let hop = inline_exit(&t, &paused, &mut machine, &self.module)?;
                        let next = hop.map(|(frame, event)| (frame, event, t.base, None));
                        (next, t.mandatory)
                    }
                    TierDecision::RunToCompletion {
                        versions,
                        direction,
                        table,
                    } => {
                        let done = self.run_to_completion(
                            &versions,
                            direction,
                            table.as_deref(),
                            &paused,
                            &mut machine,
                            options,
                        )?;
                        if let Some((result, event)) = done {
                            events.push(event);
                            return Ok((result, events));
                        }
                        (None, false)
                    }
                };
                match hop {
                    Some((frame, event, version, artifact)) => {
                        events.push(event);
                        controller.borrow_mut().on_transition(at);
                        owned = Some(version);
                        break (frame, artifact);
                    }
                    // The current version is not valid for this frame (a
                    // guard escape failed): abort rather than keep
                    // executing it.
                    None if mandatory => return Err(ExecError::MandatoryTransitionFailed),
                    None => {
                        controller.borrow_mut().on_infeasible(at);
                        observed = true;
                    }
                }
            };
        }
    }

    /// Serves a [`TierDecision::RunToCompletion`]: lands the paused frame
    /// in the other half of `versions` and runs that half to its return.
    /// `Forward` leaves the baseline for the optimized version, `Backward`
    /// deoptimizes from the optimized version back into the baseline.
    ///
    /// Returns `Ok(None)` when the transition is infeasible at this point.
    fn run_to_completion(
        &self,
        versions: &FunctionVersions,
        direction: Direction,
        table: Option<&EntryTable>,
        paused: &Paused<'_>,
        machine: &mut Machine,
        options: &TransitionOptions,
    ) -> Result<Option<(Option<Val>, OsrEvent)>, ExecError> {
        let started = Instant::now();
        let target = match direction {
            Direction::Forward => &versions.opt,
            Direction::Backward => &versions.base,
        };
        let on_demand;
        let row = match table {
            // Precomputed: a code cache already resolved the landing site
            // and built (validated) compensation code for every feasible
            // point.
            Some(table) => {
                debug_assert_eq!(table.direction, direction, "table direction matches");
                table.get(paused.at)
            }
            // On demand, the paper's mechanism at transition time: resolve
            // the landing site and reconstruct the compensation code now,
            // for this point only — a one-row table.
            None => {
                let (at, variant) = (paused.at, options.variant);
                let landing = landing_site(paused.func, target, &versions.cm, at);
                on_demand = landing.and_then(|l| {
                    let pair = versions.pair();
                    let entry =
                        pair.build_entry_with_edge(direction, at, l.loc, variant, l.entry_edge);
                    Some((l, entry.ok()?))
                });
                on_demand.as_ref()
            }
        };
        let Some((env, event)) = row.and_then(|row| land(row, &[], paused, target, machine)) else {
            return Ok(None);
        };
        // The run-to-completion below is ordinary execution, not hop cost.
        let nanos = started.elapsed().as_nanos() as u64;
        let result = if options.use_continuation {
            // OSRKit-style: generate f'to and call it with the live state.
            let live_ins: Vec<ValueId> = env.keys().copied().collect();
            let cont = extract_continuation(target, event.to, &live_ins);
            debug_assert!(
                ssair::verify(&cont.func).is_ok(),
                "continuation must verify"
            );
            let cargs: Vec<Val> = cont.live_ins.iter().map(|v| env[v]).collect();
            let frame = Frame::enter(&cont.func, &cargs);
            finish(&cont.func, frame, machine, &self.module)?
        } else {
            let frame = Frame::at(target, event.to, env);
            finish(target, frame, machine, &self.module)?
        };
        let event = OsrEvent {
            direction,
            rung: match direction {
                Direction::Forward => Tier(1),
                Direction::Backward => Tier::BASELINE,
            },
            via_continuation: options.use_continuation,
            nanos,
            ..event
        };
        Ok(Some((result, event)))
    }

    /// Runs a function without any OSR (reference behaviour).
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures.
    pub fn run_plain(&self, f: &Function, args: &[Val]) -> Result<Option<Val>, ExecError> {
        ssair::interp::run_function(f, args, &self.module, self.fuel)
    }
}

/// Runs a frame nobody observes to its return — the tail of a
/// run-to-completion transition and of a reconstructed callee.
fn finish(
    f: &Function,
    mut frame: Frame,
    machine: &mut Machine,
    module: &Module,
) -> Result<Option<Val>, ExecError> {
    match run_frame(f, &mut frame, machine, module, None)? {
        StepOutcome::Returned(v) => Ok(v),
        StepOutcome::Paused { .. } => unreachable!("no pause predicate"),
    }
}

/// Where a version executes.  [`Vm::run_tiered`] crosses this seam once
/// per controller *decision*, never per instruction: each variant keeps
/// its own tight inner loop.
enum Substrate {
    /// The SSA interpreter, over a value-map frame.
    Ssa(Frame),
    /// The register machine, over the artifact lowered from the same SSA
    /// function — same observation points, same controller protocol, no
    /// value-map lookups.
    Machine {
        art: Arc<MachineArtifact>,
        regs: MachineFrame,
        pc: usize,
        /// pc → SSA point, for the observation hooks.
        at_pc: Vec<Option<InstId>>,
        /// What the observer sees of a register frame: the dispatch loop
        /// maintains block and arrival edge exactly as the interpreter's
        /// `jump` does (every lowered transfer funnels through a `Jump`
        /// carrying its CFG edge), which keeps the edge observer sound
        /// over machine execution.  Its value map stays empty.
        probe: Frame,
    },
}

/// Why a substrate stopped running.
enum Stop {
    Returned(Option<Val>),
    /// The controller answered something other than `Continue` at the
    /// boundary before this instruction.
    Decision(InstId, TierDecision),
}

/// A source activation stopped at an instruction boundary, as every
/// transition reads it: the running version, the point, and the SSA
/// environment there.
struct Paused<'a> {
    func: &'a Function,
    at: InstId,
    /// `None` for a register frame stopped where its artifact has no
    /// location map: nothing can land from here.
    values: Option<Cow<'a, BTreeMap<ValueId, Val>>>,
}

impl Substrate {
    /// Enters `f` at `frame`'s position: on the machine if an artifact was
    /// supplied and its location map accepts the frame there, otherwise
    /// (unlowered landing, or a missing live value) by interpreting the
    /// same SSA function — identical semantics; the artifact is an
    /// execution substrate, never a semantic requirement.
    fn enter(f: &Function, frame: Frame, art: Option<Arc<MachineArtifact>>) -> Substrate {
        let start = f.block(frame.block).insts.get(frame.index).copied();
        let entered = art.zip(start).and_then(|(art, start)| {
            let regs = art.enter(start, &frame.values)?;
            let mut at_pc = vec![None; art.code.len()];
            for (i, p) in &art.pc_of {
                at_pc[*p] = Some(*i);
            }
            Some(Substrate::Machine {
                pc: art.pc_at(start).expect("entered point is lowered"),
                probe: Frame::at(f, start, BTreeMap::new()),
                art,
                regs,
                at_pc,
            })
        });
        entered.unwrap_or(Substrate::Ssa(frame))
    }

    /// Runs until the function returns or `observe` answers something other
    /// than `Continue` at an instruction boundary.  `resume` says the
    /// boundary the substrate is stopped at was observed by the previous
    /// call (whose decision proved infeasible): it is not observed again.
    fn run(
        &mut self,
        f: &Function,
        machine: &mut Machine,
        module: &Module,
        resume: bool,
        observe: &impl Fn(&Frame, InstId) -> TierDecision,
    ) -> Result<Stop, ExecError> {
        match self {
            Substrate::Ssa(frame) => {
                let skip = Cell::new(resume);
                let stash = Cell::new(None);
                let pause = |_: &Function, fr: &Frame, at: InstId| {
                    if skip.replace(false) {
                        return false;
                    }
                    let decision = observe(fr, at);
                    let stop = !matches!(decision, TierDecision::Continue);
                    if stop {
                        stash.set(Some(decision));
                    }
                    stop
                };
                Ok(match run_frame(f, frame, machine, module, Some(&pause))? {
                    StepOutcome::Returned(v) => Stop::Returned(v),
                    StepOutcome::Paused { at } => {
                        let decision = stash.take().expect("paused only on a decision");
                        Stop::Decision(at, decision)
                    }
                })
            }
            Substrate::Machine {
                art,
                regs,
                pc: saved_pc,
                at_pc,
                probe,
            } => {
                let mut skip = resume;
                let mut pc = *saved_pc;
                loop {
                    if let Some(at) = at_pc[pc] {
                        if !std::mem::take(&mut skip) {
                            let decision = observe(probe, at);
                            if !matches!(decision, TierDecision::Continue) {
                                *saved_pc = pc;
                                return Ok(Stop::Decision(at, decision));
                            }
                        }
                    }
                    match art.exec_inst(pc, regs, machine, module)? {
                        MachineStep::Next => pc += 1,
                        MachineStep::Branched(target) => pc = target,
                        MachineStep::Jumped {
                            from,
                            to,
                            pc: target,
                        } => {
                            probe.block = to;
                            probe.came_from = Some(from);
                            pc = target;
                        }
                        MachineStep::Returned(v) => return Ok(Stop::Returned(v)),
                    }
                }
            }
        }
    }

    /// The activation as a transition reads it at `at`, the boundary
    /// [`Substrate::run`] stopped at.  An SSA frame is its own
    /// environment; a register frame deoptimizes out of registers through
    /// the artifact's backward location map.
    fn capture<'a>(&'a self, f: &'a Function, at: InstId) -> Paused<'a> {
        let values = match self {
            Substrate::Ssa(frame) => Some(Cow::Borrowed(&frame.values)),
            Substrate::Machine { art, regs, .. } => art.reconstruct(regs, at).map(Cow::Owned),
        };
        Paused {
            func: f,
            at,
            values,
        }
    }
}

/// The one landing routine, shared by every kind of transition: runs the
/// compensation code of table row `(landing, entry)` against the paused
/// source activation and returns the environment of `target` at the
/// landing location, plus the event describing the hop (`from`, `to`,
/// `|c|` and values transferred filled in; direction, rung and timing are
/// the caller's to stamp).
///
/// The source environment is rehydrated first: `pinned` values the
/// controller supplied go in where missing ([`TierTarget::pinned`]), then
/// any `Transfer` source still missing whose definition in the *source*
/// version is a plain constant is rematerialized.  A frame that entered
/// its version mid-function — a deopt landing, or any ladder hop — carries
/// only the values the incoming compensation transferred (the live set at
/// the landing).  A later outgoing entry may read a value that every
/// *normally-entered* frame has computed but this one never will, most
/// commonly an entry-block constant the optimizer reuses (CSE) deeper in
/// the function.  Constants are free rematerializations (the §5.1
/// observation that lets LICM hoist them without recording a move), so
/// supplying them here is always sound — and it is exactly what keeps the
/// speculation lifecycle closed: without it, a frame that deopted mid-loop
/// could never take the tier-up table back out of the baseline.
///
/// Returns `None` when the compensation code cannot execute on this frame
/// (the transition is infeasible here).
fn land(
    (landing, entry): &(Landing, SsaEntry),
    pinned: &[(ValueId, Val)],
    paused: &Paused<'_>,
    target: &Function,
    machine: &mut Machine,
) -> Option<(BTreeMap<ValueId, Val>, OsrEvent)> {
    let source = paused.func;
    let mut values = Cow::Borrowed(paused.values.as_deref()?);
    for (v, val) in pinned {
        if !values.contains_key(v) {
            values.to_mut().insert(*v, *val);
        }
    }
    let mut transferred = 0;
    for step in &entry.comp.steps {
        let CompStep::Transfer { src, .. } = step else {
            continue;
        };
        transferred += 1;
        if values.contains_key(src) || (src.0 as usize) >= source.value_count() {
            continue;
        }
        let ValueDef::Inst(i) = source.value_def(*src) else {
            continue;
        };
        if !source.inst_is_live(i) {
            continue;
        }
        if let InstKind::Const(n) = source.inst(i).kind {
            values.to_mut().insert(*src, Val::Int(n));
        }
    }
    let env = apply_comp(entry, target, &values, machine).ok()?;
    let event = OsrEvent {
        direction: Direction::Forward,
        from: paused.at,
        to: landing.loc,
        rung: Tier::BASELINE,
        comp_size: entry.comp.emit_count(),
        transferred,
        via_continuation: false,
        callee: None,
        nanos: 0,
        violated: None,
    };
    Some((env, event))
}

/// Serves one table-driven ladder hop: lands the paused activation in the
/// target version and builds a frame positioned at the landing location
/// (direct frame surgery — continuation functions renumber instruction
/// ids, which would orphan the target's precomputed tables for later
/// hops).  The recorded event carries the hop's *semantic* direction
/// ([`TierTarget::direction`]), not the table's: a composed down-hop ends
/// in a forward table but is still a deopt.
///
/// Returns `None` when the table has no entry at the paused point or the
/// compensation code cannot execute (the hop is infeasible here).
fn table_hop(
    t: &TierTarget,
    paused: &Paused<'_>,
    machine: &mut Machine,
) -> Option<(Frame, OsrEvent)> {
    let started = Instant::now();
    let row = t.table.get(paused.at)?;
    let (env, event) = land(row, &t.pinned, paused, &t.target, machine)?;
    let frame = Frame::at(&t.target, event.to, env);
    let event = OsrEvent {
        direction: t.direction,
        rung: t.rung,
        violated: t.violated,
        nanos: started.elapsed().as_nanos() as u64,
        ..event
    };
    Some((frame, event))
}

/// Serves one cross-function inline exit: lands the paused activation in
/// the *spliced* caller base through the precomputed backward table
/// (exactly like [`table_hop`]), then undoes the splice the landing fell
/// into.
///
/// Two cases, composed from the same landing environment:
///
/// * the landing is **inside an inlined region** — the callee's frame is
///   reconstructed through the region's value map (parameters come back as
///   the caller's argument values, cloned results as their clones), run to
///   its return on the shared machine, and the TRUE caller base resumes
///   *after* its `call` instruction with the result bound;
/// * the landing is **ordinary caller code** — the same pc exists in the
///   TRUE base (splicing only adds instructions), and the frame resumes
///   there directly, with every known region join rebound to the retired
///   call's result value.
///
/// Returns `None` when the table has no entry at the paused point, the
/// compensation code cannot execute, or the landing cannot be translated
/// — the exit is infeasible here and the caller decides whether that is
/// fatal ([`InlineExitTarget::mandatory`]).
fn inline_exit(
    t: &InlineExitTarget,
    paused: &Paused<'_>,
    machine: &mut Machine,
    module: &Module,
) -> Result<Option<(Frame, OsrEvent)>, ExecError> {
    let started = Instant::now();
    let landed = t.table.get(paused.at);
    let landed = landed.and_then(|row| land(row, &t.pinned, paused, &t.spliced, machine));
    let Some((env, event)) = landed else {
        return Ok(None);
    };
    let loc = event.to;

    // The frame is now (virtually) in the spliced base at `loc`.  Values
    // with caller ids carry over verbatim — splicing never renumbers —
    // and every region whose join value the landing knows rebinds the
    // retired call's result.
    let mut base_values: BTreeMap<ValueId, Val> = env
        .iter()
        .filter(|(v, _)| (v.0 as usize) < t.base.value_count())
        .map(|(v, val)| (*v, *val))
        .collect();
    for r in t.regions.iter() {
        if let Some(val) = env.get(&r.join) {
            base_values.insert(r.result, *val);
        }
    }

    let region = t.regions.iter().find(|r| r.pc_map.contains_key(&loc));
    let (frame, callee) = match region {
        Some(r) => {
            let Some(callee) = t.callees.get(&r.callee) else {
                return Ok(None);
            };
            // Callee-live values at the region's pc correspond 1:1
            // (through the value map) to spliced-live values at `loc`, so
            // the landing environment is exactly the callee frame's value
            // map.
            let cvalues: BTreeMap<ValueId, Val> = r
                .val_map
                .iter()
                .filter_map(|(cv, sv)| env.get(sv).map(|val| (*cv, *val)))
                .collect();
            let cframe = Frame::at(callee, r.pc_map[&loc], cvalues);
            let result = finish(callee, cframe, machine, module)?;
            let val = result.expect("inlinable callees always return a value");
            base_values.insert(r.result, val);
            // Resume the caller just past its (still present) `call`.
            let frame = Frame {
                values: base_values,
                block: r.call_block,
                index: r.call_index + 1,
                came_from: None,
            };
            (frame, Some(r.callee.clone()))
        }
        None => {
            // Ordinary caller code: the landing pc exists verbatim in the
            // TRUE base (a pc neither in a region nor in the base would be
            // a spliced-only join — never a landing site, but refuse
            // rather than panic).
            if (loc.0 as usize) >= t.base.inst_id_count() || !t.base.inst_is_live(loc) {
                return Ok(None);
            }
            (Frame::at(&t.base, loc, base_values), None)
        }
    };
    let event = OsrEvent {
        direction: Direction::Backward,
        rung: t.rung,
        callee,
        violated: t.violated,
        nanos: started.elapsed().as_nanos() as u64,
        ..event
    };
    Ok(Some((frame, event)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_one(src: &str, name: &str) -> (Module, FunctionVersions) {
        let m = minic::compile(src).unwrap();
        let v = FunctionVersions::standard(m.get(name).unwrap().clone());
        (m, v)
    }

    #[test]
    fn osr_mid_loop_matches_plain_run() {
        let (m, v) = compile_one(
            "fn work(x, n) {
                 var s = 0;
                 for (var i = 0; i < n; i = i + 1) {
                     s = s + x * x + i;
                 }
                 return s;
             }",
            "work",
        );
        let vm = Vm::new(m);
        for use_continuation in [true, false] {
            let policy = OsrPolicy {
                hotness_threshold: 5,
                variant: Variant::Avail,
                use_continuation,
            };
            let args = [Val::Int(7), Val::Int(50)];
            let expected = vm.run_plain(&v.base, &args).unwrap();
            let (got, events) = vm.run_with_osr(&v, &args, &policy).unwrap();
            assert_eq!(got, expected, "continuation={use_continuation}");
            assert_eq!(events.len(), 1);
            assert!(events[0].transferred > 0);
            assert_eq!(events[0].direction, Direction::Forward);
        }
    }

    #[test]
    fn no_osr_when_loop_cold() {
        let (m, v) = compile_one(
            "fn work(n) {
                 var s = 0;
                 for (var i = 0; i < n; i = i + 1) { s = s + i; }
                 return s;
             }",
            "work",
        );
        let vm = Vm::new(m);
        let policy = OsrPolicy {
            hotness_threshold: 1_000,
            ..OsrPolicy::default()
        };
        let (got, events) = vm.run_with_osr(&v, &[Val::Int(5)], &policy).unwrap();
        assert_eq!(got, Some(Val::Int(10)));
        assert!(events.is_empty(), "threshold never reached");
    }

    #[test]
    fn osr_with_nested_loops() {
        let (m, v) = compile_one(
            "fn mat(n) {
                 var acc = 0;
                 for (var i = 0; i < n; i = i + 1) {
                     for (var j = 0; j < n; j = j + 1) {
                         acc = acc + i * j;
                     }
                 }
                 return acc;
             }",
            "mat",
        );
        let vm = Vm::new(m);
        let args = [Val::Int(12)];
        let expected = vm.run_plain(&v.base, &args).unwrap();
        let (got, events) = vm.run_with_osr(&v, &args, &OsrPolicy::default()).unwrap();
        assert_eq!(got, expected);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn osr_with_memory_traffic() {
        let (m, v) = compile_one(
            "fn hist(n) {
                 var buf[8];
                 for (var i = 0; i < n; i = i + 1) {
                     buf[i % 8] = buf[i % 8] + 1;
                 }
                 var s = 0;
                 for (var i = 0; i < 8; i = i + 1) { s = s + buf[i] * i; }
                 return s;
             }",
            "hist",
        );
        let vm = Vm::new(m);
        let args = [Val::Int(100)];
        let expected = vm.run_plain(&v.base, &args).unwrap();
        let (got, _events) = vm.run_with_osr(&v, &args, &OsrPolicy::default()).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn deopt_mid_loop_matches_plain_run() {
        let (m, v) = compile_one(
            "fn work(x, n) {
                 var s = 0;
                 for (var i = 0; i < n; i = i + 1) {
                     s = s + x * x + i;
                 }
                 return s;
             }",
            "work",
        );
        let (vm, v) = (Vm::new(m), Arc::new(v));
        for use_continuation in [true, false] {
            let policy = DeoptPolicy {
                after_visits: 3,
                options: TransitionOptions {
                    variant: Variant::Avail,
                    use_continuation,
                },
            };
            let args = [Val::Int(7), Val::Int(40)];
            let expected = vm.run_plain(&v.base, &args).unwrap();
            let (got, events) = vm.run_with_deopt(&v, &args, &policy, None).unwrap();
            assert_eq!(got, expected, "continuation={use_continuation}");
            assert_eq!(events.len(), 1, "deopt fired");
            assert_eq!(events[0].direction, Direction::Backward);
        }
    }

    #[test]
    fn deopt_continuation_with_overlapping_id_spaces() {
        // Regression test: continuation extraction copies a region into a
        // fresh value-id space that overlaps the source's; operand
        // rewriting must substitute simultaneously or a rewritten operand
        // gets captured by a later rewrite (seen as a store writing its
        // value to the wrong address on this shape: an init loop feeding
        // arrays read by a later loop with branch joins).
        let (m, v) = compile_one(
            "fn h(n, seed) {
                 var mmx[8]; var imx[8];
                 var s = seed;
                 for (var k = 0; k < 8; k = k + 1) { mmx[k] = 0; imx[k] = -1000; }
                 for (var i = 0; i < n; i = i + 1) {
                     s = (s * 75 + 74) % 65537;
                     var m1 = mmx[0] + (s & 31);
                     var i1 = imx[0] + 3;
                     if (i1 > m1) { m1 = i1; }
                     mmx[1] = m1;
                     imx[1] = m1 - (s & 7);
                 }
                 return mmx[1] + imx[1];
             }",
            "h",
        );
        let (vm, v) = (Vm::new(m), Arc::new(v));
        let args = [Val::Int(24), Val::Int(5)];
        let expected = vm.run_plain(&v.base, &args).unwrap();
        let policy = DeoptPolicy {
            after_visits: 2,
            options: TransitionOptions {
                variant: Variant::Avail,
                use_continuation: true,
            },
        };
        let (got, events) = vm.run_with_deopt(&v, &args, &policy, None).unwrap();
        assert_eq!(got, expected);
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn custom_controller_observes_counts() {
        use crate::profile::{TierController, TierDecision};

        struct Recorder {
            versions: Arc<FunctionVersions>,
            visits: usize,
            fire_at: usize,
        }
        impl TierController for Recorder {
            fn observe(&mut self, _at: InstId, _count: usize) -> TierDecision {
                self.visits += 1;
                if self.visits == self.fire_at {
                    TierDecision::RunToCompletion {
                        versions: Arc::clone(&self.versions),
                        direction: Direction::Forward,
                        table: None,
                    }
                } else {
                    TierDecision::Continue
                }
            }
        }

        let (m, v) = compile_one(
            "fn work(n) {
                 var s = 0;
                 for (var i = 0; i < n; i = i + 1) { s = s + i * 3; }
                 return s;
             }",
            "work",
        );
        let vm = Vm::new(m);
        let args = [Val::Int(30)];
        let expected = vm.run_plain(&v.base, &args).unwrap();
        let mut ctl = Recorder {
            versions: Arc::new(v.clone()),
            visits: 0,
            fire_at: 7,
        };
        let (got, events) = vm
            .run_tiered(&v.base, &args, &TransitionOptions::default(), &mut ctl)
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(events.len(), 1);
        assert!(ctl.visits >= 7, "controller saw every instrumented visit");
    }

    #[test]
    fn osr_events_format() {
        let e = OsrEvent {
            direction: Direction::Forward,
            from: InstId(3),
            to: InstId(3),
            rung: crate::profile::Tier(2),
            comp_size: 2,
            transferred: 4,
            via_continuation: true,
            callee: None,
            nanos: 0,
            violated: None,
        };
        assert!(e.to_string().contains("|c| = 2"));
        let d = OsrEvent {
            direction: Direction::Backward,
            ..e
        };
        assert!(d.to_string().starts_with("Deopt"));
    }
}
