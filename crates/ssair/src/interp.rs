//! A reference interpreter for the SSA IR.
//!
//! Used for differential testing of the optimization passes and as the
//! execution engine of the `tinyvm` runtime.  Values are integers or
//! pointers into alloca cells; memory lives in a [`Machine`] shared across
//! the call stack.

use std::collections::BTreeMap;
use std::fmt;

use crate::ir::{BlockId, Function, InstId, InstKind, Module, Terminator, ValueId};

/// A runtime value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Val {
    /// 64-bit integer.
    Int(i64),
    /// Pointer: allocation id + cell offset.
    Ptr(usize, i64),
}

impl Val {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a pointer.
    pub fn as_int(self) -> i64 {
        match self {
            Val::Int(n) => n,
            Val::Ptr(..) => panic!("expected integer, found pointer"),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Ptr(a, o) => write!(f, "ptr({a}+{o})"),
        }
    }
}

/// Why execution failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The step budget ran out.
    OutOfFuel,
    /// A value was read before being computed (interpreter bug or invalid
    /// IR).
    UndefinedValue(ValueId),
    /// Memory access out of bounds.
    OutOfBounds,
    /// Call to an unknown function.
    UnknownFunction(String),
    /// Pointer/integer confusion.
    TypeError,
    /// A transition the runtime had committed to (e.g. a mandatory
    /// guard-escape out of speculative code) could not be served; the
    /// activation cannot soundly continue in its current version.
    MandatoryTransitionFailed,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "out of fuel"),
            ExecError::UndefinedValue(v) => write!(f, "read of undefined value {v}"),
            ExecError::OutOfBounds => write!(f, "memory access out of bounds"),
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::TypeError => write!(f, "pointer/integer type confusion"),
            ExecError::MandatoryTransitionFailed => {
                write!(f, "a mandatory transition could not be served")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Machine state: allocation arena shared by all frames.
#[derive(Clone, Default, Debug)]
pub struct Machine {
    allocs: Vec<Vec<i64>>,
    /// Remaining step budget.
    pub fuel: usize,
}

impl Machine {
    /// Creates a machine with the given step budget.
    pub fn new(fuel: usize) -> Self {
        Machine {
            allocs: Vec::new(),
            fuel,
        }
    }

    /// Allocates `size` zeroed cells, returning a pointer to cell 0.
    pub fn alloc(&mut self, size: u32) -> Val {
        self.allocs.push(vec![0; size as usize]);
        Val::Ptr(self.allocs.len() - 1, 0)
    }

    pub(crate) fn load(&self, p: Val) -> Result<i64, ExecError> {
        let Val::Ptr(a, o) = p else {
            return Err(ExecError::TypeError);
        };
        self.allocs
            .get(a)
            .and_then(|cells| usize::try_from(o).ok().and_then(|o| cells.get(o)))
            .copied()
            .ok_or(ExecError::OutOfBounds)
    }

    pub(crate) fn store(&mut self, p: Val, v: i64) -> Result<(), ExecError> {
        let Val::Ptr(a, o) = p else {
            return Err(ExecError::TypeError);
        };
        let cell = self
            .allocs
            .get_mut(a)
            .and_then(|cells| usize::try_from(o).ok().and_then(move |o| cells.get_mut(o)))
            .ok_or(ExecError::OutOfBounds)?;
        *cell = v;
        Ok(())
    }
}

/// Reads a memory cell without mutating the machine (used when executing
/// compensation-code loads).
pub fn machine_peek(machine: &Machine, p: Val) -> Option<i64> {
    machine.load(p).ok()
}

/// An activation frame, exposed so the runtime can suspend/resume and
/// perform OSR transitions.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Computed SSA values.
    pub values: BTreeMap<ValueId, Val>,
    /// Block currently executing.
    pub block: BlockId,
    /// Index of the next instruction within the block.
    pub index: usize,
    /// Block we arrived from (for φ evaluation).
    pub came_from: Option<BlockId>,
}

impl Frame {
    /// Creates a frame positioned at the entry of `f` with the given
    /// arguments bound to the parameters.
    pub fn enter(f: &Function, args: &[Val]) -> Frame {
        let mut values = BTreeMap::new();
        for (i, a) in args.iter().enumerate() {
            values.insert(ValueId(i as u32), *a);
        }
        Frame {
            values,
            block: f.entry,
            index: 0,
            came_from: None,
        }
    }

    /// Creates a frame of `f` holding `values`, positioned so that `loc`
    /// is the next instruction to execute — the frame-surgery constructor
    /// every OSR landing uses.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is not a live instruction of `f`.
    pub fn at(f: &Function, loc: InstId, values: BTreeMap<ValueId, Val>) -> Frame {
        let block = f.block_of(loc).expect("frame location is live");
        let index = f
            .block(block)
            .insts
            .iter()
            .position(|i| *i == loc)
            .expect("a live instruction is in its block");
        Frame {
            values,
            block,
            index,
            came_from: None,
        }
    }

    /// Reads a computed value.
    pub fn get(&self, v: ValueId) -> Result<Val, ExecError> {
        self.values
            .get(&v)
            .copied()
            .ok_or(ExecError::UndefinedValue(v))
    }
}

/// Outcome of driving a frame forward.
#[derive(Clone, Debug, PartialEq)]
pub enum StepOutcome {
    /// The function returned.
    Returned(Option<Val>),
    /// The frame stopped at an instruction boundary (used by the runtime's
    /// OSR checks); `at` is the instruction about to execute.
    Paused {
        /// The instruction the frame is about to execute.
        at: InstId,
    },
}

/// Hook consulted before each instruction; returning `true` pauses the
/// frame at that instruction.
pub type PausePredicate<'a> = dyn Fn(&Function, &Frame, InstId) -> bool + 'a;

/// Runs `f` to completion on `args`.
///
/// # Errors
///
/// Returns an [`ExecError`] on undefined values, memory errors, unknown
/// callees, or fuel exhaustion.
pub fn run_function(
    f: &Function,
    args: &[Val],
    module: &Module,
    fuel: usize,
) -> Result<Option<Val>, ExecError> {
    let mut machine = Machine::new(fuel);
    let mut frame = Frame::enter(f, args);
    match run_frame(f, &mut frame, &mut machine, module, None)? {
        StepOutcome::Returned(v) => Ok(v),
        StepOutcome::Paused { .. } => unreachable!("no pause predicate supplied"),
    }
}

/// Drives `frame` until return, fuel exhaustion, or the pause predicate
/// fires at an instruction boundary.
///
/// # Errors
///
/// See [`run_function`].
pub fn run_frame(
    f: &Function,
    frame: &mut Frame,
    machine: &mut Machine,
    module: &Module,
    pause: Option<&PausePredicate<'_>>,
) -> Result<StepOutcome, ExecError> {
    loop {
        let block = f.block(frame.block);
        if frame.index < block.insts.len() {
            let inst_id = block.insts[frame.index];
            if let Some(p) = pause {
                if p(f, frame, inst_id) {
                    return Ok(StepOutcome::Paused { at: inst_id });
                }
            }
            if machine.fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            machine.fuel -= 1;
            exec_inst(f, frame, machine, module, inst_id)?;
            frame.index += 1;
        } else {
            if machine.fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            machine.fuel -= 1;
            match &block.term {
                Terminator::Ret(v) => {
                    let val = match v {
                        Some(v) => Some(frame.get(*v)?),
                        None => None,
                    };
                    return Ok(StepOutcome::Returned(val));
                }
                Terminator::Br(t) => jump(f, frame, *t)?,
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = frame.get(*cond)?.as_int_checked()?;
                    let t = if c != 0 { *then_bb } else { *else_bb };
                    jump(f, frame, t)?;
                }
            }
        }
    }
}

trait IntChecked {
    // `Val` is `Copy`; taking it by value is the natural calling convention.
    #[allow(clippy::wrong_self_convention)]
    fn as_int_checked(self) -> Result<i64, ExecError>;
}

impl IntChecked for Val {
    fn as_int_checked(self) -> Result<i64, ExecError> {
        match self {
            Val::Int(n) => Ok(n),
            Val::Ptr(..) => Err(ExecError::TypeError),
        }
    }
}

/// Performs the control transfer to `target`, evaluating its φ-nodes
/// atomically with respect to the source block.
fn jump(f: &Function, frame: &mut Frame, target: BlockId) -> Result<(), ExecError> {
    let from = frame.block;
    // Evaluate φs against the *old* frame values (parallel assignment).
    let mut phi_updates: Vec<(ValueId, Val)> = Vec::new();
    for &i in &f.block(target).insts {
        let data = f.inst(i);
        let InstKind::Phi(incs) = &data.kind else {
            break;
        };
        let (_, v) = incs
            .iter()
            .find(|(p, _)| *p == from)
            .ok_or(ExecError::UndefinedValue(data.result.unwrap_or(ValueId(0))))?;
        let val = frame.get(*v)?;
        phi_updates.push((data.result.expect("φ has a result"), val));
    }
    for (r, v) in phi_updates {
        frame.values.insert(r, v);
    }
    frame.came_from = Some(from);
    frame.block = target;
    // Skip past the φ-nodes we just evaluated.
    frame.index = f
        .block(target)
        .insts
        .iter()
        .take_while(|i| f.inst(**i).kind.is_phi())
        .count();
    Ok(())
}

fn exec_inst(
    f: &Function,
    frame: &mut Frame,
    machine: &mut Machine,
    module: &Module,
    inst_id: InstId,
) -> Result<(), ExecError> {
    let data = f.inst(inst_id);
    let result: Option<Val> = match &data.kind {
        InstKind::Const(n) => Some(Val::Int(*n)),
        InstKind::Binop(op, a, b) => Some(Val::Int(op.apply(
            frame.get(*a)?.as_int_checked()?,
            frame.get(*b)?.as_int_checked()?,
        ))),
        InstKind::Neg(a) => Some(Val::Int(frame.get(*a)?.as_int_checked()?.wrapping_neg())),
        InstKind::Not(a) => Some(Val::Int(i64::from(frame.get(*a)?.as_int_checked()? == 0))),
        InstKind::Select {
            cond,
            then_v,
            else_v,
        } => {
            let c = frame.get(*cond)?.as_int_checked()?;
            Some(if c != 0 {
                frame.get(*then_v)?
            } else {
                frame.get(*else_v)?
            })
        }
        InstKind::Phi(_) => {
            // φs are evaluated on the incoming edge by `jump`; reaching one
            // here means the frame was resumed exactly at a φ — its value
            // must already be present.
            return match data.result {
                Some(r) if frame.values.contains_key(&r) => Ok(()),
                Some(r) => Err(ExecError::UndefinedValue(r)),
                None => Ok(()),
            };
        }
        InstKind::Alloca { size, .. } => Some(machine.alloc(*size)),
        InstKind::Load { addr } => Some(Val::Int(machine.load(frame.get(*addr)?)?)),
        InstKind::Store { addr, value } => {
            let v = frame.get(*value)?.as_int_checked()?;
            machine.store(frame.get(*addr)?, v)?;
            None
        }
        InstKind::Gep { base, index } => {
            let Val::Ptr(a, o) = frame.get(*base)? else {
                return Err(ExecError::TypeError);
            };
            let i = frame.get(*index)?.as_int_checked()?;
            Some(Val::Ptr(a, o + i))
        }
        InstKind::Call { callee, args } => {
            let callee_fn = module
                .get(callee)
                .ok_or_else(|| ExecError::UnknownFunction(callee.clone()))?;
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(frame.get(*a)?);
            }
            let mut inner = Frame::enter(callee_fn, &vals);
            match run_frame(callee_fn, &mut inner, machine, module, None)? {
                StepOutcome::Returned(v) => Some(v.unwrap_or(Val::Int(0))),
                StepOutcome::Paused { .. } => unreachable!("no pause in calls"),
            }
        }
        InstKind::DbgValue { .. } => None,
    };
    if let (Some(r), Some(v)) = (data.result, result) {
        frame.values.insert(r, v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, FunctionBuilder, Ty};

    fn module_with(fs: Vec<Function>) -> Module {
        let mut m = Module::new();
        for f in fs {
            m.add(f);
        }
        m
    }

    #[test]
    fn arithmetic_and_select() {
        let mut b = FunctionBuilder::new("f", &[("x", Ty::I64)]);
        let x = b.param(0);
        let two = b.const_i64(2);
        let sq = b.binop(BinOp::Mul, x, x);
        let cmp = b.binop(BinOp::Gt, sq, two);
        let r = b.select(cmp, sq, two);
        b.ret(Some(r));
        let f = b.finish();
        let m = Module::new();
        assert_eq!(
            run_function(&f, &[Val::Int(3)], &m, 100).unwrap(),
            Some(Val::Int(9))
        );
        assert_eq!(
            run_function(&f, &[Val::Int(1)], &m, 100).unwrap(),
            Some(Val::Int(2))
        );
    }

    #[test]
    fn memory_roundtrip() {
        let mut b = FunctionBuilder::new("mem", &[("x", Ty::I64)]);
        let x = b.param(0);
        let buf = b.alloca(4);
        let idx = b.const_i64(2);
        let p = b.gep(buf, idx);
        b.store(p, x);
        let v = b.load(p);
        b.ret(Some(v));
        let f = b.finish();
        let m = Module::new();
        assert_eq!(
            run_function(&f, &[Val::Int(42)], &m, 100).unwrap(),
            Some(Val::Int(42))
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = FunctionBuilder::new("oob", &[]);
        let buf = b.alloca(1);
        let idx = b.const_i64(5);
        let p = b.gep(buf, idx);
        let v = b.load(p);
        b.ret(Some(v));
        let f = b.finish();
        let m = Module::new();
        assert_eq!(run_function(&f, &[], &m, 100), Err(ExecError::OutOfBounds));
    }

    #[test]
    fn cross_function_call() {
        let mut callee = FunctionBuilder::new("inc", &[("a", Ty::I64)]);
        let a = callee.param(0);
        let one = callee.const_i64(1);
        let r = callee.binop(BinOp::Add, a, one);
        callee.ret(Some(r));

        let mut caller = FunctionBuilder::new("main", &[("x", Ty::I64)]);
        let x = caller.param(0);
        let c = caller.call("inc", &[x]);
        let c2 = caller.call("inc", &[c]);
        caller.ret(Some(c2));

        let m = module_with(vec![callee.finish()]);
        assert_eq!(
            run_function(&caller.finish(), &[Val::Int(5)], &m, 1000).unwrap(),
            Some(Val::Int(7))
        );
    }

    #[test]
    fn fuel_exhaustion_on_infinite_loop() {
        let mut b = FunctionBuilder::new("spin", &[]);
        let loop_bb = b.create_block("loop");
        b.br(loop_bb);
        b.switch_to(loop_bb);
        b.br(loop_bb);
        let f = b.finish();
        let m = Module::new();
        assert_eq!(run_function(&f, &[], &m, 100), Err(ExecError::OutOfFuel));
    }

    #[test]
    fn pause_predicate_stops_frame() {
        let mut b = FunctionBuilder::new("p", &[("x", Ty::I64)]);
        let x = b.param(0);
        let one = b.const_i64(1);
        let y = b.binop(BinOp::Add, x, one);
        b.ret(Some(y));
        let f = b.finish();
        let m = Module::new();
        let mut machine = Machine::new(100);
        let mut frame = Frame::enter(&f, &[Val::Int(1)]);
        let target = f.block(f.entry).insts[1];
        let out = run_frame(
            &f,
            &mut frame,
            &mut machine,
            &m,
            Some(&|_f, _fr, i| i == target),
        )
        .unwrap();
        assert_eq!(out, StepOutcome::Paused { at: target });
        // Resuming without the predicate completes the run.
        let out = run_frame(&f, &mut frame, &mut machine, &m, None).unwrap();
        assert_eq!(out, StepOutcome::Returned(Some(Val::Int(2))));
    }
}
