//! The four workloads: which functions they serve, which requests they
//! draw from `--seed`, and the reference result of every request.
//!
//! Everything here is generated before the clock starts; the engine sees
//! only the resulting requests.  A request whose reference run errors or
//! runs out of fuel is rejected at generation time, so no measured
//! operation can fail by construction of the input.

use std::collections::HashMap;

use crate::layers::{self, Module, Sweep, Val};
use crate::loadgen::SplitMix64;

pub const STEADY_HOT: &str = "steady_hot";
pub const SERVE_ZIPF: &str = "serve_zipf";
pub const COLD_START: &str = "cold_start";
pub const SPEC_CHURN: &str = "spec_churn";
pub const NAMES: [&str; 4] = [STEADY_HOT, SERVE_ZIPF, COLD_START, SPEC_CHURN];

/// Length of the pre-drawn request order; loops cycle through it.
const ORDER_LEN: usize = 1 << 15;

/// The Table-2 kernels of `steady_hot` (`Kernel::name`).  Excluded from
/// timed traffic for their set-up cost: `h264ref`, `namd`, `perlbench`
/// (45–65 s to prewarm one ladder each) and `hmmer`, `bullet` (4.5 s each).
const HOT_KERNELS: [&str; 7] = [
    "bzip2",
    "sjeng",
    "soplex",
    "dcraw",
    "ffmpeg",
    "fhourstones",
    "vp8",
];
/// Table-2 kernels added to the serving module for `cold_start`.
const COLD_KERNELS: [&str; 4] = ["bzip2", "ffmpeg", "dcraw", "vp8"];
/// Share of debugger-attach requests, in percent.
const SERVE_DEBUG_PERCENT: u64 = 2;
const CHURN_DEBUG_PERCENT: u64 = 5;
/// `spec_churn`: of every 64 requests to a kernel, the last 4 contradict
/// the speculation the other 60 establish.  The engine's profiles are
/// cumulative, so a symmetric flip would dissolve every bias within a few
/// cycles and the workload would stop exercising deopts; 60:4 keeps each
/// profile above the 90 % the default policies speculate at.
const CHURN_CYCLE: usize = 64;
const CHURN_VIOLATING: usize = 4;
/// `spec_churn`: completions between two invalidations.
pub const SWEEP_EVERY: usize = 512;

/// One request with its reference result.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub function: String,
    pub args: Vec<i64>,
    pub debug: bool,
    pub expected: Option<Val>,
}

/// The distinct requests of a workload and the order they are sent in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Plan {
    pub pool: Vec<Req>,
    pub order: Vec<u32>,
}

impl Plan {
    /// A canonical byte form: equal plans give equal bytes (the
    /// determinism check compares these).
    pub fn fingerprint(&self) -> Vec<u8> {
        format!("{:?}\n{:?}", self.pool, self.order).into_bytes()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Closed loop on a prewarmed, warmed engine.
    Closed,
    /// Open loop (Poisson arrivals at three fixed rates) on a warmed engine.
    Open,
    /// Closed loop in rounds, each on a fresh engine.
    Rounds,
}

pub struct Workload {
    pub name: &'static str,
    /// The seed every draw of this workload derives from.
    pub seed: u64,
    pub shape: Shape,
    pub module: Module,
    pub plan: Plan,
    /// Functions whose ladders are compiled before warm-up traffic.
    pub prewarm: Vec<String>,
    /// Invalidations the generator issues in rotation, one every
    /// [`SWEEP_EVERY`] completions (empty: none).
    pub sweeps: Vec<Sweep>,
    /// Requests warm-up sends at the least, however soon compiles stop.
    pub warm_min: usize,
}

/// Builds a plan, computing each distinct request's reference once.
struct PlanBuilder<'m> {
    module: &'m Module,
    plan: Plan,
    index: HashMap<(String, Vec<i64>, bool), Option<u32>>,
}

impl<'m> PlanBuilder<'m> {
    fn new(module: &'m Module) -> Self {
        PlanBuilder {
            module,
            plan: Plan::default(),
            index: HashMap::new(),
        }
    }

    /// Appends the request to the order unless its reference run fails.
    fn push(&mut self, function: &str, args: &[i64], debug: bool) -> bool {
        let key = (function.to_string(), args.to_vec(), debug);
        let slot = match self.index.get(&key) {
            Some(slot) => *slot,
            None => {
                let slot = layers::reference(self.module, function, args)
                    .ok()
                    .map(|expected| {
                        self.plan.pool.push(Req {
                            function: function.to_string(),
                            args: args.to_vec(),
                            debug,
                            expected,
                        });
                        (self.plan.pool.len() - 1) as u32
                    });
                self.index.insert(key, slot);
                slot
            }
        };
        match slot {
            Some(i) => {
                self.plan.order.push(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<Plan, String> {
        if self.plan.order.is_empty() {
            return Err("every generated request was rejected by the reference run".to_string());
        }
        Ok(self.plan)
    }
}

fn kernel(name: &str) -> workloads::Kernel {
    workloads::kernel_source(name).unwrap_or_else(|| panic!("kernel {name} ships"))
}

fn add_kernel(module: &mut Module, name: &str) -> workloads::Kernel {
    let k = kernel(name);
    layers::merge(module, layers::compile_source(&k.source));
    k
}

/// The call-graph and value-speculation kernels (10 functions).
fn small_kernels() -> Module {
    let mut module = Module::new();
    for k in workloads::call_graph_kernels()
        .into_iter()
        .chain(workloads::value_speculation_kernels())
    {
        layers::merge(&mut module, layers::compile_source(&k.source));
    }
    module
}

fn steady_hot(seed: u64) -> Result<Workload, String> {
    let mut module = Module::new();
    let kernels: Vec<workloads::Kernel> = HOT_KERNELS
        .iter()
        .map(|name| add_kernel(&mut module, name))
        .collect();
    // Every (kernel, work size x1 or x4, data argument) variant; the data
    // argument varies so no argument is a constant the engine could
    // specialize the whole workload on.
    let mut variants: Vec<(&'static str, [i64; 2])> = Vec::new();
    for k in &kernels {
        for scale in [1, 4] {
            for data in 0..8 {
                variants.push((k.entry, [k.sample_args[0] * scale, k.sample_args[1] + data]));
            }
        }
    }
    // The order is one seeded shuffle of all variants after another, so
    // any stretch of it holds the same mix of work whatever the seed.
    let mut rng = SplitMix64(seed ^ 0x0057_EAD1);
    let mut b = PlanBuilder::new(&module);
    while b.plan.order.len() < ORDER_LEN {
        rng.shuffle(&mut variants);
        for (entry, args) in &variants {
            b.push(entry, args, false);
        }
    }
    let plan = b.finish()?;
    Ok(Workload {
        name: STEADY_HOT,
        seed,
        shape: Shape::Closed,
        prewarm: kernels.iter().map(|k| k.entry.to_string()).collect(),
        sweeps: Vec::new(),
        warm_min: 0,
        module,
        plan,
    })
}

fn serve_zipf(seed: u64) -> Result<Workload, String> {
    // A SPEC-like corpus plus the small kernels: 60 functions.
    let spec = workloads::corpus_benchmarks()
        .into_iter()
        .find(|s| s.name == "bzip2")
        .expect("bzip2 corpus spec ships");
    let mut module = workloads::generate_corpus(&spec, 2);
    layers::merge(&mut module, small_kernels());
    let mut rng = SplitMix64(seed ^ 0x000D_EB06);
    let mut b = PlanBuilder::new(&module);
    for (function, args) in workloads::request_mix_zipf(&module, ORDER_LEN, seed, 1.0) {
        let debug = rng.below(100) < SERVE_DEBUG_PERCENT;
        b.push(&function, &args, debug);
    }
    let plan = b.finish()?;
    Ok(Workload {
        name: SERVE_ZIPF,
        seed,
        shape: Shape::Open,
        // Zipf's tail would otherwise keep the compile worker trickling
        // (and debugger attaches compiling synchronously) all through the
        // window, and the latency tail would measure where those land.
        prewarm: module.functions.keys().cloned().collect(),
        sweeps: Vec::new(),
        // A quarter of the order.  What the engine speculates on follows
        // from the profile its first requests leave, and with a profile a
        // few hundred requests old that depended on the seed: over ten
        // seeds the open loop's p50 spread by 7-9 %, with this by 4-5 %.
        warm_min: ORDER_LEN / 4,
        module,
        plan,
    })
}

fn cold_start(seed: u64) -> Result<Workload, String> {
    // 14 functions, 44 artifacts: what one compile worker can publish in
    // under two seconds, so that every round reaches a quiet compile
    // queue.  (The 60-function serving module needs over ten.)
    let mut module = small_kernels();
    for name in COLD_KERNELS {
        add_kernel(&mut module, name);
    }
    // Uniform popularity, stratified: the order is one seeded shuffle of
    // all functions after another, and a function's arguments (small, as
    // `request_mix_zipf` draws them) cycle with the block number.  Which
    // function turns hot when - and so what the compile queue holds -
    // then depends on the engine, not on the luck of the draw.
    let mut functions: Vec<(usize, String, usize)> = module
        .functions
        .iter()
        .enumerate()
        .map(|(rank, (name, f))| (rank, name.clone(), f.params.len()))
        .collect();
    let mut rng = SplitMix64(seed ^ 0xC01D);
    let mut b = PlanBuilder::new(&module);
    let mut block = 0usize;
    while b.plan.order.len() < ORDER_LEN {
        rng.shuffle(&mut functions);
        for (rank, name, params) in &functions {
            let args: Vec<i64> = (0..*params)
                .map(|p| 1 + ((block + rank + p) % 6) as i64)
                .collect();
            b.push(name, &args, false);
        }
        block += 1;
    }
    let plan = b.finish()?;
    Ok(Workload {
        name: COLD_START,
        seed,
        shape: Shape::Rounds,
        prewarm: Vec::new(),
        sweeps: Vec::new(),
        warm_min: 0,
        module,
        plan,
    })
}

/// One `spec_churn` stream: a function with the arguments that conform to
/// the speculation its traffic establishes, and the ones that violate it.
///
/// Violating requests are short on purpose.  A frame that contradicts a
/// guard deopts, re-climbs at once (the shared hotness counters are far
/// past every threshold) and fails again every few iterations, so the
/// deopts one request causes grow with its length; long violating
/// requests turn the workload into a storm whose size depends on thread
/// timing.  With [`VIOLATING_N`] iterations a request contributes a
/// handful of deopts whatever the engine's momentary profile says.
struct Churn {
    function: &'static str,
    /// Conforming arguments for work size `n`.
    conforming: fn(i64) -> [i64; 2],
    violating: [i64; 2],
    sizes: [i64; 4],
}

/// Loop iterations of a violating request, and how many of them run
/// before a branch kernel's hot path flips.
const VIOLATING_N: i64 = 48;
const VIOLATING_FLIP: i64 = 32;

const CHURN: [Churn; 7] = [
    // Branch bias: `flip = n` keeps the loop on its hot arm throughout.
    Churn {
        function: "branch_flip",
        conforming: |n| [n, n],
        violating: [VIOLATING_N, VIOLATING_FLIP],
        sizes: [400, 416, 432, 448],
    },
    Churn {
        function: "phase_filter",
        conforming: |n| [n, n],
        violating: [VIOLATING_N, VIOLATING_FLIP],
        sizes: [500, 516, 532, 548],
    },
    Churn {
        function: "rare_path",
        conforming: |n| [n, n],
        violating: [VIOLATING_N, VIOLATING_FLIP],
        sizes: [400, 416, 432, 448],
    },
    // Value stability: the configuration argument holds, then flips.
    Churn {
        function: "mode_blend",
        conforming: |n| [1, n],
        violating: [2, VIOLATING_N],
        sizes: [300, 316, 332, 348],
    },
    Churn {
        function: "scaled_checksum",
        conforming: |n| [3, n],
        violating: [9, VIOLATING_N],
        sizes: [400, 416, 432, 448],
    },
    // Inlined callee: phase 0 throughout, then a flip inside the callee.
    Churn {
        function: "callee_flip",
        conforming: |n| [n, n],
        violating: [VIOLATING_N, VIOLATING_FLIP],
        sizes: [80, 96, 112, 128],
    },
    // The callee's own branch profile comes from direct requests to it.
    Churn {
        function: "mix_step",
        conforming: |n| [n, 0],
        violating: [VIOLATING_N, 0],
        sizes: [80, 96, 112, 128],
    },
];

fn spec_churn(seed: u64) -> Result<Workload, String> {
    let mut module = Module::new();
    for k in workloads::speculation_kernels()
        .into_iter()
        .chain(workloads::value_speculation_kernels())
    {
        layers::merge(&mut module, layers::compile_source(&k.source));
    }
    add_kernel(&mut module, "callee_flip");
    let mut rng = SplitMix64(seed ^ 0x00C4_0721);
    let mut b = PlanBuilder::new(&module);
    let mut position = 0usize;
    while b.plan.order.len() < ORDER_LEN {
        let stream = &CHURN[position % CHURN.len()];
        let in_cycle = (position / CHURN.len()) % CHURN_CYCLE;
        position += 1;
        let n = stream.sizes[rng.below(4) as usize];
        let args = if in_cycle >= CHURN_CYCLE - CHURN_VIOLATING {
            stream.violating
        } else {
            (stream.conforming)(n)
        };
        let debug = rng.below(100) < CHURN_DEBUG_PERCENT;
        b.push(stream.function, &args, debug);
    }
    let plan = b.finish()?;
    Ok(Workload {
        name: SPEC_CHURN,
        seed,
        shape: Shape::Closed,
        prewarm: Vec::new(),
        sweeps: vec![
            Sweep::Callee("mix_step"),
            Sweep::Value("mode_blend", 0),
            Sweep::Value("scaled_checksum", 0),
        ],
        // Four full churn cycles: the profiles have seen their violating
        // share before anything is measured.
        warm_min: 4 * CHURN.len() * CHURN_CYCLE,
        module,
        plan,
    })
}

/// Builds the named workload from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        STEADY_HOT => steady_hot(seed),
        SERVE_ZIPF => serve_zipf(seed),
        COLD_START => cold_start(seed),
        SPEC_CHURN => spec_churn(seed),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_whose_reference_run_fails_is_rejected() {
        let module = layers::compile_source(
            "fn spin(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        );
        let mut b = PlanBuilder::new(&module);
        assert!(b.push("spin", &[10], false));
        assert!(
            b.push("spin", &[10], false),
            "a repeat reuses the pool entry"
        );
        assert!(!b.push("missing", &[1], false), "unknown function");
        let plan = b.finish().unwrap();
        assert_eq!(plan.pool.len(), 1);
        assert_eq!(plan.order, vec![0, 0]);
        assert_eq!(plan.pool[0].expected, Some(Val::Int(45)));
    }

    #[test]
    fn churn_cycle_keeps_the_profile_above_the_speculation_threshold() {
        let conforming = (CHURN_CYCLE - CHURN_VIOLATING) * 100 / CHURN_CYCLE;
        assert!(conforming >= 90, "{conforming}% conforming");
    }
}
