//! `osrbench` — the repo's benchmark of record for the tiered OSR engine.
//!
//! A single-process load generator + oracle + span recorder that drives
//! the engine only through its public API.  See `README.md` in this
//! directory for the modes, every metric and why each workload exists.

mod layers;
mod loadgen;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::{Counters, Ladder, Service, Session};
use loadgen::{
    closed_loop, open_loop, Clock, Judged, LoopResult, SplitMix64, TracedRequest, Tracer, Until,
};
use spans::Recorder;
use stats::{
    bucket, json_num, json_str, median, percentile, split_window, verdict_sides, Better, Bound,
    Interval, Json, Metric, Verdict,
};
use workloads::{Shape, Workload};

/// A run's window is cut into this many pieces, each preceded by a piece
/// of the baseline leg: the machine's speed drifts by several percent over
/// tens of seconds, and `speedup_vs_o0` must not compare two machines.
/// The open loop runs one piece per arrival rate.
const BLOCKS: usize = SERVE_RATES.len();
/// Sub-windows per piece; every timed metric of a closed loop is the
/// median of its per-sub-window values (6 per window).  An open-loop
/// phase gets 10, each with a session of its own (see `measure_open`);
/// its latency percentiles are taken over the whole phase.
const SUB_WINDOWS: usize = 2;
const OPEN_SUB_WINDOWS: usize = 10;
/// Set-up is repeated at least [`SETUP_REPS`] times, and cheap set-ups on
/// until [`SETUP_BUDGET_S`] is spent or [`SETUP_REPS_MOST`] are done
/// (`setup_s` and `time_to_warm_ms` are medians over the repetitions).
const SETUP_REPS: usize = 3;
const SETUP_REPS_MOST: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;
/// The baseline (never-climbing engine) leg runs this share of the window.
const BASELINE_SHARE: f64 = 0.25;
/// `serve_zipf`, traced run only: the share of the window its closed-loop
/// capacity leg gets; the open loop gets the rest.
const CAPACITY_SHARE: f64 = 0.4;
/// Warm-up sends traffic in chunks of this many requests and stops once
/// [`WARM_QUIET_CHUNKS`] chunks in a row saw no compile finish and ended
/// with the compile queue empty.
const WARM_CHUNK: usize = 64;
const WARM_QUIET_CHUNKS: usize = 4;
const WARM_LIMIT_NS: u64 = 60_000_000_000;
/// `serve_zipf`: the three arrival rates (requests per second), frozen at
/// the seed commit at about 20/40/60 % of this module's closed-loop
/// capacity.  See README.md, "Calibration".
const SERVE_RATES: [f64; 3] = [1000.0, 2000.0, 3000.0];
/// `serve_zipf`: the latency limit on p99 from due time.
const SLO_P99_US: f64 = 5000.0;
/// `serve_zipf`: a phase's backlog "grows" if `waiting()` averages this
/// many more requests in the last quarters of its sub-windows than in
/// their first.
const BACKLOG_GROWTH: f64 = 8.0;
/// `cold_start`: requests per round and the engine-metrics poll interval.
const ROUND_REQUESTS: usize = 6000;
const POLL_NS: u64 = 5_000_000;
/// `cold_start`: a round's engine is warm at the first poll that starts
/// this many consecutive polls with an empty compile queue and no compile
/// finishing (50 ms of quiet).
const QUIET_POLLS: usize = 10;

/// Validity gates: a workload that stopped exercising its mechanism fails
/// instead of reporting numbers.
const GATE_TOP_RUNG_SHARE: f64 = 0.5;
const GATE_HIT_RATIO: f64 = 0.9;
const GATE_LAG_P99_US: f64 = 1000.0;
const GATE_COMPILES_PER_ROUND: u64 = 32;

/// Requests attempted, failed and wrong over a whole run (warm-up and
/// baseline leg included: the oracle checks every completion).
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, r: &LoopResult) {
        self.attempted += r.attempted;
        self.failed += r.failed();
        self.wrong += r.wrong();
    }
}

/// A warmed engine with its open session.
struct Warm {
    service: Service,
    session: Session,
    time_to_warm_ms: f64,
}

/// `Engine::new` → prewarm → traffic until the compile queue stays empty.
fn warm_up(w: &Workload, ladder: Ladder, clock: &Clock, tally: &mut Tally) -> Result<Warm, String> {
    let t0 = clock.now_ns();
    let service = Service::new(w.module.clone(), ladder);
    if ladder == Ladder::Default {
        for f in &w.prewarm {
            service.prewarm(f);
        }
    }
    let session = service.start();
    let mut cursor = 0;
    let mut quiet_chunks = 0;
    let mut before = service.counters();
    loop {
        let r = closed_loop(
            &session,
            &w.plan,
            &mut cursor,
            Until::Count(WARM_CHUNK),
            clock,
            None,
            |_| {},
        );
        tally.add(&r);
        let now = service.counters();
        let quiet = now.compile_queue_depth == 0 && now.compiles == before.compiles;
        let compiled = now.compiles > 0 || ladder == Ladder::NeverHot;
        quiet_chunks = if quiet && compiled {
            quiet_chunks + 1
        } else {
            0
        };
        if quiet_chunks >= WARM_QUIET_CHUNKS && cursor >= w.warm_min {
            break;
        }
        if clock.now_ns() - t0 > WARM_LIMIT_NS {
            return Err(format!(
                "{}: engine did not warm within {} s",
                w.name,
                WARM_LIMIT_NS / 1_000_000_000
            ));
        }
        before = now;
    }
    Ok(Warm {
        time_to_warm_ms: (clock.now_ns() - t0) as f64 / 1e6,
        service,
        session,
    })
}

/// One `cold_start` round.
struct Round {
    time_to_warm_ms: Option<f64>,
    compiles: u64,
}

/// What a measured piece (or several, absorbed into one) produced.
#[derive(Default)]
struct Measured {
    result: LoopResult,
    /// Sub-windows (or rounds) the timed metrics are computed over.
    intervals: Vec<Interval>,
    /// Engine counter growth over the pieces.
    engine: Counters,
    /// Execution nanoseconds per rung over the pieces.
    rung_ns: Vec<u64>,
    rounds: Vec<Round>,
    /// Invalidation sweeps the generator issued.
    sweeps: u64,
    wall_ns: u64,
}

impl Measured {
    /// Appends the next piece.
    fn absorb(&mut self, piece: Measured) {
        self.result.absorb(piece.result);
        self.intervals.extend(piece.intervals);
        self.engine.absorb(&piece.engine);
        if self.rung_ns.len() < piece.rung_ns.len() {
            self.rung_ns.resize(piece.rung_ns.len(), 0);
        }
        for (total, r) in self.rung_ns.iter_mut().zip(&piece.rung_ns) {
            *total += r;
        }
        self.rounds.extend(piece.rounds);
        self.sweeps += piece.sweeps;
        self.wall_ns += piece.wall_ns;
    }
}

fn rung_delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after
        .iter()
        .enumerate()
        .map(|(i, a)| a - before.get(i).copied().unwrap_or(0))
        .collect()
}

fn seconds_ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// Runs `body` against a warm engine and wraps what it produced with the
/// engine's counter growth over the same stretch.
fn measured_on(
    warm: &Warm,
    seconds: f64,
    parts: usize,
    clock: &Clock,
    body: impl FnOnce(u64, u64) -> (LoopResult, u64),
) -> Measured {
    let before = warm.service.counters();
    let rung_before = warm.service.rung_time();
    let start = clock.now_ns();
    let len = seconds_ns(seconds);
    let (result, sweeps) = body(start, len);
    Measured {
        result,
        intervals: split_window(start, len, parts),
        engine: warm.service.counters().since(&before),
        rung_ns: rung_delta(&warm.service.rung_time(), &rung_before),
        rounds: Vec::new(),
        sweeps,
        wall_ns: clock.now_ns() - start,
    }
}

/// Closed loop on an already warm engine for `seconds` (with the
/// workload's invalidation sweeps, if it has any).
fn measure_closed(
    w: &Workload,
    warm: &Warm,
    seconds: f64,
    cursor: &mut usize,
    clock: &Clock,
    tracer: Option<&mut Tracer>,
) -> Measured {
    measured_on(warm, seconds, SUB_WINDOWS, clock, |start, len| {
        let mut completed = 0usize;
        let mut sweeps = 0;
        let result = closed_loop(
            &warm.session,
            &w.plan,
            cursor,
            Until::Deadline(start + len),
            clock,
            tracer,
            |_| {
                completed += 1;
                if !w.sweeps.is_empty() && completed.is_multiple_of(workloads::SWEEP_EVERY) {
                    let turn = completed / workloads::SWEEP_EVERY;
                    warm.service.invalidate(&w.sweeps[turn % w.sweeps.len()]);
                    sweeps += 1;
                }
            },
        );
        (result, sweeps)
    })
}

/// One open-loop phase on an already warm engine: Poisson arrivals at
/// [`SERVE_RATES`]`[phase]` for `seconds`, each sub-window through a
/// session of its own.  Where the kernel first puts a session's workers
/// sticks for the session's life, and on a mostly idle engine that
/// placement moves every latency by some +-10 %: a phase on one session
/// measures one draw of it, a session per sub-window ten.
fn measure_open(
    w: &Workload,
    warm: &Warm,
    phase: usize,
    seconds: f64,
    cursor: &mut usize,
    clock: &Clock,
    mut tracer: Option<&mut Tracer>,
) -> Measured {
    measured_on(warm, seconds, OPEN_SUB_WINDOWS, clock, |start, len| {
        let mut rng = SplitMix64(w.seed ^ 0xA221_7A15 ^ ((phase as u64) << 32));
        let mut result = LoopResult::default();
        for (lo, hi) in split_window(start, len, OPEN_SUB_WINDOWS) {
            let session = warm.service.start();
            // Arrivals start once the session is up (and the previous
            // sub-window has drained), so no request is due before there
            // is anyone to send it to.
            let ready = clock.now_ns().max(lo);
            let due: Vec<u64> =
                loadgen::poisson_schedule(&mut rng, SERVE_RATES[phase], hi.saturating_sub(ready))
                    .into_iter()
                    .map(|t| ready + t)
                    .collect();
            let tracer = tracer.as_deref_mut();
            result.absorb(open_loop(&session, &w.plan, cursor, &due, clock, tracer));
            session.shutdown();
        }
        (result, 0)
    })
}

/// `cold_start`: rounds of `Engine::new` → [`ROUND_REQUESTS`] requests →
/// last completion.  At least one round; another starts while at least
/// half of it still fits into `seconds`.
/// Engine teardown happens between rounds, outside every interval.
fn measure_rounds(
    w: &Workload,
    ladder: Ladder,
    seconds: f64,
    cursor: &mut usize,
    clock: &Clock,
    mut tracer: Option<&mut Tracer>,
) -> Measured {
    let piece_start = clock.now_ns();
    let mut m = Measured::default();
    let mut round_ns = 0;
    while m.rounds.is_empty() || clock.now_ns() - piece_start + round_ns / 2 < seconds_ns(seconds) {
        let t0 = clock.now_ns();
        let service = Service::new(w.module.clone(), ladder);
        let session = service.start();
        // (instant, compiles, compile queue depth) every POLL_NS.
        let mut polls: Vec<(u64, u64, u64)> = Vec::new();
        // Rounds walk on through the order, so each sees another shuffle
        // of the same mix and the median over rounds does not hinge on one.
        let result = closed_loop(
            &session,
            &w.plan,
            cursor,
            Until::Count(ROUND_REQUESTS),
            clock,
            tracer.as_deref_mut(),
            |now| {
                if polls.last().is_none_or(|(t, _, _)| now - t >= POLL_NS) {
                    let c = service.counters();
                    polls.push((now, c.compiles, c.compile_queue_depth));
                }
            },
        );
        let t1 = clock.now_ns();
        round_ns = t1 - t0;
        let warm_at = polls
            .windows(QUIET_POLLS)
            .find(|run| run[0].1 > 0 && run.iter().all(|(_, c, q)| *q == 0 && *c == run[0].1))
            .map(|run| run[0]);
        let counters = service.counters();
        m.absorb(Measured {
            result,
            intervals: vec![(t0, t1)],
            engine: counters,
            rung_ns: service.rung_time(),
            rounds: vec![Round {
                time_to_warm_ms: warm_at.map(|(t, _, _)| (t - t0) as f64 / 1e6),
                compiles: counters.compiles,
            }],
            sweeps: 0,
            wall_ns: round_ns,
        });
        session.shutdown();
        drop(service);
    }
    m
}

/// One side of a run: an engine (none for `cold_start`, whose rounds build
/// their own) with its place in the request order.
struct Leg {
    warm: Option<Warm>,
    ladder: Ladder,
    cursor: usize,
}

impl Leg {
    /// Piece number `block` of this leg, `seconds` long: the workload's
    /// rounds, its open-loop phase at rate number `block`, or its closed
    /// loop.
    fn measure(
        &mut self,
        w: &Workload,
        block: usize,
        seconds: f64,
        clock: &Clock,
        tracer: Option<&mut Tracer>,
    ) -> Measured {
        match (&self.warm, w.shape) {
            (Some(warm), Shape::Open) => {
                measure_open(w, warm, block, seconds, &mut self.cursor, clock, tracer)
            }
            _ => self.closed(w, seconds, clock, tracer),
        }
    }

    /// The workload's rounds or closed loop for `seconds`.
    fn closed(
        &mut self,
        w: &Workload,
        seconds: f64,
        clock: &Clock,
        tracer: Option<&mut Tracer>,
    ) -> Measured {
        let cursor = &mut self.cursor;
        match &self.warm {
            None => measure_rounds(w, self.ladder, seconds, cursor, clock, tracer),
            Some(warm) => measure_closed(w, warm, seconds, cursor, clock, tracer),
        }
    }

    fn shutdown(self) {
        if let Some(warm) = self.warm {
            warm.session.shutdown();
        }
    }
}

/// Per-interval throughput (correct completions per second).  An open
/// loop's sub-windows differ in rate by design, so there a sample is the
/// mean over the phases' k-th sub-windows: a tenth of the whole window.
fn throughput_samples(m: &Measured) -> Vec<f64> {
    let correct = m
        .result
        .completions
        .iter()
        .filter(|c| c.judged == Judged::Correct)
        .map(|c| (c.end_ns, 1.0));
    let per_interval: Vec<f64> = bucket(&m.intervals, correct)
        .iter()
        .zip(&m.intervals)
        .map(|(b, (lo, hi))| b.len() as f64 / ((hi - lo) as f64 / 1e9))
        .collect();
    if m.result.arrivals.is_empty() || !per_interval.len().is_multiple_of(OPEN_SUB_WINDOWS) {
        return per_interval;
    }
    let phases = per_interval.len() / OPEN_SUB_WINDOWS;
    (0..OPEN_SUB_WINDOWS)
        .map(|k| {
            let across = per_interval.iter().skip(k).step_by(OPEN_SUB_WINDOWS);
            across.sum::<f64>() / phases as f64
        })
        .collect()
}

/// Per-interval latency percentile, requests grouped by when their latency
/// clock started.  Intervals without completions give no sample.
fn latency_samples(m: &Measured, intervals: &[Interval], p: f64) -> Vec<f64> {
    let all = m
        .result
        .completions
        .iter()
        .map(|c| (c.start_ns, c.latency_us()));
    bucket(intervals, all)
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            percentile(&b, p)
        })
        .collect()
}

/// `serve_zipf`: the highest fixed rate whose phase met the latency limit
/// without a growing backlog (0 if none did).
fn slo_rate(m: &Measured) -> f64 {
    let mut best = 0.0;
    for (i, rate) in SERVE_RATES.iter().enumerate() {
        let at_rate = phase_intervals(m, i);
        let p99 = latency_samples(m, &[phase_span(m, i)], 99.0);
        // Every sub-window has a session (and so a queue) of its own:
        // growth is from the first quarters of the sub-windows to their
        // last quarters.
        let (mut early, mut late) = (Vec::new(), Vec::new());
        for (lo, hi) in at_rate {
            let waiting = m.result.arrivals.iter();
            let mut quarters = bucket(
                &split_window(*lo, hi - lo, 4),
                waiting.map(|a| (a.due_ns, a.waiting as f64)),
            );
            late.append(&mut quarters[3]);
            early.append(&mut quarters[0]);
        }
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let growing = mean(&late) - mean(&early) > BACKLOG_GROWTH;
        if p99.first().is_some_and(|p| *p <= SLO_P99_US) && !growing {
            best = *rate;
        }
    }
    best
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn top_rung_share(rung_ns: &[u64]) -> f64 {
    let total: u64 = rung_ns.iter().sum();
    match rung_ns.last() {
        Some(top) if total > 0 => *top as f64 / total as f64,
        _ => 0.0,
    }
}

/// Open loop: p99 of the generator's lateness, median over sub-windows
/// (0 for a closed loop, which has no schedule to be late for).
fn lag_p99_us(m: &Measured) -> f64 {
    let lag = m
        .result
        .arrivals
        .iter()
        .map(|a| (a.due_ns, a.lag_ns as f64));
    let per_window: Vec<f64> = bucket(&m.intervals, lag)
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| sorted_percentile(b, 99.0) / 1e3)
        .collect();
    if per_window.is_empty() {
        0.0
    } else {
        median(&per_window)
    }
}

/// The workload's validity gate over its measured window.
fn gate(w: &Workload, m: &Measured) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: validity gate failed: {what}", w.name));
    match w.name {
        workloads::STEADY_HOT => {
            let share = top_rung_share(&m.rung_ns);
            if share < GATE_TOP_RUNG_SHARE {
                return fail(format!(
                    "top-rung time share {share:.3} < {GATE_TOP_RUNG_SHARE}"
                ));
            }
        }
        workloads::SERVE_ZIPF => {
            let probes = m.engine.cache_hits + m.engine.cache_misses;
            let ratio = m.engine.cache_hits as f64 / probes.max(1) as f64;
            if ratio < GATE_HIT_RATIO {
                return fail(format!("cache hit ratio {ratio:.3} < {GATE_HIT_RATIO}"));
            }
            let lag = lag_p99_us(m);
            if lag > GATE_LAG_P99_US {
                return fail(format!(
                    "generator lag p99 {lag:.0} us > {GATE_LAG_P99_US} us"
                ));
            }
        }
        workloads::COLD_START => {
            let least = m.rounds.iter().map(|r| r.compiles).min().unwrap_or(0);
            if least < GATE_COMPILES_PER_ROUND {
                return fail(format!(
                    "{least} compiles in a round < {GATE_COMPILES_PER_ROUND}"
                ));
            }
            if m.rounds.iter().any(|r| r.time_to_warm_ms.is_none()) {
                return fail("a round ended before its compile queue went quiet".to_string());
            }
        }
        workloads::SPEC_CHURN => {
            let e = &m.engine;
            if e.guard_bias == 0 || e.guard_value == 0 || e.guard_inline == 0 {
                return fail(format!(
                    "guard failures bias={} value={} inline={} (each must be >= 1)",
                    e.guard_bias, e.guard_value, e.guard_inline
                ));
            }
            // The sweeps are the benchmark's own calls; what they must
            // find is the engine's doing.  The engine was warm before the
            // window, so every compile inside it rebuilds something a
            // sweep evicted - and only while the engine keeps rebuilding
            // do the sweeps keep finding more artifacts than there are
            // sweeps.
            if e.invalidations <= m.sweeps || e.compiles == 0 {
                return fail(format!(
                    "{} artifacts evicted by {} sweeps, {} recompiles \
                     (evictions must exceed sweeps, recompiles be >= 1)",
                    e.invalidations, m.sweeps, e.compiles
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order: what the
/// driver form prints with `--trace 0`.  `run` prints these and the ones
/// that cannot hold a bound of 10 % on every workload or that the file's
/// schema cannot carry (see `COMPARE_EXTRA` and README.md).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_us",
    "speedup_vs_o0",
    "time_to_warm_ms",
];

/// Rules `compare` applies beside the bounds in `BENCHMARK.json`.  The
/// demoted metrics (`latency_p99_us`, `latency_p99_high_us`,
/// `slo_rate_rps`, `peak_rss_mb`) have no bound, so `compare` has nothing
/// to hold them to; `run` prints them.
const COMPARE_EXTRA: [(&str, Better, Bound); 2] = [
    ("failed_share", Better::Lower, Bound::Absolute(0.001)),
    ("wrong_results", Better::Lower, Bound::Absolute(0.0)),
];

/// One workload's run: its metrics, plus the tally over every request.
struct Report {
    workload: &'static str,
    metrics: Vec<Metric>,
    tally: Tally,
}

/// The sub-windows of an open-loop measurement that ran at rate number
/// `phase` of [`SERVE_RATES`].
fn phase_intervals(open: &Measured, phase: usize) -> &[Interval] {
    let per_phase = open.intervals.len() / SERVE_RATES.len();
    &open.intervals[phase * per_phase..(phase + 1) * per_phase]
}

/// The whole of rate phase number `phase` of an open-loop measurement.
fn phase_span(open: &Measured, phase: usize) -> Interval {
    let at_rate = phase_intervals(open, phase);
    (at_rate[0].0, at_rate[at_rate.len() - 1].1)
}

/// The intervals latency is summarised over, one sample each.
fn latency_intervals(w: &Workload, m: &Measured) -> Vec<Interval> {
    match (w.shape, m.intervals.first(), m.intervals.last()) {
        // The open loop reports latency at its middle rate, over the whole
        // phase: its sub-windows differ by where their sessions' workers
        // were placed, and a percentile over all of them averages that out
        // where a median of ten per-session percentiles picks one or two.
        (Shape::Open, ..) => vec![phase_span(m, 1)],
        // Rounds are replicas of one experiment, not stretches of one
        // run: a per-round p99 sits on the edge between requests that met
        // the compile worker's time slice and requests that did not, so
        // the rounds are pooled for latency rather than summarised one by
        // one.
        (Shape::Rounds, Some(first), Some(last)) => vec![(first.0, last.1)],
        _ => m.intervals.clone(),
    }
}

/// The metrics only an open loop has: p99 from due time at the top rate,
/// and the highest rate that met the latency limit.
fn open_metrics(prefix: &str, open: &Measured) -> Vec<Metric> {
    vec![
        Metric::new(
            format!("{prefix}latency_p99_high_us"),
            "us",
            latency_samples(open, &[phase_span(open, 2)], 99.0),
        ),
        Metric::single(format!("{prefix}slo_rate_rps"), "1/s", slo_rate(open)),
    ]
}

/// Builds the workload and, unless its rounds build their own, a warm
/// engine for it; returns them with the set-up's seconds.
fn set_up(
    name: &str,
    seed: u64,
    clock: &Clock,
    tally: &mut Tally,
) -> Result<(Workload, Leg, f64), String> {
    let t0 = clock.now_ns();
    let w = workloads::build(name, seed)?;
    let warm = match w.shape {
        Shape::Rounds => None,
        _ => Some(warm_up(&w, Ladder::Default, clock, tally)?),
    };
    let leg = Leg {
        warm,
        ladder: Ladder::Default,
        cursor: 0,
    };
    Ok((w, leg, (clock.now_ns() - t0) as f64 / 1e9))
}

/// The untraced run: every end-to-end metric.
fn run_workload(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let clock = Clock::start();
    let mut tally = Tally::default();

    // Set-up, several times over; the last one is measured on.
    let mut setup_s = Vec::new();
    let mut warm_ms = Vec::new();
    let (w, mut tiered) = loop {
        let (w, leg, took) = set_up(name, seed, &clock, &mut tally)?;
        setup_s.push(took);
        warm_ms.extend(leg.warm.as_ref().map(|warm| warm.time_to_warm_ms));
        let spent: f64 = setup_s.iter().sum();
        let enough = setup_s.len() >= SETUP_REPS_MOST
            || (setup_s.len() >= SETUP_REPS && spent >= SETUP_BUDGET_S);
        if enough {
            break (w, leg);
        }
        // Tear the engine down outside the next timed set-up.
        leg.shutdown();
    };

    // The baseline leg: the same traffic on an engine that never climbs.
    let mut base = Leg {
        warm: match w.shape {
            Shape::Rounds => None,
            _ => Some(warm_up(&w, Ladder::NeverHot, &clock, &mut tally)?),
        },
        ladder: Ladder::NeverHot,
        cursor: 0,
    };

    let mut measured = Measured::default();
    let mut baseline = Measured::default();
    let mut speedup = Vec::new();
    let piece = seconds / BLOCKS as f64;
    for block in 0..BLOCKS {
        let b = base.measure(&w, block, piece * BASELINE_SHARE, &clock, None);
        let m = tiered.measure(&w, block, piece, &clock, None);
        let base_rps = median(&throughput_samples(&b));
        speedup.extend(throughput_samples(&m).iter().map(|t| t / base_rps));
        baseline.absorb(b);
        measured.absorb(m);
    }
    base.shutdown();
    tiered.shutdown();
    tally.add(&baseline.result);
    tally.add(&measured.result);
    gate(&w, &measured)?;

    let latency_over = latency_intervals(&w, &measured);
    let p50 = latency_samples(&measured, &latency_over, 50.0);
    let p99 = latency_samples(&measured, &latency_over, 99.0);
    if p50.is_empty() {
        return Err(format!("{name}: no completions in the measured window"));
    }
    if !measured.rounds.is_empty() {
        warm_ms = measured
            .rounds
            .iter()
            .filter_map(|r| r.time_to_warm_ms)
            .collect();
    }

    let mut metrics = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("throughput_rps", "1/s", throughput_samples(&measured)),
        Metric::new("latency_p50_us", "us", p50),
        Metric::new("latency_p99_us", "us", p99),
        Metric::new("speedup_vs_o0", "ratio", speedup),
        Metric::new("speedup_base_o0_rps", "1/s", throughput_samples(&baseline)),
        Metric::new("time_to_warm_ms", "ms", warm_ms),
        Metric::single("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    if w.shape == Shape::Open {
        metrics.extend(open_metrics("", &measured));
    }
    metrics.push(Metric::single(
        "failed_share",
        "ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    ));
    metrics.push(Metric::single("wrong_results", "count", tally.wrong as f64));
    Ok(Report {
        workload: w.name,
        metrics,
        tally,
    })
}

/// Rebuilds one request's span tree from the benchmark's stamps and the
/// engine's public trace.  Engine stamps are microseconds on the engine's
/// clock; they are placed on the benchmark's clock relative to the submit
/// instant both sides saw.
fn record_request_spans(rec: &mut Recorder, r: &TracedRequest) {
    let id = Some(r.id);
    let root = rec.record("request", r.start_ns, r.end_ns, None, id);
    if r.sent_ns > r.start_ns {
        rec.record("bench.loadgen.lag", r.start_ns, r.sent_ns, Some(root), id);
    }
    let Some(t) = &r.trace else { return };
    let on_bench = |us: u64| r.sent_ns + us.saturating_sub(t.submitted_us) * 1000;
    let Some(picked_up) = t.picked_up_us else {
        return;
    };
    rec.record(
        "engine.session.queue_wait",
        r.sent_ns,
        on_bench(picked_up),
        Some(root),
        id,
    );
    let Some(completed) = t.completed_us else {
        return;
    };
    let exec = rec.record(
        "engine.execute",
        on_bench(picked_up),
        on_bench(completed),
        Some(root),
        id,
    );
    for h in &t.hops {
        let landed = on_bench(h.at_us);
        rec.record(
            &format!("engine.hop.{}", h.kind),
            landed.saturating_sub(h.nanos),
            landed,
            Some(exec),
            id,
        );
    }
}

fn sorted_percentile(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// The traced run of one workload: half of its closed loop or rounds
/// (`serve_zipf`: of a closed capacity leg) untraced, half with the span
/// recorder on — their throughput ratio is the tracing overhead — then,
/// for `serve_zipf`, its open loop traced.  Every per-layer metric that is
/// read off a run comes from the traced part (the open loop where there
/// is one).
fn trace_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Report, String> {
    let clock = Clock::start();
    let mut tally = Tally::default();
    let (w, mut leg, _) = set_up(name, seed, &clock, &mut tally)?;
    let open_share = match w.shape {
        Shape::Open => 1.0 - CAPACITY_SHARE,
        _ => 0.0,
    };
    let half = seconds * (1.0 - open_share) / 2.0;
    let untraced = leg.closed(&w, half, &clock, None);
    let mut tracer = Tracer::default();
    let closed = leg.closed(&w, half, &clock, Some(&mut tracer));
    tally.add(&untraced.result);
    tally.add(&closed.result);
    let open = (w.shape == Shape::Open).then(|| {
        tracer = Tracer::default();
        let phase = seconds * open_share / SERVE_RATES.len() as f64;
        let mut open = Measured::default();
        for i in 0..SERVE_RATES.len() {
            open.absorb(leg.measure(&w, i, phase, &clock, Some(&mut tracer)));
        }
        tally.add(&open.result);
        open
    });
    leg.shutdown();
    let traced = open.as_ref().unwrap_or(&closed);
    gate(&w, traced)?;
    for r in &tracer.requests {
        record_request_spans(rec, r);
    }
    let capacity = median(&throughput_samples(&untraced));
    let overhead = 1.0 - median(&throughput_samples(&closed)) / capacity;

    let views: Vec<&layers::TraceView> = tracer
        .requests
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .collect();
    let per_request = |n: usize| n as f64 / views.len().max(1) as f64;
    let hops: Vec<&layers::Hop> = views.iter().flat_map(|t| &t.hops).collect();
    let hop_ns: Vec<f64> = hops.iter().map(|h| h.nanos as f64).collect();
    let queue_wait_us: Vec<f64> = views
        .iter()
        .filter_map(|t| Some(t.picked_up_us?.saturating_sub(t.submitted_us) as f64))
        .collect();
    let e = &traced.engine;
    let rung_total: u64 = traced.rung_ns.iter().sum();
    let probes = e.cache_hits + e.cache_misses;
    // How the generator's actual sending span compares with the schedule's.
    let arrivals = &traced.result.arrivals;
    let achieved = match (arrivals.first(), arrivals.last()) {
        (Some(first), Some(last)) if last.due_ns > first.due_ns => {
            let scheduled = last.due_ns - first.due_ns;
            let actual = (last.due_ns + last.lag_ns) - (first.due_ns + first.lag_ns);
            scheduled as f64 / actual as f64
        }
        _ => 1.0,
    };
    let one = |name: &str, unit: &'static str, v: f64| Metric::single(name, unit, v);
    let mut metrics = vec![
        one(
            "engine.cache.hit_ratio",
            "ratio",
            e.cache_hits as f64 / probes.max(1) as f64,
        ),
        one(
            "engine.cache.invalidations",
            "count",
            e.invalidations as f64,
        ),
        one("engine.pool.compiles", "count", e.compiles as f64),
        one(
            "engine.pool.compile_busy_share",
            "ratio",
            e.compile_nanos as f64
                / (traced.wall_ns.max(1) * layers::COMPILE_WORKERS as u64) as f64,
        ),
        one(
            "engine.pool.queue_peak",
            "count",
            e.compile_queue_peak as f64,
        ),
        one("engine.pool.compile_p50_us", "us", e.compile_p50_us as f64),
        one("engine.pool.compile_p99_us", "us", e.compile_p99_us as f64),
        one(
            "engine.session.submit_ns",
            "ns",
            sorted_percentile(tracer.submit_ns.clone(), 50.0),
        ),
        one(
            "engine.session.queue_wait_p50_us",
            "us",
            sorted_percentile(queue_wait_us.clone(), 50.0),
        ),
        one(
            "engine.session.queue_wait_p99_us",
            "us",
            sorted_percentile(queue_wait_us, 99.0),
        ),
        one(
            "engine.session.refused",
            "count",
            traced.result.refused as f64,
        ),
        one("engine.session.expired", "count", e.expired as f64),
        one("engine.hops_per_request", "count", per_request(hops.len())),
        one(
            "engine.deopts_per_request",
            "count",
            per_request(hops.iter().filter(|h| h.backward).count()),
        ),
        one(
            "engine.reclimbs_per_request",
            "count",
            per_request(hops.iter().filter(|h| h.reclimb).count()),
        ),
        one(
            "engine.composed_share",
            "ratio",
            e.composed_tier_ups as f64 / e.tier_ups.max(1) as f64,
        ),
        one(
            "engine.hop_p50_ns",
            "ns",
            sorted_percentile(hop_ns.clone(), 50.0),
        ),
        one("engine.hop_p99_ns", "ns", sorted_percentile(hop_ns, 99.0)),
        one(
            "engine.top_rung_time_share",
            "ratio",
            top_rung_share(&traced.rung_ns),
        ),
        one(
            "engine.o0_time_share",
            "ratio",
            traced.rung_ns.first().copied().unwrap_or(0) as f64 / rung_total.max(1) as f64,
        ),
        one("engine.guard_failures.bias", "count", e.guard_bias as f64),
        one("engine.guard_failures.value", "count", e.guard_value as f64),
        one(
            "engine.guard_failures.inline",
            "count",
            e.guard_inline as f64,
        ),
        one("engine.threshold_moves", "count", e.threshold_moves as f64),
        one("bench.loadgen.lag_p99_us", "us", lag_p99_us(traced)),
        one("bench.loadgen.achieved_rate_share", "ratio", achieved),
        one("bench.trace.overhead_share", "ratio", overhead),
        one("bench.peak_rss_mb", "MB", peak_rss_mb()),
    ];
    metrics.push(one("engine.session.capacity_rps", "1/s", capacity));
    metrics.push(Metric::new(
        "engine.session.latency_p99_us",
        "us",
        latency_samples(traced, &latency_intervals(&w, traced), 99.0),
    ));
    metrics.extend(match &open {
        Some(open) => open_metrics("engine.session.", open),
        // No open loop, nothing to report: the driver wants every name.
        None => vec![
            one("engine.session.latency_p99_high_us", "us", 0.0),
            one("engine.session.slo_rate_rps", "1/s", 0.0),
        ],
    });
    Ok(Report {
        workload: w.name,
        metrics,
        tally,
    })
}

/// Where a traced run's spans go (inside the checkout, ignored by git).
fn spans_path(what: &str) -> PathBuf {
    PathBuf::from(format!("target/osrbench/spans-{what}.jsonl"))
}

fn write_spans(rec: &Recorder, what: &str) -> Result<(), String> {
    let path = spans_path(what);
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans -> {}", rec.len(), path.display());
    Ok(())
}

fn print_report(r: &Report) {
    println!("== {} ==", r.workload);
    println!(
        "{:<44} {:>16} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &r.metrics {
        println!(
            "{:<44} {:>16.4} {:<6} {:>7}",
            m.name,
            m.value(),
            m.unit,
            m.samples.len()
        );
    }
    if r.tally.attempted > 0 {
        println!(
            "attempted {} failed {} wrong {}",
            r.tally.attempted, r.tally.failed, r.tally.wrong
        );
    }
}

fn print_self_times(rec: &Recorder) {
    let mut by_name: Vec<(String, (u64, u64))> = rec.self_time_by_name().into_iter().collect();
    by_name.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    println!("{:<44} {:>16} {:>10}", "span", "self_ms", "spans");
    for (name, (ns, n)) in by_name {
        println!("{:<44} {:>16.3} {:>10}", name, ns as f64 / 1e6, n);
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, optionally with samples.
fn metrics_json(metrics: &[&Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                let list: Vec<String> = m.samples.iter().map(|s| json_num(*s)).collect();
                format!(", \"samples\": [{}]", list.join(", "))
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value()),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's result line.
fn result_line(tally: &Tally, metrics: &[&Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(metrics, false)
    )
}

/// The file `run --out` writes and `compare` reads.
fn results_json(seed: u64, seconds: f64, reports: &[Report]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let all: Vec<&Metric> = r.metrics.iter().collect();
            format!(
                "    {}: {{\"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                json_str(r.workload),
                r.tally.attempted,
                r.tally.failed,
                metrics_json(&all, true)
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"osrbench\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json_num(seconds),
        workloads.join(",\n")
    )
}

/// Same seed, same inputs; same source, same compiled counts.
fn selfcheck(seed: u64) -> Result<(), String> {
    for name in workloads::NAMES {
        let a = workloads::build(name, seed)?.plan.fingerprint();
        let b = workloads::build(name, seed)?.plan.fingerprint();
        if a != b {
            return Err(format!(
                "{name}: seed {seed} gave two different request lists or reference results"
            ));
        }
        println!(
            "selfcheck: {name}: {} bytes of requests and references repeat exactly",
            a.len()
        );
    }
    let (a, b) = (layers::exact_counts(), layers::exact_counts());
    if a != b {
        return Err(format!(
            "compiled counts differ between two compiles: {a:?} vs {b:?}"
        ));
    }
    println!("selfcheck: compiled counts repeat exactly: {a:?}");
    Ok(())
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// The bounds of `BENCHMARK.json`'s end-to-end metrics.
fn benchmark_rules(path: &str) -> Result<Vec<(String, Better, Bound)>, String> {
    let bad = || format!("{path}: malformed end_to_end entry");
    read_json(path)?
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or_else(bad)?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(bad()),
            };
            let bound = m.get("bound").and_then(Json::as_f64).ok_or_else(bad)?;
            Ok((name.to_string(), better, Bound::Relative(bound)))
        })
        .collect()
}

fn samples_of(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// One row per metric and workload; `Ok(false)` if any row is `worse`.
fn compare(a_path: &str, b_path: &str, benchmark: &str) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let mut rules = benchmark_rules(benchmark)?;
    rules.extend(
        COMPARE_EXTRA
            .iter()
            .map(|(name, better, bound)| (name.to_string(), *better, *bound)),
    );
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)"
    );
    let mut all_ok = true;
    let ran = |results: &Json, workload: &str| {
        results
            .get("workloads")
            .is_some_and(|w| w.get(workload).is_some())
    };
    for workload in workloads::NAMES {
        if !ran(&a, workload) && !ran(&b, workload) {
            continue;
        }
        for (metric, better, bound) in &rules {
            let sa = samples_of(&a, workload, metric).filter(|s| !s.is_empty());
            let sb = samples_of(&b, workload, metric).filter(|s| !s.is_empty());
            let v = verdict_sides(sa.as_deref(), sb.as_deref(), *better, *bound);
            all_ok &= v != Verdict::Worse;
            let side = |s: &Option<Vec<f64>>| match s {
                Some(s) => format!("{:.4}", median(s)),
                None => "missing".to_string(),
            };
            let ratio = match (&sa, &sb) {
                (Some(sa), Some(sb)) if median(sa) != 0.0 => {
                    format!("{:.4} ({:.4})", median(sb) / median(sa), median(sa))
                }
                _ => "-".to_string(),
            };
            println!(
                "{:<12} {:<22} {:>14} {:>14} {:>22}  {}",
                workload,
                metric,
                side(&sa),
                side(&sb),
                ratio,
                v.label()
            );
        }
    }
    Ok(all_ok)
}

const USAGE: &str = "usage:
  osrbench run       [--workload all|NAME] [--seed N] [--duration-s S] [--out FILE]
  osrbench trace     [--workload all|NAME] [--seed N] [--duration-s S]
  osrbench selfcheck [--seed N]
  osrbench compare A.json B.json [--benchmark BENCHMARK.json]
  osrbench --workload NAME --seed N --seconds S --trace 0|1     (benchmark driver form)
workloads: steady_hot serve_zipf cold_start spec_churn";

struct Args {
    mode: Option<String>,
    files: Vec<String>,
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    benchmark: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        files: Vec::new(),
        workload: "all".to_string(),
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        benchmark: "BENCHMARK.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" | "--duration-s" => {
                let s: f64 = value(&arg)?
                    .parse()
                    .map_err(|_| format!("{arg} takes a number of seconds"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("{arg} must be between 1 and 600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => args.out = Some(value("--out")?),
            "--benchmark" => args.benchmark = value("--benchmark")?,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ if args.mode.is_none() => args.mode = Some(arg),
            _ => args.files.push(arg),
        }
    }
    Ok(args)
}

fn selected(workload: &str) -> Vec<&str> {
    if workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![workload]
    }
}

fn run(args: &Args) -> Result<bool, String> {
    match args.mode.as_deref() {
        // The benchmark driver's form: one workload, one result line.
        None => {
            let seconds = args.seconds.ok_or("--seconds is required")?;
            if args.workload == "all" {
                return Err("--workload NAME is required".to_string());
            }
            if args.trace {
                let mut rec = Recorder::default();
                let report = trace_workload(&args.workload, args.seed, seconds, &mut rec)?;
                let ledger = layers::run_ledger(&mut rec, Clock::start());
                print_report(&report);
                write_spans(&rec, report.workload)?;
                let all: Vec<&Metric> = report.metrics.iter().chain(&ledger).collect();
                println!("{}", result_line(&report.tally, &all));
            } else {
                let report = run_workload(&args.workload, args.seed, seconds)?;
                print_report(&report);
                let wanted: Vec<&Metric> = report
                    .metrics
                    .iter()
                    .filter(|m| END_TO_END.contains(&m.name.as_str()))
                    .collect();
                println!("{}", result_line(&report.tally, &wanted));
            }
            Ok(true)
        }
        Some("run") => {
            let seconds = args.seconds.unwrap_or(30.0);
            let mut reports = Vec::new();
            for name in selected(&args.workload) {
                let report = run_workload(name, args.seed, seconds)?;
                print_report(&report);
                reports.push(report);
            }
            if let Some(out) = &args.out {
                std::fs::write(out, results_json(args.seed, seconds, &reports))
                    .map_err(|e| format!("writing {out}: {e}"))?;
                println!("results -> {out}");
            }
            Ok(reports.iter().all(|r| r.tally.wrong == 0))
        }
        Some("trace") => {
            selfcheck(args.seed)?;
            let seconds = args.seconds.unwrap_or(10.0);
            for name in selected(&args.workload) {
                let mut rec = Recorder::default();
                let report = trace_workload(name, args.seed, seconds, &mut rec)?;
                print_report(&report);
                print_self_times(&rec);
                write_spans(&rec, report.workload)?;
            }
            let mut rec = Recorder::default();
            let ledger = layers::run_ledger(&mut rec, Clock::start());
            print_report(&Report {
                workload: "ledger",
                metrics: ledger,
                tally: Tally::default(),
            });
            write_spans(&rec, "ledger")?;
            Ok(true)
        }
        Some("selfcheck") => selfcheck(args.seed).map(|()| true),
        Some("compare") => match args.files.as_slice() {
            [a, b] => compare(a, b, &args.benchmark),
            _ => Err("compare takes two result files".to_string()),
        },
        Some(other) => Err(format!("unknown mode `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("osrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("osrbench: {e}");
            ExitCode::from(2)
        }
    }
}
