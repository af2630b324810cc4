//! The load generator: one thread that sleeps (never spins), a private
//! SplitMix64 for every draw the workloads make, Poisson arrival schedules,
//! and the closed- and open-loop drivers with their oracle.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::layers::{Done, Outcome, Session, TraceView};
use crate::workloads::Plan;

/// Requests a closed loop keeps outstanding (= request workers, so both
/// cores are busy and nothing queues).
pub const OUTSTANDING: usize = 2;
/// Longest the open-loop generator sleeps between looks at the completion
/// stream (completions are stamped by the engine, so this only bounds how
/// long a finished request's record waits to be collected).
const OPEN_LOOP_POLL: Duration = Duration::from_micros(100);

/// SplitMix64 (`workloads::gen` is not public).
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`: due times in
/// nanoseconds from the start of the phase, ascending.
pub fn poisson_schedule(rng: &mut SplitMix64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0_f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_per_s * 1e9;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// The benchmark's clock: nanoseconds since the process-wide origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// How the oracle judged one completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Judged {
    Correct,
    /// Completed with a value that differs from the reference run.
    Wrong,
    /// Engine error or expired deadline.
    Failed,
}

/// One finished request.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// When latency starts: the submit instant in a closed loop, the *due*
    /// instant in an open loop (so a stall charges the requests behind it).
    pub start_ns: u64,
    pub end_ns: u64,
    pub judged: Judged,
}

impl Completion {
    pub fn latency_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// How late the generator sent a request that was due at `due_ns`.
pub fn lag_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// One request of a traced run: the benchmark's own stamps plus the
/// engine's public lifecycle trace.
pub struct TracedRequest {
    pub id: u64,
    /// When latency starts (submit instant, or due instant in an open loop).
    pub start_ns: u64,
    /// When `submit` was actually called.
    pub sent_ns: u64,
    pub end_ns: u64,
    pub trace: Option<TraceView>,
}

/// What the traced run collects per request, beyond the completion.
#[derive(Default)]
pub struct Tracer {
    pub requests: Vec<TracedRequest>,
    /// Duration of each `submit` call, nanoseconds.
    pub submit_ns: Vec<f64>,
}

/// Everything one loop produced.
#[derive(Default)]
pub struct LoopResult {
    pub completions: Vec<Completion>,
    pub attempted: u64,
    /// Submissions the session refused (`QueueFull`).
    pub refused: u64,
    /// Open loop only: one record per scheduled arrival.
    pub arrivals: Vec<Arrival>,
}

/// What the open loop notes when it sends a scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub due_ns: u64,
    /// How late the generator was.
    pub lag_ns: u64,
    /// The session's `waiting()` right after the submission.
    pub waiting: u64,
}

impl LoopResult {
    /// Appends what another loop (the next `cold_start` round) produced.
    pub fn absorb(&mut self, other: LoopResult) {
        self.completions.extend(other.completions);
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.arrivals.extend(other.arrivals);
    }

    pub fn failed(&self) -> u64 {
        self.refused
            + self
                .completions
                .iter()
                .filter(|c| c.judged != Judged::Correct)
                .count() as u64
    }

    pub fn wrong(&self) -> u64 {
        self.completions
            .iter()
            .filter(|c| c.judged == Judged::Wrong)
            .count() as u64
    }
}

struct InFlight {
    request: u32,
    start_ns: u64,
    sent_ns: u64,
}

/// How a loop learns when a request completed.
#[derive(Clone, Copy)]
enum Stamp {
    /// The generator was blocked on the completion stream: now.
    Observed(u64),
    /// The generator only polls the stream (it also has a schedule to
    /// keep), so its own look would add up to a poll interval to every
    /// latency.  Take the engine's stamps from the request's public trace
    /// instead: submit-to-completion on the engine's clock, counted from
    /// the instant `submit` was called.  A request whose trace is gone (or
    /// has no completion stamp) is charged up to the poll that found it:
    /// too long rather than too short.
    Engine(u64),
}

fn finish(
    done: Done,
    plan: &Plan,
    in_flight: &mut HashMap<u64, InFlight>,
    stamp: Stamp,
    session: &Session,
    tracer: Option<&mut Tracer>,
    out: &mut LoopResult,
) {
    let Some(flight) = in_flight.remove(&done.id) else {
        return;
    };
    let mut trace = match (stamp, &tracer) {
        (Stamp::Observed(_), None) => None,
        _ => session.trace(done.id),
    };
    let end_ns = match stamp {
        Stamp::Observed(now) => now,
        Stamp::Engine(polled) => trace
            .as_ref()
            .and_then(|t| Some(t.completed_us?.saturating_sub(t.submitted_us)))
            .map_or(polled, |served_us| flight.sent_ns + served_us * 1000),
    };
    let judged = match &done.outcome {
        Outcome::Value(v) if *v == plan.pool[flight.request as usize].expected => Judged::Correct,
        Outcome::Value(_) => Judged::Wrong,
        Outcome::Error(_) | Outcome::Expired => Judged::Failed,
    };
    if let Some(t) = tracer {
        t.requests.push(TracedRequest {
            id: done.id,
            start_ns: flight.start_ns,
            sent_ns: flight.sent_ns,
            end_ns,
            trace: trace.take(),
        });
    }
    out.completions.push(Completion {
        start_ns: flight.start_ns,
        end_ns,
        judged,
    });
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Submit until the clock passes this instant, then drain.
    Deadline(u64),
    /// Submit exactly this many requests, then drain.
    Count(usize),
}

/// Closed loop: keeps [`OUTSTANDING`] requests in flight, sending the next
/// one only when a completion arrives.  Blocks on the completion stream,
/// so the generator thread is asleep whenever the engine is busy.
/// `on_completion` is called with the clock after every completion (the
/// cold-start workload polls engine metrics from it).
pub fn closed_loop(
    session: &Session,
    plan: &Plan,
    cursor: &mut usize,
    until: Until,
    clock: &Clock,
    mut tracer: Option<&mut Tracer>,
    mut on_completion: impl FnMut(u64),
) -> LoopResult {
    let mut out = LoopResult::default();
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut sent = 0usize;
    loop {
        let more = match until {
            Until::Deadline(t) => clock.now_ns() < t,
            Until::Count(n) => sent < n,
        };
        if more && in_flight.len() < OUTSTANDING {
            let request = plan.order[*cursor % plan.order.len()];
            *cursor += 1;
            sent += 1;
            let req = &plan.pool[request as usize];
            let start_ns = clock.now_ns();
            let id = session.submit(&req.function, &req.args, req.debug);
            if let Some(t) = tracer.as_deref_mut() {
                t.submit_ns.push((clock.now_ns() - start_ns) as f64);
            }
            out.attempted += 1;
            in_flight.insert(
                id,
                InFlight {
                    request,
                    start_ns,
                    sent_ns: start_ns,
                },
            );
            continue;
        }
        if in_flight.is_empty() {
            return out;
        }
        let Some(done) = session.wait() else {
            return out;
        };
        let now = clock.now_ns();
        finish(
            done,
            plan,
            &mut in_flight,
            Stamp::Observed(now),
            session,
            tracer.as_deref_mut(),
            &mut out,
        );
        on_completion(now);
    }
}

/// Open loop: submits on `schedule` (due instants on the benchmark clock,
/// ascending) regardless of completions, sleeping until the next arrival
/// or the next look at the completion stream, whichever is sooner.
pub fn open_loop(
    session: &Session,
    plan: &Plan,
    cursor: &mut usize,
    schedule: &[u64],
    clock: &Clock,
    mut tracer: Option<&mut Tracer>,
) -> LoopResult {
    let mut out = LoopResult::default();
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut next = 0usize;
    while next < schedule.len() || !in_flight.is_empty() {
        while next < schedule.len() && schedule[next] <= clock.now_ns() {
            let due = schedule[next];
            next += 1;
            let request = plan.order[*cursor % plan.order.len()];
            *cursor += 1;
            let req = &plan.pool[request as usize];
            let sent_ns = clock.now_ns();
            out.attempted += 1;
            match session.try_submit(&req.function, &req.args, req.debug) {
                Some(id) => {
                    in_flight.insert(
                        id,
                        InFlight {
                            request,
                            start_ns: due,
                            sent_ns,
                        },
                    );
                }
                None => out.refused += 1,
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.submit_ns.push((clock.now_ns() - sent_ns) as f64);
            }
            out.arrivals.push(Arrival {
                due_ns: due,
                lag_ns: lag_ns(due, sent_ns),
                waiting: session.waiting(),
            });
        }
        while let Some(done) = session.poll() {
            finish(
                done,
                plan,
                &mut in_flight,
                Stamp::Engine(clock.now_ns()),
                session,
                tracer.as_deref_mut(),
                &mut out,
            );
        }
        let now = clock.now_ns();
        let wake = match schedule.get(next) {
            Some(due) => (*due).min(now + OPEN_LOOP_POLL.as_nanos() as u64),
            None => now + OPEN_LOOP_POLL.as_nanos() as u64,
        };
        if wake > now {
            std::thread::sleep(Duration::from_nanos(wake - now));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_from_a_seed_and_holds_its_rate() {
        let second = 1_000_000_000;
        let a = poisson_schedule(&mut SplitMix64(7), 2000.0, second);
        let b = poisson_schedule(&mut SplitMix64(7), 2000.0, second);
        let c = poisson_schedule(&mut SplitMix64(8), 2000.0, second);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.iter().all(|t| *t < second), "inside the phase");
        // 2000 arrivals expected, standard deviation ~45.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        // Due at 1 ms, the generator got to it at 1.4 ms, done at 3 ms:
        // the user waited 2 ms, of which 0.4 ms is generator lateness.
        let c = Completion {
            start_ns: 1_000_000,
            end_ns: 3_000_000,
            judged: Judged::Correct,
        };
        assert_eq!(c.latency_us(), 2000.0);
        assert_eq!(lag_ns(1_000_000, 1_400_000), 400_000);
        // A generator that runs early (clock granularity) is never "late".
        assert_eq!(lag_ns(1_000_000, 999_990), 0);
    }

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let u = SplitMix64(3).unit();
        assert!((0.0..1.0).contains(&u));
    }
}
