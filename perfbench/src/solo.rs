//! Closed loop with one client at a time: each session is
//! `ClientSession::new`, `ServerSession::new`, then one round per linear
//! layer, and the next client starts only when the previous prediction
//! has been checked.

use std::time::Instant;

use crate::session::{self, Client, Round, Sample};
use crate::setup::{Bench, INPUT_POOL, SETUP_REPS};
use crate::stats::P90_MIN_SAMPLES;
use crate::steal;
use crate::trace::Tracer;

/// Sessions of each kind a traced run needs before it may stop.
pub const MIN_TRACED: usize = 10;

/// What a measured loop observed. Timings are seconds.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
    /// Untraced, correct sessions only.
    pub samples: Vec<Sample>,
    /// Client set-up times of every correct session (`fleet_sparse` sets
    /// clients up off the clock, so they are not part of `samples`).
    pub client_setup_s: Vec<f64>,
    /// Per-session latency and online time when tracing was on.
    pub traced_samples: Vec<Sample>,
    /// Correct sessions on the `sessions_per_s` clock, and that clock.
    pub clocked_sessions: usize,
    pub clock_s: f64,
    /// Traced minus untraced, in percent of untraced.
    pub trace_overhead_pct: Option<f64>,
    /// Per-round facts of one traced session.
    pub rounds: Vec<Round>,
    /// Steal dilation over the measured loop (see [`crate::steal`]).
    pub dilation: f64,
    /// Seconds per server set-up: the first one, then those spread over
    /// the loop.
    pub setup_s: Vec<f64>,
}

impl Measured {
    /// Counts one session's verdict.
    pub fn count(&mut self, verdict: Result<Sample, String>, traced: bool) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(s) => {
                self.client_setup_s.push(s.client_setup_s);
                if traced {
                    self.traced_samples.push(s);
                } else {
                    self.samples.push(s);
                }
                true
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                false
            }
        }
    }
}

/// Times the run's further server set-ups at even intervals of its
/// measured loop (see [`Bench::time_setup`]).
pub struct SetupSchedule {
    every_s: f64,
    next_s: f64,
    done: usize,
}

impl SetupSchedule {
    pub fn new(seconds: f64) -> Self {
        let every_s = seconds / SETUP_REPS as f64;
        Self {
            every_s,
            next_s: every_s,
            done: 1,
        }
    }

    /// Times a set-up if one is due `elapsed_s` into the loop; returns
    /// the seconds it took (0 when none was due).
    pub fn tick(
        &mut self,
        bench: &Bench,
        tracer: &mut Tracer,
        elapsed_s: f64,
        m: &mut Measured,
    ) -> Result<f64, String> {
        if self.done >= SETUP_REPS || elapsed_s < self.next_s {
            return Ok(0.0);
        }
        let s = bench.time_setup(tracer, self.done as u64)?;
        m.setup_s.push(s);
        self.done += 1;
        self.next_s += self.every_s;
        Ok(s)
    }
}

/// Runs sessions for at least `seconds` (and until the p90 is supported,
/// or both traced and untraced medians are when `trace`). A traced run
/// alternates untraced and traced sessions so that drift cancels out of
/// the tracing overhead.
pub fn run(
    bench: &Bench,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let model = &bench.model;
    let mut scratch = model.layers().evaluator().new_scratch();
    let client = |i: u64| {
        let slot = (i % INPUT_POOL as u64) as usize;
        Client {
            model,
            input: &bench.inputs[slot],
            expected: &bench.expected[slot],
            key_seed: bench.key_seed(i),
            id: i,
        }
    };

    // Warm-up session off the clock (first-touch allocations); its
    // prediction is still checked.
    let mut m = Measured::default();
    tracer.set_enabled(false);
    m.count(session::run(&client(0), &mut scratch, tracer, None), false);
    m.samples.clear();
    m.client_setup_s.clear();
    m.setup_s.push(bench.first_setup_s);
    let mut setups = SetupSchedule::new(seconds);
    let mut setup_time = 0.0;

    let cpu_start = steal::snapshot();
    let start = Instant::now();
    for i in 1u64.. {
        let traced = trace && i % 2 == 0;
        tracer.set_enabled(traced);
        let mut rounds = Vec::new();
        let want_rounds = traced && m.rounds.is_empty();
        let verdict = session::run(
            &client(i),
            &mut scratch,
            tracer,
            want_rounds.then_some(&mut rounds),
        );
        if m.count(verdict, traced) {
            m.clocked_sessions += 1;
            if want_rounds {
                m.rounds = rounds;
            }
        }
        let enough = if trace {
            m.samples.len() >= MIN_TRACED && m.traced_samples.len() >= MIN_TRACED
        } else {
            m.samples.len() >= P90_MIN_SAMPLES
        };
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && (enough || m.failed > 0) {
            break;
        }
        tracer.set_enabled(trace);
        setup_time += setups.tick(bench, tracer, elapsed, &mut m)?;
    }
    m.clock_s = start.elapsed().as_secs_f64() - setup_time;
    m.dilation = steal::dilation(cpu_start, steal::snapshot());
    tracer.set_enabled(trace);
    m.trace_overhead_pct = trace.then(|| {
        let med = |v: &[Sample]| {
            let lat: Vec<f64> = v.iter().map(|s| s.latency_s).collect();
            crate::stats::median(&crate::stats::sorted(&lat)).unwrap_or(f64::NAN)
        };
        (med(&m.traced_samples) / med(&m.samples) - 1.0) * 100.0
    });
    Ok(m)
}
