//! Repeated fleets of clients through one `ServerPool`.
//!
//! Clients are built (`SessionDriver::new`) before the clock; the clock
//! times `ServerPool::run` only. Each driver carries a read-only upload
//! hook that timestamps its uploads as they reach the server, with the
//! worker thread that carried them. From those stamps:
//!
//! * a sweep over layer k runs from its first upload to the first upload
//!   of layer k + 1 (or the end of `run`), and its queue wait is the
//!   spread from its first upload to its last;
//! * a session is done no later than the next upload its worker carries
//!   in the final sweep (or the end of `run`); its latency counts from
//!   the start of `run`, its online time from its first upload.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use cheetah_serve::{ServerPool, SessionDriver};

use crate::session::{self, Client, Sample};
use crate::setup::{Bench, INPUT_POOL, PROBE_SESSION};
use crate::solo::{Measured, SetupSchedule, MIN_TRACED};
use crate::stats::P90_MIN_SAMPLES;
use crate::steal;
use crate::trace::Tracer;

/// Clients per fleet.
pub const FLEET: usize = 16;
/// Stepped sessions of a traced run (see [`stepped_sessions`]).
const STEPPED_SESSIONS: u64 = 8;

/// Pool-level observations of the hooked fleets.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Per layer, one sweep time (s) per fleet.
    pub sweep_s: Vec<Vec<f64>>,
    /// Per layer, one queue wait (s) per fleet.
    pub queue_wait_s: Vec<Vec<f64>>,
    /// `ServerPool::scratch_idle` after the last fleet.
    pub scratch_idle: usize,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    session: u64,
    layer: usize,
    thread: ThreadId,
    at: Instant,
}

type Log = Arc<Mutex<Vec<Arrival>>>;

/// Timestamps an upload and leaves its bytes untouched.
fn stamp(log: &Log, session: u64) -> cheetah_serve::session::TamperFn {
    let log = Arc::clone(log);
    Box::new(move |layer, _bytes: &mut Vec<u8>| {
        let at = Instant::now();
        let thread = std::thread::current().id();
        if let Ok(mut log) = log.lock() {
            log.push(Arrival {
                session,
                layer,
                thread,
                at,
            });
        }
    })
}

/// One client of a fleet: its id, its set-up seconds, and its
/// transcript's `(total, setup)` bytes or why it failed.
type FleetClient = (u64, f64, Result<(usize, usize), String>);

/// One fleet's verdicts and timestamps.
struct FleetRun {
    run: (Instant, Instant),
    clients: Vec<FleetClient>,
    arrivals: Vec<Arrival>,
}

fn one_fleet(bench: &Bench, pool: &ServerPool, log: &Log, first_id: u64, hooked: bool) -> FleetRun {
    let model = &bench.model;
    let mut drivers = Vec::with_capacity(FLEET);
    let mut clients = Vec::with_capacity(FLEET);
    for id in first_id..first_id + FLEET as u64 {
        let slot = (id % INPUT_POOL as u64) as usize;
        let t = Instant::now();
        match SessionDriver::new(model, id, bench.key_seed(id), &bench.inputs[slot]) {
            Ok(d) => {
                clients.push((id, t.elapsed().as_secs_f64(), Ok((0, 0))));
                drivers.push(if hooked {
                    d.with_tamper(stamp(log, id))
                } else {
                    d
                });
            }
            Err(e) => clients.push((id, 0.0, Err(format!("client {id} setup: {e}")))),
        }
    }
    if let Ok(mut l) = log.lock() {
        l.clear();
    }
    let start = Instant::now();
    let outcomes = pool.run(drivers);
    let end = Instant::now();
    for o in outcomes {
        let slot = (o.client_id % INPUT_POOL as u64) as usize;
        let verdict = match o.result {
            Ok(p) if p == bench.expected[slot] => Ok((
                o.transcript.total_bytes(),
                o.transcript.messages().first().map_or(0, |m| m.bytes),
            )),
            Ok(_) => Err(format!(
                "client {}: prediction differs from cleartext inference",
                o.client_id
            )),
            Err(e) => Err(format!("client {}: {e}", o.client_id)),
        };
        if let Some(c) = clients.iter_mut().find(|c| c.0 == o.client_id) {
            c.2 = verdict;
        }
    }
    let arrivals = log.lock().map(|l| l.clone()).unwrap_or_default();
    FleetRun {
        run: (start, end),
        clients,
        arrivals,
    }
}

/// Per-fleet times derived from the upload stamps.
struct FleetTimes {
    /// `(session, latency s, online s)` for every session whose final
    /// upload was seen.
    sessions: Vec<(u64, f64, f64)>,
    /// Per layer that saw uploads: `(layer, first upload, sweep end, last
    /// upload)`.
    sweeps: Vec<(usize, Instant, Instant, Instant)>,
}

fn analyze(
    arrivals: &mut [Arrival],
    layers: usize,
    (start, end): (Instant, Instant),
) -> FleetTimes {
    arrivals.sort_by_key(|a| a.at);
    let first = |k: usize| arrivals.iter().find(|a| a.layer == k).map(|a| a.at);
    let last = |k: usize| arrivals.iter().rev().find(|a| a.layer == k).map(|a| a.at);
    let mut sweeps = Vec::with_capacity(layers);
    for k in 0..layers {
        if let (Some(s), Some(l)) = (first(k), last(k)) {
            let e = (k + 1..layers).find_map(first).unwrap_or(end);
            sweeps.push((k, s, e, l));
        }
    }
    let mut sessions = Vec::new();
    for (j, a) in arrivals.iter().enumerate() {
        if a.layer + 1 != layers {
            continue;
        }
        let done = arrivals[j + 1..]
            .iter()
            .find(|b| b.thread == a.thread)
            .map_or(end, |b| b.at);
        if let Some(up0) = arrivals.iter().find(|b| b.session == a.session) {
            sessions.push((
                a.session,
                (done - start).as_secs_f64(),
                (done - up0.at).as_secs_f64(),
            ));
        }
    }
    FleetTimes { sessions, sweeps }
}

/// Runs fleets for at least `seconds` (and until the p90 is supported).
/// A traced run alternates hooked and unhooked fleets: the ratio of
/// their throughputs is the cost of the upload stamps, reported as the
/// tracing overhead.
pub fn run(
    bench: &Bench,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<(Measured, PoolStats), String> {
    let layers = bench.model.linear_count();
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = ServerPool::new(Arc::clone(&bench.model), workers);
    let log: Log = Arc::new(Mutex::new(Vec::with_capacity(FLEET * layers)));
    let mut stats = PoolStats {
        sweep_s: vec![Vec::new(); layers],
        queue_wait_s: vec![Vec::new(); layers],
        scratch_idle: 0,
    };

    // Warm-up fleet off the clock; its predictions are still checked.
    let mut m = Measured::default();
    let warm = one_fleet(bench, &pool, &log, 0, true);
    for (_, _, v) in warm.clients {
        m.attempted += 1;
        if let Err(e) = v {
            m.failed += 1;
            m.first_error.get_or_insert(e);
        }
    }

    m.setup_s.push(bench.first_setup_s);
    let mut setups = SetupSchedule::new(seconds);
    let mut plain = (0usize, 0.0f64);
    let cpu_start = steal::snapshot();
    let start = Instant::now();
    for f in 1u64.. {
        let hooked = !trace || f % 2 == 1;
        let mut fr = one_fleet(bench, &pool, &log, f * FLEET as u64, hooked);
        let run_s = (fr.run.1 - fr.run.0).as_secs_f64();
        let times = hooked.then(|| analyze(&mut fr.arrivals, layers, fr.run));
        let mut correct = 0;
        for (id, setup_s, verdict) in fr.clients {
            m.attempted += 1;
            match verdict {
                Ok((comm_bytes, setup_bytes)) => {
                    correct += 1;
                    m.client_setup_s.push(setup_s);
                    let timed = times
                        .as_ref()
                        .and_then(|t| t.sessions.iter().find(|s| s.0 == id));
                    if let Some(&(_, latency_s, online_s)) = timed {
                        m.samples.push(Sample {
                            latency_s,
                            online_s,
                            client_setup_s: setup_s,
                            comm_bytes,
                            setup_bytes,
                        });
                    }
                }
                Err(e) => {
                    m.failed += 1;
                    m.first_error.get_or_insert(e);
                }
            }
        }
        if let Some(t) = &times {
            m.clocked_sessions += correct;
            m.clock_s += run_s;
            let root = tracer.record("serve.pool_run", None, f, None, fr.run);
            for &(k, s, e, l) in &t.sweeps {
                stats.sweep_s[k].push((e - s).as_secs_f64());
                stats.queue_wait_s[k].push((l - s).as_secs_f64());
                tracer.record("serve.sweep", Some(k), f, root, (s, e));
            }
            for a in &fr.arrivals {
                tracer.record(
                    "serve.arrival",
                    Some(a.layer),
                    a.session,
                    root,
                    (a.at, a.at),
                );
            }
        } else {
            plain.0 += correct;
            plain.1 += run_s;
        }
        let enough = if trace {
            stats.sweep_s[0].len() >= MIN_TRACED / 2 && plain.0 >= MIN_TRACED
        } else {
            m.samples.len() >= P90_MIN_SAMPLES
        };
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && (enough || m.failed > 0) {
            break;
        }
        tracer.set_enabled(trace);
        setups.tick(bench, tracer, elapsed, &mut m)?;
    }
    m.dilation = steal::dilation(cpu_start, steal::snapshot());
    stats.scratch_idle = pool.scratch_idle();
    m.trace_overhead_pct = trace.then(|| {
        let hooked_sps = m.clocked_sessions as f64 / m.clock_s;
        let plain_sps = plain.0 as f64 / plain.1;
        (plain_sps / hooked_sps - 1.0) * 100.0
    });
    Ok((m, stats))
}

/// Sessions stepped one call at a time on the pool's model, for the
/// per-call phases (`serve.upload` / `process` / `absorb`), the op counts
/// and the bytes of a traced run: the pool runs whole rounds out of
/// sight.
pub fn stepped_sessions(bench: &Bench, tracer: &mut Tracer, m: &mut Measured) {
    let mut scratch = bench.model.layers().evaluator().new_scratch();
    for j in 0..STEPPED_SESSIONS {
        let slot = (j % INPUT_POOL as u64) as usize;
        let client = Client {
            model: &bench.model,
            input: &bench.inputs[slot],
            expected: &bench.expected[slot],
            key_seed: bench.key_seed(PROBE_SESSION + j),
            id: PROBE_SESSION + 400 + j,
        };
        let mut rounds = Vec::new();
        let want = m.rounds.is_empty();
        let verdict = session::run(&client, &mut scratch, tracer, want.then_some(&mut rounds));
        if m.count(verdict, true) && want {
            m.rounds = rounds;
        }
    }
}
