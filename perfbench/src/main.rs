//! Session benchmark of the Cheetah engine: one client's whole private
//! inference on the tiny CNN, served through `cheetah_serve`, end to end
//! and layer by layer.
//!
//! ```text
//! perfbench --workload <solo_digit|solo_hybrid|fleet_sparse> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md` for every metric and what it should move). The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod fleet;
mod probes;
mod session;
mod setup;
mod solo;
mod stats;
mod steal;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use setup::{Bench, Workload};
use solo::Measured;
use stats::{highest_supported_permille, median, quartiles, sorted, Timing};
use trace::Tracer;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Metrics in report order, then the verdict counts.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Prints every metric by name and unit, then the JSON result line.
    fn print(&self) -> Result<(), String> {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            println!("  {name:<28} {value:>14.4} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

fn median_of(values: &[f64]) -> Result<f64, String> {
    median(&sorted(values)).ok_or_else(|| "no samples".to_string())
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

fn end_to_end(r: &mut Report, m: &Measured) -> Result<(), String> {
    // Wall times, steal-corrected by the dilation of the measured loop
    // (the set-ups are too short to measure their own; see `steal.rs`).
    let d = m.dilation;
    let pick = |f: fn(&session::Sample) -> f64| m.samples.iter().map(f).collect::<Vec<_>>();
    let too_few = |what: &str| {
        format!(
            "{what}: {} correct sessions, {} needed for a p90",
            m.samples.len(),
            stats::P90_MIN_SAMPLES
        )
    };
    let latency = Timing::of(&pick(|s| s.latency_s)).ok_or_else(|| too_few("latency"))?;
    let online = Timing::of(&pick(|s| s.online_s)).ok_or_else(|| too_few("online"))?;
    let iqr = |v: Vec<f64>| quartiles(&sorted(&v)).map_or(0.0, |q| (q[2] - q[0]) * 1e3 / d);
    println!(
        "  sessions timed: {} (highest supported percentile: p{}); \
         interquartile range: latency {:.2} ms, online {:.2} ms",
        latency.n,
        highest_supported_permille(latency.n).unwrap_or(0) as f64 / 10.0,
        iqr(pick(|s| s.latency_s)),
        iqr(pick(|s| s.online_s)),
    );
    println!(
        "  steal dilation {d:.4}; uncorrected latency p50 {:.3} ms, p90 {:.3} ms, \
         {:.3} sessions/s",
        latency.p50 * 1e3,
        latency.p90 * 1e3,
        m.clocked_sessions as f64 / m.clock_s
    );
    // Printed, not gated: single-threaded key generation swings by up to
    // 35% between host phases, beyond any bound a regression gate can
    // hold (`serve.client_new_ms` carries it per layer).
    println!(
        "  client_setup_p50_ms {:.4} ms",
        median_of(&m.client_setup_s)? * 1e3 / d
    );
    r.push("setup_s", median_of(&m.setup_s)? / d, "s");
    r.push("latency_p50_ms", latency.p50 * 1e3 / d, "ms");
    r.push("latency_p90_ms", latency.p90 * 1e3 / d, "ms");
    r.push("online_p50_ms", online.p50 * 1e3 / d, "ms");
    r.push("online_p90_ms", online.p90 * 1e3 / d, "ms");
    r.push(
        "sessions_per_s",
        m.clocked_sessions as f64 / m.clock_s * d,
        "1/s",
    );
    r.push(
        "comm_mb",
        median_of(&pick(|s| s.comm_bytes as f64))? / 1e6,
        "MB",
    );
    r.push(
        "setup_comm_mb",
        median_of(&pick(|s| s.setup_bytes as f64))? / 1e6,
        "MB",
    );
    r.push("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(())
}

fn per_layer(
    r: &mut Report,
    bench: &Bench,
    mut m: Measured,
    pool: Option<fleet::PoolStats>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    tracer.set_enabled(true);
    if pool.is_some() {
        fleet::stepped_sessions(bench, tracer, &mut m);
        r.attempted = m.attempted;
        r.failed = m.failed;
    }
    let layers = bench.model.linear_count();
    if m.rounds.len() != layers {
        return Err(format!(
            "no traced session completed: {}",
            m.first_error.unwrap_or_default()
        ));
    }
    let levels: Vec<usize> = m.rounds.iter().map(|x| x.level).collect();
    probes::keygen(bench, tracer)?;
    probes::apply(bench, tracer, &levels)?;
    probes::cleartext(bench, tracer);
    let predicted = probes::predicted_ms(bench, &levels);

    let med = |name: &str, layer: Option<usize>| {
        median_of(&tracer.durations_ms(name, layer)).map_err(|_| format!("no {name} spans"))
    };
    r.push("serve.client_new_ms", med("serve.client_new", None)?, "ms");
    r.push("serve.server_new_ms", med("serve.server_new", None)?, "ms");
    for span in ["serve.upload", "serve.process", "serve.absorb"] {
        for k in 0..layers {
            r.push(format!("{span}_ms.L{k}"), med(span, Some(k))?, "ms");
        }
    }
    // Pool layers exist only on fleet_sparse; the solo loop has no pool,
    // so its sweeps, queue waits and pooled scratch are 0.
    for k in 0..layers {
        let v = pool
            .as_ref()
            .map_or(Ok(0.0), |p| median_of(&p.sweep_s[k]))?;
        r.push(format!("serve.sweep_ms.L{k}"), v * 1e3, "ms");
    }
    for k in 0..layers {
        let v = pool
            .as_ref()
            .map_or(Ok(0.0), |p| median_of(&p.queue_wait_s[k]))?;
        r.push(format!("serve.queue_wait_ms.L{k}"), v * 1e3, "ms");
    }
    let idle = pool.as_ref().map_or(0, |p| p.scratch_idle);
    r.push("serve.scratch_idle", idle as f64, "count");
    r.push("protocol.prepare_ms", med("protocol.prepare", None)?, "ms");
    let solve = match bench.workload {
        Workload::FleetSparse => med("core.solve", None)?,
        _ => 0.0,
    };
    r.push("core.solve_ms", solve, "ms");
    let apply: Vec<f64> = (0..layers)
        .map(|k| med("protocol.apply", Some(k)))
        .collect::<Result<_, _>>()?;
    for (k, v) in apply.iter().enumerate() {
        r.push(format!("protocol.apply_ms.L{k}"), *v, "ms");
    }
    for (k, x) in m.rounds.iter().enumerate() {
        r.push(
            format!("protocol.up_kb.L{k}"),
            x.up_bytes as f64 / 1e3,
            "kB",
        );
    }
    for (k, x) in m.rounds.iter().enumerate() {
        r.push(
            format!("protocol.down_kb.L{k}"),
            x.down_bytes as f64 / 1e3,
            "kB",
        );
    }
    for (k, x) in m.rounds.iter().enumerate() {
        r.push(format!("protocol.level.L{k}"), x.level as f64, "count");
    }
    r.push("bfv.keygen_pk_ms", med("bfv.keygen_pk", None)?, "ms");
    r.push(
        "bfv.keygen_galois_ms",
        med("bfv.keygen_galois", None)?,
        "ms",
    );
    r.push(
        "bfv.galois_keys",
        bench.model.required_steps().len() as f64,
        "count",
    );
    let names = ["rotate", "ntt", "mul", "poly_mul", "mod_switch"];
    for (i, name) in names.iter().enumerate() {
        for (k, x) in m.rounds.iter().enumerate() {
            let o = x.ops;
            let count = [o.rotate, o.ntt, o.mul, o.poly_mul, o.mod_switch][i];
            r.push(format!("bfv.{name}.L{k}"), count as f64, "count");
        }
    }
    r.push("nn.infer_us", med("nn.infer", None)? * 1e3, "us");
    for (k, p) in predicted.iter().enumerate() {
        r.push(format!("profile.predicted_ms.L{k}"), *p, "ms");
    }
    for (k, (a, p)) in apply.iter().zip(&predicted).enumerate() {
        r.push(format!("profile.model_ratio.L{k}"), a / p, "ratio");
    }
    r.push(
        "trace.overhead_pct",
        m.trace_overhead_pct.unwrap_or(f64::NAN),
        "%",
    );
    Ok(())
}

fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(dir)
        .join("perfbench-trace")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

fn run(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new(args.trace);
    let bench = Bench::new(args.workload, args.seed, &mut tracer)?;
    let (m, pool) = match args.workload {
        Workload::FleetSparse => {
            let (m, p) = fleet::run(&bench, args.seconds, args.trace, &mut tracer)?;
            (m, Some(p))
        }
        _ => (
            solo::run(&bench, args.seconds, args.trace, &mut tracer)?,
            None,
        ),
    };
    let mut r = Report {
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
    };
    println!(
        "perfbench {} seed={} trace={}: {} workers available",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    if let Some(e) = &m.first_error {
        println!("  first failure: {e}");
    }
    if args.trace {
        per_layer(&mut r, &bench, m, pool, &mut tracer)?;
        let path = trace_path(args.workload, args.seed);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    } else {
        end_to_end(&mut r, &m)?;
    }
    println!(
        "  attempted {} succeeded {} failed {} (failed_frac {})",
        r.attempted,
        r.attempted - r.failed,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    Ok(r)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1))
        .and_then(|args| run(&args))
        .and_then(|r| r.print());
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
