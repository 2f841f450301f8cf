//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs rounds of one workload until `--seconds` have passed (at least
//! three), checks that every round repeated the first one's counts,
//! node steps and replica digests exactly, and prints the result as the
//! last line of standard output: `capacity_ops_s` and `cpu_us_per_op`
//! from each node step's minimum CPU across rounds, every other metric
//! as its median across rounds. With `--trace 1` it alternates untraced
//! and traced rounds and prints the per-layer metrics instead. A human
//! summary goes to standard error. Exits non-zero on any correctness
//! violation.

use perfbench::cluster::{run_round, Options, Round};
use perfbench::report::{self, Metric, StepMinima};
use perfbench::trace::Layer;
use perfbench::workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tmp: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        tmp: PathBuf::from(".perfbench/tmp"),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            "--tmp" => args.tmp = PathBuf::from(&value),
            "--trace-out" => args.trace_out = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the rounds and prints the result; `Ok(false)` on a violation.
///
/// Each round is reduced to its metrics as soon as it ends, so the
/// process's peak memory is one round's, whatever the round count.
fn run(args: &Args) -> Result<bool, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut e2e: Vec<Vec<Metric>> = Vec::new();
    let mut layers: Vec<Vec<Metric>> = Vec::new();
    let mut waits = None;
    let mut last_spans = None;
    let mut reference = None;
    let mut minima = StepMinima::default();
    let (mut attempted, mut failed, mut samples, mut rounds) = (0, 0, 0, 0);
    let mut errors = Vec::new();
    loop {
        let trace_round = args.trace && e2e.len() > layers.len();
        let opts = Options {
            trace: trace_round,
            tmp: args.tmp.clone(),
            corrupt_response: None,
        };
        let mut round = run_round(&args.workload, args.seed, Scale::Full, &opts)?;
        attempted += round.attempted;
        failed += round.failed;
        errors.extend(round.errors.iter().cloned());
        match &reference {
            None => reference = Some(round.counts.clone()),
            Some(first) if *first != round.counts => {
                errors.push("a round did not repeat the first round's counts".into());
            }
            Some(_) => {}
        }
        summarize(rounds, &round, trace_round);
        rounds += 1;
        if trace_round {
            let waits = waits.as_ref().expect("an untraced round runs first");
            layers.push(report::per_layer(&round, waits));
            last_spans = round.tracer.take();
        } else {
            samples = round.latency_ns.len();
            if let Err(e) = minima.add(&round) {
                errors.push(e);
            }
            waits = Some(report::queue_waits(&mut round));
            e2e.push(report::end_to_end(&mut round));
        }
        drop(round);
        let enough = e2e.len() >= MIN_ROUNDS && (!args.trace || layers.len() >= MIN_ROUNDS);
        if !errors.is_empty() || (enough && started.elapsed() >= budget) {
            break;
        }
    }
    let correct = errors.is_empty() && failed == 0;
    for e in &errors {
        eprintln!("violation: {e}");
    }
    let e2e = report::medians(&e2e);
    let metrics = if args.trace {
        let mut metrics = report::medians(&layers);
        let get =
            |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let overhead = get(&metrics, "trace.cpu_us_per_op") - get(&e2e, "cpu_us_per_op");
        metrics.push(Metric {
            name: "trace.overhead_us_per_op",
            unit: "us",
            value: overhead,
        });
        layer_table(&metrics);
        if let (Some(path), Some(spans)) = (&args.trace_out, last_spans) {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, spans.borrow().dump())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "spans of the last traced round written to {}",
                path.display()
            );
        }
        metrics
    } else {
        let mut metrics = e2e;
        for m in minima.metrics() {
            if let Some(slot) = metrics.iter_mut().find(|x| x.name == m.name) {
                eprintln!(
                    "{}: {:.4} from per-step minima, {:.4} as the median over rounds",
                    m.name, m.value, slot.value,
                );
                *slot = m;
            }
        }
        metrics.push(Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: report::peak_rss_mb(),
        });
        metrics
    };
    eprintln!(
        "{}: {rounds} rounds, ops_attempted={attempted} ops_failed={failed} latency_samples_per_round={samples}",
        args.workload,
    );
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn summarize(i: usize, round: &Round, traced: bool) {
    let ops = round.counts.ops.max(1);
    let total: u64 = round.node_cpu_ns.iter().sum();
    let busiest = round.node_cpu_ns.iter().copied().max().unwrap_or(0);
    let mut latency = round.latency_ns.clone();
    let p50 = report::quantile(&mut latency, 0.5) as f64 / 1e3;
    let p99 = report::quantile(&mut latency, 0.99) as f64 / 1e3;
    eprintln!(
        "round {i}{}: ops={} virtual={:.3}s priced={:.3}s busiest-util={:.2} cpu/op={:.2}us busiest/op={:.2}us p50={p50:.1}us p99={p99:.1}us setup={:.4}s frames/op={:.2} checkpoints={}",
        if traced { " (traced)" } else { "" },
        round.counts.ops,
        round.counts.end_us as f64 / 1e6,
        round.priced_end_ns as f64 / 1e9,
        busiest as f64 / round.priced_end_ns.max(1) as f64,
        total as f64 / ops as f64 / 1e3,
        busiest as f64 / ops as f64 / 1e3,
        round.setup_ns as f64 / 1e9,
        round.counts.frames as f64 / ops as f64,
        round.counts.checkpoints,
    );
}

/// Prints each layer's self time per op and the unattributed remainder
/// as shares of the traced CPU per op.
fn layer_table(metrics: &[Metric]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let cpu = get("trace.cpu_us_per_op");
    eprintln!("layer self time per op (traced run, cpu/op {cpu:.2} us):");
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Step => "unattributed_us_per_op".to_string(),
            Layer::Engine => "engine.step_us_per_op".to_string(),
            other => format!("{}_us_per_op", other.name()),
        };
        let v = get(&name);
        eprintln!(
            "  {name:<32} {v:>9.3} us  {:>5.1}%",
            100.0 * v / cpu.max(f64::MIN_POSITIVE)
        );
    }
    eprintln!(
        "  tracing overhead                 {:>9.3} us",
        get("trace.overhead_us_per_op")
    );
}
