//! Turns rounds into the reported metrics: per-round values, medians
//! across rounds, and the result line.

use crate::cluster::Round;
use crate::trace::Layer;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank quantile of an unsorted sample (sorted in place).
pub fn quantile(sample: &mut [u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    quantile_sorted(sample, q)
}

fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn per_op(total: u64, ops: u64) -> f64 {
    total as f64 / ops.max(1) as f64
}

fn us_per_op(ns: u64, ops: u64) -> f64 {
    per_op(ns, ops) / 1_000.0
}

/// `capacity_ops_s` and `cpu_us_per_op` from the CPU charged to each node.
fn cpu_metrics(node_cpu_ns: &[u64], ops: u64) -> [Metric; 2] {
    let busiest = node_cpu_ns.iter().copied().max().unwrap_or(0);
    let total: u64 = node_cpu_ns.iter().sum();
    [
        metric(
            "capacity_ops_s",
            "1/s",
            ops as f64 / (busiest.max(1) as f64 / 1e9),
        ),
        metric("cpu_us_per_op", "us", us_per_op(total, ops)),
    ]
}

/// The end-to-end metrics of one untraced round.
pub fn end_to_end(round: &mut Round) -> Vec<Metric> {
    let mut metrics = cpu_metrics(&round.node_cpu_ns, round.counts.ops).to_vec();
    metrics.extend([
        metric(
            "latency_p50_us",
            "us",
            quantile(&mut round.latency_ns, 0.50) as f64 / 1_000.0,
        ),
        metric(
            "latency_p99_us",
            "us",
            quantile(&mut round.latency_ns, 0.99) as f64 / 1_000.0,
        ),
        metric("setup_s", "s", round.setup_ns as f64 / 1e9),
    ]);
    metrics
}

/// Each node step's minimum measured CPU across the untraced rounds of
/// a run, from which the run's `capacity_ops_s` and `cpu_us_per_op` are
/// taken.
///
/// Rounds of one run repeat the same node steps in the same order, so
/// step `i` of one round is step `i` of every other. The host slows this
/// process for seconds at a time, lifting every round it overlaps, and a
/// median over rounds follows those slowdowns. A step's fastest
/// execution is its cost in a quiet moment of the run.
#[derive(Debug, Default)]
pub struct StepMinima {
    rounds: usize,
    ops: u64,
    nodes: usize,
    step_node: Vec<u16>,
    min_ns: Vec<u64>,
}

impl StepMinima {
    /// Folds in one untraced round.
    ///
    /// # Errors
    ///
    /// The round's node steps differ from the first round's.
    pub fn add(&mut self, round: &Round) -> Result<(), String> {
        if self.rounds == 0 {
            self.ops = round.counts.ops;
            self.nodes = round.node_cpu_ns.len();
            self.step_node.clone_from(&round.step_node);
            self.min_ns.clone_from(&round.step_cpu_ns);
        } else if self.step_node != round.step_node {
            return Err("a round did not repeat the first round's node steps".into());
        } else {
            for (min, &ns) in self.min_ns.iter_mut().zip(&round.step_cpu_ns) {
                *min = (*min).min(ns);
            }
        }
        self.rounds += 1;
        Ok(())
    }

    /// `capacity_ops_s` and `cpu_us_per_op` of the per-step minima.
    pub fn metrics(&self) -> [Metric; 2] {
        let mut node_cpu_ns = vec![0; self.nodes];
        for (&node, &ns) in self.step_node.iter().zip(&self.min_ns) {
            node_cpu_ns[usize::from(node)] += ns;
        }
        cpu_metrics(&node_cpu_ns, self.ops)
    }
}

/// Priced queue-wait quantiles of one untraced round (tracing inflates
/// the measured CPU the priced timeline is built from).
pub fn queue_waits(untraced: &mut Round) -> [Metric; 2] {
    [
        metric(
            "node.queue_wait_p50_us",
            "us",
            quantile(&mut untraced.queue_wait_ns, 0.50) as f64 / 1_000.0,
        ),
        metric(
            "node.queue_wait_p99_us",
            "us",
            quantile(&mut untraced.queue_wait_ns, 0.99) as f64 / 1_000.0,
        ),
    ]
}

/// The per-layer metrics of one traced round, with the queue waits of
/// an untraced round of the same run.
pub fn per_layer(traced: &Round, queue_waits: &[Metric; 2]) -> Vec<Metric> {
    let c = &traced.counts;
    let ops = c.ops;
    let st = traced
        .self_times
        .as_ref()
        .expect("per-layer metrics come from a traced round");
    let busiest_engine = st.engine_by_node.iter().copied().max().unwrap_or(0);
    let cpu: u64 = traced.node_cpu_ns.iter().sum();
    let layers: u64 = Layer::ALL
        .iter()
        .filter(|&&l| l != Layer::Step)
        .map(|&l| st.of(l))
        .sum();
    let values_per_flush = if c.batch_flushes == 0 {
        0.0
    } else {
        c.batch_values as f64 / c.batch_flushes as f64
    };
    let lat = &c.protocol_latency_us;
    vec![
        metric(
            "framing.encode_us_per_op",
            "us",
            us_per_op(st.of(Layer::Encode), ops),
        ),
        metric(
            "framing.decode_us_per_op",
            "us",
            us_per_op(st.of(Layer::Decode), ops),
        ),
        metric("framing.frames_per_op", "count", per_op(c.frames, ops)),
        metric("framing.bytes_per_op", "B", per_op(c.frame_bytes, ops)),
        metric(
            "engine.step_us_per_op",
            "us",
            us_per_op(st.of(Layer::Engine), ops),
        ),
        metric(
            "engine.step_us_per_op.busiest",
            "us",
            us_per_op(busiest_engine, ops),
        ),
        metric("engine.events_per_op", "count", per_op(c.events, ops)),
        metric(
            "engine.protocol_latency_p50_us",
            "us",
            quantile_sorted(lat, 0.50) as f64,
        ),
        metric(
            "engine.protocol_latency_p99_us",
            "us",
            quantile_sorted(lat, 0.99) as f64,
        ),
        metric("batch.values_per_flush", "count", values_per_flush),
        metric(
            "app.execute_us_per_op",
            "us",
            us_per_op(st.of(Layer::AppExecute), ops),
        ),
        metric("app.executes_per_op", "count", per_op(c.executes, ops)),
        metric(
            "app.snapshot_us_per_op",
            "us",
            us_per_op(st.of(Layer::AppSnapshot), ops),
        ),
        metric(
            "replica.checkpoint_bytes_per_op",
            "B",
            per_op(c.checkpoint_bytes, ops),
        ),
        metric(
            "storage.persist_us_per_op",
            "us",
            us_per_op(st.of(Layer::Storage), ops),
        ),
        metric("storage.persists_per_op", "count", per_op(c.persists, ops)),
        metric("storage.bytes_per_op", "B", per_op(c.persist_bytes, ops)),
        queue_waits[0].clone(),
        queue_waits[1].clone(),
        metric(
            "client.useful_response_ratio",
            "ratio",
            c.responses_needed as f64 / c.responses.max(1) as f64,
        ),
        // The remainder of the measured step CPU that no layer span
        // covers: harness glue plus the tracer's own cost between spans.
        metric(
            "unattributed_us_per_op",
            "us",
            us_per_op(cpu.saturating_sub(layers), ops),
        ),
        metric("trace.cpu_us_per_op", "us", us_per_op(cpu, ops)),
    ]
}

/// Medians, metric by metric, of per-round metric lists.
pub fn medians(rounds: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = rounds.iter().map(|r| r[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect()
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.5), 50);
        assert_eq!(quantile(&mut s, 0.99), 99);
        assert_eq!(quantile(&mut s, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 5, 0, &[metric("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
