//! Self-tests of the benchmark at a tiny size: a seed fixes every count,
//! the protocol-latency histogram and the final digests; another seed
//! changes them; a wrong response fails the run; per-step minima fold
//! only rounds with the same steps.

use perfbench::cluster::{run_round, Options, Round};
use perfbench::report::{self, StepMinima};
use perfbench::workloads::{Scale, NAMES};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn round(workload: &str, seed: u64, opts: &Options) -> Round {
    run_round(workload, seed, Scale::Tiny, opts).expect("round runs")
}

fn plain(tag: &str) -> Options {
    Options {
        trace: false,
        tmp: tmp(tag),
        corrupt_response: None,
    }
}

fn assert_clean(workload: &str, r: &Round) {
    assert!(r.errors.is_empty(), "{workload}: {:?}", r.errors);
    assert_eq!(r.failed, 0, "{workload}");
    assert_eq!(r.counts.ops, r.attempted, "{workload}: every op completes");
}

#[test]
fn same_seed_repeats_every_count_and_digest() {
    for workload in NAMES {
        let opts = plain(&format!("same-{workload}"));
        let a = round(workload, 7, &opts);
        let b = round(workload, 7, &opts);
        assert_clean(workload, &a);
        assert_clean(workload, &b);
        assert!(a.counts.frames > 0 && a.counts.executes > 0, "{workload}");
        assert_eq!(a.counts, b.counts, "{workload}");
    }
}

#[test]
fn step_minima_take_each_steps_fastest_run() {
    for workload in NAMES {
        let opts = plain(&format!("minima-{workload}"));
        let mut a = round(workload, 7, &opts);
        let mut b = round(workload, 7, &opts);
        assert_eq!(a.step_node, b.step_node, "{workload}: same steps in order");
        let mut minima = StepMinima::default();
        minima.add(&a).expect("first round");
        minima.add(&b).expect("same steps");
        let cpu =
            |ms: &[report::Metric]| ms.iter().find(|m| m.name == "cpu_us_per_op").unwrap().value;
        let fastest = cpu(&report::end_to_end(&mut a)).min(cpu(&report::end_to_end(&mut b)));
        assert!(cpu(&minima.metrics()) <= fastest, "{workload}");
        let other = round(workload, 8, &opts);
        assert!(
            minima.add(&other).is_err(),
            "{workload}: other steps rejected"
        );
    }
}

#[test]
fn another_seed_changes_counts_and_digests() {
    for workload in NAMES {
        let opts = plain(&format!("other-{workload}"));
        let a = round(workload, 7, &opts);
        let b = round(workload, 8, &opts);
        assert_clean(workload, &b);
        assert_ne!(a.counts.digests, b.counts.digests, "{workload}");
        assert_ne!(a.counts, b.counts, "{workload}");
    }
}

#[test]
fn tracing_leaves_the_schedule_unchanged() {
    for workload in NAMES {
        let untraced = round(workload, 3, &plain(&format!("untraced-{workload}")));
        let traced = round(
            workload,
            3,
            &Options {
                trace: true,
                ..plain(&format!("traced-{workload}"))
            },
        );
        assert_clean(workload, &traced);
        assert_eq!(untraced.counts, traced.counts, "{workload}");
        let st = traced.self_times.expect("traced round has self times");
        let attributed: u64 = st.total.iter().sum();
        assert!(attributed > 0, "{workload}");
    }
}

#[test]
fn a_wrong_response_fails_the_run() {
    for workload in NAMES {
        let r = round(
            workload,
            7,
            &Options {
                corrupt_response: Some(5),
                ..plain(&format!("corrupt-{workload}"))
            },
        );
        assert!(!r.errors.is_empty(), "{workload}: violation reported");
        assert!(r.failed > 0, "{workload}: the op counts as failed");
    }
}

#[test]
fn storage_and_batching_appear_only_where_the_workload_asks() {
    for workload in NAMES {
        let r = round(workload, 7, &plain(&format!("layers-{workload}")));
        let c = &r.counts;
        assert!(c.checkpoints > 0, "{workload}: checkpoints run");
        let stores = workload == "store-ring-ycsb";
        assert_eq!(c.persists > 0, stores, "{workload}: storage use");
        let batches = c.batch_flushes > 0 && c.batch_values > c.batch_flushes;
        assert_eq!(
            batches,
            workload == "dlog-wbcast-batch",
            "{workload}: batching"
        );
    }
}
