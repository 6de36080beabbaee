//! Self-test of the benchmark at tiny sizes: every declared metric is
//! emitted with its declared unit, the declaration check rejects an
//! unknown or missing name, and corrupted results count as failed.

use simbench::metrics::{declared, validate, Metric, SPEC};
use simbench::{assess, run, Check, Run, Sizes, Workload};

fn tiny(workload: Workload, trace: bool) -> Run {
    run(workload, 7, 0.0, trace, &Sizes::tiny())
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = tiny(w, trace);
            let (failed, why) = assess(&r.reps);
            assert_eq!(failed, 0, "{} trace={trace}: {why:?}", w.name());
            let want = declared(SPEC, trace).expect("BENCHMARK.json parses");
            validate(&r.metrics(trace), &want, !trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
        }
    }
}

#[test]
fn traced_and_untraced_repetitions_alternate() {
    let r = tiny(Workload::HtapGs, true);
    let traced: Vec<bool> = r.reps.iter().map(|r| r.traced).collect();
    assert_eq!(traced, [false, true, false, true]);
    assert!(r.spans.all().iter().any(|s| s.name == "Machine::run"));
    assert!(r.spans.all().iter().any(|s| s.name == "Program::next_op"));
}

#[test]
fn unknown_missing_or_mislabelled_metric_fails() {
    let want = declared(SPEC, false).expect("BENCHMARK.json parses");
    let good = tiny(Workload::DramSaturate, false).metrics(false);
    validate(&good, &want, true).expect("the real metrics pass");

    let mut unknown = good.clone();
    unknown.push(Metric {
        name: "latency_ms",
        value: 1.0,
        unit: "ms",
    });
    assert!(validate(&unknown, &want, true)
        .unwrap_err()
        .contains("latency_ms"));

    let missing: Vec<Metric> = good.iter().filter(|m| m.name != "run_s").cloned().collect();
    assert!(validate(&missing, &want, true)
        .unwrap_err()
        .contains("run_s"));

    let mut relabelled = good.clone();
    relabelled[0].unit = "ms";
    assert!(validate(&relabelled, &want, true).is_err());

    let mut doubled = good.clone();
    doubled.push(good[0].clone());
    assert!(validate(&doubled, &want, true).is_err());

    let mut zero = good;
    zero[1].value = 0.0;
    assert!(validate(&zero, &want, true).is_err());
}

#[test]
fn a_corrupted_checksum_counts_as_failed() {
    let mut r = tiny(Workload::GemmGs, false);
    assert_eq!(assess(&r.reps).0, 0);
    let check = r.reps[3]
        .checks
        .iter_mut()
        .find(|c| c.name() == "gemm.checksum")
        .expect("gemm checks its checksum");
    let Check::Eq(_, got, _) = check else {
        panic!("the checksum is an equality check");
    };
    *got ^= 1;
    let (failed, why) = assess(&r.reps);
    assert_eq!(failed, 1);
    assert!(why[0].starts_with("rep 3: gemm.checksum"), "{why:?}");
}

#[test]
fn a_count_that_does_not_repeat_counts_as_failed() {
    let mut r = tiny(Workload::DramSaturate, false);
    *r.reps[5].counts.get_mut("dram.cmd_act").expect("counted") += 1;
    let (failed, why) = assess(&r.reps);
    assert_eq!(failed, 1);
    assert!(why[0].contains("dram.cmd_act"), "{why:?}");
}
