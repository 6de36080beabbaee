//! Frozen-output and ablation acceptance tests for the pluggable DRAM
//! back-end.
//!
//! The scheduler/refresh/write-drain extraction and the mapping
//! component functions must not move a single byte of the frozen
//! figure JSON under the default machine (FR-FCFS, direct bank map):
//! every `baselines/*.json` beside this file was generated before the
//! change it guards, and the pin tests here re-run the same
//! experiments in process and compare the pretty JSON byte-for-byte
//! (CI also diffs the CLI output against the same files).

use gsdram_bench::args::Args;
use gsdram_bench::experiments::{find, run_experiment};
use gsdram_core::stats::StatsNode;

/// `tuples`-sized fig9 JSON must match the committed pre-refactor
/// baseline byte-for-byte.
#[test]
fn fig9_json_matches_pre_refactor_baseline() {
    let def = find("fig9").expect("registered");
    let args = Args::new(["--txns", "200", "--tuples", "2048"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/fig9_small.json");
    assert!(
        node.to_json_pretty() == want,
        "fig9 JSON drifted from crates/bench/tests/baselines/fig9_small.json"
    );
}

#[test]
fn fig10_json_matches_pre_refactor_baseline() {
    let def = find("fig10").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/fig10_small.json");
    assert!(
        node.to_json_pretty() == want,
        "fig10 JSON drifted from crates/bench/tests/baselines/fig10_small.json"
    );
}

/// The pattern-engine experiments have their own committed baselines
/// (under `crates/bench/tests/baselines/`, generated at the
/// perf-quick pinned sizes): the stride sweep's speedup column IS the
/// paper-extending claim — gains track the largest power-of-two
/// factor of the stride, capped at 8 — so a byte must not move
/// without a review diff (CI's pattern-smoke job diffs the CLI output
/// against the same files).
#[test]
fn pattern_stride_sweep_json_matches_committed_baseline() {
    let def = find("pattern_stride_sweep").expect("registered");
    let args = Args::new(["--accesses", "512"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/pattern_stride_sweep_small.json");
    assert!(
        node.to_json_pretty() == want,
        "pattern_stride_sweep JSON drifted from crates/bench/tests/baselines/pattern_stride_sweep_small.json"
    );
}

#[test]
fn pattern_indirect_json_matches_committed_baseline() {
    let def = find("pattern_indirect").expect("registered");
    let args = Args::new(["--accesses", "512", "--elements", "8192"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/pattern_indirect_small.json");
    assert!(
        node.to_json_pretty() == want,
        "pattern_indirect JSON drifted from crates/bench/tests/baselines/pattern_indirect_small.json"
    );
}

/// The multi-channel scaling experiment has its own committed baseline
/// (generated at the perf-quick pinned size). Channel counts beyond
/// one exercise the whole XOR-matrix mapping pipeline and the
/// per-channel controller plumbing, so this pin is what freezes the
/// multi-channel decomposition: a byte moving here means addresses
/// started landing on different channels.
#[test]
fn scale_channels_json_matches_committed_baseline() {
    let def = find("scale_channels").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/scale_channels_small.json");
    assert!(
        node.to_json_pretty() == want,
        "scale_channels JSON drifted from crates/bench/tests/baselines/scale_channels_small.json"
    );
    // The figure must actually separate the channel counts on the
    // bandwidth-bound row store, and speedups must stay sane.
    let ch1 = summary_child(&node, "ch1");
    let ch4 = summary_child(&node, "ch4");
    assert_eq!(ch1.gauge_at("row_speedup_vs_1ch"), Some(1.0));
    assert!(
        ch4.gauge_at("row_mcycles") < ch1.gauge_at("row_mcycles"),
        "four channels must beat one on the row-store scan"
    );
}

/// The scheduler and row-policy ablations are the only experiments
/// that reach the controller paths the default machine never takes:
/// the non-min-ready `select` of `fr-fcfs-cap` and `bank-rr`, write
/// drain under those engines, and closed-row auto-precharge. Their
/// committed baselines freeze those decisions byte-for-byte (CI's
/// ablation-smoke job diffs the CLI output against the same files).
#[test]
fn ablation_sched_json_matches_committed_baseline() {
    let def = find("ablation_sched").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/ablation_sched_small.json");
    assert!(
        node.to_json_pretty() == want,
        "ablation_sched JSON drifted from crates/bench/tests/baselines/ablation_sched_small.json"
    );
}

#[test]
fn ablation_row_policy_json_matches_committed_baseline() {
    let def = find("ablation_row_policy").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    let want = include_str!("baselines/ablation_row_policy_small.json");
    assert!(
        node.to_json_pretty() == want,
        "ablation_row_policy JSON drifted from crates/bench/tests/baselines/ablation_row_policy_small.json"
    );
}

/// The op-stream consumers the figure pins above do not reach: the
/// HTAP mix (fig11), every GEMM variant (fig13), the transpose
/// extension and the key-value/graph extras. Their committed baselines
/// were generated before the block-generated op streams replaced the
/// nested iterator generators, so a generator bug moves a byte here
/// (CI's ablation-smoke job diffs the CLI output against the same
/// files).
fn assert_matches_baseline(name: &str, args: &[&str], want: &str, file: &str) {
    let def = find(name).expect("registered");
    let node = run_experiment(def, &Args::new(args.iter().copied()));
    assert!(
        node.to_json_pretty() == want,
        "{name} JSON drifted from crates/bench/tests/baselines/{file}"
    );
}

#[test]
fn fig11_json_matches_committed_baseline() {
    assert_matches_baseline(
        "fig11",
        &["--tuples", "2048"],
        include_str!("baselines/fig11_small.json"),
        "fig11_small.json",
    );
}

#[test]
fn fig13_json_matches_committed_baseline() {
    assert_matches_baseline(
        "fig13",
        &["--sizes", "32,64"],
        include_str!("baselines/fig13_small.json"),
        "fig13_small.json",
    );
}

#[test]
fn extension_transpose_json_matches_committed_baseline() {
    assert_matches_baseline(
        "extension_transpose",
        &["--sizes", "64"],
        include_str!("baselines/extension_transpose_small.json"),
        "extension_transpose_small.json",
    );
}

#[test]
fn extras_kvstore_graph_json_matches_committed_baseline() {
    assert_matches_baseline(
        "extras_kvstore_graph",
        &["--pairs", "4096", "--nodes", "8192"],
        include_str!("baselines/extras_kvstore_graph_small.json"),
        "extras_kvstore_graph_small.json",
    );
}

fn summary_child<'a>(root: &'a StatsNode, config: &str) -> &'a StatsNode {
    let summary = root
        .children()
        .iter()
        .find(|c| c.name() == "summary")
        .expect("summary subtree");
    summary
        .children()
        .iter()
        .find(|c| c.name() == config)
        .unwrap_or_else(|| panic!("missing summary config {config}"))
}

/// The scheduler ablation must (a) be deterministic and (b) actually
/// separate the four engines: distinct row-store timings, no fairness
/// decisions from the default engines, cap promotions and bank-rr
/// rotations from the new ones.
#[test]
fn ablation_sched_is_distinct_and_deterministic() {
    let def = find("ablation_sched").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    assert_eq!(node.counter_at("total_runs"), Some(8));

    let cycles: Vec<f64> = ["frfcfs_row", "fcfs_row", "frfcfs-cap_row", "bank-rr_row"]
        .iter()
        .map(|c| {
            summary_child(&node, c)
                .gauge_at("analytics_mcycles")
                .unwrap_or_else(|| panic!("{c}: analytics_mcycles"))
        })
        .collect();
    for i in 0..cycles.len() {
        for j in i + 1..cycles.len() {
            assert!(
                cycles[i] != cycles[j],
                "row-store timings must separate the engines, got {cycles:?}"
            );
        }
    }

    for c in ["frfcfs_row", "fcfs_row", "frfcfs_gs", "fcfs_gs"] {
        let n = summary_child(&node, c);
        assert_eq!(n.counter_at("sched_hit_bypasses"), Some(0), "{c}");
        assert_eq!(n.counter_at("sched_promotions"), Some(0), "{c}");
        assert_eq!(n.counter_at("sched_batch_rotations"), Some(0), "{c}");
    }
    let cap = summary_child(&node, "frfcfs-cap_row");
    assert!(cap.counter_at("sched_hit_bypasses") > Some(0));
    assert!(cap.counter_at("sched_promotions") > Some(0));
    let rr = summary_child(&node, "bank-rr_row");
    assert!(rr.counter_at("sched_batch_rotations") > Some(0));

    // Same spec, same bytes: the engines are deterministic.
    let again = run_experiment(def, &args);
    assert!(node.to_json_pretty() == again.to_json_pretty());
}

/// The mapping ablation must separate direct from XOR-hashed banks on
/// the random-transaction runs and stay deterministic.
#[test]
fn ablation_mapping_is_distinct_and_deterministic() {
    let def = find("ablation_mapping").expect("registered");
    let args = Args::new(["--tuples", "2048"]);
    let node = run_experiment(def, &args);
    assert_eq!(node.counter_at("total_runs"), Some(8));

    for layout in ["row", "gs"] {
        let direct = summary_child(&node, &format!("direct_{layout}"));
        let xor = summary_child(&node, &format!("xor-bank_{layout}"));
        assert!(
            direct.gauge_at("txn_row_hit_rate") != xor.gauge_at("txn_row_hit_rate"),
            "{layout}: the bank hash must change transaction row locality"
        );
    }

    let again = run_experiment(def, &args);
    assert!(node.to_json_pretty() == again.to_json_pretty());
}
