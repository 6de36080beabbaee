#!/bin/bash
# Regenerates every table/figure/ablation/extension of the paper at
# full scale (1M-tuple table, 10000 transactions, GEMM up to 1024)
# through the experiment registry: one `gsdram-sim sweep <name>` per
# experiment, each emitting a human-readable transcript (results/*.txt)
# and the full stats tree (results/*.json). Extra flags are forwarded
# to every sweep (e.g. `./run_experiments.sh --serial` or
# `./run_experiments.sh --tuples 65536` for a quick pass).
set -e
cd "$(dirname "$0")"
R=results
mkdir -p "$R"
cargo build -q --release -p gsdram-cli
EXPERIMENTS="
fig7
fig9
fig10
fig11
fig12
fig13
ablation_shuffle
ablation_patterns
ablation_sectored
ablation_sched
ablation_mapping
ablation_row_policy
ablation_impulse
extension_ecc
extension_filter
extension_transpose
extras_kvstore_graph
pattern_stride_sweep
pattern_indirect
scale_channels
"
for exp in $EXPERIMENTS; do
    echo "=== $exp ==="
    cargo run -q --release -p gsdram-cli -- sweep "$exp" \
        --json "$R/$exp.json" "$@" | tee "$R/$exp.txt"
done
echo ALL_EXPERIMENTS_DONE
