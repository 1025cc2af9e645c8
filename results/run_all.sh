#!/bin/bash
# Regenerates the paper's tables and figures in results/ (single-core
# budgets). Scale --epochs / --splits / --depths up on real machines; each
# binary documents its full-fidelity settings. The BENCH_PR*.json files are
# historical performance records and are not regenerated; the perf/
# benchmark measures performance now.
set -x
cd "$(dirname "$0")/.."
B="cargo run -p skipnode-bench --release --bin"
$B table2 > results/table2.txt 2>&1
$B fig4 > results/fig4.txt 2>&1
$B table5 -- --epochs 40 > results/table5.txt 2>&1
$B table7 -- --epochs 40 --backbones gcn > results/table7.txt 2>&1
$B table7 -- --epochs 150 --backbones gcn --depths 9 > results/table7_l9.txt 2>&1
$B fig2 -- --epochs 60 --depth 12 > results/fig2.txt 2>&1
$B fig2 -- --epochs 160 --depth 16 > results/fig2_l16.txt 2>&1
$B table6 -- --datasets cora --backbones gcn --epochs 180 --depths 16 > results/table6_cora.txt 2>&1
$B table4 -- --epochs 50 --depths 16 > results/table4.txt 2>&1
$B table8 -- --epochs 10 > results/table8.txt 2>&1
$B table3 -- --splits 1 --epochs 80 --backbones gcn,gcnii --datasets cornell,texas,wisconsin > results/table3_slice.txt 2>&1
$B table3 -- --splits 3 --epochs 80 --depth 2 --backbones gcn --datasets cornell,texas,wisconsin > results/table3_shallow.txt 2>&1
$B ablation_eval_mode -- --epochs 100 --splits 1 > results/ablation_eval_mode.txt 2>&1
$B ablation_sampling -- --epochs 100 --splits 1 --depths 12 > results/ablation_sampling.txt 2>&1
$B ablation_centrality -- --epochs 80 --depth 10 > results/ablation_centrality.txt 2>&1
echo ALL_DONE
