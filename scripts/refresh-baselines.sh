#!/usr/bin/env bash
# Regenerate the committed perf baselines in results/baselines/.
#
# The simulator is deterministic (seeded workloads), so for a fixed
# CFIR_INSTS these snapshots are exactly reproducible; CI's perf-gate
# job reruns the same commands and compares fresh output against the
# committed files with `cfir report check`. Rerun this script (and
# commit the result) whenever a change intentionally moves the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

export CFIR_INSTS="${CFIR_INSTS:-20000}"

cargo build --release --workspace
mkdir -p results/baselines

# The smoke profile (per-mode run snapshots of the smoke benchmark +
# the machine-configuration table) through the suite orchestrator; a
# failed or timed-out job makes cfir suite exit non-zero, which stops
# this script before anything is copied over the committed baselines.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# The smoke profile plus the sampling-accuracy experiment in one
# invocation, so BENCH_6.json records the sampled wall-clock alongside
# the full runs (exp_sampling pins its own instruction budgets and
# ignores CFIR_INSTS; its aggregator fails the suite — and therefore
# this script — when any kernel misses the ±3%/CI accuracy gate).
./target/release/cfir suite table1 smoke exp_sampling --jobs 2 --emit-json \
  --bench-json BENCH_6.json --out-dir "$tmp" --quiet

# Snapshot bundle (current schema): the perf gate.
cp "$tmp/smoke.json" results/baselines/smoke.json
# Machine-configuration table and the S3.1 storage table (drift gates,
# not perf gates; both are rendered from the simulator's definitions).
cp "$tmp/table1.json" results/baselines/table1.json
cp "$tmp/table1_storage.json" results/baselines/table1_storage.json
# Sampled-vs-full accuracy table (window counts, estimates,
# half-widths); CI compares byte-for-byte.
cp "$tmp/exp_sampling.csv" results/baselines/sampling.csv

# The bottleneck experiment: 12 kernels x 4 paper modes with lifecycle
# recording, plus the 12 oracle-BP validation runs. Its aggregator
# already gates dropped records, projection bounds and oracle ratios,
# so reaching this cp means the analysis is self-consistent.
./target/release/cfir suite exp_bottleneck --jobs 2 --emit-json \
  --out-dir "$tmp" --quiet
cp "$tmp/exp_bottleneck.json" results/baselines/bottleneck.json
cp "$tmp/exp_bottleneck_validation.csv" \
  results/baselines/bottleneck_validation.csv

# The CIDI dataflow-oracle experiment: 12 kernels x 4 modes scoring
# static CIDI/CIDD verdicts against runtime reuse outcomes. The
# aggregator gates the agreement floor and the zero-failure rule for
# regular-access kernels before anything is copied.
./target/release/cfir suite exp_cidi --jobs 2 --emit-json \
  --out-dir "$tmp" --quiet
cp "$tmp/exp_cidi.csv" results/baselines/cidi.csv
cp "$tmp/exp_cidi_validation.csv" results/baselines/cidi_validation.csv

# The differential gate's two byte-exact matrices: 12 kernels x 4 modes
# of full runs (differential.jsonl) and 12 kernels of sampled runs plus
# one jittered run (differential_sampled.jsonl). Both pin their own
# budgets and ignore CFIR_INSTS.
CFIR_UPDATE_BASELINES=1 cargo test --release --test differential_gate

# Konata digests of CI's pipeview step: the LCG-parity loop, uncapped
# and with a 2000-record ring, and the two timelines CI reads back from
# the uncapped document. CI writes all four to the same paths and runs
# `sha256sum -c` against this file.
printf 'li r1, 0\nli r2, 400\nli r3, 12345\nli r5, 0\ntop:\nmuli r3, r3, 1103515245\naddi r3, r3, 12345\nsrli r4, r3, 16\nandi r4, r4, 1\nbeqz r4, skip\naddi r5, r5, 1\nskip:\naddi r1, r1, 1\nblt r1, r2, top\nhalt\n' > /tmp/pv.asm
./target/release/cfir run /tmp/pv.asm --mode ci --pipeview /tmp/pv.kanata > /dev/null
./target/release/cfir run /tmp/pv.asm --mode ci --pipeview /tmp/pv-cap.kanata \
  --pipeview-cap 2000 > /dev/null
./target/release/cfir report timeline /tmp/pv.kanata --around-mispredict 1 > /tmp/pv-timeline.txt
./target/release/cfir report timeline /tmp/pv.kanata --pc 4 --width 120 > /tmp/pv-pc-timeline.txt
sha256sum /tmp/pv.kanata /tmp/pv-cap.kanata /tmp/pv-timeline.txt /tmp/pv-pc-timeline.txt \
  > results/baselines/pipeview.sha256

# Static-analysis reports for every kernel (lints + RCP agreement).
# CI reruns `cfir analyze --all --check --baseline` against this file.
./target/release/cfir analyze --all --emit-json results/baselines/analyze.json

# Throughput floor for the CI perf gate: detailed-core insts/sec over
# the smoke profile, single worker, fresh cache each run (cache hits
# carry no wall clock and would zero the measurement). Both this
# script and the CI step take the best of three runs, so the floor and
# the fresh number are each the machine's demonstrated peak and the
# gate's 10% tolerance only has to absorb residual noise, not
# cold-start outliers.
best=0
for _ in 1 2 3; do
  rm -rf "$tmp/perf-cache" "$tmp/perf-out"
  ./target/release/cfir suite --profile smoke --jobs 1 --quiet \
    --cache-dir "$tmp/perf-cache" --out-dir "$tmp/perf-out" \
    --bench-json "$tmp/perf.json" > /dev/null
  best=$(python3 -c "import json,sys; \
    print(max(json.load(open('$tmp/perf.json'))['perf']['insts_per_sec'], float(sys.argv[1])))" \
    "$best")
done
printf '{"insts_per_sec_floor": %s, "profile": "smoke", "insts": %s, "jobs": 1, "runs": "best-of-3"}\n' \
  "$best" "$CFIR_INSTS" > results/baselines/perf_floor.json

echo "baselines refreshed (CFIR_INSTS=$CFIR_INSTS):"
ls -l results/baselines/
