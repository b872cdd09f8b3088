#!/usr/bin/env bash
# Run the planning paths that must not need NumPy and save each stdout.
#
#   scripts/numpy_free_plan.sh PYTHON OUTDIR
#
# PYTHON is the interpreter to run (a bare venv with no packages, or
# one with numpy installed); OUTDIR receives one file per command.
# Run it once with each interpreter and `diff -r` the two directories:
# the planner's bytes must not depend on whether numpy is importable.
# Each run owns a fresh plan cache, so every first plan is a cold
# search and every second one a disk-cache hit.
set -euo pipefail

python="$1"
out="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$out"
export PYTHONPATH="$root/src"
REPRO_CACHE_DIR="$(mktemp -d)"
export REPRO_CACHE_DIR
trap 'rm -rf "$REPRO_CACHE_DIR"' EXIT

point=(--model t5 --arch cloud --seq 1024 --batch 4)
for executor in unfused flat fusemax fusemax+lf transfusion; do
  for pass in cold warm; do
    "$python" -m repro plan --json --executor "$executor" "${point[@]}" \
      > "$out/plan-$executor-$pass.json"
  done
done
"$python" -m repro plan --json --executor transfusion --budget 16 \
  --model llama3 --arch edge --seq 4096 --batch 8 \
  > "$out/plan-budget16.json"
"$python" -m repro sweep --json --jobs 2 --models t5 bert \
  --seqs 512 2048 --executors unfused transfusion --batch 4 \
  > "$out/sweep-jobs2.json"
