#!/bin/sh
# Runs every workload once, each in its own process, and prints all of
# its metrics by name and unit. Stops with a non-zero exit status at the
# first run whose correctness checks fail. Extra arguments (for example
# `--seed 7 --trace 1`) are passed to every run.
#
#   sh perfbench/all.sh [--seed N] [--seconds S] [--trace 0|1]
set -e
cd "$(dirname "$0")/.."
for workload in sealed-uniform sim-radix sim-ycsb; do
    echo "== $workload"
    cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- --workload "$workload" "$@"
done
