#!/usr/bin/env bash
# One benchmark run, as BENCHMARK.json's "command" starts it from the root of
# a checkout: build the compiler under test and the benchmark from source
# (both no-ops after the first run), then measure one workload.
#
#   bash sfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The same script takes the other sfbench commands: `run`, `check`, `spec`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# `minicc` is built through the root manifest, so it is the binary a user of
# the repository gets, under the root's profile; `sfbench` is a package of
# its own. Build chatter goes to stderr: the result is the last stdout line.
cargo build --release --offline --quiet -p sfcc-buildsys --bin minicc 1>&2
cargo build --release --offline --quiet --manifest-path sfbench/Cargo.toml --bin sfbench 1>&2

# Not `exec`: resource usage of waited-for children survives an exec, and
# cargo's rustc children would then count into peak_rss_mb.
case "${1:-}" in
  check|spec) "$CARGO_TARGET_DIR/release/sfbench" "$@" ;;
  *) "$CARGO_TARGET_DIR/release/sfbench" "$@" --out "$CARGO_TARGET_DIR/sfbench-out" ;;
esac
