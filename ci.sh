#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — exactly what a PR must pass.
#
#   ci.sh          full gate
#   ci.sh --quick  fast sweep only: the `quick_`-prefixed subset of the
#                  fault-injection matrix (cold crash matrix, truncation
#                  boundaries, recovery counters, durability sync points),
#                  of the observability suite (trace well-formedness,
#                  report schema, metrics consistency, CLI contracts), and
#                  of the dependency-soundness suite (clean-build audit,
#                  per-task-kind seeded lies, E15 fuzz matrix), the
#                  function-granularity suite and its E16 gate, the
#                  parallel byte-identity suite and its E13 fan-out
#                  overhead gate, the shared-artifact-store soundness
#                  suite and its E17 sharing gate, the warm-daemon
#                  differential suite and its E18 warm-latency gate,
#                  plus a traced demo build validated with `trace-check`,
#                  a depcheck run over the demo project and the cold
#                  no-op gate (a second process executes 0 tasks); both modes
#                  start with the one-request-path grep over `minicc.rs`
#                  and the no-process-state grep over `crates/`
set -euo pipefail
cd "$(dirname "$0")"

# Trace smoke: build the demo with --trace into a scratch copy (so the
# checked-in demo/ stays free of .sfcc-report.json), then validate the
# exported trace's schema and span nesting.
trace_smoke() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    cp demo/*.mc "$scratch"/
    cargo run -q -p sfcc-buildsys --bin minicc -- \
        build "$scratch" --trace "$scratch/trace.json" > /dev/null
    cargo run -q -p sfcc-buildsys --bin minicc -- \
        trace-check "$scratch/trace.json"
}

# Depcheck smoke: audit the demo build's dependency soundness in a scratch
# copy; a nonzero exit (findings or build failure) fails the gate.
depcheck_smoke() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    cp demo/*.mc "$scratch"/
    cargo run -q -p sfcc-buildsys --bin minicc -- depcheck "$scratch"
}

# Cold no-op gate, on counts rather than clocks: a second `minicc build
# --stateful` process over an unchanged tree starts from the query graph
# the first one committed and must execute nothing — zero query misses,
# zero function tasks, zero modules rebuilt — yet hand back the same image.
# After one constant is touched, a third process executes what a resident
# session would: one module rebuilt, fewer function tasks than the first
# build, no `optimizefn` re-run for its value (it is loaded from the graph),
# and the image a directory without any history builds from the edited tree.
noop_gate() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    mkdir "$scratch/p" "$scratch/fresh"
    cp demo/*.mc "$scratch/p"/
    local build=(cargo run -q -p sfcc-buildsys --bin minicc -- build)
    "${build[@]}" "$scratch/p" --stateful --report json -o "$scratch/first.sbx" > "$scratch/first.json"
    "${build[@]}" "$scratch/p" --stateful --report json -o "$scratch/second.sbx" > "$scratch/second.json"
    if ! grep -q '"query":{"hits":1,"misses":0,' "$scratch/second.json" ||
        ! grep -q '"fn_tasks_executed":0,' "$scratch/second.json" ||
        grep -q '"rebuilt":true' "$scratch/second.json"; then
        echo "ci: a second process over an unchanged tree executed tasks:" >&2
        grep -oE '"(query|fngrain)":\{[^}]*\}|"rebuilt_count":[0-9]+' "$scratch/second.json" >&2
        return 1
    fi
    cmp "$scratch/first.sbx" "$scratch/second.sbx"
    sed -i 's/1000000007/998244353/' "$scratch/p/mathx.mc"
    cp "$scratch/p"/*.mc "$scratch/fresh"/
    "${build[@]}" "$scratch/p" --stateful --report json -o "$scratch/third.sbx" > "$scratch/third.json"
    "${build[@]}" "$scratch/fresh" --stateful -o "$scratch/fresh.sbx" > /dev/null
    local fn_tasks=()
    for report in first third; do
        fn_tasks+=("$(grep -oE '"fn_tasks_executed":[0-9]+' "$scratch/$report.json" | cut -d: -f2)")
    done
    if grep -qE '"query":\{"hits":[0-9]+,"misses":0,' "$scratch/third.json" ||
        ! grep -q '"rebuilt_count":1,' "$scratch/third.json" ||
        ((fn_tasks[1] >= fn_tasks[0])) ||
        grep -qE '"rematerialized":\[[^]]*"optimizefn\(' "$scratch/third.json"; then
        echo "ci: a new process did not execute what a resident session would for one edited constant:" >&2
        grep -oE '"(query|fngrain)":\{[^}]*\}|"rebuilt_count":[0-9]+' "$scratch/third.json" >&2
        return 1
    fi
    cmp "$scratch/third.sbx" "$scratch/fresh.sbx"
}

# One request path: `minicc` serves build-class commands through
# `serve::BuildService` only. Constructing a builder, compiler or config —
# or committing state — in the binary is a second copy of that sequence.
one_path_gate() {
    local forked
    if forked="$(grep -nE 'Builder::new\(|Compiler::new\(|Config::state(ful|less)\(|\.save_state\(\)' \
        crates/buildsys/src/bin/minicc.rs)"; then
        echo "ci: minicc.rs re-forks the request path (use serve::BuildService):" >&2
        echo "$forked" >&2
        return 1
    fi
}

# Observers are per-build values: a column-0 `static` under crates/ is
# process state that concurrent daemon sessions would share (indented
# `thread_local!` entries are per-thread and stay). The two allowed ones are
# the SIGTERM latch and the temp-file name counter. The pool carries no
# observer context across spawns, so it must not know the observer crates.
static_state_gate() {
    local statics
    statics="$(grep -rnE '^(pub )?static ' crates --include=*.rs |
        grep -vE 'crates/daemon/src/server\.rs:[0-9]+:static TERM_RECEIVED:|crates/faultfs/src/inject\.rs:[0-9]+:static TMP_SEQ:' || true)"
    if [[ -n "$statics" ]]; then
        echo "ci: process-global state under crates/ (make it a value of the build that uses it):" >&2
        echo "$statics" >&2
        return 1
    fi
    if grep -rnE 'sfcc[_-](trace|faultfs)' crates/pool; then
        echo "ci: sfcc-pool must stay a leaf crate (no observer context crosses a spawn)" >&2
        return 1
    fi
}

if [[ "${1:-}" == "--quick" ]]; then
    one_path_gate
    static_state_gate
    cargo test -q -p sfcc --test integration_crash quick_
    cargo test -q -p sfcc --test integration_trace quick_
    cargo test -q -p sfcc --test integration_depcheck quick_
    cargo test -q -p sfcc-buildsys --test cli quick_
    cargo test -q -p sfcc-bench --lib quick_every_mutation_is_caught_before_divergence
    cargo test -q -p sfcc --test integration_fngrain
    cargo test -q -p sfcc-bench --lib quick_one_function_edit_beats_module_grain_five_fold
    cargo test -q -p sfcc --test integration_parallel quick_
    cargo test -q -p sfcc --test integration_cas quick_
    cargo test -q -p sfcc-bench --lib quick_followers_hit_the_shared_surface_byte_identically
    cargo test -q -p sfcc --test integration_serve quick_
    cargo test -q -p sfcc-bench --lib quick_warm_serves_beat_cold_sessions_and_nothing_is_rejected
    # Fan-out overhead smoke: jobs=8 optimize time must stay within 5% of
    # jobs=1 on the single-module sweep (pure overhead on a 1-core host).
    cargo run -q -p sfcc-bench --release --bin exp_parallel_scaling -- --quick --gate-overhead 5
    # Warm-latency smoke: a warm daemon serve of a one-function edit must
    # still beat an equivalent cold CLI session (p50). Since PR 25 the cold
    # session executes the same tasks; what warmth saves is the state reload
    # and commit (1.6-2.0x measured), so the bar is 1.2x, not the old 3x.
    cargo run -q -p sfcc-bench --release --bin exp_serve_warm -- --quick --gate-speedup 1.2
    trace_smoke
    depcheck_smoke
    noop_gate
    # The benchmark is a package outside the workspace: compile it against
    # the product API so a signature change that breaks it fails here.
    cargo check --offline --manifest-path sfbench/Cargo.toml
    exit 0
fi

one_path_gate
static_state_gate
cargo build --release
cargo test -q
cargo test --release --offline --manifest-path sfbench/Cargo.toml
cargo clippy --all-targets -- -D warnings
cargo fmt --check
trace_smoke
depcheck_smoke
noop_gate
# Smoke-run the parallel-scaling, observability-overhead, and
# dependency-soundness sweeps, plus the function-granularity,
# shared-store, and warm-daemon comparisons (write BENCH_parallel.json /
# BENCH_trace.json / BENCH_depcheck.json / BENCH_fngrain.json /
# BENCH_cas.json / BENCH_serve.json).
cargo run -q -p sfcc-bench --release --bin exp_parallel_scaling -- --quick --gate-overhead 5
cargo run -q -p sfcc-bench --release --bin exp_trace_overhead -- --quick
cargo run -q -p sfcc-bench --release --bin exp_depcheck_fuzz -- --quick
cargo run -q -p sfcc-bench --release --bin exp_fngrain -- --quick
cargo run -q -p sfcc-bench --release --bin exp_cas_sharing -- --quick
cargo run -q -p sfcc-bench --release --bin exp_serve_warm -- --quick --gate-speedup 1.2
# Crash-consistency and golden-trace sweeps run inside `cargo test` above;
# `--quick` reruns just the fast subsets for tight edit loops.
