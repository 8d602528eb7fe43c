#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — exactly what a PR must pass.
#
#   ci.sh          full gate
#   ci.sh --quick  fast sweep only: the canonical IR text pin, the
#                  `sfcc-state` unit tests (state codec and skip policies), the
#                  `quick_`-prefixed subset of the fault-injection matrix (cold crash matrix, truncation
#                  boundaries, recovery counters, durability sync points),
#                  of the observability suite (trace well-formedness,
#                  report schema, one copy of each number, CLI contracts), and
#                  of the dependency-soundness suite (clean-build audit,
#                  per-task-kind seeded lies, E15 fuzz matrix), the
#                  function-granularity suite and its E16 gate, the
#                  parallel byte-identity suite and its E13 fan-out
#                  overhead gate, the shared-artifact-store soundness
#                  suite and its E17 sharing gate, the warm-daemon
#                  suite (its `quick_` rows are the lineage harness's
#                  fixed-seed scripts, on every route) and its E18
#                  warm-daemon smoke,
#                  plus a traced demo build validated with `trace-check`,
#                  a depcheck run over the demo project, the cold
#                  no-op gate (a second process executes 0 tasks), the
#                  flip gate (a flag flip executes what the flags shape)
#                  and the commit gate (an edit writes what it changed); both modes
#                  start with the one-request-path grep over `minicc.rs`,
#                  the planner grep over `builder.rs`, the optimizer-kernel
#                  grep over `crates/passes/src` and `replace_uses`,
#                  the one-metrics-home grep over `crates/buildsys/src`,
#                  the no-process-state grep over `crates/`, the
#                  one-JSON-writer grep over `crates/`, the one-codec
#                  grep over `crates/`, the one-front-end grep over
#                  `tasks.rs` and the no-copies grep over `tasks.rs`
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

# The value of gauge $1 in the `--report json` file $2. A gauge the report
# does not carry stops the whole run: an empty value inside `(( ))` would
# read as a false condition, so the gate would pass without checking.
gauge() {
    grep -oE "\"$1\":\{\"type\":\"gauge\",\"value\":[0-9]+" "$2" | grep -oE '[0-9]+$' ||
        { echo "ci: the report $2 carries no gauge $1" >&2; kill -TERM $$; }
}

# Bytes of the committed files of state directory $1 for the logicals that
# follow: each logical's live generation files, segments included.
committed_size() {
    local dir="$1" total=0 logical file
    shift
    for logical in "$@"; do
        for file in "$dir"/.sfcc-state."$logical".g* "$dir"/.sfcc-state."$logical"+*.g*; do
            [[ -e "$file" && "$file" != *.corrupt* ]] || continue
            total=$((total + $(stat -c %s "$file")))
        done
    done
    echo "$total"
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
# --stateful --fn-cache` process over an unchanged tree starts from the
# query graph the first one committed and must execute nothing — zero query
# misses, zero function tasks, zero modules rebuilt — and commit nothing —
# the first process's generation, zero writes, byte-identical state files —
# yet hand back the same image. After one constant is touched, a third
# process commits the next generation and executes what a resident session
# would: one module rebuilt, fewer function tasks than the first build,
# nothing re-run for its value (no module but the edited one is walked, and
# `graph`, `codegen` and `optimizefn` values are loaded from the graph), and
# the image a directory without any history builds from the edited tree.
# The no-op reads what it uses and no more: the manifest and the input
# section of the graph's tip — at most 5 % of the committed state and graph,
# not a byte of the function cache; it parses no key, loads and hashes no
# graph value and decodes no program.
noop_gate() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    mkdir "$scratch/p" "$scratch/fresh"
    cp demo/*.mc "$scratch/p"/
    local build=(cargo run -q -p sfcc-buildsys --bin minicc -- build)
    local flags=(--stateful --fn-cache)
    "${build[@]}" "$scratch/p" "${flags[@]}" --report json -o "$scratch/out.sbx" > "$scratch/first.json"
    cp "$scratch/out.sbx" "$scratch/first.sbx"
    local inode
    inode="$(stat -c %i "$scratch/out.sbx")"
    mkdir "$scratch/state1" "$scratch/state2"
    cp "$scratch/p"/.sfcc-state* "$scratch/state1"/
    "${build[@]}" "$scratch/p" "${flags[@]}" --report json -o "$scratch/out.sbx" > "$scratch/second.json"
    cp "$scratch/p"/.sfcc-state* "$scratch/state2"/
    # A no-op answers `link` from the inputs the graph's tip records: one
    # hit, no key parsed, no value loaded.
    if (($(gauge query.hits "$scratch/second.json") != 1)) ||
        (($(gauge query.misses "$scratch/second.json") != 0)) ||
        (($(gauge query.loaded "$scratch/second.json") != 0)) ||
        (($(gauge query.keys_parsed "$scratch/second.json") != 0)) ||
        (($(gauge fngrain.fn_tasks_executed "$scratch/second.json") != 0)) ||
        grep -q '"rebuilt":true' "$scratch/second.json"; then
        echo "ci: a second process over an unchanged tree executed, loaded or parsed:" >&2
        grep -oE '"(query|fngrain)\.[a-z_]+":\{[^}]*\}|"build.rebuilt_count":\{[^}]*\}' "$scratch/second.json" >&2
        return 1
    fi
    # It reads the manifest and the tip's input section: at most 5 % of the
    # committed state and graph, and hashes no value.
    local got used
    got="$(gauge persist.bytes_read "$scratch/second.json")"
    used="$(committed_size "$scratch/p" state depgraph)"
    if ((got * 20 > used)) ||
        (($(gauge persist.values_verified "$scratch/second.json") != 0)) ||
        (($(gauge backend.programs_decoded "$scratch/second.json") != 0)); then
        echo "ci: a no-op read more than 5 % of the $used committed byte(s) of state and graph, or hashed a value, or decoded a program:" >&2
        grep -oE '"(persist.bytes_read|persist.values_verified|backend.programs_decoded)":\{[^}]*\}' "$scratch/second.json" >&2
        return 1
    fi
    # Nor did it rewrite the image it already holds: the same file, no
    # rename. A damaged image is rewritten whole.
    if [[ "$(stat -c %i "$scratch/out.sbx")" != "$inode" ]]; then
        echo "ci: a no-op replaced an unchanged image" >&2
        return 1
    fi
    cmp "$scratch/first.sbx" "$scratch/out.sbx"
    truncate -s 10 "$scratch/out.sbx"
    "${build[@]}" "$scratch/p" "${flags[@]}" -o "$scratch/out.sbx" > /dev/null
    cmp "$scratch/first.sbx" "$scratch/out.sbx"
    # Nor did it commit: the same generation, no write, the same state bytes.
    local generations=()
    for report in first second; do
        generations+=("$(grep -oE '"state_generation":[0-9]+' "$scratch/$report.json" | cut -d: -f2)")
    done
    if ((generations[1] != generations[0])) ||
        ! grep -q '"faultfs.writes":{"type":"gauge","value":0}' "$scratch/second.json" ||
        ! grep -q '"faultfs.bytes_written":{"type":"gauge","value":0}' "$scratch/second.json" ||
        ! diff -rq "$scratch/state1" "$scratch/state2"; then
        echo "ci: a second process over an unchanged tree committed state:" >&2
        grep -oE '"state_generation":[0-9]+|"faultfs.writes":\{[^}]*\}' "$scratch/second.json" >&2
        return 1
    fi
    sed -i 's/1000000007/998244353/' "$scratch/p/mathx.mc"
    cp "$scratch/p"/*.mc "$scratch/fresh"/
    "${build[@]}" "$scratch/p" "${flags[@]}" --report json -o "$scratch/third.sbx" > "$scratch/third.json"
    "${build[@]}" "$scratch/fresh" "${flags[@]}" -o "$scratch/fresh.sbx" > /dev/null
    if ! grep -q "\"state_generation\":$((generations[0] + 1))," "$scratch/third.json"; then
        echo "ci: an edit did not commit exactly one generation:" >&2
        grep -oE '"state_generation":[0-9]+' "$scratch/third.json" >&2
        return 1
    fi
    local fn_tasks=()
    for report in first third; do
        fn_tasks+=("$(gauge fngrain.fn_tasks_executed "$scratch/$report.json")")
    done
    # The full build executed every node of the graph the edit restores;
    # the edit reads back fewer keys than that.
    local nodes
    nodes="$(gauge query.misses "$scratch/first.json")"
    parsed="$(gauge query.keys_parsed "$scratch/third.json")"
    if (($(gauge query.misses "$scratch/third.json") == 0)) ||
        (($(gauge build.rebuilt_count "$scratch/third.json") != 1)) ||
        ((fn_tasks[1] >= fn_tasks[0])) ||
        ((parsed >= nodes)) ||
        ! grep -q '"rematerialized":\[\]' "$scratch/third.json"; then
        echo "ci: a new process did not execute what a resident session would for one edited constant:" >&2
        grep -oE '"(query|fngrain)\.[a-z_]+":\{[^}]*\}|"build.rebuilt_count":\{[^}]*\}' "$scratch/third.json" >&2
        return 1
    fi
    cmp "$scratch/third.sbx" "$scratch/fresh.sbx"
}

# Flag-flip gate, on counts rather than clocks: flags are tracked inputs
# of the tasks they shape, not a store-wide salt. On the demo tree, `-O2`,
# `-O0`, `-O2` and `-O2` again, one `--stateful` process each in one
# directory: each flip executes only `optimizefn`, `codegen` and `link`
# tasks (the front end validates from the graph the last process
# committed), recovers nothing, and writes the image a fresh copy builds
# under the same flags; the last build executes nothing.
flip_gate() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    mkdir "$scratch/p"
    cp demo/*.mc "$scratch/p"/
    local build=(cargo run -q -p sfcc-buildsys --bin minicc -- build)
    local i=0 level
    for level in -O2 -O0 -O2 -O2; do
        i=$((i + 1))
        "${build[@]}" "$scratch/p" --stateful "$level" --report json -o "$scratch/$i.sbx" > "$scratch/$i.json"
        rm -rf "$scratch/fresh"
        mkdir "$scratch/fresh"
        cp demo/*.mc "$scratch/fresh"/
        "${build[@]}" "$scratch/fresh" --stateful "$level" -o "$scratch/fresh.sbx" > /dev/null
        cmp "$scratch/$i.sbx" "$scratch/fresh.sbx"
        local executed others
        executed="$(grep -oE '"executed":\[[^]]*\]' "$scratch/$i.json")"
        others="$(echo "$executed" | grep -oE '"[a-z]+\(|"[a-z]+"' | grep -vE '^"(executed"|optimizefn\(|codegen\(|link")' || true)"
        if (($(gauge recovery.recovered_files "$scratch/$i.json") != 0)) ||
            { ((i == 2 || i == 3)) && [[ -n "$others" || "$executed" != *optimizefn* ]]; } ||
            { ((i == 4)) && [[ "$executed" != '"executed":[]' ]]; }; then
            echo "ci: build $i ($level) of a flag flip executed more than the flags shape, or recovered:" >&2
            grep -oE '"(query.hits|query.misses|recovery.recovered_files)":\{[^}]*\}' "$scratch/$i.json" >&2
            echo "$others" | sort | uniq -c >&2
            return 1
        fi
    done
}

# Commit gate, on byte counts rather than clocks: on the demo tree a
# commit writes what the build changed. An edit's `faultfs.bytes_written`
# is under half the full build's; thirty repeats of one edit — a
# same-width constant — write the same bytes whenever they append, the
# manifest aside (it gains an entry per segment), so nothing grows with the
# history; both chains compact; `minicc fsck` finds the directory clean.
# Without the function cache the graph's chain alone is the store's, and
# `persist.segments` returns to 0 at its compactions. The first edit follows
# a no-op, which leaves the function cache unread, and reads its chain
# exactly once.
commit_gate() {
    local scratch
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' RETURN
    local build=(cargo run -q -p sfcc-buildsys --bin minicc -- build)
    local flags
    for flags in "--stateful --fn-cache" "--stateful"; do
        local dir="$scratch/p${flags// /}"
        mkdir "$dir"
        cp demo/*.mc "$dir"/
        # shellcheck disable=SC2086
        "${build[@]}" "$dir" $flags --report json -o "$scratch/out.sbx" > "$scratch/full.json"
        local full segments=0 flat="" zeroed=0 prev=1000000007 i
        full="$(gauge faultfs.bytes_written "$scratch/full.json")"
        # shellcheck disable=SC2086
        "${build[@]}" "$dir" $flags -o "$scratch/out.sbx" > /dev/null
        local chains
        chains="$(committed_size "$dir" state depgraph ircache)"
        for i in $(seq 1 30); do
            sed -i "s/$prev/$((prev + 1))/" "$dir/mathx.mc"
            prev=$((prev + 1))
            # shellcheck disable=SC2086
            "${build[@]}" "$dir" $flags --report json -o "$scratch/out.sbx" > "$scratch/edit.json"
            local bytes now payload
            if ((i == 1)) && (($(gauge persist.bytes_read "$scratch/edit.json") != chains)); then
                echo "ci: the edit after a no-op ($flags) read $(gauge persist.bytes_read "$scratch/edit.json") committed byte(s), not its $chains" >&2
                return 1
            fi
            bytes="$(gauge faultfs.bytes_written "$scratch/edit.json")"
            now="$(gauge persist.segments "$scratch/edit.json")"
            payload=$((bytes - $(stat -c %s "$dir/.sfcc-state.manifest")))
            if ((now > segments)); then
                if ((bytes * 2 >= full)); then
                    echo "ci: edit $i ($flags) wrote $bytes byte(s), the full build $full" >&2
                    return 1
                fi
                flat="${flat:-$payload}"
                if ((payload * 50 < flat * 49 || payload * 50 > flat * 51)); then
                    echo "ci: appending edit $i ($flags) wrote $payload byte(s) besides its manifest, the first $flat" >&2
                    return 1
                fi
            fi
            ((now == 0)) && zeroed=$((zeroed + 1))
            segments=$now
        done
        if [[ "$flags" == "--stateful" ]] && ((zeroed == 0)); then
            echo "ci: the graph chain never compacted ($flags)" >&2
            return 1
        fi
        local logical
        for logical in depgraph ircache; do
            if [[ "$flags" == "--stateful" && "$logical" == ircache ]]; then
                continue
            fi
            if ls "$dir"/.sfcc-state."$logical".g1-* > /dev/null 2>&1; then
                echo "ci: the $logical chain never compacted ($flags)" >&2
                return 1
            fi
        done
        cargo run -q -p sfcc-buildsys --bin minicc -- fsck "$dir" | grep -q '^  clean$'
    done
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

# The engine schedules: a build demands `link`, and the tasks plan their
# optimize runs (`link` a window of modules, a module's first stale
# `optimizefn` its module). In the non-test code of builder.rs, a staleness probe
# (`up_to_date(`), the old wave batches (`WaveBatch`, `run_batches`), or a
# demand of anything but `link` outside `module_ir` (which demands a
# module's `modcheck` and `optimizefn`s to print its IR) is a second
# planner coming back.
planner_gate() {
    local found
    found="$(awk '/^#\[cfg\(test\)\]/ { exit }
                  /^[[:space:]]*\/\// { next }
                  /^    pub fn module_ir\(/ { ir = 1 }
                  /up_to_date\(|WaveBatch|run_batches/ { print FNR ": " $0; next }
                  !ir && /(require|prefetch)\(/ && !/BuildTask::Link\)/ { print FNR ": " $0 }
                  ir && /^    }$/ { ir = 0 }' crates/buildsys/src/builder.rs)"
    if [[ -n "$found" ]]; then
        echo "ci: builder.rs plans work the engine schedules (demand \`link\`; the tasks plan their runs):" >&2
        echo "$found" >&2
        return 1
    fi
}

# Optimizer passes cost O(live IR). `Function::replace_uses` walks the
# instructions attached to blocks, never the grow-only arena, and a pass
# detaches an instruction from the block it knows or sweeps once with
# `util::detach_all`, never through `Function::detach_inst`, which searches
# every block. A `detach_inst(` call in the non-test code of
# crates/passes/src, or a loop over `self.insts` (or the destructured
# `insts`) in `replace_uses`, is a per-call walk of dead slots coming back.
kernel_gate() {
    local found
    found="$( (find crates/passes/src -name '*.rs' | sort | xargs awk '
                FNR == 1 { test = 0 }
                /^#\[cfg\(test\)\]/ { test = 1 }
                test || /^[[:space:]]*\/\// { next }
                /detach_inst\(/ { print FILENAME ":" FNR ": " $0 }'
              awk '/^    pub fn replace_uses\(/ { body = 1 }
                   body && /^[[:space:]]*\/\// { next }
                   body && (/self\.insts/ || /in &?(mut )?insts([^A-Za-z0-9_[]|$)/ ||
                            /(^|[^A-Za-z0-9_.])insts\.(iter|iter_mut|into_iter)\(/) {
                       print FILENAME ":" FNR ": " $0 }
                   body && /^    }$/ { body = 0 }' crates/ir/src/function.rs) )"
    if [[ -n "$found" ]]; then
        echo "ci: an optimizer kernel walks dead arena slots (walk blocks; detach from the known block or with detach_all):" >&2
        echo "$found" >&2
        return 1
    fi
}

# A build's numbers have one home, its report's metrics snapshot: the
# builder sets each gauge once, every reader goes through
# `BuildReport::metric`, and the JSON report prints them once, as its
# `metrics` block. In the non-test code of crates/buildsys/src, a typed
# mirror of those numbers (`FngrainStats`, `ParallelStats`,
# `SnapshotTotals`) or, in report.rs, a reader that takes a `fallback` for
# a missing metric or a `metric(` call outside `fn metric` and
# `fn update_metric` (a typed block of the JSON report) is a second home
# coming back.
metrics_home_gate() {
    local found
    found="$(find crates/buildsys/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { test = 0; reader = 0 }
        /^#\[cfg\(test\)\]/ { test = 1 }
        test || /^[[:space:]]*\/\// { next }
        FILENAME ~ /\/report\.rs$/ && /^    pub(\(crate\))? fn (update_)?metric\(/ { reader = 1 }
        /FngrainStats|ParallelStats|SnapshotTotals/ ||
            (FILENAME ~ /\/report\.rs$/ &&
                (/fallback/ || (!reader && /(^|[^A-Za-z0-9_])metric\(/))) {
            print FILENAME ":" FNR ": " $0 }
        reader && /^    }$/ { reader = 0 }')"
    if [[ -n "$found" ]]; then
        echo "ci: a build's numbers stored outside its report's metrics snapshot:" >&2
        echo "$found" >&2
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

# One JSON writer: every document sfcc emits is a `json::Value` printed by
# `sfcc_trace::json::write`. A JSON key literal (`\"key\":`) in non-test code
# (a file's lines before its `#[cfg(test)]`) outside json.rs is a
# hand-written document coming back.
json_writer_gate() {
    local literals
    literals="$(find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path crates/trace/src/json.rs | sort |
        xargs awk '/^#\[cfg\(test\)\]/ { nextfile }
                   /\\"[A-Za-z_][A-Za-z0-9_.-]*\\":/ { print FILENAME ":" FNR ": " $0 }')"
    if [[ -n "$literals" ]]; then
        echo "ci: hand-written JSON outside crates/trace/src/json.rs (build a json::Value):" >&2
        echo "$literals" >&2
        return 1
    fi
}

# One front door for persisted bytes: every file's magic and version are
# checked by `sfcc_codec::{unarmor, open}`. Non-test code outside
# crates/codec/src naming `BadMagic` or `BadVersion` is a hand-rolled header
# check coming back.
codec_gate() {
    local headers
    headers="$(find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path 'crates/codec/src/*' | sort |
        xargs awk '/^#\[cfg\(test\)\]/ { nextfile }
                   /^[[:space:]]*\/\// { next }
                   /(^|[^A-Za-z0-9_])Bad(Magic|Version)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }')"
    if [[ -n "$headers" ]]; then
        echo "ci: a hand-rolled file header outside crates/codec/src (use sfcc_codec::{armor, unarmor, open}):" >&2
        echo "$headers" >&2
        return 1
    fi
}

# A build reads its sources only through its tasks: the `parse` arm is the
# one parser call in the non-test code of tasks.rs, and `imports(m)` projects
# its AST. A second `parser::parse(`, or a call of `parse_imports(`,
# `parse_and_check(`, `lower_module(` or `extract_interface(`, is a second
# front end coming back beside the tasks the engine sees.
front_end_gate() {
    local found
    found="$(awk '/^#\[cfg\(test\)\]/ { exit }
                  /^[[:space:]]*\/\// { next }
                  /parser::parse\(/ { parses[++n] = FNR ": " $0 }
                  /(parse_imports|parse_and_check|lower_module|extract_interface)\(/ {
                      print FNR ": " $0 }
                  END { if (n > 1) for (i = 1; i <= n; i++) print parses[i] }' \
        crates/buildsys/src/tasks.rs)"
    if [[ -n "$found" ]]; then
        echo "ci: tasks.rs runs a front end beside its tasks (derive from \`parse(m)\`):" >&2
        echo "$found" >&2
        return 1
    fi
}

# Build values move from task to task by `Arc` or by move: a function body
# is copied once per build, when the pipeline takes its working copy, and a
# pass trace not at all. In the non-test code of tasks.rs,
# `Arc::unwrap_or_clone`, `.object.clone()`, `.func.clone()` (or
# `(*….func).clone()`, `Function::clone(`, and the same of a `CodeObject` or
# a `FunctionDef`) or a `.cloned()` of a parse definition (`ast.function…`),
# and in that of builder.rs a `.ftrace.clone()`, is a deep copy of a value
# the build already holds coming back.
copy_gate() {
    local found
    found="$(awk '/^#\[cfg\(test\)\]/ { exit }
                  /^[[:space:]]*\/\// { next }
                  /Arc::unwrap_or_clone|\.(object|func)\)?\.clone\(\)|(Function|FunctionDef|CodeObject)::clone\(|ast\.functions?[^;]*\.cloned\(\)/ {
                      print FNR ": " $0 }' crates/buildsys/src/tasks.rs)"
    # The report takes each executed `optimizefn`'s pass trace from the
    # build; a `.ftrace.clone()` in builder.rs copies it out of a value.
    found+="$(awk '/^#\[cfg\(test\)\]/ { exit }
                   /^[[:space:]]*\/\// { next }
                   /\.ftrace\.clone\(\)/ { print "builder.rs:" FNR ": " $0 }' crates/buildsys/src/builder.rs)"
    if [[ -n "$found" ]]; then
        echo "ci: tasks.rs or builder.rs deep-copies a value the engine holds (share the Arc, or move it):" >&2
        echo "$found" >&2
        return 1
    fi
}

if [[ "${1:-}" == "--quick" ]]; then
    one_path_gate
    planner_gate
    kernel_gate
    metrics_home_gate
    static_state_gate
    json_writer_gate
    codec_gate
    front_end_gate
    copy_gate
    # Byte-identity pin of the canonical IR text every fingerprint hashes.
    cargo test -q -p sfcc-ir quick_
    # The state codec's round-trip, version-skew, truncation and pinned-stamp
    # rows, and the skip policies.
    cargo test -q -p sfcc-state
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
    # The lineage harness's fixed-seed scripts (tests/common/lineage.rs) on
    # a resident builder, a process per step and a daemon, beside the
    # single-request rows.
    cargo test -q -p sfcc --test integration_serve quick_
    cargo test -q -p sfcc-bench --lib quick_warm_serves_beat_cold_sessions_and_nothing_is_rejected
    # Fan-out overhead smoke: jobs=8 optimize time must stay within 5% of
    # jobs=1 on the single-module sweep (pure overhead on a 1-core host).
    cargo run -q -p sfcc-bench --release --bin exp_parallel_scaling -- --quick --gate-overhead 5
    # Warm-daemon smoke: both lanes serve a one-function edit stream and no
    # concurrent client is rejected. The warm/cold ratio is reported, not
    # gated: a cold session executes what a warm one does and rematerializes
    # only what the edit reaches, so the lanes' latencies are of a size.
    cargo run -q -p sfcc-bench --release --bin exp_serve_warm -- --quick
    trace_smoke
    depcheck_smoke
    noop_gate
    flip_gate
    commit_gate
    # The benchmark is a package outside the workspace: compile it against
    # the product API so a signature change that breaks it fails here.
    cargo check --offline --manifest-path sfbench/Cargo.toml
    exit 0
fi

one_path_gate
planner_gate
kernel_gate
metrics_home_gate
static_state_gate
json_writer_gate
codec_gate
front_end_gate
copy_gate
cargo build --release
cargo test -q
cargo test --release --offline --manifest-path sfbench/Cargo.toml
cargo clippy --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
trace_smoke
depcheck_smoke
noop_gate
flip_gate
commit_gate
# Smoke-run the parallel-scaling, observability-overhead, and
# dependency-soundness sweeps, plus the function-granularity,
# shared-store, and warm-daemon comparisons (at quick scale they write
# their BENCH_*.json under target/bench-quick/, never over the checked-in
# full-scale files).
cargo run -q -p sfcc-bench --release --bin exp_parallel_scaling -- --quick --gate-overhead 5
cargo run -q -p sfcc-bench --release --bin exp_trace_overhead -- --quick
cargo run -q -p sfcc-bench --release --bin exp_depcheck_fuzz -- --quick
cargo run -q -p sfcc-bench --release --bin exp_fngrain -- --quick
cargo run -q -p sfcc-bench --release --bin exp_cas_sharing -- --quick
cargo run -q -p sfcc-bench --release --bin exp_serve_warm -- --quick
# Crash-consistency and golden-trace sweeps run inside `cargo test` above;
# `--quick` reruns just the fast subsets for tight edit loops.
