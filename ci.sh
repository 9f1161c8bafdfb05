#!/usr/bin/env bash
# Local + CI gate: build, test, lint, format. Run before pushing.
#
#   ./ci.sh                   # full gate
#   ./ci.sh --fast            # skip the release build (debug test run only)
#   ./ci.sh --lint-only       # only the workspace lints (cargo xtask lint, then clippy)
#   ./ci.sh --bench-gate      # only the benchmark, telemetry and serve gate (below)
#   ./ci.sh --simd-matrix     # only the ISA matrix (below)
#
# Any other argument prints these modes and exits 2.
#
# CI mode: when `CI=1` (or `CI=true`, as GitHub Actions sets) the script
# disables colour, prints one machine-readable summary line per step
# (`step|<name>|ok` / `step|<name>|fail (exit N)`), and mirrors those
# lines into $GITHUB_STEP_SUMMARY when Actions provides one. Every step
# fails fast with its own exit code — a failed step is recorded before
# the script aborts and can never be masked by a later step.
#
# The bench gate is the one leg that trains: a quick deterministic
# `repro table1 fig10` at --threads 2, run inside BENCH_GATE/ (uploaded
# by Actions), so its bench record, Figure 10 results, ledger and saved
# model all land there. Every other check reads those artifacts:
#
# - the differ self-checks (identical records pass, an injected 20%
#   runtime regression fails), then diffs the record against the
#   committed BENCH_baseline_quick.json with --skip-runtime and no
#   accuracy tolerance, and every detector's per-case accuracy and false
#   alarms must match the baseline exactly (they are seeded and
#   thread-count invariant; see DESIGN.md §Parallel execution — while
#   wall-clock is not portable across machines);
# - the ledger notes the saved model, its epoch lines carry per-layer
#   dynamics and label entropy, it holds no per-span line, and its
#   run_end carries the span tree; `cargo xtask report` renders the
#   span tree, cache gauges and training dynamics (one layer table per
#   trained network), and its HTML page holds the icicle and the
#   learning curves;
# - each network trains once per run: the report has one layer table
#   for each of the six region networks and none for Figure 10's Full,
#   whose rows equal Table 1's Ours rows;
# - a copy of the model with one byte flipped fails to load with a
#   typed checksum error; rhsd-serve writes the offline Case2 reference,
#   serves the model on loopback, and `cargo xtask loadgen --quick`
#   byte-compares every served reply against that reference and shuts
#   the server down; the server exits 0, its ledger closes with run_end
#   and serve_stats, the rhsd-serve-bench/1 record is sane (it counts
#   six Case2 test halves' regions scanned, and its tile hit rate is
#   exactly 100 * 5/6: the six Case2 scans build each tile once), and
#   the differ accepts it and flags an injected throughput regression.
#
# The baseline is tied to the locked dependency set — after a
# legitimate accuracy change, refresh it with:
#
#   BENCH_BASELINE_REFRESH=1 ./ci.sh --bench-gate
set -euo pipefail
cd "$(dirname "$0")"

ci=0
case "${CI:-}" in
1 | true)
    ci=1
    export CARGO_TERM_COLOR=never NO_COLOR=1
    ;;
esac

step() { printf '\n== %s ==\n' "$*"; }

# Machine-readable per-step status line (CI mode only).
summary() {
    [[ $ci -eq 1 ]] || return 0
    printf 'step|%s|%s\n' "$1" "$2"
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        printf -- '- `%s`: %s\n' "$1" "$2" >>"$GITHUB_STEP_SUMMARY"
    fi
}

# Runs one named gate step and fails fast with the step's own exit code.
# The status is recorded (and summarised in CI mode) before aborting, so
# a failure cannot be masked by any later command.
run_step() {
    local name="$1"
    shift
    step "$name"
    local rc=0
    "$@" || rc=$?
    if [[ $rc -ne 0 ]]; then
        summary "$name" "fail (exit $rc)"
        echo "ci.sh: step '$name' failed with exit code $rc" >&2
        exit "$rc"
    fi
    summary "$name" ok
}

mode="${1:-}"
case "$mode" in
"" | --fast | --lint-only | --bench-gate | --simd-matrix) ;;
*)
    echo "ci.sh: unknown mode '$mode'; the modes are:" >&2
    sed -n 's/^#   \(\.\/ci\.sh\)/  \1/p' "$0" >&2
    exit 2
    ;;
esac

# Lint-only gate: every workspace rule, the token linter's (L4, L6/L12,
# L8, L9, L11, L13) and then clippy's (L1-L3, L5, L7, L10).
# Clippy lints every target (tests and examples too), and
# --all-features compiles the debug_invariants checks, so it sees their
# audited panics. Exit codes are the tools' own and are
# propagated unchanged by run_step: 0 clean, 1 violations (or a stale
# inline marker under --check-allow), 2 internal/usage error (clippy
# exits 101 on findings). Under CI=1 the linter's findings render as
# GitHub workflow annotations and its JSON report (schema
# rhsd-lint-report/1) is written to lint-report.json for upload.
if [[ $mode == --lint-only ]]; then
    lint_cmd=(cargo xtask lint --check-allow)
    if [[ $ci -eq 1 ]]; then
        lint_cmd+=(--format github --out lint-report.json)
    fi
    run_step "lint" "${lint_cmd[@]}"
    run_step "clippy" cargo clippy --workspace --all-targets --all-features -- -D warnings
    printf '\nLint gate passed.\n'
    exit 0
fi

gate=BENCH_GATE
serve_port=17878

# Every pattern must appear in the file; names the first that does not.
require_all() {
    local file="$1" pattern
    shift
    for pattern in "$@"; do
        grep -q -- "$pattern" "$file" || {
            echo "$file lacks '$pattern'" >&2
            return 1
        }
    done
}

# Runs inside $gate, so fig10_results.json lands there too.
bench_repro() {
    (cd $gate && ../target/release/repro table1 fig10 --quick --threads 2 \
        --bench-out BENCH_table1.json --ledger run.jsonl --save-model model.json)
}

bench_ledger_sanity() {
    head -n 1 $gate/run.jsonl | grep -q '"event":"run_start"' || {
        echo "ledger does not start with run_start" >&2
        return 1
    }
    tail -n 1 $gate/run.jsonl | grep -q '"event":"run_end"' || {
        echo "ledger does not end with run_end" >&2
        return 1
    }
}

bench_inject_regression() {
    python3 - $gate/BENCH_table1.json "$tmp/regressed.json" <<'EOF'
import re, sys
src, dst = sys.argv[1], sys.argv[2]
text = open(src).read()
text = re.sub(r'"seconds": ([0-9.eE+-]+)',
              lambda m: '"seconds": %s' % (float(m.group(1)) * 1.2 + 1e-6), text)
open(dst, 'w').write(text)
EOF
}

# The differ must FAIL on the injected regression; succeeding here is the
# self-check failure.
bench_selfcheck_fails() {
    if cargo xtask bench-diff $gate/BENCH_table1.json "$tmp/regressed.json"; then
        echo "bench-diff failed to flag an injected 20% runtime regression" >&2
        return 1
    fi
    return 0
}

# --min-accuracy 10 is the conservative floor: the quick demo-scale
# detectors average well above it (Ours ≈ 34%, TCAD'18 ≈ 75%), while a
# bias-collapsed model (the PR-6 failure mode) reports 0% and fails loud.
# bench-diff gates on average accuracy only, so every detector row's
# per-case accuracy and false alarms are also compared exactly.
bench_matches_baseline() {
    cargo xtask bench-diff BENCH_baseline_quick.json $gate/BENCH_table1.json \
        --skip-runtime --max-accuracy-drop 0 --min-accuracy 10 &&
        python3 - BENCH_baseline_quick.json $gate/BENCH_table1.json <<'EOF' && return 0
import json, sys
def rows(path):
    out = {}
    for d in json.load(open(path))["detectors"]:
        for r in d["cases"] + [d["average"]]:
            out[(d["name"], r["case"])] = (r["accuracy_pct"], r["false_alarms"])
    return out
base, cur = rows(sys.argv[1]), rows(sys.argv[2])
bad = [(k, base[k], cur.get(k)) for k in base if cur.get(k) != base[k]]
for k, b, c in bad:
    print(f"{k}: baseline {b}, this run {c}", file=sys.stderr)
sys.exit(1 if bad or not base else 0)
EOF
    echo "regression vs committed baseline (after a legitimate" \
        "change: BENCH_BASELINE_REFRESH=1 ./ci.sh --bench-gate)" >&2
    return 1
}

bench_check_ledger() {
    require_all $gate/run.jsonl '"event":"artifact".*model\.json' \
        '"event":"epoch".*"layers":\[{"key":' '"event":"epoch".*"label_entropy":' || return 1
    if grep -q '"event":"span_close"' $gate/run.jsonl; then
        echo "ledger streams per-span span_close lines" >&2
        return 1
    fi
    tail -n 1 $gate/run.jsonl | grep -q '"spans":{"' || {
        echo "ledger's run_end carries no span tree" >&2
        return 1
    }
}

bench_report_renders() {
    cargo xtask report $gate/run.jsonl --html $gate/report.html | tee $gate/report.txt
    require_all $gate/report.txt 'run report' 'span tree (' 'cache efficiency' \
        'training dynamics' 'layer dynamics'
}

# One layer table per trained region network of Table 1, which trains
# three (Faster R-CNN, SSD and Ours), each with a `training` block in the
# bench record, and the report labels each with its detector.
bench_report_layer_table_per_network() {
    local tables nets
    tables=$(grep -c -E '^  layer dynamics \((Faster R-CNN|SSD|Ours), epoch ' $gate/report.txt)
    nets=$(grep -c '"training": {' $gate/BENCH_table1.json)
    [[ $tables -eq 3 && $nets -eq 3 ]] || {
        echo "report.txt has $tables layer table(s) for $nets trained network(s); want 3" >&2
        return 1
    }
}

# Figure 10 trains its three ablations and reuses Table 1's Ours as
# Full: the report has exactly one layer table for each of the six
# networks and none for Full, and Full's rows equal Ours' rows.
bench_fig10_full_is_ours() {
    python3 - $gate/report.txt $gate/BENCH_table1.json $gate/fig10_results.json <<'EOF'
import json, re, sys
report, table1, fig10 = sys.argv[1:]
labels = re.findall(r"^  layer dynamics \((.+), epoch ", open(report).read(), re.M)
want = ["Faster R-CNN", "SSD", "Ours", "w/o. ED", "w/o. L2", "w/o. Refine"]
bad = [f"{l}: {labels.count(l)} layer table(s), want 1" for l in want if labels.count(l) != 1]
bad += [f"{l}: a layer table of no trained network" for l in sorted(set(labels) - set(want))]
ours = next(d for d in json.load(open(table1))["detectors"] if d["name"] == "Ours")
full = dict(json.load(open(fig10)))["Full"]
cells = lambda rows: [(r["case"], r["accuracy_pct"], r["false_alarms"]) for r in rows]
if cells(full) != cells(ours["cases"] + [ours["average"]]):
    bad.append(f"Full rows {cells(full)} differ from Ours rows")
for b in bad:
    print(b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
}

bench_report_html() {
    head -c 15 $gate/report.html | grep -q '<!DOCTYPE html>' || {
        echo "report.html is not a self-contained page" >&2
        return 1
    }
    require_all $gate/report.html 'class="icicle"' '<polyline' 'per-layer gradient norm'
}

# A model with one byte flipped must fail to load with the typed error
# (exit 1, naming the checksum), never a panic (exit 101).
serve_corrupt_model_fails_typed() {
    echo "saved model: $(wc -c <$gate/model.json) bytes"
    python3 - $gate/model.json "$tmp/corrupt_model.json" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] ^= 0xFF
open(sys.argv[2], "wb").write(data)
EOF
    local rc=0
    target/release/rhsd-serve --model "$tmp/corrupt_model.json" \
        --offline-scan Case2 --out "$tmp/corrupt_scan.json" \
        2>"$tmp/corrupt_model.err" || rc=$?
    cat "$tmp/corrupt_model.err"
    if [[ $rc -ne 1 ]]; then
        echo "rhsd-serve on a corrupt model exited $rc, expected 1" >&2
        return 1
    fi
    require_all "$tmp/corrupt_model.err" checksum
}

serve_wait_ready() {
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$serve_port") 2>/dev/null; then
            return 0
        fi
        sleep 0.2
    done
    echo "rhsd-serve did not open port $serve_port within 20s" >&2
    cat $gate/server.log >&2 || true
    return 1
}

serve_wait_exit() {
    local rc=0
    wait "$serve_pid" || rc=$?
    serve_pid=""
    if [[ $rc -ne 0 ]]; then
        echo "rhsd-serve exited with code $rc after graceful shutdown" >&2
        cat $gate/server.log >&2 || true
        return 1
    fi
}

serve_check_ledger() {
    tail -n 1 $gate/serve.jsonl | grep -q '"event":"run_end"' || {
        echo "serve ledger does not end with run_end" >&2
        return 1
    }
    require_all $gate/serve.jsonl '"event":"serve_stats"'
}

serve_check_record() {
    python3 - $gate/BENCH_serve.json $gate/ref_case2.json <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
ref = json.load(open(sys.argv[2]))
def fail(msg):
    sys.exit(f"BENCH_serve.json: {msg}")
if rec["schema"] != "rhsd-serve-bench/1":
    fail(f"unexpected schema {rec['schema']}")
if rec["requests"] != 6:  # --quick is 2 connections x 3 requests
    fail(f"expected 6 requests, got {rec['requests']}")
for key in ("rps", "p50_ms", "p99_ms"):
    if rec[key] <= 0:
        fail(f"{key} must be positive, got {rec[key]}")
# The six quick requests each scan the Case2 test half, so the server
# must have run six of its region counts through the network.
if rec["regions"] != 6 * ref["regions"]:
    fail(f"expected 6 x {ref['regions']} regions scanned, got {rec['regions']}")
if not rec["bit_identity_checked"]:
    fail("bit-identity was not checked")
if rec["bit_identity_mismatches"] != 0:
    fail(f"{rec['bit_identity_mismatches']} bit-identity mismatches")
if not rec.get("isa"):
    fail("record carries no detected-ISA field")
# The quick loadgen repeats the Case2 test scan, so the server's scan
# cache must serve both tiles and stems from memory.
for key in ("tile_hit_rate", "stem_hit_rate"):
    if rec[key] <= 0:
        fail(f"{key} must be positive, got {rec[key]}")
# Each tile is built once: one of the six scans builds the Case2 test
# entry and the other five, waiting on that build or finding it, hit.
if abs(rec["tile_hit_rate"] - 100 * 5 / 6) > 1e-9:
    fail(f"tile_hit_rate must be 100 * 5/6 (each tile built once), got {rec['tile_hit_rate']}")
EOF
}

serve_inject_regression() {
    python3 - $gate/BENCH_serve.json "$tmp/serve_regressed.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
rec["rps"] *= 0.8       # -20% throughput
rec["p99_ms"] *= 1.3    # +30% tail latency
json.dump(rec, open(sys.argv[2], "w"))
EOF
}

serve_diff_selfcheck() {
    cargo xtask bench-diff $gate/BENCH_serve.json $gate/BENCH_serve.json || {
        echo "bench-diff rejected identical serve records" >&2
        return 1
    }
    serve_inject_regression
    if cargo xtask bench-diff $gate/BENCH_serve.json "$tmp/serve_regressed.json"; then
        echo "bench-diff failed to flag an injected serve regression" >&2
        return 1
    fi
    return 0
}

bench_gate() {
    tmp=$(mktemp -d)
    serve_pid=""
    trap '[[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
    rm -rf $gate
    mkdir -p $gate

    run_step "bench gate: build repro + rhsd-serve" \
        cargo build --release -p rhsd-bench -p rhsd-serve --bin repro --bin rhsd-serve
    run_step "bench gate: quick repro table1 fig10 (2 threads, model saved)" \
        bench_repro
    run_step "bench gate: ledger sanity" bench_ledger_sanity
    run_step "bench gate: differ self-check (identical records pass)" \
        cargo xtask bench-diff $gate/BENCH_table1.json $gate/BENCH_table1.json
    run_step "bench gate: inject 20% runtime regression" bench_inject_regression
    run_step "bench gate: differ self-check (injected regression fails)" \
        bench_selfcheck_fails

    if [[ "${BENCH_BASELINE_REFRESH:-0}" == "1" || ! -f BENCH_baseline_quick.json ]]; then
        step "bench gate: refreshing committed baseline"
        cp $gate/BENCH_table1.json BENCH_baseline_quick.json
        summary "bench gate: refresh baseline" ok
        echo "wrote BENCH_baseline_quick.json — commit it"
    else
        run_step "bench gate: every accuracy and false-alarm row matches the baseline" \
            bench_matches_baseline
    fi
    run_step "bench gate: ledger carries the model, layer dynamics and span tree" \
        bench_check_ledger
    run_step "bench gate: xtask report renders spans, caches and dynamics" \
        bench_report_renders
    run_step "bench gate: report has a layer table per trained network" \
        bench_report_layer_table_per_network
    run_step "bench gate: Figure 10's Full is Table 1's Ours, trained once" \
        bench_fig10_full_is_ours
    run_step "bench gate: report page carries the icicle and learning curves" \
        bench_report_html

    run_step "bench gate: corrupt model is a typed load error" \
        serve_corrupt_model_fails_typed
    run_step "bench gate: offline reference scan" \
        target/release/rhsd-serve --model $gate/model.json \
        --offline-scan Case2 --half test --out $gate/ref_case2.json

    step "bench gate: start rhsd-serve on loopback"
    target/release/rhsd-serve --model $gate/model.json \
        --port "$serve_port" --ledger $gate/serve.jsonl \
        >$gate/server.log 2>&1 &
    serve_pid=$!
    summary "bench gate: start rhsd-serve" ok

    run_step "bench gate: listen socket is up" serve_wait_ready
    run_step "bench gate: loadgen (bit-identity + graceful shutdown)" \
        cargo xtask loadgen --quick --addr "127.0.0.1:$serve_port" \
        --expect Case2=$gate/ref_case2.json --shutdown \
        --out $gate/BENCH_serve.json
    run_step "bench gate: server exits 0" serve_wait_exit
    run_step "bench gate: serve ledger sane (run_end + serve_stats)" \
        serve_check_ledger
    run_step "bench gate: throughput record sane" serve_check_record
    run_step "bench gate: differ understands serve records" \
        serve_diff_selfcheck
}

if [[ $mode == --bench-gate ]]; then
    bench_gate
    printf '\nBench gate passed.\n'
    exit 0
fi

# ISA matrix: the AVX2 and AVX-512 kernels must stay bit-identical to
# the scalar reference. The first leg prints the tier this host
# dispatches to; the next two run the tensor crate's kernel tests
# (which also run every tier up to it in turn) and the conv-lowering
# suite on that tier, so this job alone proves the dispatched kernels
# against the plain lowering. RHSD_FORCE_SCALAR=1 then reruns the
# kernel, litho aerial, determinism and conv-lowering suites through
# the scalar dispatch (rhsd-litho's split-interior test is the one
# bit-identity check of conv_taps outside the tensor crate, and
# rhsd-baselines runs TCAD'18's in-place ReLU on the scalar LeakyRelu
# kernels).
simd_matrix() {
    run_step "simd matrix: dispatched isa" cargo xtask isa
    run_step "simd matrix: dispatched-tier kernel tests" cargo test -q -p rhsd-tensor
    run_step "simd matrix: dispatched-tier conv lowering" cargo test -q --test conv_lowering
    run_step "simd matrix: forced-scalar crate tests" \
        env RHSD_FORCE_SCALAR=1 cargo test -q -p rhsd-tensor -p rhsd-nn -p rhsd-core -p rhsd-litho \
        -p rhsd-baselines
    run_step "simd matrix: forced-scalar determinism suite" \
        env RHSD_FORCE_SCALAR=1 cargo test -q --test determinism
    run_step "simd matrix: forced-scalar conv lowering" \
        env RHSD_FORCE_SCALAR=1 cargo test -q --test conv_lowering
}

if [[ $mode == --simd-matrix ]]; then
    simd_matrix
    printf '\nSIMD matrix passed.\n'
    exit 0
fi

if [[ $mode != --fast ]]; then
    run_step "cargo build --release" cargo build --workspace --release
fi

run_step "cargo test" cargo test --workspace -q

run_step "cargo test --features debug_invariants" \
    cargo test -q --features debug_invariants -p rhsd-nn -p rhsd-tensor

run_step "cargo xtask lint" cargo xtask lint --check-allow

run_step "cargo fmt --check" cargo fmt --all --check

run_step "cargo clippy -D warnings" cargo clippy --workspace --all-targets --all-features -- -D warnings

printf '\nCI gate passed.\n'
