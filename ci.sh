#!/usr/bin/env bash
# Local + CI gate: build, test, lint, format. Run before pushing.
#
#   ./ci.sh                   # full gate
#   ./ci.sh --fast            # skip the release build (debug test run only)
#   ./ci.sh --lint-only       # only the workspace linter (cargo xtask lint)
#   ./ci.sh --bench-gate      # only the benchmark regression gate (below)
#   ./ci.sh --telemetry-smoke # only the training-telemetry smoke (below)
#   ./ci.sh --serve-smoke     # only the rhsd-serve end-to-end smoke (below)
#   ./ci.sh --simd-matrix     # only the ISA matrix (below)
#
# CI mode: when `CI=1` (or `CI=true`, as GitHub Actions sets) the script
# disables colour, prints one machine-readable summary line per step
# (`step|<name>|ok` / `step|<name>|fail (exit N)`), and mirrors those
# lines into $GITHUB_STEP_SUMMARY when Actions provides one. Every step
# fails fast with its own exit code — a failed step is recorded before
# the script aborts and can never be masked by a later step.
#
# The bench gate runs a quick deterministic repro_table1 at --threads 2
# (so training always takes its data-parallel path), self-checks the
# differ (identical records pass, an injected 20% runtime regression
# fails), then diffs the run against the committed
# BENCH_baseline_quick.json with --skip-runtime (accuracy and false
# alarms are seeded and deterministic — and thread-count invariant; see
# DESIGN.md §Parallel execution — while wall-clock is not portable across
# machines). Last, the run's ledger must hold no per-span line and end
# with a `run_end` that carries the span tree, and `cargo xtask report`
# must render it (span tree and cache gauges) and write its HTML page
# with the span-tree icicle. The ledger and the report artifacts land in
# BENCH_GATE/ so Actions can upload them. The baseline
# is tied to the locked dependency set — after a legitimate accuracy
# change, refresh it with:
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

fast=0
lint_only=0
bench_gate_only=0
telemetry_smoke_only=0
serve_smoke_only=0
simd_matrix_only=0
case "${1:-}" in
--fast) fast=1 ;;
--lint-only) lint_only=1 ;;
--bench-gate) bench_gate_only=1 ;;
--telemetry-smoke) telemetry_smoke_only=1 ;;
--serve-smoke) serve_smoke_only=1 ;;
--simd-matrix) simd_matrix_only=1 ;;
esac

# Lint-only gate. Exit codes are the linter's own and are propagated
# unchanged by run_step: 0 clean, 1 violations (or a stale allowlist
# entry under --check-allow), 2 internal/usage error. Under CI=1 the
# findings render as GitHub workflow annotations and the JSON report
# (schema rhsd-lint-report/1) is written to lint-report.json for upload.
if [[ $lint_only -eq 1 ]]; then
    lint_cmd=(cargo xtask lint --check-allow)
    if [[ $ci -eq 1 ]]; then
        lint_cmd+=(--format github --out lint-report.json)
    fi
    run_step "lint" "${lint_cmd[@]}"
    printf '\nLint gate passed.\n'
    exit 0
fi

bench_ledger_sanity() {
    head -n 1 BENCH_GATE/run.jsonl | grep -q '"event":"run_start"' || {
        echo "ledger does not start with run_start" >&2
        return 1
    }
    tail -n 1 BENCH_GATE/run.jsonl | grep -q '"event":"run_end"' || {
        echo "ledger does not end with run_end" >&2
        return 1
    }
}

bench_inject_regression() {
    python3 - "$tmp/current.json" "$tmp/regressed.json" <<'EOF'
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
    if cargo xtask bench-diff "$tmp/current.json" "$tmp/regressed.json"; then
        echo "bench-diff failed to flag an injected 20% runtime regression" >&2
        return 1
    fi
    return 0
}

# --min-accuracy 10 is the conservative floor: the quick demo-scale
# detectors average well above it (Ours ≈ 34%, TCAD'18 ≈ 75%), while a
# bias-collapsed model (the PR-6 failure mode) reports 0% and fails loud.
bench_diff_baseline() {
    cargo xtask bench-diff BENCH_baseline_quick.json "$tmp/current.json" \
        --skip-runtime --min-accuracy 10 || {
        echo "regression vs committed baseline (after a legitimate" \
            "change: BENCH_BASELINE_REFRESH=1 ./ci.sh --bench-gate)" >&2
        return 1
    }
}

bench_report_renders() {
    if grep -q '"event":"span_close"' BENCH_GATE/run.jsonl; then
        echo "ledger streams per-span span_close lines" >&2
        return 1
    fi
    tail -n 1 BENCH_GATE/run.jsonl | grep -q '"spans":{"' || {
        echo "ledger's run_end carries no span tree" >&2
        return 1
    }
    cargo xtask report BENCH_GATE/run.jsonl --html BENCH_GATE/report.html |
        tee BENCH_GATE/report.txt
    grep -q 'run report' BENCH_GATE/report.txt &&
        grep -q 'span tree (' BENCH_GATE/report.txt &&
        grep -q 'cache efficiency' BENCH_GATE/report.txt
}

bench_report_html() {
    head -c 15 BENCH_GATE/report.html | grep -q '<!DOCTYPE html>' || {
        echo "report.html is not a self-contained page" >&2
        return 1
    }
    grep -q 'class="icicle"' BENCH_GATE/report.html || {
        echo "report.html has no span-tree icicle" >&2
        return 1
    }
}

bench_gate() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    rm -rf BENCH_GATE
    mkdir -p BENCH_GATE

    run_step "bench gate: quick repro_table1 (2 threads)" \
        cargo run --release -p rhsd-bench --bin repro_table1 -- --quick --threads 2 \
        --bench-out "$tmp/current.json" --ledger BENCH_GATE/run.jsonl
    run_step "bench gate: ledger sanity" bench_ledger_sanity
    run_step "bench gate: differ self-check (identical records pass)" \
        cargo xtask bench-diff "$tmp/current.json" "$tmp/current.json"
    run_step "bench gate: inject 20% runtime regression" bench_inject_regression
    run_step "bench gate: differ self-check (injected regression fails)" \
        bench_selfcheck_fails

    if [[ "${BENCH_BASELINE_REFRESH:-0}" == "1" || ! -f BENCH_baseline_quick.json ]]; then
        step "bench gate: refreshing committed baseline"
        cp "$tmp/current.json" BENCH_baseline_quick.json
        summary "bench gate: refresh baseline" ok
        echo "wrote BENCH_baseline_quick.json — commit it"
    else
        run_step "bench gate: diff against committed baseline (runtime skipped)" \
            bench_diff_baseline
    fi
    run_step "bench gate: run_end carries the span tree; xtask report renders it" \
        bench_report_renders
    run_step "bench gate: report page carries the span-tree icicle" bench_report_html
}

if [[ $bench_gate_only -eq 1 ]]; then
    bench_gate
    printf '\nBench gate passed.\n'
    exit 0
fi

# Training-telemetry smoke: a quick training run (divergence sentinel is
# on by default, policy Warn) must land per-layer dynamics in the ledger's
# epoch events, `cargo xtask report` must auto-discover that ledger (no
# path argument) and render the training-dynamics table, and `--html`
# must produce a self-contained learning-dynamics dashboard. The run is
# at --threads 1, so with the bench gate's --threads 2 both training
# paths (serial and data-parallel) must reproduce the committed
# baseline's accuracy and false alarms exactly. Artifacts land in
# TELEMETRY_SMOKE/ so Actions can upload the dashboard.
telemetry_check_ledger() {
    grep -q '"event":"epoch"' TELEMETRY_SMOKE/LEDGER_table1.jsonl || {
        echo "ledger has no epoch events" >&2
        return 1
    }
    grep -q '"layers":\[{"key":' TELEMETRY_SMOKE/LEDGER_table1.jsonl || {
        echo "epoch events carry no per-layer dynamics rows" >&2
        return 1
    }
    grep -q '"label_entropy":' TELEMETRY_SMOKE/LEDGER_table1.jsonl || {
        echo "epoch events carry no label-entropy telemetry" >&2
        return 1
    }
}

# bench-diff reports false alarms without gating on them, so every
# detector row's accuracy and false alarms are also compared exactly.
telemetry_matches_baseline() {
    cargo xtask bench-diff BENCH_baseline_quick.json \
        TELEMETRY_SMOKE/BENCH_telemetry.json --skip-runtime --max-accuracy-drop 0 &&
        python3 - BENCH_baseline_quick.json TELEMETRY_SMOKE/BENCH_telemetry.json <<'EOF'
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
    print(f"{k}: baseline {b}, 1-thread run {c}", file=sys.stderr)
sys.exit(1 if bad or not base else 0)
EOF
}

# No ledger path on purpose: this exercises the newest-LEDGER_*.jsonl
# auto-discovery from inside TELEMETRY_SMOKE/.
telemetry_report_renders() {
    (cd TELEMETRY_SMOKE &&
        cargo xtask report --html dynamics.html) | tee "$tmp/dynamics.txt"
    grep -q 'training dynamics' "$tmp/dynamics.txt" &&
        grep -q 'layer dynamics' "$tmp/dynamics.txt"
}

telemetry_check_dashboard() {
    head -c 15 TELEMETRY_SMOKE/dynamics.html | grep -q '<!DOCTYPE html>' || {
        echo "dynamics.html is not a self-contained page" >&2
        return 1
    }
    grep -q '<polyline' TELEMETRY_SMOKE/dynamics.html || {
        echo "dynamics.html has no SVG learning curves" >&2
        return 1
    }
    grep -q 'per-layer gradient norm' TELEMETRY_SMOKE/dynamics.html || {
        echo "dynamics.html is missing the per-layer charts" >&2
        return 1
    }
}

telemetry_smoke() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    rm -rf TELEMETRY_SMOKE
    mkdir -p TELEMETRY_SMOKE

    run_step "telemetry smoke: quick repro_table1 (sentinel on, 1 thread)" \
        env -C TELEMETRY_SMOKE cargo run --release -p rhsd-bench --bin repro_table1 -- \
        --quick --threads 1 --bench-out BENCH_telemetry.json
    run_step "telemetry smoke: accuracy and false alarms match the baseline" \
        telemetry_matches_baseline
    run_step "telemetry smoke: epoch events carry layer dynamics" \
        telemetry_check_ledger
    run_step "telemetry smoke: report auto-discovers ledger and renders" \
        telemetry_report_renders
    run_step "telemetry smoke: HTML dashboard is self-contained" \
        telemetry_check_dashboard
}

if [[ $telemetry_smoke_only -eq 1 ]]; then
    telemetry_smoke
    printf '\nTelemetry smoke passed.\n'
    exit 0
fi

# Serving smoke: quick-train a model (exercising --save-model + its
# artifact ledger event), check that a copy with one byte flipped fails
# to load with a typed error, write the offline reference scan through the
# canonical serialiser, start rhsd-serve on loopback, drive it with
# `cargo xtask loadgen --quick` — which byte-compares every served Case2
# reply against the offline reference and requests a graceful shutdown —
# then assert the server exited 0, its ledger closed with run_end and a
# serve_stats event, the rhsd-serve-bench/1 record is sane, and
# bench-diff both accepts the record and flags an injected throughput
# regression. Artifacts land in SERVE_SMOKE/ so Actions can upload them.
serve_port=17878

serve_check_artifact_event() {
    grep -q '"event":"artifact"' SERVE_SMOKE/train.jsonl &&
        grep -q 'model.json' SERVE_SMOKE/train.jsonl || {
        echo "train ledger has no artifact event for the saved model" >&2
        return 1
    }
}

# A model with one byte flipped must fail to load with the typed error
# (exit 1, naming the checksum), never a panic (exit 101).
serve_corrupt_model_fails_typed() {
    echo "saved model: $(wc -c <SERVE_SMOKE/model.json) bytes"
    python3 - SERVE_SMOKE/model.json "$tmp/corrupt_model.json" <<'EOF'
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
    grep -q checksum "$tmp/corrupt_model.err" || {
        echo "the load error does not name the checksum" >&2
        return 1
    }
}

serve_wait_ready() {
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$serve_port") 2>/dev/null; then
            return 0
        fi
        sleep 0.2
    done
    echo "rhsd-serve did not open port $serve_port within 20s" >&2
    cat SERVE_SMOKE/server.log >&2 || true
    return 1
}

serve_wait_exit() {
    local rc=0
    wait "$serve_pid" || rc=$?
    serve_pid=""
    if [[ $rc -ne 0 ]]; then
        echo "rhsd-serve exited with code $rc after graceful shutdown" >&2
        cat SERVE_SMOKE/server.log >&2 || true
        return 1
    fi
}

serve_check_ledger() {
    tail -n 1 SERVE_SMOKE/serve.jsonl | grep -q '"event":"run_end"' || {
        echo "serve ledger does not end with run_end" >&2
        return 1
    }
    grep -q '"event":"serve_stats"' SERVE_SMOKE/serve.jsonl || {
        echo "serve ledger carries no serve_stats event" >&2
        return 1
    }
}

serve_check_record() {
    python3 - <<'EOF'
import json, os, sys
rec = json.load(open("SERVE_SMOKE/BENCH_serve.json"))
def fail(msg):
    sys.exit(f"BENCH_serve.json: {msg}")
if rec["schema"] != "rhsd-serve-bench/1":
    fail(f"unexpected schema {rec['schema']}")
if rec["requests"] != 6:  # --quick is 2 connections x 3 requests
    fail(f"expected 6 requests, got {rec['requests']}")
for key in ("rps", "p50_ms", "p99_ms", "batches", "batched_regions"):
    if rec[key] <= 0:
        fail(f"{key} must be positive, got {rec[key]}")
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
EOF
}

serve_inject_regression() {
    python3 - SERVE_SMOKE/BENCH_serve.json "$tmp/serve_regressed.json" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
rec["rps"] *= 0.8       # -20% throughput
rec["p99_ms"] *= 1.3    # +30% tail latency
json.dump(rec, open(sys.argv[2], "w"))
EOF
}

serve_diff_selfcheck() {
    cargo xtask bench-diff SERVE_SMOKE/BENCH_serve.json \
        SERVE_SMOKE/BENCH_serve.json || {
        echo "bench-diff rejected identical serve records" >&2
        return 1
    }
    serve_inject_regression
    if cargo xtask bench-diff SERVE_SMOKE/BENCH_serve.json \
        "$tmp/serve_regressed.json"; then
        echo "bench-diff failed to flag an injected serve regression" >&2
        return 1
    fi
    return 0
}

serve_smoke() {
    tmp=$(mktemp -d)
    serve_pid=""
    trap '[[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
    rm -rf SERVE_SMOKE
    mkdir -p SERVE_SMOKE

    run_step "serve smoke: build server + harness" \
        cargo build --release -p rhsd-serve -p rhsd-bench -p xtask
    run_step "serve smoke: quick-train + --save-model" \
        cargo run --release -p rhsd-bench --bin repro_table1 -- --quick \
        --save-model SERVE_SMOKE/model.json --ledger SERVE_SMOKE/train.jsonl \
        --bench-out SERVE_SMOKE/BENCH_train.json
    run_step "serve smoke: saved model noted in train ledger" \
        serve_check_artifact_event
    run_step "serve smoke: corrupt model is a typed load error" \
        serve_corrupt_model_fails_typed
    run_step "serve smoke: offline reference scan" \
        target/release/rhsd-serve --model SERVE_SMOKE/model.json \
        --offline-scan Case2 --half test --out SERVE_SMOKE/ref_case2.json

    step "serve smoke: start rhsd-serve on loopback"
    target/release/rhsd-serve --model SERVE_SMOKE/model.json \
        --port "$serve_port" --ledger SERVE_SMOKE/serve.jsonl \
        >SERVE_SMOKE/server.log 2>&1 &
    serve_pid=$!
    summary "serve smoke: start rhsd-serve" ok

    run_step "serve smoke: listen socket is up" serve_wait_ready
    run_step "serve smoke: loadgen (bit-identity + graceful shutdown)" \
        cargo xtask loadgen --quick --addr "127.0.0.1:$serve_port" \
        --expect Case2=SERVE_SMOKE/ref_case2.json --shutdown \
        --out SERVE_SMOKE/BENCH_serve.json
    run_step "serve smoke: server exits 0" serve_wait_exit
    run_step "serve smoke: serve ledger sane (run_end + serve_stats)" \
        serve_check_ledger
    run_step "serve smoke: throughput record sane" serve_check_record
    run_step "serve smoke: differ understands serve records" \
        serve_diff_selfcheck
}

if [[ $serve_smoke_only -eq 1 ]]; then
    serve_smoke
    printf '\nServe smoke passed.\n'
    exit 0
fi

# ISA matrix: the AVX2 kernels must stay bit-identical to the scalar
# reference (RHSD_FORCE_SCALAR=1 reruns the kernel, litho aerial,
# determinism and conv-lowering suites through the scalar dispatch;
# rhsd-litho's split-interior test is the one bit-identity check of
# conv_taps outside the tensor crate).
simd_matrix() {
    run_step "simd matrix: forced-scalar crate tests" \
        env RHSD_FORCE_SCALAR=1 cargo test -q -p rhsd-tensor -p rhsd-nn -p rhsd-core -p rhsd-litho
    run_step "simd matrix: forced-scalar determinism suite" \
        env RHSD_FORCE_SCALAR=1 cargo test -q --test determinism
    run_step "simd matrix: forced-scalar conv lowering" \
        env RHSD_FORCE_SCALAR=1 cargo test -q --test conv_lowering
}

if [[ $simd_matrix_only -eq 1 ]]; then
    simd_matrix
    printf '\nSIMD matrix passed.\n'
    exit 0
fi

if [[ $fast -eq 0 ]]; then
    run_step "cargo build --release" cargo build --workspace --release
fi

run_step "cargo test" cargo test --workspace -q

run_step "cargo test --features debug_invariants" \
    cargo test -q --features debug_invariants -p rhsd-nn -p rhsd-tensor

run_step "cargo xtask lint" cargo xtask lint --check-allow

run_step "cargo fmt --check" cargo fmt --all --check

run_step "cargo clippy -D warnings" cargo clippy --workspace -- -D warnings

printf '\nCI gate passed.\n'
