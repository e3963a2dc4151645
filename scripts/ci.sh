#!/usr/bin/env bash
# Tier-1 gate: offline build, full test suite, and exact golden diffs
# of the 12-cell tiny and the 72-cell full run matrix. No network, no
# external crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline
# Every step below runs the clme binary this build produced.
CLME=target/release/clme

echo "== micro, reliability and security benches (build only) =="
cargo build --release --offline -p clme-bench --benches

echo "== tests =="
cargo test -q --offline

echo "== tests (telemetry-off build) =="
# The clme-mem observer's telemetry-off twin and the tests gated on that
# feature only compile in this build; its own target dir keeps the
# default tree untouched.
cargo test -q --offline -p clme-mem --features telemetry-off --target-dir target/telemetry-off

echo "== golden smoke diff (tiny matrix) =="
"$CLME" diff --tiny --golden goldens/tiny

echo "== CLI surface transcript =="
# Usage text, exit codes and argument errors of every clme entry point,
# plus the stdout of a few deterministic runs, against the pinned copy.
scripts/cli_transcript.sh "$CLME" | diff goldens/cli/transcript.txt -

echo "== profile smoke (one tiny cell) =="
"$CLME" profile --engine counter-light --bench bfs --json BENCH_profile.json
grep -o '"cells_per_sec": [0-9.]*' BENCH_profile.json

echo "== mem smoke (encrypted-memory library: write/read/tamper/rekey) =="
# Drives the clme-mem layer end-to-end on both backends: random batch
# writes checked against a plaintext model, a byte flipped in every
# stored-word region (each must raise a typed IntegrityError), a
# ciphertext splice, and a full rekey() sweep. Milliseconds per run.
# Each backend runs twice — verified-page cache on (default) and off —
# and `clme diff --mem-stats` checks the two runs served identical
# caller-visible traffic (read-result parity: the cache must never
# change what a read returns, only how fast it returns it).
for BACKEND in vec file; do
    "$CLME" mem --smoke --backend "$BACKEND" --blocks 256 --ops 1000 \
        --cache --stats-json "/tmp/clme_smoke_${BACKEND}_cache.json"
    "$CLME" mem --smoke --backend "$BACKEND" --blocks 256 --ops 1000 \
        --no-cache --stats-json "/tmp/clme_smoke_${BACKEND}_nocache.json"
    "$CLME" diff --mem-stats "/tmp/clme_smoke_${BACKEND}_cache.json" \
        "/tmp/clme_smoke_${BACKEND}_nocache.json"
done

echo "== post-mortem smoke (tamper -> .clmedump -> postmortem -> replay) =="
# The flight-recorder black box end-to-end on both backends: a forced
# single-byte flip provokes an IntegrityError, the armed layer writes a
# .clmedump bundle, `clme postmortem` renders it, and --replay re-runs
# the captured op window from the recorded seed to reproduce the same
# error class deterministically.
for BACKEND in vec file; do
    DUMP="/tmp/clme_pm_${BACKEND}.clmedump"
    rm -f "$DUMP"
    "$CLME" mem --tamper mac --backend "$BACKEND" --blocks 256 --ops 1000 \
        --dump "$DUMP"
    if [[ ! -s "$DUMP" ]]; then
        echo "post-mortem smoke: no dump bundle at $DUMP"
        exit 1
    fi
    grep -q '"trigger": "integrity-error"' "$DUMP"
    # Replay exit code, asserted both ways. A faithful bundle must
    # replay to exit 0 (set -e would abort otherwise)...
    "$CLME" postmortem "$DUMP" --replay > /dev/null
    # ...and a bundle whose recorded TamperClass cannot be reproduced
    # must exit nonzero, or CI would never notice a broken replayer.
    BAD="/tmp/clme_pm_${BACKEND}_bad.clmedump"
    grep -q '"class_code": [1-9]' "$DUMP"   # precondition for the swap below
    sed 's/"class_code": [0-9]*/"class_code": 0/' "$DUMP" > "$BAD"
    if "$CLME" postmortem "$BAD" --replay > /dev/null 2>&1; then
        echo "post-mortem smoke ($BACKEND): class mismatch must exit nonzero"
        exit 1
    fi
    echo "post-mortem smoke ($BACKEND): bundle parsed, replay reproduced the class, mismatch failed loudly"
done

echo "== tenant observability smoke (composer + bounded-cardinality telemetry) =="
# The multi-tenant bench end-to-end: 64 Zipf-skewed client streams on
# both backends, cache on and off, with the per-tenant artifact checked
# for top-K rows, SLO burn, tail attribution, and the stream digest.
# The digest is a pure function of (seed, tenants, skew), so all four
# runs must agree on it — backend and cache change timing, never the
# composed traffic.
TENANT_DIGEST=""
for BACKEND in vec file; do
    for CACHE in cache no-cache; do
        OUT="/tmp/clme_tenants_${BACKEND}_${CACHE}.json"
        "$CLME" mem --tenants 64 --skew 1.2 --backend "$BACKEND" "--$CACHE" \
            --blocks 8192 --ops 4000 --stats-json "$OUT"
        "$CLME" mem --check-stats "$OUT"
        DIGEST=$(grep -o '"digest": "[^"]*"' "$OUT")
        if [[ -z "$DIGEST" ]]; then
            echo "tenant smoke: no stream digest in $OUT"
            exit 1
        fi
        if [[ -z "$TENANT_DIGEST" ]]; then
            TENANT_DIGEST="$DIGEST"
        elif [[ "$DIGEST" != "$TENANT_DIGEST" ]]; then
            echo "tenant smoke: digest drifted ($DIGEST vs $TENANT_DIGEST)"
            exit 1
        fi
    done
done
echo "tenant smoke: all four runs composed ${TENANT_DIGEST#*: }"

echo "== mem telemetry smoke + overhead gate =="
# The telemetry pipeline end-to-end: bench both backends with the
# always-on metrics, write the stats artifact, and verify the key
# signals (per-shard lock waits, rekey progress, page-cache hit rate,
# op latency percentiles) survive the JSON round trip.
"$CLME" mem --bench --blocks 2048 --ops 8000 --stats-json BENCH_mem.json
"$CLME" mem --check-stats BENCH_mem.json

# Non-gating latency trend: compare this run's read/write p99 against
# the previous history entry. The history array is the only place the
# *_p99_ns keys appear, so a grep pulls the per-entry series. Purely
# informational — single-core CI noise is too large to gate on, but a
# drift shows up in the log next to the run that caused it.
for METRIC in read_p99_ns write_p99_ns; do
    grep -o "\"$METRIC\": [0-9.]*" BENCH_mem.json | awk -F': ' -v m="$METRIC" '
        { prev = last; last = $2 }
        END {
            if (prev == "" || prev + 0 == 0) {
                printf "trend %s: %.0f ns (no previous history entry)\n", m, last
            } else {
                printf "trend %s: %.0f ns vs %.0f ns previous (%+.1f%%)\n",
                    m, last, prev, (last - prev) / prev * 100
            }
        }'
done
# Same non-gating idiom for bench throughput: the per-entry
# *_blocks_per_sec keys appear once in the bench object and once per
# bench history entry, so fewer than three matches means no previous
# history entry to compare against.
for METRIC in read_blocks_per_sec write_blocks_per_sec; do
    grep -o "\"$METRIC\": [0-9.]*" BENCH_mem.json | awk -F': ' -v m="$METRIC" '
        { prev = last; last = $2; n++ }
        END {
            if (n < 3 || prev + 0 == 0) {
                printf "trend %s: %.0f blocks/s (no previous history entry)\n", m, last
            } else {
                printf "trend %s: %.0f vs %.0f blocks/s previous (%+.1f%%)\n",
                    m, last, prev, (last - prev) / prev * 100
            }
        }'
done
"$CLME" mem --bench --backend file --blocks 2048 --ops 8000 \
    --stats-json /tmp/clme_mem_file_stats.json
"$CLME" mem --check-stats /tmp/clme_mem_file_stats.json

# Overhead gate: the same bench with telemetry compiled out must not be
# meaningfully faster than the always-on default. This container has a
# single CPU and ±10% steal-time noise between process runs — bigger
# than the effect — so a single comparison cannot resolve a 3% budget
# (identical binaries rebuilt with a perturbed code layout differ ~2%
# best-to-best here). Instead the gate measures five order-alternated
# off/on pairs (best-of-3 reps inside each run) and fails only when at
# least four of the five pairs exceed the budget: a real regression is
# consistent across pairs, one-sided noise is not. The telemetry-off
# binary is built to its own target dir so the default tree and binary
# are left untouched.
cargo build --release -q --offline -p clme-bench \
    --features clme-mem/telemetry-off --target-dir target/telemetry-off
mem_gate_sum() {
    # $1 = clme binary, then the bench's mem flags; prints write+read
    # blocks/sec summed.
    "$1" mem "${@:2}" --blocks 2048 --ops 8000 --reps 3 \
        | awk '/^  batch_write/ { w = $3 } /^  batch_read/ { r = $3 } END { print w + r }'
}
# One gate over PAIRS order-alternated off/on pairs of one bench: fails
# when at least 4 pairs cost more than 3%. The median pair cost is
# printed for information only.
#   telemetry_gate LOG_PREFIX MEM_FLAGS...
PAIRS=5
telemetry_gate() {
    local prefix="$1" over=0 costs=() i off on cost median
    shift
    for i in $(seq "$PAIRS"); do
        if (( i % 2 )); then
            off=$(mem_gate_sum target/telemetry-off/release/clme "$@")
            on=$(mem_gate_sum "$CLME" "$@")
        else
            on=$(mem_gate_sum "$CLME" "$@")
            off=$(mem_gate_sum target/telemetry-off/release/clme "$@")
        fi
        if [[ -z "$off" || -z "$on" ]]; then
            echo "${prefix}telemetry gate: bad measurement (off='$off' on='$on')"
            exit 1
        fi
        cost=$(awk -v on="$on" -v off="$off" \
            'BEGIN { printf "%.2f", (off - on) / off * 100 }')
        costs+=("$cost")
        echo "${prefix}pair $i: off=${off} on=${on} blocks/s (write+read), cost ${cost}%"
        if awk -v c="$cost" 'BEGIN { exit !(c > 3.0) }'; then
            over=$((over + 1))
        fi
    done
    median=$(printf '%s\n' "${costs[@]}" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }')
    echo "${prefix}telemetry overhead: ${over}/${PAIRS} pairs above the 3% budget (median pair cost ${median}%)"
    if (( over >= 4 )); then
        echo "${prefix^^}TELEMETRY OVERHEAD GATE FAILED"
        exit 1
    fi
}
telemetry_gate "" --bench
# Same gate with the per-tenant telemetry enabled: the bounded-
# cardinality tenant accounting (top-K slots, sketch, SLO windows,
# sampled tail attribution) must also fit inside the 3% budget. Both
# binaries run the identical composed stream; only the telemetry build
# differs.
telemetry_gate "tenant " --tenants 32 --skew 1.2

echo "== perf gate (machine-normalised, 15% regression budget) =="
# Appends this run's cells/sec to the BENCH_perf.json history and fails
# when the normalized score drops >15% below goldens/perf_baseline.json.
"$CLME" perf

echo "== paper figures (Table I + every simulator figure, exact) =="
# One run simulates the 200 distinct figure cells once each, in
# parallel, and must print goldens/figures.txt byte for byte.
"$CLME" figures | diff goldens/figures.txt -

echo "== golden diff (full 72-cell grid, exact) =="
# The diff re-runs all 72 cells through the parallel RunMatrix workers
# (arena-reusing, default --threads = max(cores, 4)) and requires every
# snapshot to equal its golden exactly. Measured 2026-10 on a 2-vCPU
# host: 6.3-8.6 s wall, 12-17 s CPU.
"$CLME" diff --golden goldens/full --tol 0

echo "ci: all green"
