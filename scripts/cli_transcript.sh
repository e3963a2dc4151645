#!/usr/bin/env bash
# Prints a transcript of the `clme` command-line surface: usage text and
# exit code of every entry point's --help and of the argument-error paths
# (stderr), plus the stdout of a fixed set of deterministic runs. Numbers
# on lines that carry a wall-clock value are masked with '#' (and their
# spacing squeezed), as are temp paths and thread ids, so two
# builds with the same surface print the same transcript.
#
#   scripts/cli_transcript.sh [CLME_BINARY] > transcript.txt
#   diff goldens/cli/transcript.txt transcript.txt
#
# The binary defaults to target/release/clme; run from the repo root.
set -uo pipefail
export RUST_BACKTRACE=0
cd "$(dirname "$0")/.."
BIN="${1:-target/release/clme}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mask() {
    sed -E \
        -e "s#${TMP}#TMP#g" \
        -e "s/^thread '([^']*)' \([0-9]+\)/thread '\\1'/" \
        -e '/(blocks\/s|cells\/sec|s wall|^  (batch_write|batch_read|rekey|read|write) )/{s/[0-9]+(\.[0-9]+)?/#/g; s/ +/ /g}'
}

# One error-path case: the arguments, then its exit code and stderr.
err_case() {
    echo "\$ clme $*" | mask
    "$BIN" "$@" 2> "$TMP/stderr" > /dev/null
    echo "exit $?"
    mask < "$TMP/stderr"
    echo
}

# One stdout case: the arguments, then its exit code and stdout.
out_case() {
    echo "\$ clme $*" | mask
    "$BIN" "$@" > "$TMP/stdout" 2> /dev/null
    echo "exit $?"
    mask < "$TMP/stdout"
    echo
}

echo "#### help"
err_case --help
for SUB in matrix diff profile perf trace critpath series mem postmortem figures; do
    err_case "$SUB" --help
done

echo "#### unknown flag, missing value, bad number"
err_case --bogus
err_case --measure
err_case --measure abc
err_case matrix --bogus
err_case matrix --threads
err_case matrix --threads abc
err_case diff --bogus
err_case diff --tol
err_case diff --tol abc
err_case profile --bogus
err_case profile --seed
err_case profile --ring abc
err_case perf --bogus
err_case perf --out
err_case perf --gate abc
err_case trace --bogus
err_case trace --out
err_case trace --ring abc
err_case critpath --bogus
err_case critpath --json
err_case critpath --samples abc
err_case series --bogus
err_case series --json
err_case series --epoch abc
err_case mem --bogus
err_case mem --blocks
err_case mem --blocks abc
err_case postmortem --bogus
err_case postmortem --tail
err_case postmortem --tail abc
err_case figures --bogus

echo "#### other argument errors"
err_case --engine bogus
err_case --bandwidth mid
err_case --aes 512
err_case matrix --seed 0xzz
err_case diff --tiny
err_case diff --mem-stats only-one.json
err_case profile --epoch 0
err_case profile --diff table1/bogus/bfs table1/counter-light/bfs
err_case critpath
err_case critpath a/b/c d/e/f
err_case critpath table9/counter-light/bfs
err_case critpath mem/disk/sweep
err_case series --tiny
err_case mem --backend disk
err_case mem --blocks 0
err_case mem --critpath walk
err_case mem --tamper ecc
err_case mem --smoke --bench
err_case mem --bench --tamper mac
err_case mem --tenants 4 --smoke
err_case mem --tenants 0
err_case mem --skew -1
err_case mem --slo nonsense
err_case mem --tenant-top 0
err_case mem --reps 0
err_case mem --epoch-ms 0
err_case postmortem
err_case postmortem a.clmedump b.clmedump

echo "#### engine spellings and threshold range"
err_case --threshold 5 --measure 2000 --warmup 1000 --functional-warmup 1000
err_case --engine none --measure 2000 --warmup 1000 --functional-warmup 1000 --no-baseline
err_case --engine no-encryption --measure 2000 --warmup 1000 --functional-warmup 1000 --no-baseline
err_case profile --engine no-encryption
err_case trace --engine no-encryption --out "$TMP/trace.json"

echo "#### stdout"
out_case --list
out_case matrix --tiny
out_case diff --tiny --golden goldens/tiny
out_case critpath table1/counter-mode/bfs
out_case series --matrix --tiny
out_case mem --smoke --backend vec --blocks 256 --ops 1000
out_case mem --smoke --backend file --blocks 256 --ops 1000
out_case mem --tenants 8 --blocks 2048 --ops 2000 --stats-json "$TMP/tenants.json"
out_case mem --check-stats "$TMP/tenants.json"
out_case mem --bench --blocks 256 --ops 512
out_case mem --tamper mac --blocks 256 --ops 1000 --dump "$TMP/mac.clmedump"
out_case postmortem "$TMP/mac.clmedump" --replay
out_case mem --smoke --blocks 256 --ops 1000 --dump-on-exit --dump "$TMP/exit.clmedump"

echo "#### stats artifact checks"
echo '{"schema": 3, "stats": {}}' > "$TMP/gutted.json"
err_case mem --check-stats "$TMP/gutted.json"
echo 'not json' > "$TMP/garbage.json"
err_case mem --check-stats "$TMP/garbage.json"
