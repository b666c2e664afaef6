#!/usr/bin/env bash
# Run a by-name test selection and fail when it selects nothing.
#
#   cargo-test-by-name.sh [CARGO TEST ARGS...] -- [FILTER...]
#
# Runs `cargo test CARGO TEST ARGS... -- --nocapture FILTER...`.  `cargo
# test` passes when a filter matches no test, so a renamed test would leave
# its by-name CI step silently empty.  This fails unless every FILTER names
# at least one test that ran (a `test <name> ...` line of the harness
# output whose name contains it), or, with no FILTER, unless at least one
# test ran.
set -euo pipefail

cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    cargo_args+=("$1")
    shift
done
[ $# -gt 0 ] && shift
filters=("$@")

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "${cargo_args[@]}" -- --nocapture "${filters[@]}" 2>&1 | tee "$log"

ran=$(grep -E '^test .* \.\.\. ' "$log" || true)
if [ -z "$ran" ]; then
    echo "error: cargo test ${cargo_args[*]} -- ${filters[*]} ran no test" >&2
    exit 1
fi
for filter in "${filters[@]}"; do
    if ! grep -qF -- "$filter" <<<"$(sed -E 's/^test ([^ ]*) .*/\1/' <<<"$ran")"; then
        echo "error: filter '$filter' selected no test" >&2
        exit 1
    fi
done
