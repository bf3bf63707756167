#!/usr/bin/env bash
# Dependency and single-definition check.
#
# 1. The conformance oracle is a test tool: besides the oracle itself,
#    only the repro CLI (which runs `repro conformance`) and the bench
#    crate that drives the CLI may depend on it outside dev-dependencies.
# 2. The SplitMix64 and FNV-1a constants that every seed, run key and
#    cache key derive from are defined once, in crates/codec; a copy
#    anywhere else under crates/ fails the check.
#
# Usage: scripts/deps_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

dependents=$(cargo tree --offline -e normal -i agemul-conformance --workspace \
    --prefix none --format '{p}' | awk '{print $1}' | sort -u |
    grep -vx -e agemul-conformance -e agemul-repro -e agemul-bench || true)
if [[ -n "$dependents" ]]; then
    echo "deps-check: production dependency on agemul-conformance from:" >&2
    echo "$dependents" >&2
    exit 1
fi

copies=$(grep -rniE --include='*.rs' \
    '0xBF58_?476D_?1CE4_?E5B9|0x94D0_?49BB_?1331_?11EB|0xcbf2_?9ce4_?8422_?2325' crates |
    grep -v '^crates/codec/' || true)
if [[ -n "$copies" ]]; then
    echo "deps-check: SplitMix64/FNV-1a constants outside crates/codec:" >&2
    echo "$copies" >&2
    exit 1
fi
echo "deps-check: OK"
