#!/usr/bin/env bash
# Regenerate ci/stats-baseline.json — the recorded telemetry snapshot,
# a byte copy of what `reproduce --stats --quick --json` writes, that
# the `artefacts` CI job `cmp`s every run against.
#
# Run this ONLY when a drift is intentional: a deliberate change to
# deterministic costs, counters or report shape. Commit the regenerated
# file in the same PR as the change that moved it, with a sentence in
# the PR body saying WHY the numbers moved. Policy: ci/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT

cargo run --release --locked -p flexos-bench --bin reproduce -- \
    --stats --quick --json="$out" >/dev/null
cp "$out" ci/stats-baseline.json

echo "Rewrote ci/stats-baseline.json — review the diff before committing:"
git --no-pager diff --stat -- ci/stats-baseline.json
