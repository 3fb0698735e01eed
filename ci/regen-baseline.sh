#!/usr/bin/env bash
# Regenerate ci/stats-baseline.json — the recorded telemetry snapshot
# that the `artefacts` CI job compares every run against (minus the
# `tlb` block, popped by policy).
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

# Normalize exactly like the checked-in baseline: python's default
# `json.dumps` spacing, trailing newline, and the host-cache-dependent
# `tlb` block popped (CI pops it from the live run before comparing, so
# the recording must not carry it). The CI comparison is on parsed JSON,
# but a canonical on-disk form keeps diffs reviewable.
python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc['stats'].pop('tlb', None)
with open('ci/stats-baseline.json', 'w') as f:
    f.write(json.dumps(doc) + '\n')
EOF

echo "Rewrote ci/stats-baseline.json — review the diff before committing:"
git --no-pager diff --stat -- ci/stats-baseline.json
