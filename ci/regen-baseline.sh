#!/usr/bin/env bash
# Regenerate the golden artefact set in crates/bench/tests/golden/ — the
# 13 files of `ci/artefacts.sh` that the tier-1 test
# `crates/bench/tests/golden.rs` compares byte for byte.
#
# Run this ONLY when a drift is intentional: a deliberate change to
# deterministic costs, counters or report shape. Commit the regenerated
# files in the same commit as the change that moved them, and say in
# CHANGES.md which files moved and why. Policy: ci/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

ci/artefacts.sh crates/bench/tests/golden

echo "Rewrote crates/bench/tests/golden/ — review the diff before committing:"
git --no-pager diff --stat -- crates/bench/tests/golden
