#!/usr/bin/env bash
# Write the fixed artefact set of `reproduce` into DIR — the gate for any
# behaviour-preserving refactor (policy: ci/README.md):
#
#   ci/artefacts.sh A     # on the parent commit
#   ci/artefacts.sh B     # on the change
#   diff -r A B           # must print nothing
#
# The set: `reproduce all`, then `--stats`, `--serve`, `--chaos
# --seed=42`, `--migrate` and `--stats --trace-out` at `--vcpus` 1/2/4,
# then `--serve --migrate-at=200:vmrpc` — stdout capture + JSON document
# each. Everything in it is simulated state, so besides the A/B diff the
# script itself holds the tree to two determinism contracts and exits
# non-zero when either breaks: the JSON documents of each 1/2/4 triple
# are byte-identical (the SMP interleaver is invisible), and a second
# run of the whole set reproduces the first byte for byte.
#
# Files are written under names relative to DIR (stdout quotes the JSON
# path it wrote, so the names must not depend on where DIR lives).
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 DIR" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
dir=$(cd "$1" && pwd)

# `CARGO_NET_OFFLINE=true ci/artefacts.sh DIR` builds without a network.
(cd "$root" && cargo build --release --locked -p flexos-bench --bin reproduce)
bin="${CARGO_TARGET_DIR:-$root/target}/release/reproduce"

emit() {
    cd "$1"
    "$bin" all >all.out
    for v in 1 2 4; do
        "$bin" --stats --quick --vcpus=$v --json=stats-v$v.json >stats-v$v.out
        "$bin" --serve --quick --vcpus=$v --json=serve-v$v.json >serve-v$v.out
        "$bin" --chaos --quick --seed=42 --vcpus=$v --json=chaos-v$v.json >chaos-v$v.out
        "$bin" --migrate --quick --vcpus=$v --json=migrate-v$v.json >migrate-v$v.out
        "$bin" --stats --quick --vcpus=$v --trace-out=trace-v$v.json >trace-v$v.out
    done
    "$bin" --serve --quick --migrate-at=200:vmrpc --json=serve-mig.json >serve-mig.out
}

emit "$dir"
for kind in stats serve chaos migrate trace; do
    cmp "$dir/$kind-v1.json" "$dir/$kind-v2.json"
    cmp "$dir/$kind-v1.json" "$dir/$kind-v4.json"
done

again=$(mktemp -d)
trap 'rm -rf "$again"' EXIT
emit "$again"
diff -r "$dir" "$again"

echo "artefacts: $(find "$dir" -type f | wc -l) files in $dir," \
    "1/2/4 triples and the repeat run byte-identical"
