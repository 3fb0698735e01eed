#!/usr/bin/env bash
# Run the committed hand mutants: every ci/mutants/*.patch must turn the
# tier-1 test named in its header red.
#
#   ci/mutants.sh                 # every patch
#   ci/mutants.sh PATCH...        # just these
#
# A patch opens with two header lines, then a unified diff against the
# repository root:
#
#   Mutant: a count written as a JSON string
#   Test: -p flexos-trace --lib -- --exact snapshot::tests::json_is_well_formed_and_carries_rows
#
# The tree (without target/ and .git/) is copied once into a scratch
# directory. Each patch is applied there, `cargo test --locked <Test>` runs
# under the copy's own target directory, and the patch is reverted. A
# mutant the test does not kill is *survived*; a patch that no longer
# applies is *stale* (the code it mutates has moved: refresh the patch);
# one that does not compile is *unbuilt* (a red build kills nothing).
# Each fails the run; nothing is skipped.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -eq 0 ]; then
    set -- "$root"/ci/mutants/*.patch
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
tar -C "$root" --exclude=./target --exclude=./.git -cf - . | tar -C "$work/tree" -xf -
export CARGO_TARGET_DIR="$work/target"

killed=0 bad=0
for patch in "$@"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    read -r -a test <<<"$(sed -n 's/^Test: //p' "$patch" | head -n 1)"
    if [ ${#test[@]} -eq 0 ]; then
        echo "$name: no Test: line" >&2
        exit 2
    fi
    if ! (cd "$work/tree" && git apply "$patch"); then
        echo "STALE     $name (does not apply)"
        bad=$((bad + 1))
        continue
    fi
    if (cd "$work/tree" && cargo test --locked -q "${test[@]}" >"$work/$name.log" 2>&1); then
        echo "SURVIVED  $name (${test[*]} stayed green)"
        bad=$((bad + 1))
    elif grep -q '^error: could not compile' "$work/$name.log"; then
        echo "UNBUILT   $name (the mutant does not compile)"
        bad=$((bad + 1))
    else
        echo "killed    $name"
        killed=$((killed + 1))
    fi
    (cd "$work/tree" && git apply -R "$patch")
done
echo "mutants: $killed killed, $bad survived, stale or unbuilt"
[ "$bad" -eq 0 ]
