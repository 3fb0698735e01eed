#!/usr/bin/env bash
# Run the committed hand mutants: every ci/mutants/*.patch must turn a
# tier-1 test named in its header red.
#
#   ci/mutants.sh                 # every patch
#   ci/mutants.sh PATCH...        # just these
#
# A patch opens with a `Mutant:` line and one or more `Test:` lines, then
# a unified diff against the repository root:
#
#   Mutant: a count written as a JSON string
#   Test: -p flexos-trace --lib -- --exact snapshot::tests::json_is_well_formed_and_carries_rows
#
# The tree (without target/ and .git/) is copied once into a scratch
# directory. Each patch is applied there, `cargo test --locked <Test>` runs
# for each `Test:` line in order under the copy's own target directory
# until one is red, and the patch is reverted. A mutant is killed if any
# of its tests is red; one all of them leave green is *survived*; a patch that no longer
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
    mapfile -t tests < <(sed -n 's/^Test: //p' "$patch")
    if [ ${#tests[@]} -eq 0 ]; then
        echo "$name: no Test: line" >&2
        exit 2
    fi
    if ! (cd "$work/tree" && git apply "$patch"); then
        echo "STALE     $name (does not apply)"
        bad=$((bad + 1))
        continue
    fi
    verdict=survived
    for line in "${tests[@]}"; do
        read -r -a test <<<"$line"
        if (cd "$work/tree" && cargo test --locked -q "${test[@]}" >"$work/$name.log" 2>&1); then
            continue
        elif grep -q '^error: could not compile' "$work/$name.log"; then
            verdict=unbuilt
        else
            verdict="killed by ${test[*]}"
        fi
        break
    done
    case $verdict in
    survived)
        echo "SURVIVED  $name (every Test: line stayed green)"
        bad=$((bad + 1))
        ;;
    unbuilt)
        echo "UNBUILT   $name (the mutant does not compile)"
        bad=$((bad + 1))
        ;;
    *)
        echo "killed    $name ($verdict)"
        killed=$((killed + 1))
        ;;
    esac
    (cd "$work/tree" && git apply -R "$patch")
done
echo "mutants: $killed killed, $bad survived, stale or unbuilt"
[ "$bad" -eq 0 ]
