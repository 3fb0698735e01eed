#!/usr/bin/env bash
# The repo's benchmark: builds `flexos-benchmark` (and, for traced runs,
# its `trace-off` twin) from source, then runs it from the repository
# root. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--out FILE]   every metric, one report
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh --compare A.json B.json                     apply BENCHMARK.json's bounds
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
build() {
    # Cargo's progress goes to stderr: stdout carries only the benchmark's
    # own lines, the result object last.
    cargo build --release --offline --manifest-path benchmark/Cargo.toml "$@" >&2
}

build --target-dir "$target"
bin="$target/release/flexos-benchmark"

# An untraced run and a comparison never start the twin.
case " $* " in
*" --trace 0 "* | *" --compare "*) exec "$bin" "$@" ;;
esac

build --features trace-off --target-dir "$target/trace-off"
exec "$bin" --twin "$target/trace-off/release/flexos-benchmark" "$@"
