#!/usr/bin/env bash
# Build portabench_e2e (Release) from this checkout into build-e2e/ at
# the repository root, then run it with every argument passed through.
# Build output goes to stderr, so the last line on stdout stays the
# benchmark's JSON result; the compiler's temporary files stay in the
# build directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2
exec "$build/portabench_e2e" --out-dir "$build" "$@"
