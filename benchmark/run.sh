#!/usr/bin/env bash
# Builds the benchmark into build-bench/ and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result as JSON
#   benchmark/run.sh [--seed=N | --seeds=A,B,..] [--seconds=S] [--trace]
#                    [--compare=FILE] [--smoke] [--out=FILE] [--append-set=FILE]
#       every workload, through suite.py (see README.md)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
mkdir -p "$build"

# Engines put their disk tiers under TMPDIR, and so does the compiler: keep
# both inside the checkout, in a directory removed when the run ends.
TMPDIR="$(mktemp -d "$build/tmp.XXXXXX")"
export TMPDIR
trap 'rm -rf "$TMPDIR"' EXIT

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)" --target blaze_benchmark
} >&2

sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)"

single=0
for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*) single=1 ;;
  esac
done
if [[ $single == 1 ]]; then
  "$build/blaze_benchmark" --out "$build" --git-sha "$sha" "$@"
else
  python3 "$here/suite.py" --bin "$build/blaze_benchmark" --out-dir "$build" \
    --git-sha "$sha" "$@"
fi
