#!/usr/bin/env bash
# Compare the results of two simulator runs: their *_final.vtk files byte for
# byte, and their steps.csv reports without columns 7-9 (the wall, assembly
# and solve times).  Exits non-zero on any difference, and when a directory
# lacks steps.csv or a final VTK file the other has.
#
# usage: ci/same_results.sh DIR_A DIR_B
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 DIR_A DIR_B" >&2
  exit 2
fi
final_a=$(cd "$1" && ls -- *_final.vtk)
final_b=$(cd "$2" && ls -- *_final.vtk)
if [ "$final_a" != "$final_b" ]; then
  echo "final VTK files differ: $1 has" $final_a "and $2 has" $final_b >&2
  exit 1
fi
for f in $final_a; do
  cmp "$1/$f" "$2/$f"
done
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cut -d, -f1-6,10- "$1/steps.csv" > "$tmp/a.csv"
cut -d, -f1-6,10- "$2/steps.csv" > "$tmp/b.csv"
cmp "$tmp/a.csv" "$tmp/b.csv"
