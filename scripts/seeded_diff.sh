#!/usr/bin/env bash
# Compare the seeded stdout of two builds: the paper figures, the
# failover / partition / durability ablations in their CI configs, and
# the elastic-cluster example. Wall-clock columns (recov_ms) are masked;
# every other byte must match.
#
# Usage: scripts/seeded_diff.sh BASE_BUILD HEAD_BUILD
#   BASE_BUILD, HEAD_BUILD: CMake build directories of the two trees
#   (bench/ and examples/ targets built).
# Exits 0 when every output matches, 1 on any difference (the unified
# diff is printed), 2 on bad usage or a missing binary.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_BUILD HEAD_BUILD" >&2
  exit 2
fi
base=$1
head=$2

runs=(
  "bench/fig4_load_balance"
  "bench/fig5_overhead"
  "bench/abl_failover --servers=48 --sources=2000 --queries=400"
  "bench/abl_partition --servers=16 --queries=60"
  "bench/abl_durability --servers=16 --sources=2000 --queries=400"
  "examples/example_elastic_cluster"
)

# Blank the recov_ms column of every table whose header names it.
mask() {
  awk '
    /recov_ms/ { col = 0; for (i = 1; i <= NF; ++i) if ($i == "recov_ms") col = i
                 print; next }
    NF == 0 { col = 0 }
    col > 0 && NF >= col { $col = "*" }
    { print }'
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for run in "${runs[@]}"; do
  bin=${run%% *}
  args=${run#"$bin"}
  name=$(basename "$bin")
  for side in base head; do
    dir=$base
    [ "$side" = head ] && dir=$head
    if [ ! -x "$dir/$bin" ]; then
      echo "missing $dir/$bin" >&2
      exit 2
    fi
    # shellcheck disable=SC2086  # args is a word list
    "$dir/$bin" $args 2>/dev/null | mask > "$out/$name.$side"
    echo "${PIPESTATUS[0]}" > "$out/$name.$side.rc"
  done
  if diff -u "$out/$name.base" "$out/$name.head" > "$out/$name.diff" &&
     diff -q "$out/$name.base.rc" "$out/$name.head.rc" > /dev/null; then
    echo "same    $name$args"
  else
    echo "DIFFERS $name$args (exit $(cat "$out/$name.base.rc") -> $(cat "$out/$name.head.rc"))"
    cat "$out/$name.diff"
    status=1
  fi
done
exit $status
