#!/usr/bin/env bash
# Format no-op check: regenerates every golden file and binary fuzz seed
# with golden_gen into a temporary directory and fails if any of them
# differs from its checked-in copy under tests/golden/ or
# tests/fuzz/corpus/. The trajectory frames, store images, STIX index,
# WAL and STNI bytes are then proven unchanged by a code change, not only
# still readable.
#
# Usage: scripts/check_golden.sh [GOLDEN_GEN]   # default build/tests/golden_gen
set -euo pipefail
cd "$(dirname "$0")/.."
GEN="${1:-build/tests/golden_gen}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

"$GEN" "$OUT/golden" "$OUT/corpus" > /dev/null
checked=0
differ=0
while IFS= read -r -d '' file; do
  rel="${file#"$OUT"/}"
  case "$rel" in
    golden/*) checked_in="tests/golden/${rel#golden/}" ;;
    *) checked_in="tests/fuzz/corpus/${rel#corpus/}" ;;
  esac
  checked=$((checked + 1))
  if ! cmp -s "$file" "$checked_in"; then
    echo "check_golden: golden_gen output differs from $checked_in" >&2
    differ=$((differ + 1))
  fi
done < <(find "$OUT" -type f -print0)

if [ "$checked" -eq 0 ]; then
  echo "check_golden: golden_gen emitted no files" >&2
  exit 1
fi
if [ "$differ" -ne 0 ]; then
  echo "check_golden: $differ of $checked files differ; a format changed" >&2
  exit 1
fi
echo "check_golden: all $checked golden_gen files match the checked-in copies"
