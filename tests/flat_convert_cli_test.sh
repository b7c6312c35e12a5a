#!/usr/bin/env bash
# Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
#
# Runs the flat_convert CLI on every committed v1 index fixture and checks
# that its output is byte-identical to the matching committed v2 golden,
# then checks that a fixture with a wrong family tag exits non-zero.
#
# Usage: flat_convert_cli_test.sh <flat_convert-binary> <golden-dir> <work-dir>
set -euo pipefail

BIN="$1"
GOLDEN="$2"
WORK="$3"
mkdir -p "$WORK"

converted=0
for v1 in "$GOLDEN"/*_v1.bin; do
  v2="${v1%_v1.bin}_v2.bin"
  # corpus_v1.bin and dynamic_checkpoint_v1.bin are not index files and
  # have no v2 counterpart.
  [ -f "$v2" ] || continue
  out="$WORK/$(basename "$v2")"
  "$BIN" "$GOLDEN/corpus_v1.bin" "$v1" "$out"
  if ! cmp "$out" "$v2"; then
    echo "flat_convert_cli_test: $(basename "$v1") does not convert to" \
         "$(basename "$v2")" >&2
    exit 1
  fi
  converted=$((converted + 1))
done
if [ "$converted" -lt 3 ]; then
  echo "flat_convert_cli_test: expected >= 3 v1 index fixtures, found" \
       "$converted" >&2
  exit 1
fi

bad="$WORK/wrong_tag_v1.bin"
{ printf 'KWX1'; tail -c +5 "$GOLDEN/orp_kw_v1.bin"; } > "$bad"
rm -f "$WORK/wrong_tag_v2.bin"
if "$BIN" "$GOLDEN/corpus_v1.bin" "$bad" "$WORK/wrong_tag_v2.bin"; then
  echo "flat_convert_cli_test: a wrong family tag was accepted" >&2
  exit 1
fi
if [ -e "$WORK/wrong_tag_v2.bin" ]; then
  echo "flat_convert_cli_test: a rejected input still produced output" >&2
  exit 1
fi
echo "flat_convert_cli_test: OK ($converted fixtures converted)"
