#!/usr/bin/env bash
# Compare the installed `eomsim` console script's output with tests/golden:
# every non-verify config in configs/ in CSV and JSON, and `eomsim verify`
# in both formats.  Run from the repository root; exits non-zero on the
# first difference.
set -euo pipefail
for cfg in configs/*.json; do
  name=$(basename "$cfg" .json)
  cmd=$(python -c 'import json, sys; print(json.load(open(sys.argv[1]))["command"])' "$cfg")
  if [ "$cmd" = verify ]; then continue; fi
  for fmt in csv json; do
    eomsim "$cmd" --config "$cfg" --format "$fmt" | cmp - "tests/golden/$name.$fmt"
  done
done
for fmt in csv json; do
  eomsim verify --format "$fmt" | cmp - "tests/golden/verify.$fmt"
done
