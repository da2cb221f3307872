#!/usr/bin/env bash
# Script hygiene gate: shellcheck over every shell script in scripts/ (when
# shellcheck is installed — the tool is optional and skipped with a notice
# otherwise) and a python3 compile (syntax) check over every Python helper
# (always: python3 is a hard dependency of the check scripts themselves).
# Usage: scripts/lint_scripts.sh
set -eu

SRC=$(cd "$(dirname "$0")/.." && pwd)

SUMMARY="all passes clean"
if command -v shellcheck > /dev/null 2>&1; then
  echo "== shellcheck scripts/*.sh =="
  shellcheck "$SRC"/scripts/*.sh
else
  echo "skip: shellcheck not installed — shell scripts unchecked" >&2
  SUMMARY="pass (shellcheck not installed: shell scripts unchecked)"
fi

echo "== python3 compile check scripts/*.py =="
# py_compile would litter scripts/__pycache__ (it ignores
# PYTHONDONTWRITEBYTECODE); compile() gives the same syntax check with
# no bytecode side effects.
python3 - "$SRC"/scripts/*.py <<'PYEOF'
import sys
for path in sys.argv[1:]:
    with open(path, "rb") as f:
        compile(f.read(), path, "exec")
    print(f"  ok: {path}")
PYEOF

echo "lint_scripts: $SUMMARY"
