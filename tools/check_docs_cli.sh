#!/usr/bin/env bash
# Docs/CLI drift check: every `gmine <subcommand>` named inside a code
# block of README.md or docs/*.md must be a real subcommand in the
# command table of src/cli/commands.cc. Run by CI next to the
# docs-presence check.
#
# Usage: tools/check_docs_cli.sh

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Real subcommands, straight from the command table (Commands()).
subcommands="$(grep -oE '\{"[a-z]+", Cmd[A-Za-z]+' \
  "$REPO_ROOT/src/cli/commands.cc" | grep -oE '"[a-z]+"' | tr -d '"' |
  sort -u)"
if [ -z "$subcommands" ]; then
  echo "check_docs_cli: no subcommands found in src/cli/commands.cc" >&2
  exit 1
fi

fail=0
for doc in "$REPO_ROOT/README.md" "$REPO_ROOT"/docs/*.md; do
  # Keep only fenced code blocks, then every `gmine X` / `./gmine X`
  # invocation in them.
  refs="$(awk '/^```/ { in_block = !in_block; next } in_block' "$doc" |
    grep -oE '(\./)?gmine +[a-z][a-z-]*' |
    grep -oE '[a-z-]+$' | sort -u || true)"
  for ref in $refs; do
    if ! printf '%s\n' "$subcommands" | grep -qx "$ref"; then
      echo "$doc: code block names 'gmine $ref'," \
        "which is not a subcommand in src/cli/commands.cc" >&2
      fail=1
    fi
  done
done

if [ "$fail" = 0 ]; then
  echo "docs CLI references OK (subcommands: $(echo $subcommands | tr '\n' ' '))"
fi
exit $fail
