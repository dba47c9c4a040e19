#!/usr/bin/env bash
# Run `cargo test` with name filters, failing when a filter matches no
# test. `cargo test` passes with "running 0 tests" when a filter
# matches nothing, so without this check a renamed or deleted test
# silently drops out of a step that names it.
#
# Usage: cargo-test-named.sh <cargo test args>... -- <name>...
# Example: cargo-test-named.sh -q -p probase-serve --test chaos -- \
#            wal_replay_is_deterministic
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 <cargo test args>... -- <name>..." >&2
  exit 2
fi
shift

for name in "$@"; do
  matched=$(cargo test "${args[@]}" -- --list "$name" 2>/dev/null | grep -c ': test$' || true)
  if [ "$matched" -eq 0 ]; then
    echo "::error::no test matches '$name' (cargo test ${args[*]})" >&2
    exit 1
  fi
done
cargo test "${args[@]}" -- "$@"
