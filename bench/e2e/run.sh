#!/usr/bin/env bash
# Builds fdb_bench from this checkout's sources, then runs it with the
# given arguments, e.g.
#   bash bench/e2e/run.sh --workload oltp_90_10 --seed 1 --seconds 12 --trace 0
#   bash bench/e2e/run.sh --workload all --seed 1     # each workload in its own process
#   bash bench/e2e/run.sh compare --bounds BENCHMARK.json --parent a*.txt --change b*.txt
# Run it from the repository root. Build output goes to stderr; the last
# line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./bench/e2e/fdb_bench.exe 1>&2
exe=./_build/default/bench/e2e/fdb_bench.exe

args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [[ ${args[i]} == --workload && ${args[i + 1]} == all ]]; then
    status=0
    for w in $("$exe" list); do
      args[i + 1]=$w
      "$exe" "${args[@]}" || status=1
    done
    exit $status
  fi
done
exec "$exe" "$@"
