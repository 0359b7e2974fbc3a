#!/usr/bin/env bash
# Build tfbench from source in this checkout and run it with the given
# arguments, e.g.
#   bash bench/e2e/run.sh --workload serve --seed 3 --seconds 10 --trace 0
# dune's shared cache stays off so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
exec dune exec --root . --cache=disabled --display=quiet -- \
  ./bench/e2e/tfbench.exe "$@"
