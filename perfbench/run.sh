#!/usr/bin/env bash
# Builds the benchmark and the mongeserve server from the sources of the
# checkout it sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload lib-implicit --seed 1 --seconds 10 --trace 0
#
# Every build output, Go cache and temporary file stays under
# .bench_build/ at the checkout root. The build fails (and the script
# exits non-zero without a result) when the repository's module is not
# next to perfbench/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/mongeserve" monge/cmd/mongeserve)
exec "$out/perfbench" -server "$out/mongeserve" -outdir "$out" "$@"
