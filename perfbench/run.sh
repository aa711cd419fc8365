#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload ingest|dashboard|recent --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BASE_RESULTS CHANGE_RESULTS
#
# Run it from the root of the checkout. The Go build cache, the binary,
# the daemons' scratch trees and the result files all stay under
# .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
build_bin() { (cd "$root/perfbench" && go build "$@" -o "$build/perfbench" .); }
# The result's environment record takes the git SHA from the VCS stamp;
# a checkout that git cannot read (no git, or a parent repository git
# refuses) builds without the stamp instead of failing.
build_bin 2>/dev/null || build_bin -buildvcs=false
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --work "$build/work" --out "$build/results" "$@"
