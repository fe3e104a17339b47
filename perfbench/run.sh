#!/usr/bin/env bash
# Builds the study benchmark (perfbench/) from this checkout and runs it
# with the given flags, e.g.
#
#   bash perfbench/run.sh --workload verify --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  The build, its Go caches and the
# benchmark's scratch files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

rev=unknown
if [ -d .git ]; then
	rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$rev" -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build/perfbench-work" "$@"
