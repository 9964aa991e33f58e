#!/usr/bin/env bash
# Builds the session benchmark from this checkout's sources and runs it.
#
#   bash sessionbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash sessionbench/run.sh --selftest
#   bash sessionbench/run.sh --list
#   bash sessionbench/run.sh --compare base.json new.json
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ at the root of the checkout. Build output goes to stderr so
# the benchmark's result stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/sessionbench" .) >&2
cd "$root"
exec "$out/sessionbench" "$@"
