#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# arguments go to the program (see README.md). This is the command
# BENCHMARK.json names. Everything it writes — build cache, binary, trace
# files, scratch state — stays in bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
out="$PWD/out"

# The go command's own droppings — build cache, work directory, telemetry
# counters — stay in bench/out/ too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
# Pinned so two runs on one machine schedule alike: one P per core (Go
# before 1.25 ignores a container's CPU quota) and the default GC target.
export GOMAXPROCS="$(nproc)" GOGC=100

go build -o "$out/drbac-bench" .
cd ..
exec "$out/drbac-bench" "$@"
