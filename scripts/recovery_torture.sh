#!/usr/bin/env bash
# Crash-consistency torture: seeded fault injection + end-to-end WAL
# recovery with oracle invariants (see crates/bench/src/bin/recovery_torture.rs).
#
# Usage:
#   ./scripts/recovery_torture.sh             # default: seeds 1..50
#   PHOEBE_TORTURE_SEEDS=200 ./scripts/recovery_torture.sh
#   PHOEBE_TORTURE_START=1000 PHOEBE_TORTURE_SEEDS=16 ./scripts/recovery_torture.sh
#
# Every fourth seed crashes single-threaded, in small rounds around the
# first refill of the log's preallocated zero tail (about 0.5-0.7 MiB into
# the log), instead of running the concurrent workload.
# The crash point and each unsynced write's fate derive from the seed; what
# the crash catches in flight also depends on thread timing, so a failing
# seed (`recovery_torture --seed N`) may not fail again on its own. Sweep
# wide: a failure that shows in under 1 % of runs needs hundreds of seeds.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${PHOEBE_TORTURE_SEEDS:-50}"
START="${PHOEBE_TORTURE_START:-1}"

cargo run --release -q -p phoebe-bench --bin recovery_torture -- \
  --start "$START" --seeds "$SEEDS"
