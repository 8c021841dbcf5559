#!/usr/bin/env bash
# Run the loom model-checking suites (bounded exhaustive interleaving
# search over the kernel's lock-free protocols).
#
# The suites only exist under `--cfg loom`; normal builds compile them to
# empty crates. `cargo test --test` takes exact target names (no globs),
# so every suite is listed explicitly — add new `loom_*.rs` files here.
#
# Knobs (see shims/loom):
#   LOOM_MAX_PREEMPTIONS  context-switch bound per schedule   (default 3)
#   LOOM_MAX_ITERATIONS   schedules explored per model        (default 20000)
#   LOOM_REPLAY           choice trail from a failure — replays exactly it
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="--cfg loom ${RUSTFLAGS:-}"

# lockdep is on so the loom_lockdep suite (wait-for graph models) exists;
# the wrappers themselves are tracking-free pass-throughs under loom.
cargo test -p phoebe-common --features lockdep --test loom_trace_ring --test loom_snapshot --test loom_lockdep "$@"
cargo test -p phoebe-storage --test loom_latch --test loom_fault_ticket "$@"
cargo test -p phoebe-txn --test loom_twin --test loom_undo "$@"
cargo test -p phoebe-runtime --test loom_notify "$@"
cargo test -p phoebe-wal --test loom_bell "$@"
