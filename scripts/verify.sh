#!/usr/bin/env bash
# Tier-1 verification: build + test + formatting + lints, fully offline.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

# Everything resolves to path dependencies (shims/ for external crates), so
# --offline must always work; it also guards against accidental network use.
echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test --offline"
cargo test -q --offline

# The detector's acceptance bar: identical races to an all-pairs oracle
# written from the paper's definitions, over every bundled program and
# injected NPB-MZ benchmark, and `check` reports matching recorded golden
# hashes. Part of the suite above, but run explicitly so a break names
# itself.
echo "==> detector oracle and golden reports"
cargo test -q --offline --test detector_oracle

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Panic-free gate: the base types (home-trace), the pipeline (home-core),
# the detector (home-dynamic), the trace format (home-stream), and the CLI
# must not unwrap/expect on fallible paths — failures become typed
# HomeErrors and partial reports. --no-deps keeps the lints scoped to exactly these
# crates; no --all-targets, so #[cfg(test)] code is exempt. (The same
# policy is pinned in-source via crate-root deny attributes.)
echo "==> clippy unwrap/expect gate (home-trace, home-core, home-dynamic, home-stream, home-serve, home-explore, home-static, CLI)"
cargo clippy --offline --no-deps -p home-trace -p home-core -p home-dynamic -p home-stream \
    -p home-serve -p home-explore -p home-static \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used
cargo clippy --offline --no-deps -p home --bins \
    -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

# Watch smoke: the live pipeline must stream at least one violation line
# and agree with `check` on the verdict (exit code) for the paper's
# figure2 case study. Both commands exit 1 on findings, so capture codes
# explicitly under `set -e`.
echo "==> home watch smoke (figure2)"
check_code=0
./target/release/home check programs/figure2.hmp > /dev/null || check_code=$?
watch_out="$(mktemp)"
watch_code=0
./target/release/home watch programs/figure2.hmp > "$watch_out" || watch_code=$?
grep -q "Violation" "$watch_out" || {
    echo "watch smoke: no violation line streamed" >&2
    cat "$watch_out" >&2
    exit 1
}
grep -q "watch: done" "$watch_out" || {
    echo "watch smoke: missing final summary" >&2
    exit 1
}
rm -f "$watch_out"
if [ "$watch_code" -ne "$check_code" ]; then
    echo "watch smoke: exit code $watch_code != check's $check_code" >&2
    exit 1
fi

# Serve smoke: the collector daemon must ingest a recorded trace over a
# temp UDS and report the exact violation lines `home check` finds, then
# shut down cleanly. `submit` exits 1 on findings, like check/replay.
echo "==> home serve smoke (figure2 over a temp UDS)"
serve_dir="$(mktemp -d)"
serve_sock="$serve_dir/collector.sock"
serve_trace="$serve_dir/figure2.hbt"
./target/release/home record programs/figure2.hmp -o "$serve_trace" --seeds 1,2 > /dev/null
./target/release/home serve --socket "$serve_sock" > "$serve_dir/daemon.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$serve_sock" ] && break
    sleep 0.05
done
replay_out="$serve_dir/replay.out"
submit_out="$serve_dir/submit.out"
replay_code=0
./target/release/home replay "$serve_trace" > "$replay_out" || replay_code=$?
submit_code=0
./target/release/home submit "$serve_trace" --socket "$serve_sock" > "$submit_out" || submit_code=$?
if [ "$submit_code" -ne "$replay_code" ]; then
    echo "serve smoke: submit exit $submit_code != replay's $replay_code" >&2
    exit 1
fi
if ! diff <(grep '^  - ' "$replay_out" | sort) <(grep '^  - ' "$submit_out" | sort); then
    echo "serve smoke: daemon verdict differs from replay" >&2
    exit 1
fi
./target/release/home serve --socket "$serve_sock" --status | grep -q '"predicate"' || {
    echo "serve smoke: STATUS report lacks aggregated violations" >&2
    exit 1
}
./target/release/home serve --socket "$serve_sock" --stop > /dev/null
serve_code=0
wait "$serve_pid" || serve_code=$?
if [ "$serve_code" -ne 0 ]; then
    echo "serve smoke: daemon exited $serve_code after --stop" >&2
    exit 1
fi
rm -rf "$serve_dir"

# v2 round-trip: `record --compress` must produce a smaller trace whose
# parallel replay (`--jobs 4`) prints the exact verdict lines and exit
# code of `check` — the compressed, seek-indexed format may never change
# a verdict.
echo "==> HBT v2 round-trip (record --compress -> replay --jobs 4 == check)"
v2_dir="$(mktemp -d)"
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.hbt" > /dev/null
./target/release/home record programs/figure2.hmp -o "$v2_dir/fig2.v2.hbt" --compress > /dev/null
v1_size=$(wc -c < "$v2_dir/fig2.hbt")
v2_size=$(wc -c < "$v2_dir/fig2.v2.hbt")
if [ "$v2_size" -ge "$v1_size" ]; then
    echo "v2 round-trip: --compress did not shrink the trace ($v2_size >= $v1_size)" >&2
    exit 1
fi
check_code=0
./target/release/home check programs/figure2.hmp > "$v2_dir/check.out" || check_code=$?
v2_code=0
./target/release/home replay "$v2_dir/fig2.v2.hbt" --jobs 4 > "$v2_dir/replay.out" || v2_code=$?
if [ "$v2_code" -ne "$check_code" ]; then
    echo "v2 round-trip: replay exit $v2_code != check's $check_code" >&2
    exit 1
fi
if ! diff <(grep -o 'is[A-Za-z]*Violation' "$v2_dir/check.out" | sort -u) \
          <(grep -o 'is[A-Za-z]*Violation' "$v2_dir/replay.out" | sort -u); then
    echo "v2 round-trip: compressed replay verdict differs from check" >&2
    exit 1
fi
serial_out="$v2_dir/replay1.out"
./target/release/home replay "$v2_dir/fig2.v2.hbt" --jobs 1 > "$serial_out" || true
if ! diff "$serial_out" "$v2_dir/replay.out"; then
    echo "v2 round-trip: --jobs 1 and --jobs 4 output differ" >&2
    exit 1
fi

# Batch parity: forcing the feed granularity (`--batch`) may never change
# a replay's output — byte-identical at every batch size, on both the v1
# and the compressed v2 recording.
echo "==> batch parity (replay --batch {1,7} == replay == check)"
for b in 1 7; do
    for t in fig2.hbt fig2.v2.hbt; do
        batch_out="$v2_dir/replay_batch_${b}_${t}.out"
        ./target/release/home replay "$v2_dir/$t" --batch "$b" > "$batch_out" || true
        if ! diff "$batch_out" "$serial_out"; then
            echo "batch parity: $t --batch $b output differs from default replay" >&2
            exit 1
        fi
    done
done
rm -rf "$v2_dir"

# Explore smoke: a small budget on the paper's figure1 must find the known
# initialization violation (exit 1), print a reproduction token, and that
# token must replay through `check` to the same verdict (exit 1).
echo "==> home explore smoke (figure1, budget 8)"
explore_dir="$(mktemp -d)"
explore_code=0
./target/release/home explore programs/figure1.hmp --budget 8 > "$explore_dir/explore.out" || explore_code=$?
if [ "$explore_code" -ne 1 ]; then
    echo "explore smoke: expected exit 1 (violation found), got $explore_code" >&2
    cat "$explore_dir/explore.out" >&2
    exit 1
fi
grep -q "isInitializationViolation" "$explore_dir/explore.out" || {
    echo "explore smoke: figure1 violation not found" >&2
    cat "$explore_dir/explore.out" >&2
    exit 1
}
repro_flags=$(grep -m1 'reproduce: home check' "$explore_dir/explore.out" \
    | sed 's/.*reproduce: home check //')
repro_code=0
# shellcheck disable=SC2086  # the token is a flag list by construction
./target/release/home check $repro_flags > "$explore_dir/repro.out" || repro_code=$?
if [ "$repro_code" -ne 1 ] || ! grep -q "isInitializationViolation" "$explore_dir/repro.out"; then
    echo "explore smoke: token '$repro_flags' did not reproduce the violation (exit $repro_code)" >&2
    cat "$explore_dir/repro.out" >&2
    exit 1
fi
rm -rf "$explore_dir"

# Static smoke: `home static` must run clean over the whole bundled corpus
# (exit 0 or 1 only — never a crash or usage error), agree with the pinned
# classifications (pipeline.hmp has no candidates, interproc2.hmp has
# some), and emit JSON that actually carries the candidates array.
echo "==> home static smoke (bundled corpus)"
for prog in programs/*.hmp; do
    static_code=0
    ./target/release/home static "$prog" > /dev/null || static_code=$?
    if [ "$static_code" -gt 1 ]; then
        echo "static smoke: $prog exited $static_code (expected 0 or 1)" >&2
        exit 1
    fi
done
static_code=0
./target/release/home static programs/pipeline.hmp > /dev/null || static_code=$?
if [ "$static_code" -ne 0 ]; then
    echo "static smoke: pipeline.hmp should be candidate-free, exit $static_code" >&2
    exit 1
fi
static_code=0
./target/release/home static programs/interproc2.hmp > /dev/null || static_code=$?
if [ "$static_code" -ne 1 ]; then
    echo "static smoke: interproc2.hmp should report candidates, exit $static_code" >&2
    exit 1
fi
# (exit 1 is expected here — candidates found — so guard the pipe)
(./target/release/home static programs/interproc2.hmp --json || true) \
    | grep -q '"candidates"' || {
    echo "static smoke: --json output lacks the candidates array" >&2
    exit 1
}

# Large-configuration smoke: 512 ranks x 8 threads puts 4,096 virtual
# threads on the pooled OS-thread backend. The check must finish clean
# well inside the timeout; a hang in the pool or a failed spawn fails it.
echo "==> large-configuration smoke (pipeline 512x8, 2 seeds, 60 s limit)"
large_out="$(mktemp)"
large_code=0
timeout 60 ./target/release/home check programs/pipeline.hmp --procs 512 --threads 8 \
    --seeds 1,2 > "$large_out" || large_code=$?
if [ "$large_code" -ne 0 ] || ! grep -q "no thread-safety violations detected" "$large_out"; then
    echo "large smoke: expected a clean verdict and exit 0, got exit $large_code" >&2
    cat "$large_out" >&2
    exit 1
fi
rm -f "$large_out"

# Bench smoke: the throughput harness must build and complete one quick
# pass (catches bit-rot in home-bench without paying for a full run; the
# checked-in numbers live in BENCH_throughput.json).
echo "==> bench smoke (throughput --quick)"
cargo build --release --offline -p home-bench
./target/release/throughput --quick > /dev/null

echo "verify: all checks passed"
