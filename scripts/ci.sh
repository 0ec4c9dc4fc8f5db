#!/usr/bin/env bash
# The repo's CI gate: formatting, build, ONE pass of the whole test
# suite, then only the runs whose invocation differs from that pass — the
# pinned benchmark package (its own manifest, so a break in an API it
# uses fails here), a serialized harness, release-mode chaos suites,
# binaries and examples, the sim sweep and the all-lanes soak —
# lint-as-error, and quick smoke runs of the experiment reports. Run
# from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (every suite, once)"
cargo test -q

echo "==> pinned benchmark package: builds against the workspace, smoke test passes"
(cd benchmark && cargo test --release --offline)

echo "==> concurrent sessions suite (serialized harness)"
RUST_TEST_THREADS=1 cargo test --test concurrent_sessions -q -- --test-threads=1

echo "==> simulation smoke (fixed seed set, 50 scenarios)"
SIM_SEED_START=0 SIM_ROUNDS=50 cargo run --release -p braid-bench --bin sim

echo "==> soak smoke (10 seeds; stepped, threads, socket, pool, procs on forked clients)"
SIM_SEED_START=0 SIM_ROUNDS=10 cargo run --release -p braid-bench --bin sim -- --soak

echo "==> socket chaos suite (release) + TCP session example"
cargo test --release --test net_chaos -q
cargo run --release --example tcp_session > /dev/null

echo "==> server chaos suite (fault proxy pointed at BraidServer)"
cargo test --release --test server_chaos -q

echo "==> multi-process load smoke (2 forked clients, 1 and 2 sessions each, oracle-checked)"
cargo run --release -p braid-bench --bin load -- --procs 2 --conns 1 --queries 40 --rate 0 > /dev/null
cargo run --release -p braid-bench --bin load -- --procs 2 --conns 1 --queries 40 --rate 2000 > /dev/null
cargo run --release -p braid-bench --bin load -- --procs 2 --conns 2 --queries 40 --rate 2000 > /dev/null

echo "==> wire observability suite (trace propagation, STATS, flight recorder)"
cargo test --release --test wire_observability -q

echo "==> top dashboard smoke (demo server, one STATS snapshot)"
cargo run --release -p braid-bench --bin top -- --demo --once | grep -q "braid top"

echo "==> traced load smoke (wire tracing + 10 Hz STATS poller)"
cargo run --release -p braid-bench --bin load -- --procs 2 --conns 1 --queries 40 --rate 0 --trace --stats-poll-hz 10 > /dev/null

echo "==> braid server round trip (serve example)"
cargo run --release --example serve > /dev/null

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> E11 smoke report"
cargo run -p braid-bench --bin report -- --quick --only E11

echo "==> E17 session-scheduling smoke report"
cargo run -p braid-bench --bin report -- --quick --only E17

echo "==> E18 open-loop load smoke report"
cargo run -p braid-bench --bin report -- --quick --only E18

echo "==> E19 observability-overhead smoke report"
cargo run -p braid-bench --bin report -- --quick --only E19

echo "==> ci OK"
