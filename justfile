# Common developer entry points. `just ci` is what the repo gates on.

# fmt --check, build, one pass of the whole test suite plus the reruns
# whose invocation differs (--release, serialized harness), the sim sweep
# and soak, clippy -D warnings, and the experiment smoke reports.
ci:
    ./scripts/ci.sh

fmt:
    cargo fmt --all

fmt-check:
    cargo fmt --all -- --check

build:
    cargo build --release --workspace

test:
    cargo test -q

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Regenerate every EXPERIMENTS.md table (full sizes, markdown).
report:
    cargo run --release -p braid-bench --bin report -- --markdown

# Fast smoke run of all experiments.
report-quick:
    cargo run -p braid-bench --bin report -- --quick

# The pinned benchmark (BENCHMARK.json, benchmark/README.md): every
# workload through the TCP front door, untraced and traced, one result
# file under benchmark/results/.
bench:
    bash benchmark/run.sh

# The same at a fiftieth of the size (< 15 s).
bench-smoke:
    bash benchmark/run.sh run --smoke

# Fail on a regression beyond each metric's bound between two result files.
bench-compare a b:
    bash benchmark/run.sh compare {{a}} {{b}}

# A perf claim's evidence: alternating untraced parent/change pairs, each
# tree built into its own target dir, then `compare` and the spread test;
# a workload named last adds one traced run a side and their per-layer
# ladders side by side (e.g. `just bench-pairs HEAD~1 10 cold_fetch`).
bench-pairs rev pairs workload="":
    ./scripts/bench-pairs.sh {{rev}} {{pairs}} {{workload}}

# The observability invariants (monotone counters, span forests,
# histogram algebra, EXPLAIN stability); the overhead budget is the
# pinned benchmark's `trace.overhead_ratio` (`just bench`).
trace-check:
    cargo test --test trace_observability -q
    cargo test -p braid-trace -q

# Live server dashboard over the wire STATS protocol (DESIGN.md §11).
# `just top` attaches to a running server; `just top-demo` brings its
# own server + traffic; `just top-smoke` is the one-shot CI check.
top addr="127.0.0.1:7878":
    cargo run --release -p braid-bench --bin top -- --addr {{addr}}

top-demo:
    cargo run --release -p braid-bench --bin top -- --demo --interval-ms 500

top-smoke:
    cargo run --release -p braid-bench --bin top -- --demo --once

# The network suites (DESIGN.md §11): frame codec + fault proxy
# (braid-net), TCP server/client-pool/transport (braid-remote), the
# socket chaos suite driving real workloads through the fault proxy,
# and the server-side chaos suite (proxy pointed at BraidServer).
net:
    cargo test -p braid-net -q
    cargo test -p braid-remote -q
    cargo test --release --test net_chaos -q
    cargo test --release --test server_chaos -q

# Deterministic simulation sweep (DESIGN.md §10): seeded scenarios through
# the step scheduler, every answer oracle-checked against the reference
# model; failures are shrunk to a replayable repro. Override the seed
# range with `just sim 500 100` (start, rounds).
sim start="0" rounds="200":
    SIM_SEED_START={{start}} SIM_ROUNDS={{rounds}} \
        cargo run --release -p braid-bench --bin sim

# Soak: the same seeds through every sim lane — the stepped schedule,
# threads (one OS thread per session over the shared cache), socket
# (the same over a real TCP listener behind the fault proxy), pool
# (sessions as resumable state machines on a fixed worker pool) and
# procs (every session a client connection through the TCP front door,
# dealt across `procs` forked copies of the sim binary; quiet scenarios
# only) — `workers` sizes the pool and the procs lane's server pool. In
# release so threads genuinely interleave. Loom is not vendorable
# offline (DESIGN.md §7), so schedule coverage comes from seeded
# repetition.
soak start="0" rounds="400" workers="4" procs="2":
    SIM_SEED_START={{start}} SIM_ROUNDS={{rounds}} SIM_WORKERS={{workers}} SIM_PROCS={{procs}} \
        cargo run --release -p braid-bench --bin sim -- --soak
    cargo test --release --test concurrent_sessions -q
    cargo test --release --test cooperative_sessions -q

# The columnar-representation battery (DESIGN.md §12): the differential
# proptest suite (row ≡ columnar across batch sizes, round trips,
# dictionary/NULL edge cases). The sim sweep runs columnar as the
# cache's format; the row-vs-columnar speedup is the pinned
# `scan_derive` workload (`relational.exec_us` vs
# `relational.exec_columnar_us`).
columnar:
    cargo test --test columnar_differential -q

# Multi-process load generator (DESIGN.md §11): fork real client
# processes against a braid server, closed- or open-loop, every session
# digest checked against the reference model. `just load 8 4000` runs 8
# processes at 4000 arrivals/s per process; rate 0 is closed loop.
load procs="4" rate="800" queries="200":
    cargo run --release -p braid-bench --bin load -- \
        --procs {{procs}} --rate {{rate}} --queries {{queries}}

# Server-side chaos suite: the fault proxy pointed at BraidServer —
# resets, torn frames, outage windows, protocol garbage — asserting
# typed errors and drained gauges after every scenario.
server-chaos:
    cargo test --release --test server_chaos -q

# Narrated braid-server demo: N TCP clients multiplexed as resumable
# session state machines on a fixed worker pool (DESIGN.md §7).
serve:
    cargo run --release --example serve
