#!/usr/bin/env bash
# Repo CI gate: build, test, format, lint.
#
# The vendored offline crates (vendor/rand, vendor/proptest,
# vendor/criterion) are workspace members by virtue of being path
# dependencies, but they mirror upstream code and are not held to this
# repo's format/lint standards — fmt runs per first-party crate and
# clippy excludes them.

set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(
    pet pet-apps pet-baselines pet-bench pet-cli pet-core pet-firmware
    pet-fleet pet-hash pet-ident pet-obs pet-phy pet-server pet-sim
    pet-stats pet-tags
)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo test -q"
cargo test -q

# The repository benchmark is a workspace of its own (perfbench/Cargo.toml)
# built against these crates, so an API change that breaks it would pass
# every step above. Build it and run its self-tests here.
echo "==> perfbench: build and self-tests"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

# The Fig. 4 sweep's own correctness checks: every cell runs at least twice,
# so each cell's row bits must repeat and every m >= 64 row must fall in the
# accuracy band. A roster-cache change that alters a single row fails here
# (exit status non-zero). About 15 s on a 2-vCPU host once built.
echo "==> perfbench: sweep-fig4 correctness checks"
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload sweep-fig4 --seconds 1

# Statistical conformance gate: fixed-seed empirical checks of the paper's
# (ε, δ) guarantee, the gray-node law (KS), lossy-channel backend
# equivalence, and bias bounds under loss. Deterministic, runs in seconds.
echo "==> statistical conformance (fixed seeds)"
cargo test -q -p pet --test statistical_conformance

# SIMD lane gate: the differential fuzz + golden-trace suites run twice,
# once pinned to the scalar reference and once under runtime dispatch. The
# golden estimator bits are identical in both runs, so a wide lane that
# drifts anywhere in the pipeline fails exactly one of the two invocations.
echo "==> SIMD lane equivalence (forced scalar)"
PET_FORCE_LANE=scalar cargo test -q -p pet --test simd_equivalence
PET_FORCE_LANE=scalar cargo test -q -p pet --test kernel_equivalence
echo "==> SIMD lane equivalence (runtime dispatch)"
cargo test -q -p pet --test simd_equivalence
cargo test -q -p pet --test kernel_equivalence

# Silent-fallback gate: on an AVX2-capable host the runtime dispatcher must
# actually pick the avx2 lane — a build that quietly degrades to scalar
# (say, a broken feature detection macro or a stray PET_FORCE_LANE in the
# CI environment) is a perf regression that every test above would miss.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    echo "==> SIMD lane dispatch (host advertises avx2)"
    DETECTED=$(cargo run --release -q -p pet-cli --bin pet -- lane |
        awk '/^detected/ { print $2 }')
    if [[ "$DETECTED" != avx2 ]]; then
        echo "host cpuinfo advertises avx2 but the dispatcher detected" \
            "'$DETECTED' — silent scalar fallback" >&2
        exit 1
    fi
fi

# Streaming-conformance gate: the monitor layer must be a pure composition
# of one-shot estimates — zero-churn proptest differential on both
# backends, the golden churn trace (per-update estimates + alarm-fire
# round, PET_BLESS=1 re-blesses), and bit-for-bit replay.
echo "==> streaming conformance (monitor vs one-shot, golden churn trace)"
cargo test -q -p pet --test streaming_conformance

# PHY-conformance gate: the Gen2 pricing layer must be a pure observer —
# the pricing-purity proptest (phy-on vs phy-off, both backends), the
# golden priced trace (PET_BLESS=1 re-blesses), bit-for-bit replay, and
# the trimmed-mean/hash-skew caveat pin.
echo "==> PHY conformance (pricing purity, golden priced trace)"
cargo test -q -p pet --test phy_conformance

# Serving-layer gate: the concurrency battery (every test parameterized
# over the threaded AND evented backends, plus the cross-backend
# byte-parity test, the wire-protocol fuzzer, and the monitor-verb
# subscription cases: full-stream delivery, byte-identical streams across
# instances, shutdown drain) followed by closed-loop smokes. Non-zero exit
# on any lost, malformed, or non-reproducible reply.
echo "==> server integration battery (threaded + evented)"
cargo test -q -p pet-server

# Cross-backend determinism: the same plan against both backends, each run
# twice in deterministic mode (--verify-deterministic checks within-backend
# reproducibility), then the two reply digests compared. The digest folds
# every reply byte, so the evented rewrite answering even one request
# differently from the threaded reference fails here.
echo "==> loadgen smoke (both backends, digests must match)"
loadgen_digest() {
    cargo run --release -q -p pet-cli --bin pet -- loadgen --local \
        --backend "$1" --requests 10000 --connections 8 --threads 8 \
        --pipeline 4 --tags 200 --rounds 4 --verify-deterministic |
        tee /dev/stderr | awk '/reply digest/ { d = $3 } END { print d }'
}
DIGEST_THREADED=$(loadgen_digest threaded)
DIGEST_EVENTED=$(loadgen_digest evented)
[[ -n "$DIGEST_THREADED" && "$DIGEST_THREADED" == "$DIGEST_EVENTED" ]] || {
    echo "loadgen smoke: evented digest $DIGEST_EVENTED differs from" \
        "threaded $DIGEST_THREADED on the same plan" >&2
    exit 1
}
echo "loadgen smoke: backends agree ($DIGEST_THREADED)"

# Connection-scale gate: one evented server, 10k concurrent connections
# from a separate loadgen process (each process needs its own fd budget —
# in one process the pair would need >20k descriptors). Two runs, digests
# compared by --verify-deterministic; any connect failure or lost reply is
# a non-zero exit. Skipped only when the fd limit cannot hold 10k sockets.
ulimit -n 20000 2>/dev/null || true
if [[ $(ulimit -n) -ge 10100 ]]; then
    echo "==> evented 10k-connection smoke"
    SMOKE_TMP=$(mktemp -d)
    cargo run --release -q -p pet-cli --bin pet -- serve \
        --addr 127.0.0.1:0 --backend evented --workers 1 --queue 16384 \
        --deterministic --addr-file "$SMOKE_TMP/evented.addr" \
        >"$SMOKE_TMP/evented.log" 2>&1 &
    SMOKE_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$SMOKE_TMP/evented.addr" ]] && break
        sleep 0.1
    done
    [[ -s "$SMOKE_TMP/evented.addr" ]] || {
        echo "evented smoke server never published its address" >&2
        cat "$SMOKE_TMP/evented.log" >&2
        exit 1
    }
    SMOKE_ADDR=$(cat "$SMOKE_TMP/evented.addr")
    cargo run --release -q -p pet-cli --bin pet -- loadgen \
        --addr "$SMOKE_ADDR" --backend evented --connections 10000 \
        --threads 8 --pipeline 2 --requests 20000 --verify-deterministic
    # Shut the server down over the wire (bash's /dev/tcp keeps this
    # dependency-free) and insist on a drained exit.
    exec 3<>"/dev/tcp/${SMOKE_ADDR%:*}/${SMOKE_ADDR##*:}"
    printf '{"id":"ci","verb":"shutdown"}\n' >&3
    IFS= read -r SMOKE_BYE <&3
    exec 3>&- 3<&-
    [[ "$SMOKE_BYE" == *'"drained":true'* ]] || {
        echo "evented smoke: shutdown reply not drained: $SMOKE_BYE" >&2
        exit 1
    }
    wait "$SMOKE_PID"
    rm -rf "$SMOKE_TMP"
    echo "evented smoke: 10k connections held, digests identical"
else
    echo "==> evented 10k-connection smoke SKIPPED (fd limit $(ulimit -n) < 10100)"
fi

# Fleet-layer gate: the coordinator battery (bit-for-bit equivalence with
# the simulator, fault injection, quorum loss) plus a live 3-agent smoke —
# three `pet serve` processes on ephemeral ports, one fleet session run
# twice, digests compared line-for-line, agents shut down over the wire.
echo "==> fleet integration battery"
cargo test -q -p pet-fleet

echo "==> fleet smoke (3 live agents, deterministic digest)"
PET_BIN=target/release/pet
FLEET_TMP=$(mktemp -d)
trap 'rm -rf "$FLEET_TMP"' EXIT
AGENT_PIDS=()
for i in 0 1 2; do
    "$PET_BIN" serve --addr 127.0.0.1:0 --deterministic \
        --addr-file "$FLEET_TMP/agent$i.addr" \
        >"$FLEET_TMP/agent$i.log" 2>&1 &
    AGENT_PIDS+=($!)
done
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        [[ -s "$FLEET_TMP/agent$i.addr" ]] && break
        sleep 0.1
    done
    [[ -s "$FLEET_TMP/agent$i.addr" ]] || {
        echo "agent $i never published its address" >&2
        cat "$FLEET_TMP/agent$i.log" >&2
        exit 1
    }
done
AGENTS=$(cat "$FLEET_TMP"/agent{0,1,2}.addr | paste -sd, -)
fleet_run() {
    "$PET_BIN" fleet --agents "$AGENTS" --tags 2000 --rounds 16 \
        --seed 42 --quorum 2 "$@"
}
fleet_run | tee "$FLEET_TMP/run1.out"
fleet_run --shutdown-agents | tee "$FLEET_TMP/run2.out"
D1=$(grep '^fleet digest' "$FLEET_TMP/run1.out")
D2=$(grep '^fleet digest' "$FLEET_TMP/run2.out")
[[ -n "$D1" && "$D1" == "$D2" ]] || {
    echo "fleet smoke: digests differ or missing: '$D1' vs '$D2'" >&2
    exit 1
}
wait "${AGENT_PIDS[@]}"
echo "fleet smoke: reproducible ($D1)"

# Perf-ledger gate: the golden report rendering always runs (byte-stable
# CSV from a fixed fixture), and when PET_CI_GATE=1 the regression gate
# measures the fast pinned subset live — a quick best-of-3 kernel suite
# into a scratch ledger — and compares it against the committed ledger
# history at a 10% threshold (+ per-row noise floors). Env-guarded because
# wall-clock numbers from an arbitrarily loaded CI box are only meaningful
# when the operator says the machine is quiet(ish).
echo "==> perf ledger: golden report rendering"
cargo test -q -p pet-bench --test ledger_report
if [[ "${PET_CI_GATE:-0}" == "1" ]]; then
    echo "==> perf ledger: regression gate (pinned kernel subset, live)"
    GATE_TMP=$(mktemp -d)
    "$PET_BIN" bench record --suite kernel --quick --best-of 3 \
        --ledger "$GATE_TMP/ledger.jsonl"
    "$PET_BIN" bench gate --baseline results/ledger.jsonl \
        --ledger "$GATE_TMP/ledger.jsonl" --threshold 10% \
        --pin kernel:rounds_per_sec_kernel_simd \
        --verdict target/bench-gate-verdict.json
    rm -rf "$GATE_TMP"
    echo "perf ledger: gate verdict in target/bench-gate-verdict.json"
else
    echo "==> perf ledger: regression gate SKIPPED (set PET_CI_GATE=1 to run)"
fi

echo "==> cargo fmt --check (first-party crates)"
for crate in "${CRATES[@]}"; do
    cargo fmt -p "$crate" --check
done

echo "==> cargo clippy -D warnings (first-party crates)"
cargo clippy --workspace --all-targets \
    --exclude rand --exclude proptest --exclude criterion \
    -- -D warnings

echo "==> ci.sh: all checks passed"
