#!/bin/sh
# Run the bench regression gate by hand, outside ctest.
#
#   scripts/check_bench.sh [BUILD_DIR]            gate against baselines
#   scripts/check_bench.sh [BUILD_DIR] --update   refresh the baselines
#
# The gate reruns table2_rubis_throughput (1 trial, 0.5 s warm-up,
# 2 s measure), fabric_scale (default sweep), shard_scale (default
# islands x shards sweep), a capture-enabled shard_scale run
# (trace + monitor + metrics, pinning the observability overhead),
# flow_attr (flow-latency attribution counts and retry blame) and
# churn_scale (membership churn: exactly-once tune conservation and
# shard-count digest identity under join/leave/crash/migrate)
# with the committed fast configurations — the same windows the
# bench_gate_check, fabric_gate_check, shard_gate_check,
# shard_obs_gate_check, flow_attr_gate_check and churn_gate_check
# ctests use — and compares the gated metrics in their JSON reports
# against bench/baselines/*.json.
# --update recaptures the baseline from the fresh run, preserving the
# per-metric tolerance list below; commit the result when a metric
# shift is intentional.

set -e

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$repo/build}
case "$build" in
  --update) build=$repo/build; update=1 ;;
esac
[ "$2" = "--update" ] && update=1

bench=$build/bench/table2_rubis_throughput
fabric=$build/bench/fabric_scale
shard=$build/bench/shard_scale
flow=$build/bench/flow_attr
churn=$build/bench/churn_scale
gate=$build/bench/bench_gate
baseline=$repo/bench/baselines/table2_rubis_throughput.json
fabric_baseline=$repo/bench/baselines/fabric_scale.json
shard_baseline=$repo/bench/baselines/shard_scale.json
obs_baseline=$repo/bench/baselines/shard_scale_obs.json
flow_baseline=$repo/bench/baselines/flow_attr.json
churn_baseline=$repo/bench/baselines/churn_scale.json

for bin in "$bench" "$fabric" "$shard" "$flow" "$churn" "$gate"; do
    if [ ! -x "$bin" ]; then
        echo "check_bench: missing $bin (build first: cmake --build $build)" >&2
        exit 2
    fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$tmp" && "$bench" --trials 1 --warmup-sec 0.5 --measure-sec 2 \
    --json "$tmp/fresh.json" > /dev/null)
(cd "$tmp" && "$fabric" --trials 1 \
    --json "$tmp/fabric_fresh.json" > /dev/null)
(cd "$tmp" && "$shard" --trials 1 \
    --json "$tmp/shard_fresh.json" > /dev/null)
# Observability gate run: capture enabled, 48-island sweep, speedup
# self-check disarmed (tiny cells cannot amortise the barrier).
(cd "$tmp" && CORM_SHARD_SPEEDUP_MIN=0 "$shard" --trials 1 \
    --islands 48 --shards 1,4 --trace "$tmp/obs_trace.json" \
    --monitor --metrics \
    --json "$tmp/obs_fresh.json" > /dev/null)
# Flow-attribution run: the binary self-checks shard invariance,
# digest neutrality and in-process/offline agreement on every run.
(cd "$tmp" && CORM_SHARD_SPEEDUP_MIN=0 "$flow" --trials 1 \
    --islands 12 --shards 1,4 \
    --json "$tmp/flow_fresh.json" > /dev/null)
# Churn run: the binary self-checks tunes_lost == 0 and digest
# identity across shard counts on every cell before reporting.
(cd "$tmp" && "$churn" --trials 1 \
    --json "$tmp/churn_fresh.json" > /dev/null)

if [ -n "$update" ]; then
    # The gated metric list and its tolerances. Event counts are
    # exact replays, so they are pinned; the latency aggregates and
    # the tune count keep headroom.
    "$gate" --init "$tmp/fresh.json" --out "$baseline" \
        results.base.throughput_rps.mean=0.15 \
        results.coord.throughput_rps.mean=0.15 \
        results.base.mean_response_ms.mean=0.20 \
        results.coord.mean_response_ms.mean=0.20 \
        results.coord.tunes_sent=0.25 \
        results.base.events_executed=0 \
        results.coord.events_executed=0
    echo "check_bench: baseline refreshed -> $baseline"
    # Fabric gate: structural message counts are exact replays, so
    # they run tight; the derived ratios get a little headroom.
    "$gate" --init "$tmp/fabric_fresh.json" --out "$fabric_baseline" \
        results.tree_n16_faulty.hub_messages_per_applied_tune=0.15 \
        results.tree_n16_faulty.messages_per_applied_tune=0.15 \
        results.tree_n16_faulty.applied_tunes=0.05 \
        results.tree_n16_faulty.hub_queue_depth=0.50 \
        results.tree_n16_faulty.convergence_ms=0.25 \
        results.star_n16_faulty.hub_messages_per_applied_tune=0.15 \
        results.star_n16_faulty.applied_tunes=0.05 \
        results.tree_n16_clean.hub_messages_per_applied_tune=0.15 \
        results.star_n16_clean.hub_messages_per_applied_tune=0.15
    echo "check_bench: baseline refreshed -> $fabric_baseline"
    # Shard gate: everything pinned here is a pure function of the
    # seed and the global event set — digests, window/boundary
    # counts, per-cell event totals — or of the seed and the shard
    # count (the kernel's ordered-queue fallbacks and heap spills),
    # so the tolerances are zero (exact replay). Wall time is
    # deliberately not gated.
    "$gate" --init "$tmp/shard_fresh.json" --out "$shard_baseline" \
        results.tree_n64_s1.digest_hi=0 \
        results.tree_n64_s1.digest_lo=0 \
        results.tree_n64_s1.shard_windows=0 \
        results.tree_n64_s1.boundary_messages=0 \
        results.tree_n64_s1.applied_tunes=0 \
        results.tree_n64_s1.convergence_ms=0 \
        results.tree_n64_s1.events_executed=0 \
        results.tree_n64_s4.digest_hi=0 \
        results.tree_n64_s4.digest_lo=0 \
        results.tree_n64_s4.events_executed=0 \
        results.tree_n256_s4.digest_hi=0 \
        results.tree_n256_s4.digest_lo=0 \
        results.tree_n256_s4.shard_windows=0 \
        results.tree_n256_s4.boundary_messages=0 \
        results.tree_n256_s4.applied_tunes=0 \
        results.tree_n256_s4.convergence_ms=0 \
        results.tree_n256_s4.events_executed=0 \
        results.tree_n64_s1.ordered_fallbacks=0 \
        results.tree_n64_s1.spills=0 \
        results.tree_n64_s4.ordered_fallbacks=0 \
        results.tree_n64_s4.spills=0 \
        results.tree_n256_s1.ordered_fallbacks=0 \
        results.tree_n256_s1.spills=0 \
        results.tree_n256_s4.ordered_fallbacks=0 \
        results.tree_n256_s4.spills=0
    echo "check_bench: baseline refreshed -> $shard_baseline"
    # Observability gate: the capture counts and digests are exact
    # replays (zero tolerance); the captured/flight wall-time ratios
    # are machine-dependent, so they only guard against runaway
    # overhead, not small drift.
    "$gate" --init "$tmp/obs_fresh.json" --out "$obs_baseline" \
        results.obs_overhead.trace_events=0 \
        results.obs_overhead.health_breaches=0 \
        results.obs_overhead.digest_match=0 \
        results.obs_overhead.wall_ratio=2.0 \
        results.obs_overhead.flight_ratio=1.0 \
        results.tree_n48_s1.digest_hi=0 \
        results.tree_n48_s1.digest_lo=0 \
        results.tree_n48_s4.digest_hi=0 \
        results.tree_n48_s4.digest_lo=0 \
        results.tree_n48_s4.shard_windows=0 \
        results.tree_n48_s4.boundary_messages=0
    echo "check_bench: baseline refreshed -> $obs_baseline"
    # Flow-attribution gate: flow counts, leg blame tallies and the
    # retry signature are exact replays of the seeded schedule, so
    # every structural metric is pinned at zero tolerance.
    "$gate" --init "$tmp/flow_fresh.json" --out "$flow_baseline" \
        results.tree_clean.digest_hi=0 \
        results.tree_clean.digest_lo=0 \
        results.tree_clean.flows=0 \
        results.tree_clean.completed=0 \
        results.tree_clean.coalesced=0 \
        results.tree_clean.abandoned=0 \
        results.tree_clean.blame_retry=0 \
        results.tree_clean.trace_events=0 \
        results.tree_faulty.digest_hi=0 \
        results.tree_faulty.digest_lo=0 \
        results.tree_faulty.flows=0 \
        results.tree_faulty.completed=0 \
        results.tree_faulty.abandoned=0 \
        results.tree_faulty.blame_retry=0 \
        results.tree_faulty.blame_abandoned=0 \
        results.tree_faulty.retry_sum_ns=0 \
        results.tree_faulty.trace_events=0
    echo "check_bench: baseline refreshed -> $flow_baseline"
    # Churn gate: the applied/abandoned ledger, re-parent and
    # migration-forward counts, the kernel's fallback and spill
    # counts and the digests are exact replays of the seeded
    # schedule, so every metric is pinned at zero tolerance;
    # tunes_lost is pinned at its only legal value, zero.
    "$gate" --init "$tmp/churn_fresh.json" --out "$churn_baseline" \
        results.tree_n16_c8_s1.digest_hi=0 \
        results.tree_n16_c8_s1.digest_lo=0 \
        results.tree_n16_c8_s1.applied_tunes=0 \
        results.tree_n16_c8_s1.abandoned_tunes=0 \
        results.tree_n16_c8_s1.tunes_lost=0 \
        results.tree_n16_c8_s1.churn_reparents=0 \
        results.tree_n16_c8_s1.mig_forwards=0 \
        results.tree_n64_c32_s1.digest_hi=0 \
        results.tree_n64_c32_s1.digest_lo=0 \
        results.tree_n64_c32_s1.applied_tunes=0 \
        results.tree_n64_c32_s1.abandoned_tunes=0 \
        results.tree_n64_c32_s1.tunes_lost=0 \
        results.tree_n64_c32_s1.events_executed=0 \
        results.tree_n64_c32_s4.digest_hi=0 \
        results.tree_n64_c32_s4.digest_lo=0 \
        results.tree_n64_c32_s4.applied_tunes=0 \
        results.tree_n64_c32_s4.abandoned_tunes=0 \
        results.tree_n64_c32_s4.tunes_lost=0 \
        results.tree_n64_c32_s4.churn_reparents=0 \
        results.tree_n64_c32_s4.mig_forwards=0 \
        results.tree_n64_c32_s4.churn_skipped=0 \
        results.tree_n64_c32_s4.route_epochs=0 \
        results.tree_n64_c32_s4.events_executed=0 \
        results.tree_n16_c8_s1.ordered_fallbacks=0 \
        results.tree_n16_c8_s1.spills=0 \
        results.tree_n64_c32_s1.ordered_fallbacks=0 \
        results.tree_n64_c32_s1.spills=0 \
        results.tree_n64_c32_s4.ordered_fallbacks=0 \
        results.tree_n64_c32_s4.spills=0
    echo "check_bench: baseline refreshed -> $churn_baseline"
else
    "$gate" "$baseline" "$tmp/fresh.json"
    "$gate" "$fabric_baseline" "$tmp/fabric_fresh.json"
    "$gate" "$shard_baseline" "$tmp/shard_fresh.json"
    "$gate" "$obs_baseline" "$tmp/obs_fresh.json"
    "$gate" "$flow_baseline" "$tmp/flow_fresh.json"
    "$gate" "$churn_baseline" "$tmp/churn_fresh.json"
    echo "check_bench: gate passed"
fi
