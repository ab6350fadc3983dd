/**
 * @file
 * Sharded parallel event loop: engine semantics (windows, canonical
 * boundary order, probe, RNG streams) and the cross-shard-count
 * determinism contract of the fabric scenario — the digest of a run
 * must be bit-identical whether the islands share one simulator or
 * are partitioned across 2, 3 or 4 concurrent shards.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "obs/tracecheck.hpp"
#include "platform/scenarios.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

using corm::sim::Rng;
using corm::sim::ShardedEngine;
using corm::sim::ShardMessage;
using corm::sim::Simulator;
using corm::sim::Tick;
using corm::sim::usec;

TEST(SimulatorReserve, PreSizingKeepsExecutionIdentical)
{
    std::vector<int> plain, reserved;
    for (int pass = 0; pass < 2; ++pass) {
        Simulator sim;
        auto &out = pass ? reserved : plain;
        if (pass)
            sim.reserve(4096);
        for (int i = 0; i < 100; ++i)
            sim.scheduleAt(static_cast<Tick>(100 - i),
                           [&out, i] { out.push_back(i); });
        sim.runUntil(1000);
        EXPECT_EQ(sim.executedEvents(), 100u);
    }
    EXPECT_EQ(plain, reserved);
}

TEST(SimulatorNextEventAt, SkipsCancelledFrontsAndReportsEmpty)
{
    Simulator sim;
    EXPECT_EQ(sim.nextEventAt(), corm::sim::maxTick);
    auto a = sim.scheduleAt(10, [] {});
    sim.scheduleAt(20, [] {});
    EXPECT_EQ(sim.nextEventAt(), 10u);
    // Cancelling the front must move the horizon to the next live
    // event immediately — window planning must never depend on when
    // heap compaction happens to run.
    sim.cancel(a);
    EXPECT_EQ(sim.nextEventAt(), 20u);
    sim.runUntil(30);
    EXPECT_EQ(sim.nextEventAt(), corm::sim::maxTick);
}

TEST(RngStreams, SplitIsStatelessAndOrderFree)
{
    // Stream k must not depend on how many streams exist or the
    // order they are drawn in — the property per-shard RNGs need.
    Rng a = Rng::stream(42, 3);
    Rng b = Rng::stream(42, 3);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a(), b());
    // Distinct streams differ (first draws, overwhelming odds).
    EXPECT_NE(Rng::stream(42, 0)(), Rng::stream(42, 1)());

    // An engine's per-shard streams are the same objects, for any
    // shard count.
    ShardedEngine e2(2, 100, 42);
    ShardedEngine e4(4, 100, 42);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(e2.rng(1)(), e4.rng(1)());
}

TEST(ShardedEngine, SingleShardPreservesEventOrder)
{
    ShardedEngine engine(1, 50);
    std::vector<Tick> ran;
    for (Tick t : {300u, 100u, 200u, 100u})
        engine.sim(0).scheduleAt(t, [&ran, &engine] {
            ran.push_back(engine.sim(0).now());
        });
    engine.runUntil(1000);
    EXPECT_EQ(ran, (std::vector<Tick>{100, 100, 200, 300}));
    EXPECT_EQ(engine.now(), 1000u);
    EXPECT_EQ(engine.eventsExecuted(), 4u);
}

TEST(ShardedEngine, BoundaryMessagesDeliverInCanonicalOrder)
{
    ShardedEngine engine(2, 50);
    struct Seen
    {
        Tick at;
        std::uint64_t seq;
        std::uint64_t lane;
    };
    std::vector<Seen> seen;
    engine.setSink(1, [&](const ShardMessage &m) {
        seen.push_back({engine.sim(1).now(), m.seq, m.lane});
    });
    // Post out of canonical order, from the coordinator between
    // runs; equal-when messages must sort by (lane, seq).
    const auto post = [&](Tick when, std::uint64_t lane,
                          std::uint64_t seq) {
        ShardMessage m;
        m.when = when;
        m.lane = lane;
        m.seq = seq;
        m.node = 1;
        engine.post(0, 1, m);
    };
    post(200, 7, 2);
    post(100, 9, 1);
    post(200, 7, 1);
    post(100, 3, 5);
    post(200, 2, 9);
    engine.runUntil(500);
    ASSERT_EQ(seen.size(), 5u);
    // (100,lane3,seq5) (100,lane9,seq1) (200,lane2,seq9)
    // (200,lane7,seq1) (200,lane7,seq2)
    EXPECT_EQ(seen[0].lane, 3u);
    EXPECT_EQ(seen[1].lane, 9u);
    EXPECT_EQ(seen[2].lane, 2u);
    EXPECT_EQ(seen[3].seq, 1u);
    EXPECT_EQ(seen[4].seq, 2u);
    for (const Seen &s : seen)
        EXPECT_TRUE(s.at == 100 || s.at == 200); // delivered on time
    EXPECT_EQ(engine.stats().messages, 5u);
}

TEST(ShardedEngine, CrossShardPingPongRespectsLatency)
{
    constexpr Tick L = 100;
    ShardedEngine engine(2, L);
    int bounces = 0;
    std::vector<Tick> arrivals;
    // Each delivery at shard d bounces the ball back to the other
    // shard one lookahead later, mid-window, exercising worker-side
    // post() under the lookahead contract.
    for (int d = 0; d < 2; ++d) {
        engine.setSink(d, [&engine, &arrivals, &bounces,
                           d](const ShardMessage &m) {
            arrivals.push_back(engine.sim(d).now());
            if (++bounces >= 8)
                return;
            ShardMessage next = m;
            next.when = engine.sim(d).now() + L;
            next.seq = m.seq + 1;
            engine.post(d, 1 - d, next);
        });
    }
    ShardMessage first;
    first.when = L;
    first.seq = 1;
    engine.post(0, 1, first);
    engine.runUntil(5000);
    ASSERT_EQ(arrivals.size(), 8u);
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i], (i + 1) * L);
    EXPECT_GE(engine.stats().windows, 8u);
    EXPECT_EQ(engine.stats().messages, 8u);
}

TEST(ShardedEngine, ProbeStopsTheRunAtAWindowBarrier)
{
    ShardedEngine engine(2, 10);
    // A steady drip of shard-0 events keeps windows coming.
    for (Tick t = 10; t <= 1000; t += 10)
        engine.sim(0).scheduleAt(t, [] {});
    engine.setProbe([](Tick windowEnd) { return windowEnd >= 300; });
    engine.runUntil(1000);
    EXPECT_TRUE(engine.stopped());
    EXPECT_GE(engine.now(), 300u);
    EXPECT_LT(engine.now(), 1000u);
    // The probe may resume the run.
    engine.setProbe({});
    engine.runUntil(1000);
    EXPECT_FALSE(engine.stopped());
    EXPECT_EQ(engine.now(), 1000u);
}

namespace {

/** Small-but-busy fabric scenario config for determinism checks. */
corm::platform::FabricScenarioConfig
shardScenario(corm::coord::FabricTopology topo, int islands,
              int shards, bool faults)
{
    corm::platform::FabricScenarioConfig c;
    c.islands = islands;
    c.shards = shards;
    c.fabric.topology = topo;
    c.fabric.treeFanout = 3;
    c.fabric.hopLatency = 80 * usec;
    c.fabric.aggWindow = 250 * usec;
    if (faults) {
        c.fabric.faults.lossProb = 0.02;
        c.fabric.faults.dupProb = 0.01;
        c.fabric.faults.reorderProb = 0.01;
        c.fabric.faults.seed = 0xbadc0ffee;
    }
    c.tiers = 2;
    c.tunesPerPair = 8;
    c.triggerProb = 0.15;
    c.seed = 0x5eed5 + static_cast<std::uint64_t>(islands);
    c.workloadSpan = 50 * corm::sim::msec;
    c.settleLimit = 1 * corm::sim::sec;
    c.monitorLanes = false;
    return c;
}

} // namespace

TEST(ShardDeterminism, DigestIdenticalAcrossShardCountsAllTopologies)
{
    using corm::coord::FabricTopology;
    for (const auto topo : {FabricTopology::star, FabricTopology::mesh,
                            FabricTopology::tree}) {
        for (const bool faults : {false, true}) {
            SCOPED_TRACE(std::string("topology=")
                         + corm::coord::fabricTopologyName(topo)
                         + (faults ? " faulty" : " clean"));
            const auto base = corm::platform::runFabricScenario(
                shardScenario(topo, 10, 1, faults));
            EXPECT_TRUE(base.deltaSumsExact);
            EXPECT_TRUE(base.converged);
            EXPECT_TRUE(base.bindingsOk);
            EXPECT_TRUE(base.triggersAccounted);
            EXPECT_GT(base.hubQueueHighWater, 0u);
            for (const int k : {2, 3, 4}) {
                SCOPED_TRACE("shards=" + std::to_string(k));
                const auto r = corm::platform::runFabricScenario(
                    shardScenario(topo, 10, k, faults));
                EXPECT_EQ(r.digest, base.digest);
                EXPECT_EQ(r.appliedTunes, base.appliedTunes);
                EXPECT_EQ(r.wireMessages, base.wireMessages);
                EXPECT_EQ(r.linkDrops, base.linkDrops);
                EXPECT_EQ(r.duplicates, base.duplicates);
                EXPECT_EQ(r.abandonedWire, base.abandonedWire);
                EXPECT_EQ(r.convergenceMs, base.convergenceMs);
                EXPECT_EQ(r.hubQueueHighWater, base.hubQueueHighWater);
                // Window structure is a pure function of the global
                // event set, so it too is shard-count-invariant.
                EXPECT_EQ(r.shardWindows, base.shardWindows);
                EXPECT_EQ(r.boundaryMessages, base.boundaryMessages);
                EXPECT_TRUE(r.deltaSumsExact);
                EXPECT_TRUE(r.converged);
            }
        }
    }
}

TEST(ScenarioReserve, UpfrontWorkloadFitsTheEventQueues)
{
    // Trigger-heavy: a reservation that counted only the tunes and
    // load reports would let shard 0's workload plan regrow
    // mid-setup.
    for (const int k : {1, 2, 3}) {
        SCOPED_TRACE("shards=" + std::to_string(k));
        auto c = shardScenario(corm::coord::FabricTopology::tree, 32, k,
                               false);
        c.tunesPerPair = 20;
        c.triggerProb = 0.5;
        const auto r = corm::platform::runFabricScenario(c);
        EXPECT_GT(r.triggersSent, 400u);
        EXPECT_TRUE(r.upfrontReserved);
        EXPECT_TRUE(r.deltaSumsExact);
    }
}

TEST(ShardDeterminism, FullIdSpace256Islands)
{
    // 256 islands was the ceiling of the old 8-bit IslandId; the
    // 16-bit id keeps this point as a fast dense-id sanity check. A
    // light workload keeps this a unit test, not a bench.
    corm::platform::FabricScenarioConfig c;
    c.islands = 256;
    c.firstIslandId = 0;
    c.fabric.topology = corm::coord::FabricTopology::tree;
    c.fabric.treeFanout = 4;
    c.fabric.hopLatency = 200 * usec;
    c.tiers = 1;
    c.tunesPerPair = 2;
    c.triggerProb = 0.0;
    c.workloadSpan = 20 * corm::sim::msec;
    c.settleLimit = 1 * corm::sim::sec;
    c.monitorLanes = false;
    c.shards = 1;
    const auto base = corm::platform::runFabricScenario(c);
    EXPECT_TRUE(base.deltaSumsExact);
    EXPECT_TRUE(base.converged);
    EXPECT_TRUE(base.bindingsOk);
    c.shards = 4;
    const auto r4 = corm::platform::runFabricScenario(c);
    EXPECT_EQ(r4.digest, base.digest);
    EXPECT_EQ(r4.shardWindows, base.shardWindows);
    EXPECT_EQ(r4.boundaryMessages, base.boundaryMessages);
    EXPECT_EQ(r4.hubQueueHighWater, base.hubQueueHighWater);
    EXPECT_TRUE(r4.deltaSumsExact);
    EXPECT_TRUE(r4.converged);
}

TEST(ShardCapture, TraceMonitorMetricsAreDigestNeutralAcrossShards)
{
    // The PR-8 tentpole contract, at unit-test scale: running the
    // faulty tree scenario with full observability capture (trace +
    // lane monitors + metrics) must not move the digest from the
    // capture-off baseline, and the merged trace must be
    // byte-identical for 1, 2 and 4 shards. Health verdicts are a
    // pure function of the global event set, so they too must agree.
    using corm::coord::FabricTopology;
    const auto base = corm::platform::runFabricScenario(
        shardScenario(FabricTopology::tree, 10, 1, true));
    ASSERT_TRUE(base.converged);

    std::string firstTrace, firstHealth;
    std::uint64_t firstBreaches = 0;
    for (const int k : {1, 2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(k));
        auto c = shardScenario(FabricTopology::tree, 10, k, true);
        corm::obs::TraceRecorder rec;
        rec.setEnabled(true);
        c.trace = &rec;
        c.monitorLanes = true;
        c.captureMetrics = true;
        const auto r = corm::platform::runFabricScenario(c);

        EXPECT_EQ(r.digest, base.digest);
        EXPECT_EQ(r.shardWindows, base.shardWindows);
        EXPECT_EQ(r.boundaryMessages, base.boundaryMessages);
        EXPECT_EQ(r.appliedTunes, base.appliedTunes);
        EXPECT_TRUE(r.converged);

        EXPECT_EQ(r.traceEvents, rec.events().size());
        EXPECT_GT(r.traceEvents, 0u);
        // Metrics snapshots include per-shard series (labels carry
        // the shard index), so they are per-K artefacts — present
        // and well-formed, but deliberately not compared across K.
        EXPECT_NE(r.metricsJson.find("fabric.wire.messages"),
                  std::string::npos);
        EXPECT_NE(r.metricsJson.find("shard.windows"),
                  std::string::npos);

        if (k == 1) {
            firstTrace = rec.json();
            firstHealth = r.healthReport;
            firstBreaches = r.healthBreaches;
        } else {
            EXPECT_EQ(rec.json(), firstTrace);
            EXPECT_EQ(r.healthReport, firstHealth);
            EXPECT_EQ(r.healthBreaches, firstBreaches);
        }
    }

    // The merged trace is schema-clean, carries a complete multi-hop
    // causal span, and every cross-track flow is stitched by a lane
    // hop — teleporting spans mean the merge lost flow-steps.
    corm::obs::TraceCheckParams p;
    p.require_flow = true;
    p.require_stitched = true;
    const auto chk = corm::obs::checkTraceText(firstTrace, p);
    EXPECT_TRUE(chk.ok()) << (chk.violations.empty()
                                  ? ""
                                  : chk.violations.front());
    EXPECT_GT(chk.tracks, 1u);
    EXPECT_GT(chk.crossTrack, 0u);
}

TEST(ShardDeterminism, ShardCountClampsToIslandCount)
{
    // More shards than islands must clamp, not crash or diverge.
    const auto base = corm::platform::runFabricScenario(
        shardScenario(corm::coord::FabricTopology::tree, 3, 1, false));
    const auto r = corm::platform::runFabricScenario(
        shardScenario(corm::coord::FabricTopology::tree, 3, 8, false));
    EXPECT_EQ(r.digest, base.digest);
    EXPECT_EQ(r.hubQueueHighWater, base.hubQueueHighWater);
    EXPECT_TRUE(r.converged);
}

TEST(ShardOrderedQueues, CleanTreeSortsNoBatchAndNeverFallsBack)
{
    // Clean links: every hop takes hopLatency, so one shard's arrivals
    // reach the barrier in time order (only equal-tick runs need a
    // sort), and every batch and fold flush is appended in order.
    auto c = shardScenario(corm::coord::FabricTopology::tree, 64, 1,
                           false);
    const auto k1 = corm::platform::runFabricScenario(c);
    EXPECT_TRUE(k1.deltaSumsExact);
    EXPECT_TRUE(k1.converged);
    EXPECT_GT(k1.boundaryBatches, 0u);
    EXPECT_EQ(k1.boundaryFullSorts, 0u);
    EXPECT_EQ(k1.orderedFallbacks, 0u);
    c.shards = 2;
    const auto k2 = corm::platform::runFabricScenario(c);
    EXPECT_EQ(k2.digest, k1.digest);
    EXPECT_EQ(k2.shardWindows, k1.shardWindows);
    EXPECT_EQ(k2.boundaryMessages, k1.boundaryMessages);
    EXPECT_EQ(k2.orderedFallbacks, 0u);
}

TEST(ShardOrderedQueues, DelaySpikesFallBackWithoutChangingTheDigest)
{
    // A spiked hop lands after hops sent later, so barrier batches
    // arrive out of time order: the barrier sorts them in full and
    // the late ones fall back to the heap. The digest must not care.
    auto c = shardScenario(corm::coord::FabricTopology::tree, 64, 1,
                           false);
    c.fabric.faults.spikeProb = 0.05;
    c.fabric.faults.spikeLatency = 3 * corm::sim::msec;
    c.fabric.faults.seed = 0x5b1ce;
    const auto base = corm::platform::runFabricScenario(c);
    EXPECT_TRUE(base.deltaSumsExact);
    EXPECT_TRUE(base.converged);
    EXPECT_GT(base.orderedFallbacks, 0u);
    EXPECT_GT(base.boundaryFullSorts, 0u);
    for (const int k : {2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(k));
        c.shards = k;
        const auto r = corm::platform::runFabricScenario(c);
        EXPECT_EQ(r.digest, base.digest);
        EXPECT_EQ(r.appliedTunes, base.appliedTunes);
        EXPECT_EQ(r.wireMessages, base.wireMessages);
        EXPECT_EQ(r.shardWindows, base.shardWindows);
        EXPECT_EQ(r.boundaryMessages, base.boundaryMessages);
        EXPECT_EQ(r.convergenceMs, base.convergenceMs);
        EXPECT_GT(r.orderedFallbacks, 0u);
    }
}
