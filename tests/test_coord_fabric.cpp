/**
 * @file
 * Tests for the scale-out coordination fabric: tree routing and
 * hub-relay accounting, aggregation-window edge cases, link replay
 * and abandonment, multi-hop trace spans, the reliable announcer
 * across relay hops, and the fabric report (including the
 * unroutable-dropped line the two-island report never surfaced), and
 * differential checks of the route table and FlatTable against
 * std::map references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "coord/fabric.hpp"
#include "coord/flattable.hpp"
#include "coord/reliable.hpp"
#include "fabric_rig.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "obs/tracecheck.hpp"
#include "platform/report.hpp"
#include "sim/simulator.hpp"

using namespace corm::sim;
using namespace corm::coord;

namespace {

using corm::testrig::FabricRig;
using corm::testrig::StubIsland;
using corm::testrig::meshParams;
using corm::testrig::treeParams;

CoordMessage
tune(IslandId src, IslandId dst, EntityId e, double v)
{
    CoordMessage m;
    m.type = MsgType::tune;
    m.src = src;
    m.dst = dst;
    m.entity = e;
    m.value = v;
    return m;
}

} // namespace

TEST(CoordFabricTree, RoutesAlongTreePathsWithRelayAccounting)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    FabricRig rig(treeParams(p), 7);

    EXPECT_EQ(rig.fabric.parentOf(4), 2);
    EXPECT_EQ(rig.fabric.parentOf(7), 3);
    EXPECT_EQ(rig.fabric.parentOf(1), 1);
    EXPECT_EQ(rig.fabric.hopCount(1, 7), 2);
    EXPECT_EQ(rig.fabric.hopCount(4, 5), 2);
    EXPECT_EQ(rig.fabric.hopCount(4, 6), 4); // 4-2-1-3-6

    rig.fabric.send(tune(4, 6, 11, 3.0));
    rig.runFor(39 * usec);
    EXPECT_TRUE(rig.at(6).tunes.empty()); // four hops = 40 us
    rig.runFor(2 * usec);
    ASSERT_EQ(rig.at(6).tunes.size(), 1u);
    EXPECT_EQ(rig.fabric.stats().hubRelays.value(), 3u);
    EXPECT_EQ(rig.fabric.stats().wireMessages.value(), 4u);
    EXPECT_NEAR(rig.fabric.stats().hopsPerDelivery.mean(), 4.0, 0.01);
}

TEST(CoordFabricTree, HubAggregationPreservesExactDeltaSums)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 200 * usec;
    FabricRig rig(treeParams(p), 7);

    // Three same-entity tunes from the root to a depth-2 leaf fold
    // into one batch at the root; the batch relays through island 2
    // and applies as a single message carrying the exact sum.
    rig.fabric.send(tune(1, 4, 7, 2.0));
    rig.fabric.send(tune(1, 4, 7, -5.0));
    rig.fabric.send(tune(1, 4, 7, 4.0));
    rig.runFor(1 * msec);

    ASSERT_EQ(rig.at(4).tunes.size(), 1u);
    EXPECT_EQ(rig.at(4).tuneSum(7), 1.0); // exactly 2 - 5 + 4
    const auto &fs = rig.fabric.stats();
    EXPECT_EQ(fs.aggFolded.value(), 2u);
    EXPECT_EQ(fs.appliedTunes.value(), 3u); // coalesced count
    // One batch out of the root, re-bucketed once at island 2 (every
    // hub on the path aggregates): two batches, two wire tunes for
    // three logical tunes.
    EXPECT_EQ(fs.aggBatches.value(), 2u);
    EXPECT_EQ(fs.wireTunes.value(), 2u);
    EXPECT_EQ(fs.hubRelays.value(), 1u);
}

TEST(CoordFabricTree, DeltaAtExactWindowCloseJoinsNextWindow)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 200 * usec;
    FabricRig rig(treeParams(p), 7);

    // First tune at t=0 opens the bucket and schedules its flush for
    // t=200us. A tune arriving exactly at the close lands in a fresh
    // bucket: the flush event was created first, so FIFO tie-break
    // runs it before the late send. Island 2 (a depth-1 child of the
    // root) is the destination, so only the root aggregates.
    rig.fabric.send(tune(1, 2, 7, 1.0));
    rig.sim().scheduleAt(p.aggWindow,
                       [&] { rig.fabric.send(tune(1, 2, 7, 10.0)); });
    rig.runFor(1 * msec);

    const auto &fs = rig.fabric.stats();
    EXPECT_EQ(fs.aggBatches.value(), 2u);
    EXPECT_EQ(fs.aggFolded.value(), 0u);
    ASSERT_EQ(rig.at(2).tunes.size(), 2u);
    EXPECT_EQ(rig.at(2).tuneSum(7), 11.0);
}

TEST(CoordFabricTree, EntityMigrationMidWindowKeepsBucketsSeparate)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 500 * usec;
    FabricRig rig(treeParams(p), 7);

    // The policy retargets entity 7 from island 4 to island 5 in the
    // middle of an open window: deltas must never leak across the
    // destination islands' buckets.
    rig.fabric.send(tune(1, 4, 7, 2.0));
    rig.fabric.send(tune(1, 4, 7, 3.0));
    rig.sim().scheduleAt(100 * usec, [&] {
        rig.fabric.send(tune(1, 5, 7, 40.0)); // migrated
        rig.fabric.send(tune(1, 5, 7, 2.0));
    });
    rig.runFor(2 * msec);

    EXPECT_EQ(rig.at(4).tuneSum(7), 5.0);
    EXPECT_EQ(rig.at(5).tuneSum(7), 42.0);
    // Two buckets at the root plus one re-bucket each at island 2
    // (buckets are keyed by destination, so nothing leaks).
    EXPECT_EQ(rig.fabric.stats().aggBatches.value(), 4u);
    EXPECT_EQ(rig.fabric.stats().aggFolded.value(), 2u);
    EXPECT_EQ(rig.fabric.stats().appliedTunes.value(), 4u);
}

TEST(CoordFabricTree, TriggersBypassTheAggregationWindow)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 1 * msec;
    FabricRig rig(treeParams(p), 7);

    rig.fabric.send(tune(1, 4, 7, 1.0)); // parks in the window
    CoordMessage trig;
    trig.type = MsgType::trigger;
    trig.src = 1;
    trig.dst = 4;
    trig.entity = 7;
    rig.fabric.send(trig);
    rig.runFor(25 * usec); // two hops, well inside the window

    EXPECT_EQ(rig.at(4).triggers.size(), 1u);
    EXPECT_TRUE(rig.at(4).tunes.empty()); // tune still parked
    // Bypassed at the root and again at the island-2 relay.
    EXPECT_EQ(rig.fabric.stats().triggerBypass.value(), 2u);
    rig.runFor(3 * msec);
    EXPECT_EQ(rig.at(4).tunes.size(), 1u);
}

TEST(CoordFabricFaults, LinkReplayRecoversAnOutageEatenMessage)
{
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayTimeout = 500 * usec;
    p.replayBackoff = 2.0;
    p.faults.outages.push_back({0, 600 * usec});

    FabricRig rig(p, 2);
    rig.fabric.send(tune(1, 2, 3, 1.5)); // eaten by the outage at t=0
    rig.runFor(5 * msec);

    const StubIsland &b = rig.at(2);
    ASSERT_EQ(b.tunes.size(), 1u);
    EXPECT_EQ(b.tunes[0].second, 1.5);
    EXPECT_GE(rig.fabric.stats().linkDrops.value(), 1u);
    EXPECT_GE(rig.fabric.stats().linkReplays.value(), 1u);
    EXPECT_EQ(rig.fabric.stats().abandoned.value(), 0u);
}

TEST(CoordFabricFaults, ReplayBudgetExhaustionAbandonsWithNote)
{
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayAttempts = 2;
    p.replayTimeout = 100 * usec;
    p.faults.lossProb = 1.0; // the link eats everything

    FabricRig rig(p, 2);
    std::vector<CoordMessage> abandoned;
    rig.fabric.setAbandonObserver(
        [&](const CoordMessage &m) { abandoned.push_back(m); });

    rig.fabric.send(tune(1, 2, 3, 2.0));
    rig.runFor(10 * msec);

    EXPECT_TRUE(rig.at(2).tunes.empty());
    EXPECT_EQ(rig.fabric.stats().abandoned.value(), 1u);
    // Original + two replays, all eaten.
    EXPECT_EQ(rig.fabric.stats().linkDrops.value(), 3u);
    EXPECT_EQ(rig.fabric.stats().linkReplays.value(), 2u);
    ASSERT_EQ(abandoned.size(), 1u);
    EXPECT_EQ(abandoned[0].entity, 3u);
    EXPECT_EQ(abandoned[0].value, 2.0);
}

TEST(CoordFabricFaults, DuplicatedWireCopiesAreSuppressed)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.faults.dupProb = 1.0;

    FabricRig rig(treeParams(p), 3); // 1 <- {2,3}; root relays 2 -> 3
    ReliableSender sender(rig.sim(), rig.fabric, 2);
    CoordMessage trig;
    trig.type = MsgType::trigger;
    trig.src = 2;
    trig.dst = 3;
    trig.entity = 9;
    sender.send(trig);
    rig.runFor(20 * msec);

    EXPECT_EQ(rig.at(3).triggers.size(), 1u); // applied exactly once
    EXPECT_EQ(sender.acked(), 1u);
    EXPECT_EQ(sender.pendingCount(), 0u);
    EXPECT_GE(rig.fabric.stats().duplicates.value(), 1u);
}

TEST(CoordFabricReliable, AnnouncerSupersedeCrossesARelayHop)
{
    FabricParams p;
    p.hopLatency = 50 * usec;
    FabricRig rig(treeParams(p), 7); // leaf 4 is two hops from the root

    ReliableAnnouncer ann(rig.sim(), rig.fabric);
    EntityBinding b1;
    b1.ref = EntityRef{1, 42};
    b1.ip = corm::net::IpAddr(10, 0, 0, 1);
    ann.announce(4, b1);
    // Re-announce with a new address while the first registration is
    // still relaying through island 2: the new binding supersedes.
    rig.runFor(60 * usec);
    EntityBinding b2 = b1;
    b2.ip = corm::net::IpAddr(10, 0, 0, 2);
    ann.announce(4, b2);
    rig.runFor(50 * msec);

    ASSERT_GE(rig.at(4).bindings.size(), 1u);
    EXPECT_EQ(rig.at(4).bindings.back().ip,
              corm::net::IpAddr(10, 0, 0, 2));
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_GE(ann.acked(), 1u);
    EXPECT_EQ(ann.abandoned(), 0u);
}

TEST(CoordFabricTrace, SpansSurviveMultiHopRelays)
{
    corm::obs::TraceRecorder rec;
    FabricParams p;
    p.hopLatency = 10 * usec;
    FabricRig rig(treeParams(p), 7);
    rig.fabric.setShardTrace({&rec});

    const int trk = rec.track("test", "policy");
    const corm::obs::TraceId id = rec.newFlow();
    rec.span(trk, rig.now(), id, corm::obs::FlowStamp::decide(rig.now()));
    CoordMessage m = tune(4, 6, 11, 1.0); // 4-2-1-3-6: three relays
    m.trace = id;
    rig.fabric.send(m);
    rig.runFor(1 * msec);

    const auto r = corm::obs::checkTraceText(rec.json(), true, 3);
    for (const auto &v : r.violations)
        ADD_FAILURE() << v;
    EXPECT_EQ(r.complete, 1u);
    EXPECT_EQ(r.multiHop, 1u);
    EXPECT_GE(r.maxSteps, 3u); // one step per intermediate relay
    EXPECT_EQ(r.dangling, 0u);
}

TEST(CoordFabricTrace, DroppedAtHubLeavesDanglingSpanNotViolation)
{
    corm::obs::TraceRecorder rec;
    FabricParams p;
    p.topology = FabricTopology::mesh;
    p.hopLatency = 10 * usec;
    p.replayAttempts = 1;
    p.replayTimeout = 100 * usec;
    p.faults.lossProb = 1.0;

    FabricRig rig(p, 2);
    rig.fabric.setShardTrace({&rec});

    const int trk = rec.track("test", "policy");
    const corm::obs::TraceId id = rec.newFlow();
    rec.span(trk, rig.now(), id, corm::obs::FlowStamp::decide(rig.now()));
    CoordMessage m = tune(1, 2, 3, 1.0);
    m.trace = id;
    rig.fabric.send(m);
    rig.runFor(10 * msec);

    EXPECT_EQ(rig.fabric.stats().abandoned.value(), 1u);
    // Without the flow requirement the dangling span is legal (the
    // trace honestly shows where the message died)...
    const auto lax = corm::obs::checkTraceText(rec.json(), false);
    EXPECT_TRUE(lax.ok());
    EXPECT_EQ(lax.dangling, 1u);
    EXPECT_EQ(lax.complete, 0u);
    // ...but a run that requires a complete chain must flag it.
    const auto strict = corm::obs::checkTraceText(rec.json(), true);
    EXPECT_FALSE(strict.ok());
}

TEST(CoordFabricTrace, EmptyFabricTraceIsStructurallyValid)
{
    corm::obs::TraceRecorder rec;
    FabricParams p;
    FabricRig rig(treeParams(p), 7);
    rig.fabric.setShardTrace({&rec});
    rig.runFor(1 * msec); // no traffic at all

    const auto r = corm::obs::checkTraceText(rec.json(), false);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.flows, 0u);
    const auto strict = corm::obs::checkTraceText(rec.json(), true);
    EXPECT_FALSE(strict.ok()); // no chain to show
}

TEST(CoordFabricReport, SurfacesUnroutableDrops)
{
    FabricRig rig(meshParams(5 * usec), 1);
    rig.fabric.send(tune(1, 9, 3, 1.0)); // island 9 does not exist
    rig.runFor(1 * msec);

    EXPECT_EQ(rig.fabric.stats().dropped.value(), 1u);
    const std::string report = corm::platform::fabricReport(rig.fabric);
    EXPECT_NE(report.find("unroutable-dropped 1"), std::string::npos)
        << report;
    EXPECT_NE(report.find("mesh"), std::string::npos);
}

TEST(CoordFabricLanes, ExposesPerDirectionLanesAndQueueDepth)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.name = "fab";
    for (int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        FabricRig rig(treeParams(p), 3, shards);

        std::vector<std::string> lanes;
        std::set<std::uint64_t> ids;
        rig.fabric.forEachLaneId(
            [&](const std::string &name, std::uint64_t id) {
                lanes.push_back(name);
                ids.insert(id);
            });
        // Two tree links (1-2, 1-3), two directions each.
        ASSERT_EQ(lanes.size(), 4u);
        EXPECT_EQ(ids.size(), 4u);
        EXPECT_NE(std::find(lanes.begin(), lanes.end(), "fab.1-2"),
                  lanes.end());
        EXPECT_NE(std::find(lanes.begin(), lanes.end(), "fab.2-1"),
                  lanes.end());

        EXPECT_EQ(rig.fabric.maxLaneQueueHighWater(), 0u);
        rig.fabric.send(tune(2, 3, 1, 1.0));
        rig.fabric.send(tune(2, 3, 1, 1.0));
        rig.runFor(1 * msec);
        // Both copies were on the 2-1 lane at once.
        EXPECT_EQ(rig.fabric.maxLaneQueueHighWater(), 2u);
        EXPECT_EQ(rig.fabric.wireSendsFrom(2), 2u);
        EXPECT_EQ(rig.fabric.wireSendsFrom(1), 2u); // the relay
    }

    // Monitor lane registration depends on link-key order.
    FabricRig big(treeParams(p), 7);
    std::vector<std::string> ordered;
    big.fabric.forEachLaneId(
        [&](const std::string &name, std::uint64_t) {
            ordered.push_back(name);
        });
    const std::vector<std::string> want = {
        "fab.1-2", "fab.2-1", "fab.1-3", "fab.3-1", "fab.2-4", "fab.4-2",
        "fab.2-5", "fab.5-2", "fab.3-6", "fab.6-3", "fab.3-7", "fab.7-3"};
    EXPECT_EQ(ordered, want);
}

// The drain merges the shards' lane logs, each already in time
// order, and sorts only runs of equal ticks. Random same-tick bursts
// across a mesh's 56 lanes, logged by 1, 2 or 4 shards, must come out
// in exactly the order a full sort by the canonical comparator gives
// — and, leaving out the shard-local seq, the same for every shard
// count.
TEST(CoordFabricLanes, DrainOrderMatchesFullCanonicalSort)
{
    using LaneEvent = CoordFabric::LaneEvent;
    const auto canonicalBefore = [](const LaneEvent &a,
                                    const LaneEvent &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.lane != b.lane)
            return a.lane < b.lane;
        if (a.delivered != b.delivered)
            return a.delivered;
        return a.seq < b.seq;
    };
    const auto key = [](const LaneEvent &e) {
        return std::make_tuple(e.when, e.lane, e.delivered, e.seq);
    };
    using Placed = std::tuple<Tick, std::uint64_t, bool>;
    constexpr int kIslands = 8;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        std::vector<Placed> firstOrder;
        for (int shards : {1, 2, 4}) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            FabricParams p = meshParams(10 * usec);
            p.faults.seed = seed;
            p.faults.dupProb = 0.2;
            p.faults.lossProb = 0.1;
            FabricRig rig(p, kIslands, shards);
            corm::obs::MetricRegistry reg;
            corm::obs::HealthMonitor mon(rig.sim(), reg);
            rig.fabric.watchLanes(mon); // turns lane logging on

            std::vector<Placed> order;
            std::size_t sharedTicks = 0;
            rig.onBarrier = [&](Tick) {
                std::vector<LaneEvent> got;
                rig.fabric.drainLaneActivity(
                    [&got](const LaneEvent &e) { got.push_back(e); });
                std::vector<LaneEvent> want = got;
                std::sort(want.begin(), want.end(), canonicalBefore);
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(key(got[i]), key(want[i])) << "event " << i;
                    order.emplace_back(got[i].when, got[i].lane,
                                       got[i].delivered);
                    if (i > 0 && got[i].when == got[i - 1].when
                        && got[i].lane != got[i - 1].lane)
                        ++sharedTicks;
                }
            };
            // 400 sends over 40 ticks 5 us apart: ~10 lanes per tick.
            std::mt19937_64 rng(seed);
            for (int m = 0; m < 400; ++m) {
                const auto src = static_cast<IslandId>(1 + rng() % kIslands);
                auto dst = static_cast<IslandId>(1 + rng() % (kIslands - 1));
                if (dst >= src)
                    ++dst;
                const Tick at = static_cast<Tick>(rng() % 40) * 5 * usec;
                // The rig places island i on shard (i-1)*K/n.
                rig.engine.sim((src - 1) * shards / kIslands)
                    .scheduleAt(at, [&rig, src, dst, m] {
                        rig.fabric.send(
                            tune(src, dst, static_cast<EntityId>(m % 3), 1.0));
                    });
            }
            rig.runFor(5 * msec);

            EXPECT_GT(sharedTicks, 100u);
            if (firstOrder.empty())
                firstOrder = order;
            else
                EXPECT_EQ(order, firstOrder);
        }
    }
}

TEST(CoordFabricTopology, ParseAndNameRoundTrip)
{
    FabricTopology t = FabricTopology::star;
    EXPECT_TRUE(parseFabricTopology("tree", t));
    EXPECT_EQ(t, FabricTopology::tree);
    EXPECT_TRUE(parseFabricTopology("mesh", t));
    EXPECT_EQ(t, FabricTopology::mesh);
    EXPECT_TRUE(parseFabricTopology("star", t));
    EXPECT_EQ(t, FabricTopology::star);
    EXPECT_FALSE(parseFabricTopology("ring", t));
    EXPECT_STREQ(fabricTopologyName(FabricTopology::tree), "tree");
}

namespace {

/**
 * Test-local routing reference: membership and tree parents in
 * std::maps, following the fabric's documented placement rules
 * (BFS-heap build over sorted ids, join under the first BFS-order
 * node with spare fanout, orphans re-bound to the departed node's
 * parent), and next hops by climbing the parent map.
 */
struct RouteModel
{
    FabricTopology topo = FabricTopology::tree;
    std::size_t fanout = 2;
    IslandId hub = 0;
    std::set<IslandId> live;
    std::map<IslandId, IslandId> parent;
    std::map<IslandId, std::vector<IslandId>> children;
    std::vector<std::pair<IslandId, IslandId>> pending; ///< crash orphans

    void
    build(const std::vector<IslandId> &ids)
    {
        live.insert(ids.begin(), ids.end());
        hub = ids.front();
        if (topo != FabricTopology::tree)
            return;
        for (std::size_t i = 1; i < ids.size(); ++i) {
            const IslandId p = ids[(i - 1) / fanout];
            parent[ids[i]] = p;
            children[p].push_back(ids[i]);
        }
        parent[hub] = hub;
    }

    void
    join(IslandId id)
    {
        live.insert(id);
        if (topo != FabricTopology::tree)
            return;
        std::vector<IslandId> q{hub};
        for (std::size_t i = 0; i < q.size(); ++i) {
            const auto &kids = children[q[i]];
            if (kids.size() < fanout) {
                parent[id] = q[i];
                children[q[i]].push_back(id);
                return;
            }
            q.insert(q.end(), kids.begin(), kids.end());
        }
    }

    IslandId
    fallbackFor(IslandId id) const
    {
        auto it = parent.find(id);
        return it != parent.end() && live.count(it->second) ? it->second
                                                            : hub;
    }

    std::vector<IslandId>
    detach(IslandId id)
    {
        live.erase(id);
        std::vector<IslandId> orphans = children[id];
        children.erase(id);
        if (auto it = parent.find(id); it != parent.end()) {
            auto &v = children[it->second];
            v.erase(std::remove(v.begin(), v.end(), id), v.end());
            parent.erase(it);
        }
        return orphans;
    }

    bool
    inSubtree(IslandId node, IslandId root) const
    {
        std::size_t guard = 0;
        while (node != hub && ++guard <= parent.size() + 1) {
            if (node == root)
                return true;
            auto it = parent.find(node);
            if (it == parent.end())
                return false;
            node = it->second;
        }
        return node == root;
    }

    void
    reparent(IslandId child, IslandId fb)
    {
        if (!live.count(child))
            return;
        if (!live.count(fb) || fb == child || inSubtree(fb, child))
            fb = hub;
        parent[child] = fb;
        children[fb].push_back(child);
    }

    void
    leave(IslandId id)
    {
        const IslandId fb = fallbackFor(id);
        for (IslandId c : detach(id))
            reparent(c, fb);
    }

    void
    crash(IslandId id)
    {
        const IslandId fb = fallbackFor(id);
        for (IslandId c : detach(id))
            pending.emplace_back(c, fb);
    }

    void
    reparentPending()
    {
        for (const auto &[c, fb] : pending)
            reparent(c, fb);
        pending.clear();
    }

    /** Next hop; a pair without a route answers its destination,
     *  and a broken tree chain answers @p from (unroutable). */
    IslandId
    next(IslandId from, IslandId to) const
    {
        if (from == to || !live.count(from) || !live.count(to))
            return to;
        if (topo == FabricTopology::mesh)
            return to;
        if (topo == FabricTopology::star)
            return from == hub ? to : hub;
        IslandId at = to, below = to;
        std::size_t guard = 0;
        while (at != hub) {
            auto it = parent.find(at);
            if (it == parent.end() || ++guard > parent.size())
                return from;
            if (it->second == from)
                return at;
            below = at;
            at = it->second;
        }
        if (from == hub)
            return below;
        auto it = parent.find(from);
        return it == parent.end() ? from : it->second;
    }

    int
    hops(IslandId from, IslandId to) const
    {
        int n = 0;
        for (IslandId at = from;
             at != to && n <= 2 * static_cast<int>(live.size()); ++n)
            at = next(at, to);
        return n;
    }

    IslandId
    parentOf(IslandId id) const
    {
        auto it = parent.find(id);
        return it == parent.end() ? id : it->second;
    }
};

/**
 * Compare parentOf and hopCount for every pair of ids below @p top
 * (attached, departed, never attached, and past the route table's
 * span) against @p model; reports the first mismatch. Returns the
 * number of pairs answering the unroutable sentinel.
 */
int
expectRoutesMatch(CoordFabric &fabric, const RouteModel &model,
                  const std::string &where, IslandId top)
{
    int unroutable = 0;
    const int sentinel = 2 * static_cast<int>(model.live.size()) + 1;
    for (IslandId a = 0; a < top; ++a) {
        if (fabric.parentOf(a) != model.parentOf(a)) {
            ADD_FAILURE() << where << ": parentOf(" << a << ") = "
                          << fabric.parentOf(a) << ", reference "
                          << model.parentOf(a);
            return unroutable;
        }
        for (IslandId b = 0; b < top; ++b) {
            const int got = fabric.hopCount(a, b);
            const int want = model.hops(a, b);
            if (got != want) {
                ADD_FAILURE() << where << ": hopCount(" << a << ", " << b
                              << ") = " << got << ", reference " << want;
                return unroutable;
            }
            unroutable += want == sentinel;
        }
    }
    return unroutable;
}

} // namespace

TEST(CoordFabricRoutes, TableMatchesMapReferenceThroughChurn)
{
    // Gapped ids starting above 0, so the table has empty rows and
    // columns that must answer like a missing map entry.
    const std::vector<IslandId> initial = {5,  6,  8,  9,  12, 13,
                                           14, 17, 20, 21, 23, 26};
    const IslandId top = 48; // past the highest id ever attached
    struct Shape
    {
        FabricTopology topo;
        int fanout;
    };
    const Shape shapes[] = {{FabricTopology::star, 4},
                            {FabricTopology::mesh, 4},
                            {FabricTopology::tree, 2},
                            {FabricTopology::tree, 3},
                            {FabricTopology::tree, 4},
                            {FabricTopology::tree, 5}};
    for (const Shape &shape : shapes) {
        std::ostringstream name;
        name << fabricTopologyName(shape.topo) << " fanout "
             << shape.fanout;
        SCOPED_TRACE(name.str());

        FabricParams p;
        p.topology = shape.topo;
        p.treeFanout = shape.fanout;
        p.hub = initial.front();
        p.reparentDelay = 1 * sec; // crash orphans stay pending
        FabricRig rig(p, initial);
        CoordFabric &fabric = rig.fabric;
        std::vector<std::unique_ptr<StubIsland>> joiners;
        RouteModel model;
        model.topo = shape.topo;
        model.fanout = static_cast<std::size_t>(shape.fanout);

        model.build(initial);
        expectRoutesMatch(fabric, model, name.str() + " built", top);

        for (IslandId id : {IslandId{30}, IslandId{7}, IslandId{40}}) {
            joiners.push_back(std::make_unique<StubIsland>(
                id, "isl" + std::to_string(id)));
            fabric.join(*joiners.back(), rig.now());
            model.join(id);
        }
        expectRoutesMatch(fabric, model, name.str() + " joined", top);

        fabric.leave(6, rig.now());
        model.leave(6);
        expectRoutesMatch(fabric, model, name.str() + " left 6", top);

        fabric.crash(8, rig.now());
        model.crash(8);
        ASSERT_EQ(fabric.pendingReparentCount(), model.pending.size());
        const int unroutable = expectRoutesMatch(
            fabric, model, name.str() + " crashed 8", top);
        if (shape.topo == FabricTopology::tree) {
            EXPECT_GT(unroutable, 0) << "orphans should be unroutable";
        }

        fabric.reparentNow(rig.now());
        model.reparentPending();
        expectRoutesMatch(fabric, model, name.str() + " re-parented",
                          top);

        fabric.join(rig.at(8), rig.now());
        model.join(8);
        expectRoutesMatch(fabric, model, name.str() + " rejoined 8", top);
    }
}

TEST(FlatTable, MatchesStdMapUnderRandomInsertTakeErase)
{
    // Keys shaped like aggregation-bucket keys (node:16, dst:16,
    // entity:32) over a small range, so probe runs collide, wrap and
    // get backward-shifted by erases.
    std::mt19937_64 rng(0xf1a7);
    FlatTable<std::uint64_t> table;
    std::map<std::uint64_t, std::uint64_t> ref;
    const auto key = [&rng] {
        return (rng() % 8) << 48 | (rng() % 8) << 32 | (rng() % 16);
    };
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t k = key();
        switch (rng() % 3) {
          case 0: {
            auto [v, fresh] = table.tryEmplace(k);
            ASSERT_EQ(fresh, ref.count(k) == 0) << "step " << step;
            v += static_cast<std::uint64_t>(step);
            ref[k] += static_cast<std::uint64_t>(step);
            break;
          }
          case 1: {
            std::uint64_t out = 0;
            ASSERT_EQ(table.take(k, out), ref.count(k) == 1)
                << "step " << step;
            if (ref.count(k)) {
                ASSERT_EQ(out, ref[k]) << "step " << step;
                ref.erase(k);
            }
            break;
          }
          default:
            ASSERT_EQ(table.erase(k), ref.erase(k) == 1) << "step " << step;
        }
        ASSERT_EQ(table.size(), ref.size()) << "step " << step;
    }
    std::map<std::uint64_t, std::uint64_t> seen;
    table.forEach([&](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
    EXPECT_EQ(seen, ref);
    for (const auto &[k, v] : ref) {
        ASSERT_NE(table.find(k), nullptr);
        EXPECT_EQ(*table.find(k), v);
    }
}
