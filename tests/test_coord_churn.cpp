/**
 * @file
 * Dynamic-fabric churn tests: runtime island join/leave, hub crash
 * with delayed re-parenting, live entity migration with dedup-stable
 * forwarding, retry-timer cancellation for departed destinations,
 * shared ack-observer endpoints, and the watchdog -> re-parent policy
 * loop (stall fires across a hub outage, then recovers; cleanly
 * departed lanes never false-alarm).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "coord/fabric.hpp"
#include "coord/reliable.hpp"
#include "fabric_rig.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
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

CoordMessage
trigger(IslandId src, IslandId dst, EntityId e)
{
    CoordMessage m;
    m.type = MsgType::trigger;
    m.src = src;
    m.dst = dst;
    m.entity = e;
    return m;
}

/**
 * Watches the fabric's lanes with a health monitor the way
 * runFabricScenario does: the fabric feeds the monitor at every
 * window barrier, and the monitor polls at its sample period.
 */
struct LaneWatch
{
    CoordFabric &fabric;
    corm::obs::HealthMonitor &mon;
    Tick period;
    Tick nextPoll = 0;
    Tick barrierAt = 0; ///< tick of the barrier being served

    LaneWatch(CoordFabric &f, corm::obs::HealthMonitor &m, Tick sample)
        : fabric(f), mon(m), period(sample)
    {
        fabric.watchLanes(mon);
    }

    void
    barrier(Tick windowEnd)
    {
        barrierAt = windowEnd;
        fabric.feedLaneWatch();
        if (windowEnd >= nextPoll) {
            mon.poll(windowEnd);
            nextPoll = windowEnd + period;
        }
    }
};

} // namespace

TEST(CoordChurnLeave, LeaveWithOpenAggregationWindowsLosesNoDelta)
{
    // A graceful leave must settle every open aggregation bucket:
    // buckets the departing hub OWNS flush onward (deltas still
    // apply), buckets elsewhere DESTINED to it flush into attributed
    // abandons — applied + abandoned == sent, exactly.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.aggWindow = 500 * usec;
    FabricRig rig(treeParams(p), 7);
    std::vector<CoordMessage> abandoned;
    rig.fabric.setAbandonObserver(
        [&](const CoordMessage &m) { abandoned.push_back(m); });

    // Opens a bucket at the root, whose flush at 500us re-buckets at
    // island 2 (destined to leaf 4) until that bucket's own flush at
    // ~1010us — the leave at 700us lands inside it.
    rig.fabric.send(tune(1, 4, 7, 3.0));
    // Second bucket at the root destined to island 2 itself, still
    // open (flush due 1100us) when 2 departs.
    rig.sim().scheduleAt(600 * usec,
                         [&] { rig.fabric.send(tune(1, 2, 9, 7.0)); });
    rig.runFor(700 * usec);
    rig.fabric.leave(2, rig.now());
    rig.runFor(5 * msec - 700 * usec);

    EXPECT_FALSE(rig.fabric.attached(2));
    // The bucket island 2 owned flushed before departure: the delta
    // reached leaf 4 despite the leave mid-window.
    EXPECT_EQ(rig.at(4).tuneSum(7), 3.0);
    // The bucket destined to island 2 flushed into the void and was
    // attributed, not silently dropped.
    ASSERT_EQ(abandoned.size(), 1u);
    EXPECT_EQ(abandoned[0].entity, 9u);
    EXPECT_EQ(abandoned[0].value, 7.0);
    EXPECT_GE(rig.fabric.stats().dropped.value(), 1u);
    // Graceful leave re-binds the orphans immediately (no detection
    // window): 4 and 5 hang off the root now, and tunes route there.
    EXPECT_EQ(rig.fabric.parentOf(4), 1);
    EXPECT_EQ(rig.fabric.parentOf(5), 1);
    EXPECT_EQ(rig.fabric.churnCounters().leaves, 1u);
    EXPECT_EQ(rig.fabric.churnCounters().reparents, 2u);
    rig.fabric.send(tune(1, 5, 8, 2.0));
    rig.runFor(2 * msec);
    EXPECT_EQ(rig.at(5).tuneSum(8), 2.0);
}

TEST(CoordChurnCrash, UnackedInFlightTunesRedrivenExactlyOnceAcrossReparent)
{
    // Hub 2 crashes while (a) a sequenced tune it relayed has been
    // applied at leaf 4 but the ack is still in flight back through
    // it, and (b) a second tune is in flight toward it. The sender's
    // retry timers re-drive both under the post-re-parent route; the
    // route-independent dedup key re-acks (a) without re-applying,
    // and (b) applies exactly once.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.reparentDelay = 2 * msec;
    FabricRig rig(treeParams(p), 7);
    ReliableSender snd(rig.sim(), rig.fabric, 1);

    snd.send(tune(1, 4, 7, 5.0)); // applied at 20us, ack at 40us
    rig.sim().scheduleAt(20 * usec,
                         [&] { snd.send(tune(1, 5, 8, 6.0)); });
    // Crash at 25us: tune (a)'s ack is between 4 and 2, tune (b) is
    // between 1 and 2. Both die with the node.
    rig.runFor(25 * usec);
    rig.fabric.crash(2, rig.now());
    // Orphans 4 and 5 queue for re-parenting; the barrier probe
    // completes them once the detection window has elapsed.
    EXPECT_EQ(rig.fabric.pendingReparentCount(), 2u);
    rig.runFor(50 * msec);

    EXPECT_EQ(rig.fabric.churnCounters().crashes, 1u);
    EXPECT_EQ(rig.fabric.churnCounters().reparents, 2u);
    EXPECT_EQ(rig.fabric.parentOf(4), 1);
    EXPECT_EQ(rig.fabric.parentOf(5), 1);
    // Exactly-once: the re-driven copy of (a) deduplicated (the key
    // survives the route change), (b) applied once.
    ASSERT_EQ(rig.at(4).tunes.size(), 1u);
    EXPECT_EQ(rig.at(4).tuneSum(7), 5.0);
    ASSERT_EQ(rig.at(5).tunes.size(), 1u);
    EXPECT_EQ(rig.at(5).tuneSum(8), 6.0);
    EXPECT_EQ(snd.acked(), 2u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_GE(rig.fabric.stats().duplicates.value(), 1u);
}

TEST(CoordChurnMigrate, MigrationDuringBurstOutageForwardsReplayedDelta)
{
    // A tune eaten by a burst outage is still being replayed when its
    // destination entity migrates; the late replay delivers at the
    // old home and forwards to the new one — applied exactly once,
    // at the right island.
    FabricParams p = meshParams(10 * usec);
    p.replayTimeout = 500 * usec;
    p.replayBackoff = 2.0;
    p.faults.outages.push_back({0, 600 * usec});
    FabricRig rig(p, 3);

    rig.fabric.send(tune(1, 2, 7, 5.5)); // eaten at t=0, replay pending
    rig.runFor(300 * usec);
    EXPECT_TRUE(rig.fabric.migrateEntity(2, 3, 7, rig.now()));
    rig.runFor(10 * msec);

    EXPECT_EQ(rig.fabric.churnCounters().migrations, 1u);
    EXPECT_EQ(rig.fabric.currentHome(2, 7), 3);
    EXPECT_EQ(rig.at(2).tuneSum(7), 0.0);
    EXPECT_EQ(rig.at(3).tuneSum(7), 5.5);
    ASSERT_EQ(rig.at(3).tunes.size(), 1u);
    EXPECT_GE(rig.fabric.stats().migForwards.value(), 1u);
    EXPECT_EQ(rig.fabric.stats().abandoned.value(), 0u);
}

TEST(CoordChurnMigrate, SequencedRetryAfterMigrationReacksWithoutReapply)
{
    // A reliable tune applies at its home, the entity migrates before
    // the ack lands, and a duplicate wire copy arrives at the old
    // home: it is suppressed there instead of forwarding a second
    // apply to the new home.
    FabricParams p = meshParams(10 * usec);
    p.faults.dupProb = 1.0; // every wire message is duplicated
    FabricRig rig(p, 3);
    ReliableSender snd(rig.sim(), rig.fabric, 1);

    snd.send(tune(1, 2, 7, 4.0));
    rig.runFor(15 * usec);
    EXPECT_TRUE(rig.fabric.migrateEntity(2, 3, 7, rig.now()));
    rig.runFor(20 * msec);

    // Applied exactly once, at the pre-migration home (it landed
    // before the map flipped); nothing leaked to the new home.
    ASSERT_EQ(rig.at(2).tunes.size(), 1u);
    EXPECT_EQ(rig.at(2).tuneSum(7), 4.0);
    EXPECT_TRUE(rig.at(3).tunes.empty());
    EXPECT_EQ(snd.acked(), 1u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_GE(rig.fabric.stats().duplicates.value(), 1u);
}

TEST(CoordChurnMigrate, MigrationIntoAForwardedAddressIsRefused)
{
    // Island 3's copy of entity 7 lives at island 4. Migrating island
    // 2's copy to island 3 would put two logical entity states at the
    // address (3, 7), and the state at 4 would silently re-home: the
    // fabric refuses, and (3, 7) keeps forwarding to 4.
    FabricRig rig(meshParams(10 * usec), 4);
    ASSERT_TRUE(rig.fabric.migrateEntity(3, 4, 7, rig.now()));
    EXPECT_FALSE(rig.fabric.migrateEntity(2, 3, 7, rig.now()));
    EXPECT_EQ(rig.fabric.churnCounters().migrations, 1u);
    EXPECT_EQ(rig.fabric.currentHome(2, 7), 2);
    EXPECT_EQ(rig.fabric.currentHome(3, 7), 4);

    rig.fabric.send(tune(1, 3, 7, 2.0));
    rig.runFor(1 * msec);
    EXPECT_EQ(rig.at(4).tuneSum(7), 2.0);
    EXPECT_TRUE(rig.at(3).tunes.empty());
}

TEST(CoordChurnJoin, JoinDuringPolicyEpochLearnsBindingsAndRoutes)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    FabricRig rig(treeParams(p), 3); // 1 <- {2,3}; island 4 joins later
    ReliableAnnouncer ann(rig.sim(), rig.fabric);

    rig.fabric.send(tune(1, 2, 5, 1.0)); // epoch traffic
    rig.runFor(1 * msec);
    const std::uint64_t epochBefore = rig.fabric.routeEpoch();

    auto joiner = std::make_unique<StubIsland>(4, "isl4");
    rig.fabric.join(*joiner, rig.now());
    EXPECT_TRUE(rig.fabric.attached(4));
    EXPECT_EQ(rig.fabric.churnCounters().joins, 1u);
    EXPECT_GT(rig.fabric.routeEpoch(), epochBefore);
    // Fanout 2 with {2,3} under the root: BFS places 4 under 2.
    EXPECT_EQ(rig.fabric.parentOf(4), 2);

    // Mid-epoch announcement reaches the joiner over the fresh route,
    // and tunes apply there.
    EntityBinding b;
    b.ref = EntityRef{1, 42};
    b.ip = corm::net::IpAddr(10, 0, 0, 9);
    ann.announce(4, b);
    rig.fabric.send(tune(1, 4, 6, 2.5));
    rig.runFor(20 * msec);

    ASSERT_EQ(joiner->bindings.size(), 1u);
    EXPECT_EQ(joiner->bindings[0].ip, corm::net::IpAddr(10, 0, 0, 9));
    EXPECT_EQ(joiner->tuneSum(6), 2.5);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_EQ(ann.abandoned(), 0u);
}

TEST(CoordChurnJoin, RejoinAfterLeaveRevivesRoutesOverTheSamePair)
{
    FabricParams p;
    p.hopLatency = 10 * usec;
    FabricRig rig(treeParams(p), 3);
    std::vector<CoordMessage> abandoned;
    rig.fabric.setAbandonObserver(
        [&](const CoordMessage &m) { abandoned.push_back(m); });

    rig.fabric.send(tune(1, 3, 7, 1.0));
    rig.runFor(1 * msec);
    rig.fabric.leave(3, rig.now());
    rig.fabric.send(tune(1, 3, 7, 9.0)); // unroutable: attributed
    rig.runFor(1 * msec);
    EXPECT_EQ(abandoned.size(), 1u);

    rig.fabric.join(rig.at(3), rig.now()); // same island, same id
    EXPECT_TRUE(rig.fabric.attached(3));
    rig.fabric.send(tune(1, 3, 7, 4.0));
    rig.runFor(2 * msec);

    // 1.0 before the leave + 4.0 after the rejoin; the attributed 9.0
    // stayed abandoned (exactly-once-or-abandoned, never replayed).
    EXPECT_EQ(rig.at(3).tuneSum(7), 5.0);
    EXPECT_EQ(abandoned.size(), 1u);
    EXPECT_EQ(rig.fabric.churnCounters().joins, 1u);
    EXPECT_EQ(rig.fabric.churnCounters().leaves, 1u);
}

TEST(CoordChurnReparent, FallbackParentThatItselfCrashedFallsBackToRoot)
{
    // Orphans of a crashed hub are bound for the configured fallback
    // parent — which crashes before the re-parent completes. The
    // re-bind must detect the dead fallback and climb to the root
    // instead of wiring children under a corpse.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.reparentDelay = 2 * msec;
    p.fallbackParent = 3;
    FabricRig rig(treeParams(p), 7);

    rig.runFor(100 * usec);
    rig.fabric.crash(2, rig.now());
    rig.runFor(100 * usec);
    rig.fabric.crash(3, rig.now());
    rig.runFor(800 * usec);
    // 4,5 orphaned by 2 (fallback 3), 6,7 orphaned by 3 (fallback
    // would be 3 itself, so its own parent: the root).
    EXPECT_EQ(rig.fabric.pendingReparentCount(), 4u);
    rig.fabric.churnTick(rig.now()); // 2ms not yet elapsed
    EXPECT_EQ(rig.fabric.pendingReparentCount(), 4u);

    rig.runFor(2 * msec);
    rig.fabric.churnTick(rig.now());
    EXPECT_EQ(rig.fabric.pendingReparentCount(), 0u);
    EXPECT_EQ(rig.fabric.churnCounters().reparents, 4u);
    for (int leaf : {4, 5, 6, 7})
        EXPECT_EQ(rig.fabric.parentOf(static_cast<IslandId>(leaf)), 1)
            << "leaf " << leaf;

    rig.fabric.send(tune(1, 4, 7, 2.0));
    rig.fabric.send(tune(1, 6, 7, 3.0));
    rig.runFor(2 * msec);
    EXPECT_EQ(rig.at(4).tuneSum(7), 2.0);
    EXPECT_EQ(rig.at(6).tuneSum(7), 3.0);
}

TEST(CoordChurnReliable, AbandonDestinationCancelsRetryTimersWithNote)
{
    // Regression: pending sends toward a departed destination must be
    // finished through finish() — timers cancelled, outcome reported,
    // abandon note emitted — not left to burn retries into the void.
    FabricParams p = meshParams(10 * usec);
    p.faults.lossProb = 1.0; // nothing ever arrives
    p.replayAttempts = 0;    // retries come from the sender only
    FabricRig rig(p, 3);

    ReliableSender::Params rp;
    rp.retryTimeout = 5 * msec;
    rp.maxAttempts = 8;
    ReliableSender snd(rig.sim(), rig.fabric, 1, rp);
    std::vector<CoordMessage> noted;
    snd.setAbandonObserver(
        [&](const CoordMessage &m) { noted.push_back(m); });
    int outcomes = 0;
    const auto done = [&](ReliableSender::Outcome o,
                          const CoordMessage &) {
        EXPECT_EQ(o, ReliableSender::Outcome::abandoned);
        ++outcomes;
    };
    snd.send(trigger(1, 2, 7), done);
    snd.send(trigger(1, 2, 8), done);
    snd.send(trigger(1, 3, 9)); // different destination: survives
    rig.runFor(1 * msec);
    ASSERT_EQ(snd.pendingCount(), 3u);

    EXPECT_EQ(snd.abandonDestination(2), 2u);
    EXPECT_EQ(snd.pendingCount(), 1u); // island 3's send untouched
    EXPECT_EQ(snd.abandoned(), 2u);
    EXPECT_EQ(outcomes, 2);
    ASSERT_EQ(noted.size(), 2u);
    EXPECT_EQ(noted[0].dst, 2);
    EXPECT_EQ(noted[1].dst, 2);

    // The cancelled timers are really gone: no retransmission toward
    // island 2 ever fires again (only island 3's retries remain, and
    // its capped backoff exhausts all 8 attempts within ~235ms).
    const std::uint64_t wireAfter =
        rig.fabric.stats().wireMessages.value();
    rig.runFor(400 * msec);
    EXPECT_EQ(snd.pendingCount(), 0u); // 3's send exhausted naturally
    EXPECT_EQ(snd.abandoned(), 3u);
    const std::uint64_t wireDelta =
        rig.fabric.stats().wireMessages.value() - wireAfter;
    EXPECT_LE(wireDelta, 7u); // island 3 retries only, no 2-bound ones

    // The announcer exposes the same hook for its supersede slots.
    ReliableAnnouncer ann(rig.sim(), rig.fabric);
    EntityBinding eb;
    eb.ref = EntityRef{1, 42};
    ann.announce(2, eb);
    rig.runFor(1 * msec);
    EXPECT_EQ(ann.pendingCount(), 1u);
    EXPECT_EQ(ann.abandonDestination(2), 1u);
    EXPECT_EQ(ann.pendingCount(), 0u);
}

TEST(CoordChurnReliable, MultipleSendersShareOneEndpointsAcks)
{
    // Token ack observers: an announcer living the whole run plus a
    // trigger sender, both homed at the root, must each see their own
    // acks — a single observer slot per endpoint used to clobber.
    FabricRig rig(meshParams(10 * usec), 3);

    auto s1 = std::make_unique<ReliableSender>(rig.sim(), rig.fabric, 1);
    auto s2 = std::make_unique<ReliableSender>(rig.sim(), rig.fabric, 1);
    s1->send(trigger(1, 2, 7));
    s2->send(trigger(1, 3, 8));
    rig.runFor(5 * msec);
    EXPECT_EQ(s1->acked(), 1u);
    EXPECT_EQ(s2->acked(), 1u);
    EXPECT_EQ(s1->pendingCount(), 0u);
    EXPECT_EQ(s2->pendingCount(), 0u);

    // Unregistration is per-token: destroying one sender must not
    // deafen the other.
    s2.reset();
    s1->send(trigger(1, 2, 9));
    rig.runFor(5 * msec);
    EXPECT_EQ(s1->acked(), 2u);
    EXPECT_EQ(s1->pendingCount(), 0u);
}

TEST(CoordChurnMonitor, CleanLeaveRetiresLanesWithoutSpuriousStall)
{
    // A lane with a send outstanding when its island departs cleanly
    // must deactivate silently: the traffic will never resume, and a
    // stall breach would cry wolf on every graceful departure.
    FabricParams p = meshParams(10 * usec);
    p.name = "fab";
    p.faults.lossProb = 1.0; // sends enter the lane, never deliver
    p.replayAttempts = 0;    // no replay traffic to revive the lane
    FabricRig rig(p, 3);

    corm::obs::MetricRegistry reg;
    corm::obs::HealthMonitor::Params mp;
    mp.samplePeriod = 1 * msec;
    mp.stallTimeout = 5 * msec;
    corm::obs::HealthMonitor mon(rig.sim(), reg, mp);
    LaneWatch watch(rig.fabric, mon, mp.samplePeriod);
    rig.onBarrier = [&watch](Tick end) { watch.barrier(end); };
    // A heartbeat keeps barriers (and so monitor polls) coming.
    PeriodicEvent beat(rig.sim(), mp.samplePeriod, [] {});

    // Eaten: lane 1-3 now unanswered.
    rig.sim().scheduleAt(0, [&] { rig.fabric.send(tune(1, 3, 7, 1.0)); });
    rig.runFor(1 * msec);
    rig.fabric.leave(3, rig.now());
    rig.fabric.resyncLaneWatch(); // lanes to 3 left the live set: retire
    rig.runFor(49 * msec);

    EXPECT_EQ(mon.breaches(), 0u) << mon.healthReport();
    for (const auto &ev : mon.events())
        EXPECT_NE(ev.kind, corm::obs::HealthEvent::Kind::stall)
            << ev.str();
}

TEST(CoordChurnMonitor, SendAtTickZeroArmsTheStallWatchdog)
{
    // A send at the very first tick is as outstanding as any other:
    // with every copy eaten, the lane must go dark and breach.
    FabricParams p = meshParams(10 * usec);
    p.name = "fab";
    p.faults.lossProb = 1.0;
    p.replayAttempts = 0;
    FabricRig rig(p, 3);

    corm::obs::MetricRegistry reg;
    corm::obs::HealthMonitor::Params mp;
    mp.samplePeriod = 1 * msec;
    mp.stallTimeout = 5 * msec;
    corm::obs::HealthMonitor mon(rig.sim(), reg, mp);
    LaneWatch watch(rig.fabric, mon, mp.samplePeriod);
    rig.onBarrier = [&watch](Tick end) { watch.barrier(end); };
    PeriodicEvent beat(rig.sim(), mp.samplePeriod, [] {});

    rig.sim().scheduleAt(0, [&] { rig.fabric.send(tune(1, 3, 7, 1.0)); });
    rig.runFor(50 * msec);

    EXPECT_GT(mon.breaches(), 0u) << mon.healthReport();
    std::size_t stalls = 0;
    for (const auto &ev : mon.events()) {
        if (ev.kind == corm::obs::HealthEvent::Kind::stall) {
            ++stalls;
            EXPECT_EQ(ev.subject, "lane fab.1-3") << ev.str();
        }
    }
    EXPECT_EQ(stalls, 1u) << mon.healthReport();
}

TEST(CoordChurnMonitor, StallAcrossHubOutageDrivesReparentAndRecovers)
{
    // The PR-4 shape, closed into a loop: a burst outage silences the
    // relay hub, the lane-stall watchdog fires, the policy hook
    // declares the hub dead — crash + immediate re-parent + lane
    // retirement (which emits the balancing stallRecover) — and the
    // reliable sender's retries land over the new route, exactly once.
    FabricParams p;
    p.hopLatency = 10 * usec;
    p.name = "fab";
    p.replayAttempts = 0; // the reliable layer owns recovery here
    p.reparentDelay = 50 * msec; // the watchdog should beat this
    p.faults.outages.push_back({200 * usec, 40 * msec});
    FabricRig rig(treeParams(p), 5); // 1 <- {2,3}, 2 <- {4,5}

    corm::obs::MetricRegistry reg;
    corm::obs::HealthMonitor::Params mp;
    mp.samplePeriod = 1 * msec;
    mp.stallTimeout = 5 * msec;
    corm::obs::HealthMonitor mon(rig.sim(), reg, mp);
    LaneWatch watch(rig.fabric, mon, mp.samplePeriod);
    rig.onBarrier = [&watch](Tick end) { watch.barrier(end); };
    PeriodicEvent beat(rig.sim(), mp.samplePeriod, [] {});
    bool reparented = false;
    // The policy hook runs inside the monitor's barrier-time poll,
    // so the churn it drives applies at the barrier tick.
    mon.setPolicyCallback([&](const corm::obs::HealthEvent &ev) {
        if (ev.kind != corm::obs::HealthEvent::Kind::stall
            || reparented)
            return;
        reparented = true; // the watchdog says hub 2 is dead
        rig.fabric.crash(2, watch.barrierAt);
        rig.fabric.reparentNow(watch.barrierAt);
        rig.fabric.resyncLaneWatch();
    });

    ReliableSender::Params rp;
    rp.retryTimeout = 5 * msec;
    rp.maxAttempts = 12;
    ReliableSender snd(rig.sim(), rig.fabric, 1, rp);
    // First send pre-outage so the route is warm; the payload send at
    // 300us dives straight into the outage and stalls lane 1-2.
    rig.fabric.send(tune(1, 2, 0, 0.0));
    rig.sim().scheduleAt(300 * usec,
                         [&] { snd.send(tune(1, 4, 7, 5.0)); });
    rig.runFor(200 * msec);

    EXPECT_TRUE(reparented);
    EXPECT_EQ(rig.fabric.churnCounters().crashes, 1u);
    EXPECT_EQ(rig.fabric.churnCounters().reparents, 2u);
    EXPECT_EQ(rig.fabric.parentOf(4), 1);
    // Exactly-once across the watchdog-driven re-parent.
    ASSERT_EQ(rig.at(4).tunes.size(), 1u);
    EXPECT_EQ(rig.at(4).tuneSum(7), 5.0);
    EXPECT_EQ(snd.acked(), 1u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    // The event stream is balanced: every stall has its recover
    // (lane retirement emits the balancing edge for dead lanes).
    std::uint64_t stalls = 0, recovers = 0;
    for (const auto &ev : mon.events()) {
        if (ev.kind == corm::obs::HealthEvent::Kind::stall)
            ++stalls;
        if (ev.kind == corm::obs::HealthEvent::Kind::stallRecover)
            ++recovers;
    }
    EXPECT_GE(stalls, 1u);
    EXPECT_EQ(stalls, recovers) << mon.healthReport();
}
