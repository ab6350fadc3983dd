/**
 * @file
 * Property and fuzz tests: randomly generated workloads exercised
 * against global invariants of the scheduler, the data path, and the
 * coordination layer — the "can't happen" class of bugs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "coord/message.hpp"
#include "platform/harness.hpp"
#include "platform/scenarios.hpp"
#include "platform/testbed.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "xen/sched.hpp"

using namespace corm::sim;
using namespace corm::xen;

namespace {

struct FuzzOutcome
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    Tick demanded = 0;
};

/**
 * Drive a random job mix through a scheduler and report totals.
 * Every job eventually completes and accounting stays conservative.
 */
FuzzOutcome
fuzzScheduler(std::uint64_t seed, int pcpus, int domains,
              bool credit_ordered)
{
    Simulator sim;
    SchedParams params;
    params.creditOrderedDispatch = credit_ordered;
    CreditScheduler sched(sim, pcpus, params);
    Rng rng(seed);

    std::vector<std::unique_ptr<Domain>> doms;
    for (int i = 0; i < domains; ++i) {
        doms.push_back(std::make_unique<Domain>(
            sched, static_cast<std::uint32_t>(i + 1),
            "d" + std::to_string(i),
            rng.uniform(32.0, 1024.0)));
    }

    FuzzOutcome out;
    // Random submissions over the first 2 simulated seconds, with
    // random weight changes and boosts sprinkled in.
    for (int i = 0; i < 400; ++i) {
        const Tick when = rng.uniformInt(2 * sec);
        auto &dom = *doms[rng.uniformInt(doms.size())];
        const Tick len = 100 * usec + rng.exponentialTicks(3 * msec);
        const JobKind kind =
            rng.chance(0.3) ? JobKind::system : JobKind::user;
        ++out.submitted;
        out.demanded += len;
        sim.scheduleAt(when, [&dom, len, kind, &out] {
            dom.submit(len, kind, [&out] { ++out.completed; });
        });
        if (rng.chance(0.1)) {
            sim.scheduleAt(rng.uniformInt(2 * sec), [&sched, &dom, &rng] {
                sched.adjustWeight(dom, rng.uniform(-64.0, 64.0));
            });
        }
        if (rng.chance(0.1)) {
            sim.scheduleAt(rng.uniformInt(2 * sec),
                           [&sched, &dom] { sched.boost(dom); });
        }
    }
    sim.runUntil(30 * sec);

    // Invariants: every job ran; busy time equals demand and never
    // exceeds platform capacity; per-domain busy adds up.
    EXPECT_EQ(out.completed, out.submitted);
    Tick dom_busy = 0;
    for (auto &d : doms) {
        dom_busy += d->cpuUsage().busy(UtilizationTracker::Kind::user)
            + d->cpuUsage().busy(UtilizationTracker::Kind::system);
        EXPECT_EQ(d->queuedJobs(), 0u);
    }
    EXPECT_EQ(dom_busy, out.demanded);
    EXPECT_EQ(sched.totalBusy(), out.demanded);
    EXPECT_LE(sched.totalBusy(),
              static_cast<Tick>(pcpus) * 30 * sec);
    return out;
}

} // namespace

class SchedulerFuzz
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(SchedulerFuzz, AllJobsCompleteAndAccountingBalances)
{
    const auto [pcpus, domains, ordered] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        fuzzScheduler(seed * 7919, pcpus, domains, ordered);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerFuzz,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 3, 8),
                       ::testing::Bool()));

TEST(DataPathFuzz, RandomTrafficNeverLosesPacketsSilently)
{
    // Conservation: every packet injected at the wire is either
    // delivered to a guest, dropped at a bounded queue (counted), or
    // still in flight when the clock stops.
    corm::platform::TestbedParams tp;
    tp.ringSlots = 32;
    corm::platform::Testbed tb(tp);
    auto &a = tb.addGuest("a", corm::net::IpAddr{10, 0, 0, 2});
    auto &b = tb.addGuest("b", corm::net::IpAddr{10, 0, 0, 3});
    tb.run(1 * msec);

    std::uint64_t delivered = 0;
    a.vif->setReceiveHandler(
        [&](corm::net::PacketPtr) { ++delivered; });
    b.vif->setReceiveHandler(
        [&](corm::net::PacketPtr) { ++delivered; });

    Rng rng(0xfeed);
    const int injected = 3000;
    for (int i = 0; i < injected; ++i) {
        corm::net::FiveTuple flow;
        flow.src = corm::net::IpAddr(10, 0, 9, 1);
        flow.dst = rng.chance(0.5) ? a.vif->ip() : b.vif->ip();
        const auto bytes =
            static_cast<std::uint32_t>(64 + rng.uniformInt(1400));
        tb.sim().scheduleAt(
            tb.sim().now() + rng.uniformInt(2 * sec),
            [&tb, flow, bytes] {
                tb.ixp().injectFromWire(tb.packets().make(
                    flow, bytes, corm::net::AppTag{}, tb.sim().now()));
            });
    }
    tb.run(20 * sec);

    const auto &st = tb.ixp().stats();
    const std::uint64_t dropped = st.vmQueueDrops.value()
        + tb.ixp().queueDrops(a.entity) - tb.ixp().queueDrops(a.entity)
        + st.unknownDst.value();
    EXPECT_EQ(delivered + dropped, static_cast<std::uint64_t>(injected))
        << "delivered=" << delivered << " dropped=" << dropped;
}

TEST(ChannelFuzz, RandomMessagesNeverCrashIslands)
{
    // Arbitrary (even nonsensical) coordination messages must be
    // absorbed: unknown entities ignored, unknown types dropped.
    corm::platform::Testbed tb;
    tb.addGuest("vm", corm::net::IpAddr{10, 0, 0, 2});
    tb.run(1 * msec);
    Rng rng(0xc0de);
    for (int i = 0; i < 2000; ++i) {
        corm::coord::CoordMessage m;
        m.type = static_cast<corm::coord::MsgType>(
            1 + rng.uniformInt(4));
        m.src = static_cast<corm::coord::IslandId>(rng.uniformInt(4));
        m.dst = static_cast<corm::coord::IslandId>(rng.uniformInt(4));
        m.entity =
            static_cast<corm::coord::EntityId>(rng.uniformInt(5));
        m.value = rng.uniform(-1e6, 1e6);
        tb.channel().send(m);
    }
    tb.run(1 * sec);
    // Weights stayed within the configured clamp despite the abuse.
    for (const auto *dom : tb.scheduler().domains()) {
        EXPECT_GE(dom->weight(), tb.scheduler().params().minWeight);
        EXPECT_LE(dom->weight(), tb.scheduler().params().maxWeight);
    }
}

namespace {

/**
 * Derive a random multi-island fabric configuration from one seed:
 * random topology over 2–32 islands, random fault plan, random
 * Tune/Trigger workload. Everything downstream (send times, deltas,
 * link weather) is a pure function of the seed, so a failing seed
 * reproduces exactly.
 */
corm::platform::FabricScenarioConfig
fabricConfigFromSeed(std::uint64_t seed)
{
    Rng r(SplitMix64(seed).next());
    corm::platform::FabricScenarioConfig c;
    c.islands = 2 + static_cast<int>(r.uniformInt(31)); // 2..32
    switch (r.uniformInt(3)) {
      case 0: c.fabric.topology = corm::coord::FabricTopology::star; break;
      case 1: c.fabric.topology = corm::coord::FabricTopology::mesh; break;
      default: c.fabric.topology = corm::coord::FabricTopology::tree; break;
    }
    c.fabric.treeFanout = 2 + static_cast<int>(r.uniformInt(3));
    c.fabric.hopLatency = (20 + r.uniformInt(200)) * usec;
    c.fabric.aggWindow =
        r.chance(0.5) ? (100 + r.uniformInt(900)) * usec : 0;
    if (r.chance(0.6)) {
        c.fabric.faults.lossProb = r.uniform(0.0, 0.05);
        c.fabric.faults.dupProb = r.uniform(0.0, 0.03);
        c.fabric.faults.reorderProb = r.uniform(0.0, 0.03);
        c.fabric.faults.seed = SplitMix64(seed ^ 0xfab41cULL).next();
    }
    c.tiers = 1 + static_cast<int>(r.uniformInt(3));
    c.tunesPerPair = 3 + static_cast<int>(r.uniformInt(8));
    c.triggerProb = r.uniform(0.0, 0.3);
    c.seed = seed;
    c.workloadSpan = 50 * msec;
    c.settleLimit = 1 * sec;
    c.monitorLanes = false; // pure-fabric invariants, fastest path
    return c;
}

/** Seed count: default quick; the `slow` ctest profile sets
 *  CORM_FUZZ_SEEDS=100 for the convergence-proof sweep. */
int
fuzzSeedCount()
{
    if (const char *env = std::getenv("CORM_FUZZ_SEEDS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 6;
}

} // namespace

TEST(FabricFuzz, RandomTopologiesUnderFaultsHoldInvariants)
{
    const int seeds = fuzzSeedCount();
    for (int i = 1; i <= seeds; ++i) {
        const std::uint64_t seed = 0x5ca1e0u + 7919ull * i;
        SCOPED_TRACE("failing seed: " + std::to_string(seed));
        const auto cfg = fabricConfigFromSeed(seed);
        const auto r = corm::platform::runFabricScenario(cfg);

        // Aggregated deltas sum exactly to the un-aggregated deltas
        // per entity: final weights equal intent bit-for-bit, and the
        // logical-tune ledger balances applied + abandoned.
        EXPECT_TRUE(r.deltaSumsExact)
            << "applied=" << r.appliedTunes
            << " abandoned=" << r.abandonedTunes
            << " logical=" << r.logicalTunes;
        EXPECT_TRUE(r.converged)
            << "not converged after " << r.convergenceMs << " ms";

        // No lost entity binding: every announcement was learned or
        // explicitly abandoned (with an abandon note at the sender).
        EXPECT_TRUE(r.bindingsOk)
            << "announced=" << r.bindingsAnnounced
            << " learned=" << r.bindingsLearned
            << " abandoned=" << r.bindingsAbandoned;

        // Every Trigger delivered-or-abandoned, nothing in limbo.
        EXPECT_TRUE(r.triggersAccounted)
            << "sent=" << r.triggersSent
            << " acked=" << r.triggersAcked
            << " abandoned=" << r.triggersAbandoned;

        // All workload destinations exist, so nothing may have been
        // dropped as unroutable.
        EXPECT_EQ(r.fabricDropped, 0u);
    }
}

TEST(FabricFuzz, ReplaysAreIdenticalAcrossJobsFanOut)
{
    // The same seeds replayed under --jobs 1 and --jobs 4 must
    // produce bit-identical final weights (digest covers weights,
    // counters and learned bindings per island).
    corm::platform::TrialOptions j1;
    j1.trials = 4;
    j1.jobs = 1;
    j1.seed = 0xfab51deed5ULL;
    corm::platform::TrialOptions j4 = j1;
    j4.jobs = 4;

    const auto run = [](int, std::uint64_t seed) {
        return corm::platform::runFabricScenario(
            fabricConfigFromSeed(seed));
    };
    const auto a = corm::platform::runTrials(j1, run);
    const auto b = corm::platform::runTrials(j4, run);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_EQ(a[i].digest, b[i].digest);
        EXPECT_EQ(a[i].appliedTunes, b[i].appliedTunes);
        EXPECT_EQ(a[i].wireMessages, b[i].wireMessages);
        EXPECT_EQ(a[i].convergenceMs, b[i].convergenceMs);
        EXPECT_EQ(a[i].eventsExecuted, b[i].eventsExecuted);
    }
}

TEST(FabricFuzz, ShardCountNeverChangesTheDigest)
{
    // The sharded engine's determinism contract, fuzzed: any random
    // topology/fault/workload configuration must produce the same
    // digest (and the same shard-count-invariant counters) whether
    // the islands run on 1 shard or are partitioned across a
    // seed-chosen 2..4. eventsExecuted is deliberately NOT compared:
    // boundary-injection bookkeeping events depend on the partition.
    const int seeds = fuzzSeedCount();
    for (int i = 1; i <= seeds; ++i) {
        const std::uint64_t seed = 0x5a4dedu + 6271ull * i;
        SCOPED_TRACE("failing seed: " + std::to_string(seed));
        auto cfg = fabricConfigFromSeed(seed);
        cfg.shards = 1;
        const auto base = corm::platform::runFabricScenario(cfg);
        EXPECT_TRUE(base.deltaSumsExact);
        EXPECT_TRUE(base.converged);
        EXPECT_TRUE(base.bindingsOk);
        EXPECT_TRUE(base.triggersAccounted);

        cfg.shards = 2 + static_cast<int>(seed % 3); // 2..4
        SCOPED_TRACE("shards=" + std::to_string(cfg.shards));
        const auto r = corm::platform::runFabricScenario(cfg);
        EXPECT_EQ(r.digest, base.digest);
        EXPECT_EQ(r.appliedTunes, base.appliedTunes);
        EXPECT_EQ(r.wireMessages, base.wireMessages);
        EXPECT_EQ(r.linkDrops, base.linkDrops);
        EXPECT_EQ(r.duplicates, base.duplicates);
        EXPECT_EQ(r.abandonedWire, base.abandonedWire);
        EXPECT_EQ(r.convergenceMs, base.convergenceMs);
        EXPECT_EQ(r.shardWindows, base.shardWindows);
        EXPECT_EQ(r.boundaryMessages, base.boundaryMessages);
        EXPECT_EQ(r.hubQueueHighWater, base.hubQueueHighWater);
        EXPECT_TRUE(r.deltaSumsExact);
        EXPECT_TRUE(r.converged);
        EXPECT_TRUE(r.bindingsOk);
        EXPECT_TRUE(r.triggersAccounted);
    }
}

namespace {

/**
 * Random churn schedule over the workload span: joins, leaves,
 * crashes and live entity migrations against the seed's 2–32 island
 * fabric, under the same fault weather. The root (index 0) is never
 * churned; events that do not apply at their tick (the scenario
 * tallies them in churnSkipped) are part of the fuzz surface — a
 * schedule needs no pre-validation. Pure function of the seed.
 */
std::vector<corm::platform::FabricScenarioConfig::ChurnEvent>
churnScheduleFromSeed(std::uint64_t seed,
                      const corm::platform::FabricScenarioConfig &cfg)
{
    using ChurnEvent =
        corm::platform::FabricScenarioConfig::ChurnEvent;
    Rng r(SplitMix64(seed ^ 0xc08a71ULL).next());
    std::vector<ChurnEvent> plan;
    const int events = 2 + static_cast<int>(r.uniformInt(7)); // 2..8
    for (int i = 0; i < events; ++i) {
        ChurnEvent ev;
        switch (r.uniformInt(4)) {
          case 0: ev.kind = ChurnEvent::Kind::join; break;
          case 1: ev.kind = ChurnEvent::Kind::leave; break;
          case 2: ev.kind = ChurnEvent::Kind::crash; break;
          default: ev.kind = ChurnEvent::Kind::migrate; break;
        }
        ev.at = r.uniformInt(cfg.workloadSpan);
        ev.island =
            1 + static_cast<int>(r.uniformInt(cfg.islands - 1));
        ev.dstIsland =
            1 + static_cast<int>(r.uniformInt(cfg.islands - 1));
        ev.tier = static_cast<int>(r.uniformInt(cfg.tiers));
        plan.push_back(ev);
    }
    return plan;
}

/** Conservation invariants that must hold under ANY churn schedule:
 *  every root-issued tune applied exactly once or attributed as
 *  abandoned, every trigger and binding delivered-or-abandoned. */
void
expectChurnInvariants(const corm::platform::FabricScenarioResult &r)
{
    EXPECT_EQ(r.tunesLost, 0)
        << "applied=" << r.appliedTunes
        << " abandoned=" << r.abandonedTunes
        << " logical=" << r.logicalTunes;
    EXPECT_TRUE(r.deltaSumsExact)
        << "applied=" << r.appliedTunes
        << " abandoned=" << r.abandonedTunes
        << " logical=" << r.logicalTunes;
    EXPECT_TRUE(r.converged)
        << "not converged after " << r.convergenceMs << " ms";
    EXPECT_TRUE(r.bindingsOk)
        << "announced=" << r.bindingsAnnounced
        << " learned=" << r.bindingsLearned
        << " abandoned=" << r.bindingsAbandoned;
    EXPECT_TRUE(r.triggersAccounted)
        << "sent=" << r.triggersSent << " acked=" << r.triggersAcked
        << " abandoned=" << r.triggersAbandoned;
    // NOTE: fabricDropped is NOT asserted zero here — under churn,
    // attributed drops (unroutable sends toward departed islands,
    // dead-route hops) are expected and already balanced into the
    // tune ledger above.
}

} // namespace

TEST(FabricFuzz, ChurnSchedulesHoldConservationInvariants)
{
    // The headline churn invariant, fuzzed: random island fabrics
    // under random join/leave/crash/migrate schedules and fault
    // weather never lose or double-apply a tune.
    const int seeds = fuzzSeedCount();
    for (int i = 1; i <= seeds; ++i) {
        const std::uint64_t seed = 0xc09b1du + 104729ull * i;
        SCOPED_TRACE("failing seed: " + std::to_string(seed));
        auto cfg = fabricConfigFromSeed(seed);
        cfg.churn = churnScheduleFromSeed(seed, cfg);
        const auto r = corm::platform::runFabricScenario(cfg);
        expectChurnInvariants(r);
        // The schedule actually exercised the machinery: at least
        // one event applied or was (deliberately) skipped.
        EXPECT_EQ(r.churnJoins + r.churnLeaves + r.churnCrashes
                      + r.churnMigrations + r.churnSkipped,
                  cfg.churn.size());
    }
}

TEST(FabricFuzz, ChurnReplaysIdenticalAcrossJobsFanOut)
{
    // Same churn schedules replayed under --jobs 1 and --jobs 4:
    // bit-identical digests — churn application is part of the
    // deterministic event program, not a side effect of timing.
    corm::platform::TrialOptions j1;
    j1.trials = 4;
    j1.jobs = 1;
    j1.seed = 0xc08a5eedULL;
    corm::platform::TrialOptions j4 = j1;
    j4.jobs = 4;

    const auto run = [](int, std::uint64_t seed) {
        auto cfg = fabricConfigFromSeed(seed);
        cfg.churn = churnScheduleFromSeed(seed, cfg);
        return corm::platform::runFabricScenario(cfg);
    };
    const auto a = corm::platform::runTrials(j1, run);
    const auto b = corm::platform::runTrials(j4, run);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_EQ(a[i].digest, b[i].digest);
        EXPECT_EQ(a[i].appliedTunes, b[i].appliedTunes);
        EXPECT_EQ(a[i].abandonedTunes, b[i].abandonedTunes);
        EXPECT_EQ(a[i].wireMessages, b[i].wireMessages);
        EXPECT_EQ(a[i].churnReparents, b[i].churnReparents);
        EXPECT_EQ(a[i].migForwards, b[i].migForwards);
        EXPECT_EQ(a[i].eventsExecuted, b[i].eventsExecuted);
    }
}

TEST(FabricFuzz, ChurnShardCountNeverChangesTheDigest)
{
    // The determinism contract under churn: membership changes apply
    // at window barriers, and the window sequence is a pure function
    // of the global event set — so the same churn schedule produces
    // the same digest whether islands run on 1 shard or 2..4.
    const int seeds = fuzzSeedCount();
    for (int i = 1; i <= seeds; ++i) {
        const std::uint64_t seed = 0xc0ffee5u + 7823ull * i;
        SCOPED_TRACE("failing seed: " + std::to_string(seed));
        auto cfg = fabricConfigFromSeed(seed);
        cfg.churn = churnScheduleFromSeed(seed, cfg);
        cfg.shards = 1;
        const auto base = corm::platform::runFabricScenario(cfg);
        expectChurnInvariants(base);

        for (int shards = 2; shards <= 4; ++shards) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            cfg.shards = shards;
            const auto r = corm::platform::runFabricScenario(cfg);
            EXPECT_EQ(r.digest, base.digest);
            EXPECT_EQ(r.appliedTunes, base.appliedTunes);
            EXPECT_EQ(r.abandonedTunes, base.abandonedTunes);
            EXPECT_EQ(r.wireMessages, base.wireMessages);
            EXPECT_EQ(r.duplicates, base.duplicates);
            EXPECT_EQ(r.fabricDropped, base.fabricDropped);
            EXPECT_EQ(r.migForwards, base.migForwards);
            EXPECT_EQ(r.churnJoins, base.churnJoins);
            EXPECT_EQ(r.churnLeaves, base.churnLeaves);
            EXPECT_EQ(r.churnCrashes, base.churnCrashes);
            EXPECT_EQ(r.churnMigrations, base.churnMigrations);
            EXPECT_EQ(r.churnReparents, base.churnReparents);
            EXPECT_EQ(r.churnSkipped, base.churnSkipped);
            EXPECT_EQ(r.convergenceMs, base.convergenceMs);
            EXPECT_EQ(r.shardWindows, base.shardWindows);
            EXPECT_EQ(r.hubQueueHighWater, base.hubQueueHighWater);
            expectChurnInvariants(r);
        }
    }
}

TEST(CoordWireFuzz, PackUnpackRoundTripsFullWidthFields)
{
    // Field-width fidelity of the packed 3-word wire format at and
    // beyond the old 8-bit boundaries: 16-bit island ids, 32-bit
    // seqs past 2^16, full-range entities, and every double bit
    // pattern (including NaN and -0.0, compared bit-for-bit).
    using corm::coord::CoordMessage;
    using corm::coord::EntityId;
    using corm::coord::IslandId;
    using corm::coord::MsgType;
    using corm::coord::SeqNum;
    const auto roundTrip = [](const CoordMessage &m) {
        const auto d = CoordMessage::decode(
            m.encodeWord0(), m.encodeWord1(), m.encodeWord2());
        EXPECT_EQ(d.type, m.type);
        EXPECT_EQ(d.src, m.src);
        EXPECT_EQ(d.dst, m.dst);
        EXPECT_EQ(d.seq, m.seq);
        EXPECT_EQ(d.entity, m.entity);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d.value),
                  std::bit_cast<std::uint64_t>(m.value));
    };

    // The extremes the 1024-island sweep depends on, explicitly:
    // island ids past the old 255 ceiling, seqs past 2^16, and the
    // all-ones corners of every field.
    CoordMessage m;
    m.type = MsgType::trigger;
    m.src = 1023;
    m.dst = 1023;
    m.seq = (SeqNum{1} << 16) + 1;
    m.entity = 0xffffffffu;
    m.value = -0.0;
    roundTrip(m);
    m.type = MsgType::ack;
    m.src = 0xffff;
    m.dst = 0;
    m.seq = 0xffffffffu;
    m.value = std::numeric_limits<double>::quiet_NaN();
    roundTrip(m);

    const double specials[] = {
        0.0,
        -0.0,
        -1e308,
        5e-324, // smallest denormal
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    Rng rng(0x3141);
    for (int i = 0; i < 4000; ++i) {
        CoordMessage f;
        f.type = static_cast<MsgType>(1 + rng.uniformInt(4));
        f.src = static_cast<IslandId>(rng.uniformInt(65536));
        f.dst = static_cast<IslandId>(rng.uniformInt(65536));
        f.seq =
            static_cast<SeqNum>(rng.uniformInt(std::uint64_t{1} << 32));
        f.entity = static_cast<EntityId>(
            rng.uniformInt(std::uint64_t{1} << 32));
        f.value = rng.chance(0.2) ? specials[rng.uniformInt(7)]
                                  : rng.uniform(-1e9, 1e9);
        roundTrip(f);
    }
}

TEST(SimulatorFuzz, RandomCancellationsKeepQueueConsistent)
{
    Simulator sim;
    Rng rng(42);
    std::vector<EventId> ids;
    int fired = 0;
    for (int i = 0; i < 5000; ++i) {
        ids.push_back(
            sim.schedule(rng.uniformInt(1000), [&fired] { ++fired; }));
    }
    int cancelled = 0;
    for (const auto id : ids) {
        if (rng.chance(0.4)) {
            sim.cancel(id);
            ++cancelled;
        }
    }
    sim.runToCompletion();
    EXPECT_EQ(fired, 5000 - cancelled);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}
