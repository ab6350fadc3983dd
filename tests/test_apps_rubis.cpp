/**
 * @file
 * Unit tests for the RUBiS workload model: catalogue invariants,
 * session-cluster stochastics, the coordination table, and the
 * server/client end-to-end path on a live testbed.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/rubis.hpp"
#include "platform/testbed.hpp"
#include "sim/random.hpp"

using namespace corm::sim;
using namespace corm::apps::rubis;

//
// Catalogue invariants
//

TEST(RubisCatalog, HasAllSixteenTypes)
{
    const auto &cat = requestCatalog();
    ASSERT_EQ(cat.size(), numRequestTypes);
    for (std::size_t i = 0; i < cat.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(cat[i].type), i)
            << "catalogue must be indexed by ordinal";
        EXPECT_NE(cat[i].name, nullptr);
    }
}

TEST(RubisCatalog, StagesStartAndEndAtWebTier)
{
    for (const auto &spec : requestCatalog()) {
        ASSERT_FALSE(spec.stages.empty()) << spec.name;
        EXPECT_EQ(spec.stages.front().tier, Tier::web) << spec.name;
        EXPECT_EQ(spec.stages.back().tier, Tier::web) << spec.name;
    }
}

TEST(RubisCatalog, StagesHopBetweenAdjacentTiers)
{
    // The three-tier topology has no web<->db shortcut.
    for (const auto &spec : requestCatalog()) {
        for (std::size_t i = 1; i < spec.stages.size(); ++i) {
            const int a = static_cast<int>(spec.stages[i - 1].tier);
            const int b = static_cast<int>(spec.stages[i].tier);
            EXPECT_LE(std::abs(a - b), 1)
                << spec.name << " stage " << i;
        }
    }
}

TEST(RubisCatalog, WriteFlagMatchesDatabaseUsage)
{
    for (const auto &spec : requestCatalog()) {
        bool touches_db = false;
        for (const auto &s : spec.stages) {
            if (s.tier == Tier::db)
                touches_db = true;
        }
        if (spec.write) {
            EXPECT_TRUE(touches_db) << spec.name;
        }
    }
}

TEST(RubisCatalog, DemandsAndSizesArePositive)
{
    for (const auto &spec : requestCatalog()) {
        EXPECT_GT(spec.requestBytes, 0u) << spec.name;
        EXPECT_GT(spec.responseBytes, 0u) << spec.name;
        EXPECT_GT(spec.interTierBytes, 0u) << spec.name;
        for (const auto &s : spec.stages)
            EXPECT_GT(s.cpuMean, 0u) << spec.name;
    }
}

TEST(RubisCatalog, WritePathIsDbHeavier)
{
    // Aggregate db demand of write types must exceed that of read
    // types — the profile the coordination table encodes.
    Tick write_db = 0, read_db = 0;
    for (const auto &spec : requestCatalog()) {
        for (const auto &s : spec.stages) {
            if (s.tier == Tier::db)
                (spec.write ? write_db : read_db) += s.cpuMean;
        }
    }
    EXPECT_GT(write_db, read_db);
}

//
// Session clusters
//

TEST(RubisClusters, BrowseClusterIsReadOnly)
{
    const auto dist = clusterDistribution(Cluster::browse);
    for (const auto &spec : requestCatalog()) {
        if (spec.write) {
            EXPECT_DOUBLE_EQ(
                dist.probability(static_cast<std::size_t>(spec.type)),
                0.0)
                << spec.name;
        }
    }
}

TEST(RubisClusters, BidClusterContainsTheWritePath)
{
    const auto dist = clusterDistribution(Cluster::bid);
    EXPECT_GT(dist.probability(
                  static_cast<std::size_t>(RequestType::putBid)),
              0.0);
    EXPECT_GT(dist.probability(
                  static_cast<std::size_t>(RequestType::storeBid)),
              0.0);
    EXPECT_GT(dist.probability(
                  static_cast<std::size_t>(RequestType::putComment)),
              0.0);
}

TEST(RubisClusters, BrowsingMixNeverLeavesBrowseCluster)
{
    for (const auto from :
         {Cluster::browse, Cluster::bid, Cluster::sell}) {
        const auto t = clusterTransitions(from, Mix::browsing);
        EXPECT_DOUBLE_EQ(t.probability(0), 1.0);
    }
}

TEST(RubisClusters, TransitionsAreStickyAndStochastic)
{
    Rng rng(1);
    for (const auto from :
         {Cluster::browse, Cluster::bid, Cluster::sell}) {
        const auto t = clusterTransitions(from, Mix::bidBrowseSell);
        double total = 0.0;
        for (std::size_t i = 0; i < 3; ++i)
            total += t.probability(i);
        EXPECT_NEAR(total, 1.0, 1e-12);
        // Self-transition dominates: runs are sticky.
        EXPECT_GT(t.probability(static_cast<std::size_t>(from)), 0.5);
    }
}

TEST(RubisClusters, StationaryMixIsMostlyBrowsing)
{
    // Simulate the chain; browsing should dominate long-run but the
    // bid cluster must be visited substantially (the write waves).
    Rng rng(7);
    auto cluster = Cluster::browse;
    std::map<Cluster, int> visits;
    corm::sim::DiscreteDist trans[3] = {
        clusterTransitions(Cluster::browse, Mix::bidBrowseSell),
        clusterTransitions(Cluster::bid, Mix::bidBrowseSell),
        clusterTransitions(Cluster::sell, Mix::bidBrowseSell),
    };
    for (int i = 0; i < 100000; ++i) {
        cluster = static_cast<Cluster>(
            trans[static_cast<int>(cluster)].sample(rng));
        ++visits[cluster];
    }
    EXPECT_GT(visits[Cluster::browse], visits[Cluster::bid]);
    EXPECT_GT(visits[Cluster::bid], 15000);
    EXPECT_GT(visits[Cluster::sell], 2000);
}

//
// Coordination table
//

TEST(RubisAdjustments, DirectionsFollowThePaper)
{
    corm::coord::RequestTypeTunePolicy policy;
    const corm::coord::EntityRef web{1, 1}, app{1, 2}, db{1, 3};
    installRubisAdjustments(policy, web, app, db, 32.0);

    std::vector<corm::coord::CoordMessage> sent;
    policy.attachSender(2, [&](const corm::coord::CoordMessage &m) {
        sent.push_back(m);
    });

    // A browsing request: web up, db down.
    policy.onRequestClassified(
        web, static_cast<std::uint32_t>(RequestType::browse));
    std::map<corm::coord::EntityId, double> deltas;
    for (const auto &m : sent)
        deltas[m.entity] = m.value;
    EXPECT_GT(deltas[web.entity], 0.0);
    EXPECT_GT(deltas[app.entity], 0.0);
    EXPECT_LT(deltas[db.entity], 0.0);

    // A write request: db up, web down.
    sent.clear();
    policy.onRequestClassified(
        db, static_cast<std::uint32_t>(RequestType::storeBid));
    deltas.clear();
    for (const auto &m : sent)
        deltas[m.entity] = m.value;
    EXPECT_GT(deltas[db.entity], 0.0);
    EXPECT_GT(deltas[app.entity], 0.0);
    EXPECT_LT(deltas[web.entity], 0.0);
}

//
// Server + client on a live testbed
//

namespace {

struct LiveRubis
{
    corm::platform::Testbed tb;
    corm::platform::Testbed::Guest *web, *app, *db;
    std::unique_ptr<RubisServer> server;
    std::unique_ptr<RubisClient> client;

    explicit LiveRubis(RubisClient::Params cp = {})
    {
        web = &tb.addGuest("web", corm::net::IpAddr{10, 0, 0, 2});
        app = &tb.addGuest("app", corm::net::IpAddr{10, 0, 0, 3});
        db = &tb.addGuest("db", corm::net::IpAddr{10, 0, 0, 4});
        server = std::make_unique<RubisServer>(
            tb.sim(), *web->vif, *app->vif, *db->vif, tb.bridge(),
            tb.packets(), RubisServer::Params{});
        client = std::make_unique<RubisClient>(
            tb.sim(), tb.ixp(), web->vif->ip(), tb.packets(), cp);
        tb.setWireSink(cp.clientIp,
                       [this](const corm::net::PacketPtr &p) {
                           client->onWirePacket(p);
                       });
    }
};

} // namespace

TEST(RubisEndToEnd, RequestsCompleteRoundTrips)
{
    RubisClient::Params cp;
    cp.concurrentSessions = 4;
    cp.thinkTimeMean = 50 * msec;
    LiveRubis live(cp);
    live.client->start();
    live.tb.run(10 * sec);
    EXPECT_GT(live.client->completedRequests(), 50u);
    EXPECT_EQ(live.server->requestsServed(),
              live.client->completedRequests());
    // Response times are positive and bounded.
    EXPECT_GT(live.client->allResponsesMs().min(), 0.0);
    EXPECT_LT(live.client->allResponsesMs().max(), 10000.0);
}

TEST(RubisEndToEnd, AllTiersBurnCpu)
{
    RubisClient::Params cp;
    cp.concurrentSessions = 8;
    cp.thinkTimeMean = 50 * msec;
    LiveRubis live(cp);
    live.client->start();
    live.tb.run(10 * sec);
    using K = UtilizationTracker::Kind;
    EXPECT_GT(live.web->dom->cpuUsage().busy(K::user), 0u);
    EXPECT_GT(live.app->dom->cpuUsage().busy(K::user), 0u);
    EXPECT_GT(live.db->dom->cpuUsage().busy(K::user), 0u);
    // Network stacks charged system time.
    EXPECT_GT(live.web->dom->cpuUsage().busy(K::system), 0u);
}

TEST(RubisEndToEnd, SessionsCompleteAndRestart)
{
    RubisClient::Params cp;
    cp.concurrentSessions = 4;
    cp.thinkTimeMean = 20 * msec;
    cp.sessionLengthMean = 5.0;
    LiveRubis live(cp);
    live.client->start();
    live.tb.run(20 * sec);
    EXPECT_GT(live.client->completedSessions(), 10u);
    EXPECT_GT(live.client->sessionSeconds().mean(), 0.0);
}

TEST(RubisEndToEnd, ResetStatsClearsCounters)
{
    RubisClient::Params cp;
    cp.concurrentSessions = 4;
    cp.thinkTimeMean = 50 * msec;
    LiveRubis live(cp);
    live.client->start();
    live.tb.run(5 * sec);
    ASSERT_GT(live.client->completedRequests(), 0u);
    live.client->resetStats();
    EXPECT_EQ(live.client->completedRequests(), 0u);
    EXPECT_EQ(live.client->allResponsesMs().count(), 0u);
    live.tb.run(5 * sec);
    EXPECT_GT(live.client->completedRequests(), 0u);
}

TEST(RubisEndToEnd, TraceBreakdownAccountsForResponseTime)
{
    RubisClient::Params cp;
    cp.concurrentSessions = 8;
    cp.thinkTimeMean = 50 * msec;
    LiveRubis live(cp);
    live.client->start();
    live.tb.run(10 * sec);
    const auto &bd = live.client->breakdown();
    ASSERT_GT(bd.ingressMs.count(), 50u);
    // Segment means must add up to the mean response time (the
    // trace marks tile the whole path with no gaps or overlaps).
    const double total = bd.ingressMs.mean() + bd.tierMs[0].mean()
        + bd.tierMs[1].mean() + bd.tierMs[2].mean() + bd.hopsMs.mean()
        + bd.egressMs.mean();
    EXPECT_NEAR(total, live.client->allResponsesMs().mean(),
                live.client->allResponsesMs().mean() * 0.02 + 0.5);
    // Every segment is non-negative and ingress/egress are non-zero.
    EXPECT_GT(bd.ingressMs.mean(), 0.0);
    EXPECT_GT(bd.egressMs.mean(), 0.0);
    EXPECT_GE(bd.hopsMs.min(), 0.0);

    live.client->resetStats();
    EXPECT_EQ(live.client->breakdown().ingressMs.count(), 0u);
}

TEST(RubisEndToEnd, DbWriteLockSerializesTransactions)
{
    // Saturate with write-heavy sessions; lock waits must appear and
    // every admitted transaction must eventually release the lock
    // (the client keeps completing requests).
    RubisClient::Params cp;
    cp.concurrentSessions = 32;
    cp.thinkTimeMean = 20 * msec;
    LiveRubis live(cp);
    live.client->start();
    live.tb.run(20 * sec);
    EXPECT_GT(live.server->dbLockWaitMs().count(), 10u);
    EXPECT_GT(live.client->completedRequests(), 100u);
}
