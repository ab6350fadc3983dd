#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "platform/harness.hpp"
#include "platform/scenarios.hpp"
#include "platform/testbed.hpp"
#include "sim/random.hpp"

namespace cormbench {

namespace {

using Clock = std::chrono::steady_clock;
using corm::platform::FabricScenarioConfig;
using corm::platform::FabricScenarioResult;
using corm::platform::RubisResult;
using corm::platform::RubisScenarioConfig;
namespace sim = corm::sim;

double
nsSince(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** Opens and closes spans when a log is attached; inert otherwise. */
struct SpanScope
{
    SpanLog *log;
    int trial;

    int
    open(const char *name, int parent) const
    {
        return log ? log->open(name, parent, trial) : -1;
    }

    void
    close(int id) const
    {
        if (log && id >= 0)
            log->close(id);
    }
};

//
// Fabric workloads
//

// Each fabric trial derives its fault streams and churn plan from the
// trial seed, so the same seed replays the same weather and churn.
constexpr std::uint64_t faultSalt = 0xfa017ULL;
constexpr std::uint64_t churnSalt = 0xc4a12ULL;

std::vector<FabricScenarioConfig::ChurnEvent>
churnPlan(std::uint64_t seed, int islands, int count,
          const FabricScenarioConfig &cfg)
{
    using Ev = FabricScenarioConfig::ChurnEvent;
    sim::Rng rng(sim::SplitMix64(seed ^ churnSalt).next());
    std::vector<Ev> plan;
    plan.reserve(static_cast<std::size_t>(count));
    const auto others = static_cast<std::uint64_t>(islands - 1);
    for (int i = 0; i < count; ++i) {
        Ev ev;
        switch (rng.uniformInt(4)) {
          case 0: ev.kind = Ev::Kind::join; break;
          case 1: ev.kind = Ev::Kind::leave; break;
          case 2: ev.kind = Ev::Kind::crash; break;
          default: ev.kind = Ev::Kind::migrate; break;
        }
        ev.at = static_cast<sim::Tick>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.workloadSpan)));
        ev.island = 1 + static_cast<int>(rng.uniformInt(others));
        ev.dstIsland = 1 + static_cast<int>(rng.uniformInt(others));
        ev.tier = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.tiers)));
        plan.push_back(ev);
    }
    return plan;
}

FabricScenarioConfig
fabricConfig(Workload w, Scale scale, std::uint64_t seed)
{
    const bool small = scale == Scale::small;
    const FabricShape shape = fabricShape(w);
    FabricScenarioConfig cfg;
    cfg.islands = small ? 16 : shape.islands;
    cfg.shards = 1;
    cfg.firstIslandId = 0;
    cfg.fabric = shape.params;
    cfg.triggerProb = 0.02;
    cfg.settleLimit = 500 * sim::msec;
    cfg.convergencePoll = 2 * sim::msec;
    cfg.seed = seed;
    if (w == Workload::fabricTreeDense) {
        cfg.tunesPerPair = small ? 20 : 150;
        cfg.monitorLanes = false;
    } else {
        cfg.tunesPerPair = small ? 10 : 40;
        cfg.monitorLanes = true;
        cfg.fabric.faults.seed = sim::SplitMix64(seed ^ faultSalt).next();
        cfg.churn = churnPlan(seed, cfg.islands, small ? 8 : 32, cfg);
    }
    return cfg;
}

const char *
fabricFailure(const FabricScenarioResult &r, bool churn)
{
    if (!r.deltaSumsExact)
        return "applied weights differ from the issued deltas";
    if (!r.converged)
        return "fabric did not converge";
    if (!r.bindingsOk)
        return "binding announcements unaccounted";
    if (!r.triggersAccounted)
        return "triggers neither acked nor abandoned";
    if (r.tunesLost != 0)
        return "tunes lost (neither applied nor abandoned)";
    // Without churn every destination stays attached, so nothing may
    // be unroutable. Under churn, sends to a departed island are
    // unroutable by design and are checked through the ledger above.
    if (!churn && r.fabricDropped != 0)
        return "unroutable fabric sends";
    return nullptr;
}

TrialOutcome
runFabricTrial(Workload w, Scale scale, std::uint64_t seed,
               SpanScope sc, bool monitorTwin)
{
    FabricScenarioConfig cfg = fabricConfig(w, scale, seed);
    if (monitorTwin)
        cfg.monitorLanes = !cfg.monitorLanes;

    TrialOutcome o;
    const int sTrial = sc.open("trial", -1);
    const int sSetup = sc.open("scenario.setup", sTrial);
    int sRun = -1;
    const auto t0 = Clock::now();
    auto tWire = t0;
    cfg.wire = [&](corm::coord::CoordFabric &) {
        tWire = Clock::now();
        sc.close(sSetup);
        sRun = sc.open("scenario.run", sTrial);
    };
    const FabricScenarioResult r = corm::platform::runFabricScenario(cfg);
    sc.close(sRun);
    const int sCollect = sc.open("scenario.collect", sTrial);

    TrialCounts &c = o.counts;
    c.events = r.eventsExecuted;
    // The workload is scheduled up front and drains about linearly,
    // so the kernel holds half of it on average.
    c.liveDepth = (r.logicalTunes + r.triggersSent) / 2;
    c.windows = r.shardWindows;
    c.boundaryMsgs = r.boundaryMessages;
    c.wireMsgs = r.wireMessages;
    c.wireTunes = r.wireTuneMessages;
    c.appliedTunes = r.appliedTunes;
    c.hubRelays = r.hubRelays;
    c.aggFolded = r.aggFolded;
    c.linkDrops = r.linkDrops;
    c.linkReplays = r.linkReplays;
    c.abandoned = r.abandonedWire;
    c.duplicates = r.duplicates;
    c.reparents = r.churnReparents;
    c.migForwards = r.migForwards;
    c.triggersSent = r.triggersSent;
    c.triggersAcked = r.triggersAcked;
    c.healthBreaches = r.healthBreaches;
    c.hubWireMsgs = r.hubWireMessages;
    c.convergenceMs = r.convergenceMs;

    Fnv h;
    h.mix(r.digest);
    c.mixInto(h);
    h.mix(r.logicalTunes);
    h.mix(r.abandonedTunes);
    h.mix(r.triggersAbandoned);
    h.mix(r.triggersApplied);
    h.mix(r.bindingsLearned);
    h.mix(r.churnSkipped);
    o.digest = h.value();

    const char *why = fabricFailure(r, !cfg.churn.empty());
    o.ok = why == nullptr;
    if (why)
        o.failure = why;
    sc.close(sCollect);
    sc.close(sTrial);
    const auto t1 = Clock::now();
    o.wallNs = nsSince(t0, t1);
    o.setupNs = nsSince(t0, tWire);
    return o;
}

//
// RUBiS Table 2 pair
//

RubisScenarioConfig
rubisConfig(Scale scale, std::uint64_t seed, bool coordination)
{
    RubisScenarioConfig cfg;
    cfg.coordination = coordination;
    cfg.warmup = (scale == Scale::small ? 1 : 20) * sim::sec;
    cfg.measure = (scale == Scale::small ? 5 : 300) * sim::sec;
    corm::platform::applyTrialSeed(cfg, seed);
    return cfg;
}

/** Platform counters read through the scenario's inspect hook. */
struct PlatformTaps
{
    std::uint64_t pending = 0;
    std::uint64_t channelMsgs = 0;
    std::uint64_t ixpPackets = 0;
    std::uint64_t boosts = 0;
};

void
mixRubis(Fnv &h, const RubisResult &r)
{
    for (const auto &row : r.types) {
        h.mix(row.count);
        h.mix(row.meanMs);
        h.mix(row.maxMs);
    }
    h.mix(r.throughputRps);
    h.mix(r.sessionsCompleted);
    h.mix(r.avgSessionSec);
    h.mix(r.platformEfficiency);
    h.mix(r.tunesSent);
    h.mix(r.tunesApplied);
    h.mix(r.meanResponseMs);
    h.mix(r.webWeight);
    h.mix(r.appWeight);
    h.mix(r.dbWeight);
    h.mix(r.eventsExecuted);
}

const char *
rubisFailure(const RubisResult &base, const RubisResult &coord)
{
    for (const RubisResult *r : {&base, &coord}) {
        if (r->eventsExecuted == 0 || r->throughputRps <= 0.0
            || r->sessionsCompleted == 0)
            return "RUBiS run served no traffic";
        if (r->regsPending != 0 || r->regsAbandoned != 0)
            return "entity registrations did not all reach the IXP";
    }
    if (base.tunesSent != 0)
        return "base configuration sent tunes";
    // The window can close with a few tunes still on the 120 us
    // channel; more than that missing means the channel lost them.
    if (coord.tunesSent == 0 || coord.tunesApplied > coord.tunesSent
        || coord.tunesSent - coord.tunesApplied > 16)
        return "coordinated run lost tunes on a perfect channel";
    return nullptr;
}

TrialOutcome
runRubisTrial(Scale scale, std::uint64_t seed, SpanScope sc,
              bool monitorTwin)
{
    TrialOutcome o;
    const auto t0 = Clock::now();
    const int sTrial = sc.open("trial", -1);
    RubisResult res[2];
    PlatformTaps taps[2];
    double simSeconds = 0.0;
    for (int i = 0; i < 2; ++i) {
        RubisScenarioConfig cfg = rubisConfig(scale, seed, i == 1);
        cfg.testbed.monitor = monitorTwin;
        simSeconds += sim::toSeconds(cfg.warmup + cfg.measure);
        const int sRun = sc.open("scenario.run", sTrial);
        int sCollect = -1;
        PlatformTaps &t = taps[i];
        cfg.inspect = [&](corm::platform::Testbed &tb) {
            sc.close(sRun);
            sCollect = sc.open("scenario.collect", sTrial);
            t.pending = tb.sim().pendingEvents();
            t.channelMsgs = tb.channel().stats().sent.value();
            t.ixpPackets = tb.ixp().stats().wireRx.value()
                + tb.ixp().stats().wireTx.value();
            t.boosts = tb.scheduler().stats().boosts.value();
        };
        res[i] = corm::platform::runRubisScenario(cfg);
        sc.close(sCollect);
    }
    const int sCollect = sc.open("scenario.collect", sTrial);
    const RubisResult &base = res[0], &coord = res[1];

    TrialCounts &c = o.counts;
    for (int i = 0; i < 2; ++i) {
        c.events += res[i].eventsExecuted;
        c.liveDepth = std::max(c.liveDepth, taps[i].pending);
        c.channelMsgs += taps[i].channelMsgs;
        c.ixpPackets += taps[i].ixpPackets;
        c.boosts += taps[i].boosts;
        for (const auto &row : res[i].types)
            c.requests += row.count;
    }
    c.channelTunes = coord.tunesApplied;
    c.simSeconds = simSeconds;
    c.baseRps = base.throughputRps;
    c.coordRps = coord.throughputRps;

    Fnv h;
    mixRubis(h, base);
    mixRubis(h, coord);
    c.mixInto(h);
    o.digest = h.value();

    const char *why = rubisFailure(base, coord);
    o.ok = why == nullptr;
    if (why)
        o.failure = why;
    sc.close(sCollect);
    sc.close(sTrial);
    o.wallNs = nsSince(t0, Clock::now());
    return o;
}

} // namespace

std::optional<Workload>
parseWorkload(std::string_view name)
{
    for (Workload w : {Workload::rubisPaper, Workload::fabricTreeDense,
                       Workload::fabricChurnFaulty}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::rubisPaper: return "rubis_paper";
      case Workload::fabricTreeDense: return "fabric_tree_dense";
      case Workload::fabricChurnFaulty: return "fabric_churn_faulty";
    }
    return "?";
}

FabricShape
fabricShape(Workload w)
{
    FabricShape s;
    s.params.topology = corm::coord::FabricTopology::tree;
    s.params.treeFanout = 4;
    s.params.hopLatency = 500 * sim::usec;
    s.params.aggWindow = 300 * sim::usec;
    if (w == Workload::fabricChurnFaulty) {
        s.islands = 64;
        s.params.faults.lossProb = 0.02;
        s.params.faults.dupProb = 0.01;
    } else {
        s.islands = 256;
    }
    return s;
}

void
TrialCounts::add(const TrialCounts &o)
{
    events += o.events;
    liveDepth = std::max(liveDepth, o.liveDepth);
    windows += o.windows;
    boundaryMsgs += o.boundaryMsgs;
    wireMsgs += o.wireMsgs;
    wireTunes += o.wireTunes;
    appliedTunes += o.appliedTunes;
    hubRelays += o.hubRelays;
    aggFolded += o.aggFolded;
    linkDrops += o.linkDrops;
    linkReplays += o.linkReplays;
    abandoned += o.abandoned;
    duplicates += o.duplicates;
    reparents += o.reparents;
    migForwards += o.migForwards;
    triggersSent += o.triggersSent;
    triggersAcked += o.triggersAcked;
    healthBreaches += o.healthBreaches;
    hubWireMsgs += o.hubWireMsgs;
    convergenceMs += o.convergenceMs;
    channelMsgs += o.channelMsgs;
    channelTunes += o.channelTunes;
    ixpPackets += o.ixpPackets;
    boosts += o.boosts;
    requests += o.requests;
    simSeconds += o.simSeconds;
    baseRps += o.baseRps;
    coordRps += o.coordRps;
}

void
TrialCounts::mixInto(Fnv &h) const
{
    for (std::uint64_t v :
         {events, liveDepth, windows, boundaryMsgs, wireMsgs, wireTunes,
          appliedTunes, hubRelays, aggFolded, linkDrops, linkReplays,
          abandoned, duplicates, reparents, migForwards, triggersSent,
          triggersAcked, healthBreaches, hubWireMsgs, channelMsgs,
          channelTunes, ixpPackets, boosts, requests})
        h.mix(v);
    h.mix(convergenceMs);
    h.mix(baseRps);
    h.mix(coordRps);
}

TrialOutcome
runTrial(Workload w, Scale scale, std::uint64_t seed, SpanLog *spans,
         int trialId, bool monitorTwin)
{
    const SpanScope sc{spans, trialId};
    if (w == Workload::rubisPaper)
        return runRubisTrial(scale, seed, sc, monitorTwin);
    return runFabricTrial(w, scale, seed, sc, monitorTwin);
}

double
rubisSetupSeconds(std::uint64_t seed, SpanLog *spans, int sampleId)
{
    RubisScenarioConfig cfg = rubisConfig(Scale::full, seed, true);
    cfg.warmup = 0;
    cfg.measure = 0;
    const SpanScope sc{spans, sampleId};
    const int s = sc.open("scenario.setup", -1);
    const auto t0 = Clock::now();
    corm::platform::runRubisScenario(cfg);
    const auto t1 = Clock::now();
    sc.close(s);
    return nsSince(t0, t1) * 1e-9;
}

std::uint64_t
pinnedDigest(Workload w)
{
    // Recorded from the full-size canary trial (seed canarySeed). A
    // change that moves any of these changed simulated behaviour.
    switch (w) {
      case Workload::rubisPaper: return 0x51c1b941fb5c77c0ULL;
      case Workload::fabricTreeDense: return 0xf1fdb630052861fdULL;
      case Workload::fabricChurnFaulty: return 0xa16b7ea254ba028aULL;
    }
    return 0;
}

} // namespace cormbench
