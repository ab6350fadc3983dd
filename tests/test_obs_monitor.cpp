/**
 * @file
 * Tests for the online health monitor (obs/monitor.hpp): edge-
 * triggered SLO breach/recover transitions, windowed rate rules,
 * send-gated lane stall detection, the flight recorder's bounded
 * ring and breach-triggered snapshot, and the end-to-end acceptance
 * scenario — a coordination-channel burst outage on an un-traced
 * platform run must fire a stall watchdog and leave a Perfetto
 * flight dump whose window contains the incident.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "interconnect/faults.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/tracecheck.hpp"
#include "platform/scenarios.hpp"
#include "sim/simulator.hpp"

using namespace corm::sim;
using namespace corm::obs;

namespace {

HealthMonitor::Params
fastParams()
{
    HealthMonitor::Params p;
    p.samplePeriod = 10 * msec;
    p.stallTimeout = 50 * msec;
    return p;
}

} // namespace

TEST(HealthMonitor, BreachAndRecoverAreEdgeTriggered)
{
    Simulator sim;
    MetricRegistry reg;
    Gauge &depth = reg.gauge("queue.depth");

    HealthMonitor::Params p = fastParams();
    p.rules = {"queue.depth value < 100"};
    HealthMonitor mon(sim, reg, p);
    ASSERT_EQ(mon.rules().size(), 1u);
    ASSERT_TRUE(mon.ruleErrors().empty());
    mon.start();

    int policyCalls = 0;
    mon.setPolicyCallback(
        [&policyCalls](const HealthEvent &) { ++policyCalls; });

    depth.set(5.0);
    sim.runUntil(50 * msec);
    EXPECT_TRUE(mon.healthy());
    EXPECT_EQ(mon.breaches(), 0u);

    depth.set(500.0);
    sim.runUntil(100 * msec);
    EXPECT_EQ(mon.breaches(), 1u);
    EXPECT_FALSE(mon.healthy());
    EXPECT_EQ(policyCalls, 1);

    // Still over threshold: no second breach event (edge, not level).
    sim.runUntil(200 * msec);
    EXPECT_EQ(mon.breaches(), 1u);

    depth.set(5.0);
    sim.runUntil(300 * msec);
    ASSERT_GE(mon.events().size(), 2u);
    EXPECT_EQ(mon.events().back().kind, HealthEvent::Kind::recover);
    EXPECT_EQ(mon.breaches(), 1u); // recover is not unhealthy
    EXPECT_EQ(policyCalls, 1);     // policy sees unhealthy only

    // The report names the rule in both transitions.
    const std::string report = mon.healthReport();
    EXPECT_NE(report.find("breach"), std::string::npos) << report;
    EXPECT_NE(report.find("recover"), std::string::npos);
    EXPECT_NE(report.find("queue.depth"), std::string::npos);
}

TEST(HealthMonitor, RateRuleUsesSampledWindow)
{
    Simulator sim;
    MetricRegistry reg;
    corm::obs::Counter &c = reg.counter("chan.retries");

    HealthMonitor::Params p = fastParams();
    p.rules = {"chan.retries rate < 100 window 100ms"};
    HealthMonitor mon(sim, reg, p);
    mon.start();

    // Quiet channel: no breach.
    sim.runUntil(200 * msec);
    EXPECT_EQ(mon.breaches(), 0u);

    // Retry storm: +50 per 10ms sample = 5000/s >> 100/s.
    PeriodicEvent storm(sim, 10 * msec, [&c] { c.add(50); });
    sim.runUntil(400 * msec);
    EXPECT_GE(mon.breaches(), 1u);
    EXPECT_EQ(mon.events().front().kind, HealthEvent::Kind::breach);
    EXPECT_GT(mon.events().front().observed, 100.0);
}

TEST(HealthMonitor, UnknownMetricReportsOnceAndNeverBreaches)
{
    Simulator sim;
    MetricRegistry reg;
    HealthMonitor::Params p = fastParams();
    p.rules = {"no.such.metric value < 1"};
    HealthMonitor mon(sim, reg, p);
    mon.start();
    sim.runUntil(500 * msec);
    EXPECT_EQ(mon.breaches(), 0u);
    ASSERT_EQ(mon.ruleErrors().size(), 1u);
    EXPECT_NE(mon.ruleErrors()[0].find("no.such.metric"),
              std::string::npos);

    // A malformed rule is rejected up front, not at tick time.
    std::string err;
    EXPECT_FALSE(mon.addRule("broken rule", &err));
    EXPECT_FALSE(err.empty());
}

TEST(HealthMonitor, StallIsSendGatedAndRecovers)
{
    Simulator sim;
    MetricRegistry reg;
    HealthMonitor mon(sim, reg, fastParams()); // stallTimeout 50ms
    mon.start();

    const int lane = mon.lane("chan.a2b");

    // Idle lane: never stalls no matter how long.
    sim.runUntil(500 * msec);
    EXPECT_EQ(mon.breaches(), 0u);

    // A send answered promptly: no stall.
    sim.scheduleAt(510 * msec, [&] { mon.laneSent(lane); });
    sim.scheduleAt(520 * msec, [&] { mon.laneDelivered(lane); });
    sim.runUntil(700 * msec);
    EXPECT_EQ(mon.breaches(), 0u);

    // A send with no delivery for > stallTimeout: stall fires, and
    // the eventual delivery emits the matching stallRecover.
    sim.scheduleAt(710 * msec, [&] { mon.laneSent(lane); });
    sim.scheduleAt(900 * msec, [&] { mon.laneDelivered(lane); });
    sim.runUntil(1 * sec);
    EXPECT_EQ(mon.breaches(), 1u);
    bool sawStall = false, sawRecover = false;
    for (const HealthEvent &e : mon.events()) {
        if (e.kind == HealthEvent::Kind::stall
            && e.subject == "lane chan.a2b")
            sawStall = true;
        if (e.kind == HealthEvent::Kind::stallRecover)
            sawRecover = true;
    }
    EXPECT_TRUE(sawStall);
    EXPECT_TRUE(sawRecover);

    // noteAbandon is an unhealthy event in its own right.
    mon.noteAbandon("reg:entity=3");
    EXPECT_EQ(mon.breaches(), 2u);
    EXPECT_EQ(mon.events().back().kind, HealthEvent::Kind::abandon);
}

TEST(FlightRecorder, BoundedRingAndBreachSnapshot)
{
    Simulator sim;
    MetricRegistry reg;
    Gauge &g = reg.gauge("g");

    HealthMonitor::Params p = fastParams();
    p.flightCapacity = 64;
    p.rules = {"g value < 10"};
    HealthMonitor mon(sim, reg, p);
    mon.start();

    // Flood the flight ring far past capacity; retention is bounded
    // and the retained window is the most recent events.
    TraceRecorder &ring = mon.flight().recorder();
    const int trk = ring.track("test", "flood");
    for (int i = 0; i < 1000; ++i) {
        std::string name = "e";
        name += std::to_string(i);
        ring.instant(trk, i * usec, name, "t");
    }
    EXPECT_LE(mon.flight().retained(), 2 * 64u);
    EXPECT_GT(mon.flight().dropped(), 0u);

    EXPECT_FALSE(mon.flight().hasSnapshot());
    g.set(100.0);
    sim.runUntil(100 * msec);
    ASSERT_TRUE(mon.flight().hasSnapshot());
    EXPECT_EQ(mon.flight().snapshotReason(),
              "breach:g value < 10 window 1s");

    // The dump is valid JSON and its window contains the breach
    // instant the monitor emitted before snapshotting.
    const std::string dump = mon.flight().snapshotJson();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(corm::obs::parseJson(dump, doc, &err)) << err;
    EXPECT_NE(dump.find("breach:"), std::string::npos);

    // Later breaches do not overwrite the first incident's window.
    g.set(5.0);
    sim.runUntil(200 * msec);
    g.set(100.0);
    sim.runUntil(300 * msec);
    EXPECT_GE(mon.flight().snapshotRequests(), 2u);
    EXPECT_EQ(mon.flight().snapshotJson(), dump);
}

// The PR's acceptance scenario: an un-traced platform run through a
// coordination-channel burst outage must notice *during* the run
// (stall watchdog) and leave a flight dump containing the incident.
TEST(HealthMonitor, OutageFiresWatchdogAndFlightDumpOnUntracedRun)
{
    corm::platform::RubisScenarioConfig cfg;
    cfg.coordination = true; // steady tune traffic on the channel
    cfg.warmup = 500 * msec;
    cfg.measure = 3 * sec;
    cfg.testbed.monitor = true; // note: no trace recorder attached
    corm::interconnect::FaultPlanParams faults;
    faults.outages.push_back({2 * sec, 300 * msec});
    cfg.testbed.coordFaults = faults;

    std::uint64_t breaches = 0;
    std::vector<HealthEvent> events;
    std::string flightJson, flightReason, report;
    cfg.inspect = [&](corm::platform::Testbed &tb) {
        HealthMonitor *mon = tb.monitor();
        ASSERT_NE(mon, nullptr);
        breaches = mon->breaches();
        events = mon->events();
        report = mon->healthReport();
        if (mon->flight().hasSnapshot()) {
            flightJson = mon->flight().snapshotJson();
            flightReason = mon->flight().snapshotReason();
        }
    };
    corm::platform::runRubisScenario(cfg);

    // The watchdog fired during the outage...
    EXPECT_GE(breaches, 1u);
    bool sawStall = false;
    for (const HealthEvent &e : events) {
        if (e.kind != HealthEvent::Kind::stall)
            continue;
        sawStall = true;
        EXPECT_GE(e.when, 2 * sec);
        EXPECT_LE(e.when, 2 * sec + 600 * msec);
    }
    EXPECT_TRUE(sawStall) << report;
    EXPECT_NE(flightReason.find("stall"), std::string::npos)
        << flightReason;

    // ...and the flight dump parses, is non-trivial, and its window
    // contains the stall instant (ts in Chrome traces is in us).
    ASSERT_FALSE(flightJson.empty());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(corm::obs::parseJson(flightJson, doc, &err)) << err;
    const JsonValue *evs = doc.get("traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_TRUE(evs->isArray());
    EXPECT_GT(evs->items.size(), 10u);
    bool stallInWindow = false;
    for (const JsonValue &e : evs->items) {
        const JsonValue *name = e.get("name");
        const JsonValue *ts = e.get("ts");
        if (!name || !name->isString() || !ts || !ts->isNumber())
            continue;
        if (name->str.rfind("stall:", 0) == 0 && ts->num >= 2.0e6
            && ts->num <= 2.6e6)
            stallInWindow = true;
    }
    EXPECT_TRUE(stallInWindow) << flightJson.substr(0, 2000);
}
