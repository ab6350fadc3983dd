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

#include <cstdio>
#include <limits>
#include <random>
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

/** HealthEvent::str()'s text as printf formats it. */
std::string
printfLine(const HealthEvent &ev)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "t=%.6fs %-13s observed=%.10g threshold=%.10g ",
                  toSeconds(ev.when), healthEventKindName(ev.kind),
                  ev.observed, ev.threshold);
    return buf + ev.subject;
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

TEST(HealthEvent, TextMatchesPrintfForEveryKind)
{
    const std::vector<Tick> whens = {0,
                                     1,
                                     499,
                                     500,
                                     501,
                                     1500,
                                     2500,
                                     999999499,
                                     999999500,
                                     999999501,
                                     25 * msec + 1,
                                     3600 * sec + 7,
                                     123456789012345,
                                     (Tick{1} << 50) - 1,
                                     Tick{1} << 50,
                                     (Tick{1} << 53) + 500,
                                     ~Tick{0}};
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> values = {
        0.0,  0.1,         1e-7,        -0.0,          1e300,
        5.0,  -2.5,        1e-12,       100.25,        9999999999.0,
        1e10, -9999999999, 123456789.0, 0.30000000001, inf,
        -inf, std::numeric_limits<double>::quiet_NaN()};
    for (int k = 0; k <= static_cast<int>(HealthEvent::Kind::abandon);
         ++k) {
        for (std::size_t i = 0; i < whens.size(); ++i) {
            for (std::size_t v = 0; v < values.size(); ++v) {
                HealthEvent ev;
                ev.kind = static_cast<HealthEvent::Kind>(k);
                ev.when = whens[i];
                ev.observed = values[v];
                ev.threshold = values[(v + i + 1) % values.size()];
                ev.subject = v % 2 ? "lane fab.1-2" : "";
                EXPECT_EQ(ev.str(), printfLine(ev));
            }
        }
    }
    // Random ticks of every magnitude, half microseconds included.
    std::mt19937_64 rng(23);
    for (int n = 0; n < 20000; ++n) {
        HealthEvent ev;
        ev.kind = HealthEvent::Kind::stall;
        ev.when = rng() >> (rng() % 64);
        if (n % 8 == 0)
            ev.when = ev.when / 1000 * 1000 + 500;
        ev.observed = static_cast<double>(rng() % 100000) / 8.0;
        ASSERT_EQ(ev.str(), printfLine(ev)) << ev.when;
    }
}

TEST(HealthMonitor, ReportLinesMatchPrintf)
{
    Simulator sim;
    MetricRegistry reg;
    Gauge &g = reg.gauge("g");
    HealthMonitor::Params p = fastParams();
    p.rules = {"g value < 10", "missing.metric value < 1"};
    HealthMonitor mon(sim, reg, p);
    const int lane = mon.lane("chan.a2b");
    mon.laneSentAt(lane, 1 * msec);
    g.set(20.0);
    mon.poll(100 * msec); // breach + stall
    g.set(0.5);
    mon.laneDeliveredAt(lane, 120 * msec);
    mon.poll(130 * msec); // recover
    mon.noteAbandonAt("fabric:tune,dst=4", 140 * msec);
    ASSERT_EQ(mon.events().size(), 5u);
    ASSERT_EQ(mon.ruleErrors().size(), 1u);

    char head[160];
    std::snprintf(head, sizeof(head),
                  "[health] rules %zu, lanes %zu, events %zu "
                  "(unhealthy %llu), flight retained %zu "
                  "(dropped %llu)\n",
                  mon.rules().size(), std::size_t{1}, mon.events().size(),
                  static_cast<unsigned long long>(mon.breaches()),
                  mon.flight().retained(),
                  static_cast<unsigned long long>(mon.flight().dropped()));
    std::string want = head;
    want += "  rule-error: " + mon.ruleErrors()[0] + "\n";
    for (const HealthEvent &ev : mon.events())
        want += "  " + printfLine(ev) + "\n";
    EXPECT_EQ(mon.healthReport(), want);
}

TEST(HealthMonitor, RetireLanesExceptRetiresInLaneOrder)
{
    Simulator sim;
    MetricRegistry reg;
    HealthMonitor mon(sim, reg, fastParams()); // stallTimeout 50ms
    std::vector<int> lanes;
    for (const char *name : {"l0", "l1", "l2", "l3", "l4"})
        lanes.push_back(mon.lane(name));
    for (const int l : lanes)
        mon.laneSentAt(l, 0);
    mon.poll(100 * msec); // all five stall
    ASSERT_EQ(mon.events().size(), 5u);

    // Live in scrambled order; lanes 4 and 1 depart and emit their
    // balancing recovers in lane order, then stay retired.
    mon.retireLanesExcept({lanes[3], lanes[0], lanes[2]});
    mon.retireLanesExcept({lanes[3], lanes[0], lanes[2]});
    ASSERT_EQ(mon.events().size(), 7u);
    EXPECT_EQ(mon.events()[5].kind, HealthEvent::Kind::stallRecover);
    EXPECT_EQ(mon.events()[5].subject, "lane l1");
    EXPECT_EQ(mon.events()[6].subject, "lane l4");
}

TEST(HealthMonitor, LaneIdsFollowFirstRegistrationAndSurviveRetire)
{
    Simulator sim;
    MetricRegistry reg;
    HealthMonitor mon(sim, reg, fastParams());
    // Fabric-style names, several sharing long prefixes.
    std::vector<std::string> names;
    for (int i = 0; i < 300; ++i)
        names.push_back("fabric." + std::to_string(i % 17) + ">"
                        + std::to_string(i));
    for (std::size_t i = 0; i < names.size(); ++i)
        ASSERT_EQ(mon.lane(names[i]), static_cast<int>(i));

    // Registering again, in any order, returns the first id.
    for (std::size_t i = names.size(); i-- > 0;)
        EXPECT_EQ(mon.lane(names[i]), static_cast<int>(i));

    // A retired lane keeps its id, is found again by name, and fresh
    // traffic revives it; a new name takes the next id.
    mon.laneSentAt(mon.lane(names[5]), 0);
    mon.poll(100 * msec); // lane 5 stalls
    mon.retireLane(5);
    ASSERT_EQ(mon.events().size(), 2u); // stall, balancing recover
    EXPECT_EQ(mon.lane(names[5]), 5);
    mon.laneSentAt(mon.lane(names[5]), 200 * msec);
    mon.poll(300 * msec); // revived by the send, so it stalls again
    ASSERT_EQ(mon.events().size(), 3u);
    EXPECT_EQ(mon.events()[2].kind, HealthEvent::Kind::stall);
    EXPECT_EQ(mon.events()[2].subject, "lane " + names[5]);
    EXPECT_EQ(mon.lane("fabric.new"), 300);
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
