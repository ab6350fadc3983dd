/**
 * @file
 * Tests for the observability subsystem: the typed MetricRegistry
 * (names/labels, kind collisions, histogram bucket edges), the
 * TraceRecorder (JSON well-formedness against our own parser, flow
 * dedup, determinism), causal span propagation across a faulty
 * coordination channel, and the per-component log configuration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coord/channel.hpp"
#include "coord/reliable.hpp"
#include "interconnect/faults.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "obs/tracecheck.hpp"
#include "platform/scenarios.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"

using namespace corm::sim;
using namespace corm::obs;
using namespace corm::coord;

// Counter exists in both corm::sim (component stats) and corm::obs
// (registry-owned metrics); these tests exercise the obs one.
// obs::Histogram is the only histogram.
using ObsCounter = corm::obs::Counter;

//
// MetricRegistry
//

TEST(Metrics, FullNameSortsLabels)
{
    EXPECT_EQ(MetricRegistry::fullName("a.b", {}), "a.b");
    EXPECT_EQ(MetricRegistry::fullName(
                  "a.b", {{"z", "1"}, {"island", "ixp"}}),
              "a.b{island=ixp,z=1}");
}

TEST(Metrics, OwnedMetricsAreIdempotent)
{
    MetricRegistry m;
    ObsCounter &c1 = m.counter("x.count", {{"k", "v"}});
    c1.add(3);
    ObsCounter &c2 = m.counter("x.count", {{"k", "v"}});
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.has("x.count", {{"k", "v"}}));
    EXPECT_FALSE(m.has("x.count"));
}

TEST(Metrics, KindCollisionThrows)
{
    MetricRegistry m;
    m.counter("x");
    EXPECT_THROW(m.gauge("x"), std::logic_error);
    EXPECT_THROW(m.histogram("x"), std::logic_error);
    EXPECT_THROW(m.gaugeFn("x", {}, [] { return 0.0; }),
                 std::logic_error);
    // Same kind is fine; callback re-registration replaces.
    std::uint64_t v = 7;
    m.counterFn("x", {}, [&v] { return v; });
    std::ostringstream out;
    m.writeText(out);
    EXPECT_EQ(out.str(), "x 7\n");
}

TEST(Metrics, HistogramBucketEdges)
{
    // Bucket 0 holds values < 1 (and negatives/NaN); bucket i holds
    // [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketFor(-5.0), 0u);
    EXPECT_EQ(Histogram::bucketFor(0.0), 0u);
    EXPECT_EQ(Histogram::bucketFor(0.999), 0u);
    EXPECT_EQ(Histogram::bucketFor(1.0), 1u);
    EXPECT_EQ(Histogram::bucketFor(1.999), 1u);
    EXPECT_EQ(Histogram::bucketFor(2.0), 2u);
    EXPECT_EQ(Histogram::bucketFor(3.999), 2u);
    EXPECT_EQ(Histogram::bucketFor(4.0), 3u);
    EXPECT_EQ(Histogram::bucketFor(1024.0), 11u);
    EXPECT_EQ(Histogram::bucketFor(1e300), Histogram::bucketCount - 1);

    EXPECT_EQ(Histogram::bucketUpperEdge(0), 1.0);
    EXPECT_EQ(Histogram::bucketUpperEdge(1), 2.0);
    EXPECT_EQ(Histogram::bucketUpperEdge(11), 2048.0);

    Histogram h;
    h.record(0.5);
    h.record(1.0);
    h.record(1.5);
    h.record(100.0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(7), 1u); // 100 in [64, 128)
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_EQ(h.usedBuckets(), 8u);
}

TEST(Metrics, SerializationIsSortedAndParses)
{
    MetricRegistry m;
    m.counter("b.second").add(2);
    m.counter("a.first").add(1);
    m.gauge("c.gauge").set(1.5);
    m.histogram("d.hist").record(3.0);

    std::ostringstream out;
    m.writeText(out);
    const std::string text = out.str();
    EXPECT_LT(text.find("a.first 1"), text.find("b.second 2"));
    EXPECT_NE(text.find("c.gauge 1.5"), std::string::npos);
    EXPECT_NE(text.find("d.hist count=1"), std::string::npos);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(m.jsonSnapshot(), doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.get("a.first"), nullptr);
    EXPECT_DOUBLE_EQ(doc.get("a.first")->num, 1.0);
    const JsonValue *hist = doc.get("d.hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_TRUE(hist->isObject());
    EXPECT_DOUBLE_EQ(hist->get("count")->num, 1.0);
}

//
// TraceRecorder
//

TEST(Trace, JsonWellFormedAgainstOwnParser)
{
    TraceRecorder rec;
    const int t1 = rec.track("islandA", "sched");
    const int t2 = rec.track("islandB", "policy");
    EXPECT_NE(t1, t2);
    EXPECT_EQ(rec.track("islandA", "sched"), t1);

    const TraceId id = rec.newFlow();
    rec.complete(t1, 1000, 500, "work", "cat",
                 {{"k", std::uint64_t(7)}, {"s", "va\"lue"}});
    rec.instant(t2, 1500, "mark", "cat");
    rec.counter(t2, 2000, "queue", "bytes", 42.0);
    rec.span(t1, 1000, id, FlowStamp::decide(1000));
    rec.span(t2, 1500, id, {FlowMark::checkpoint});
    rec.span(t2, 2000, id, {FlowMark::checkpoint}, true);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(rec.json(), doc, &err)) << err;
    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // 4 metadata (2 tracks x process+thread names) + 6 events.
    EXPECT_EQ(events->items.size(), 10u);
    std::size_t flows = 0;
    for (const auto &e : events->items) {
        const std::string &ph = e.get("ph")->str;
        if (ph == "s" || ph == "t" || ph == "f") {
            ++flows;
            EXPECT_DOUBLE_EQ(e.get("id")->num,
                             static_cast<double>(id));
        }
        if (ph == "X") {
            ASSERT_NE(e.get("dur"), nullptr);
        }
    }
    EXPECT_EQ(flows, 3u);
    ASSERT_NE(doc.get("displayTimeUnit"), nullptr);
}

TEST(Trace, DisabledRecorderRecordsNothing)
{
    TraceRecorder rec;
    rec.setEnabled(false);
    const int trk = rec.track("p", "t");
    rec.complete(trk, 0, 1, "x", "c");
    rec.span(trk, 0, rec.newFlow(), FlowStamp::decide(0));
    EXPECT_TRUE(rec.events().empty());
    EXPECT_FALSE(CORM_TRACE_ACTIVE(
        static_cast<TraceRecorder *>(nullptr)));
}

TEST(Trace, DuplicateFlowEndsDowngradeToSteps)
{
    TraceRecorder rec;
    const int trk = rec.track("p", "t");
    const TraceId id = rec.newFlow();
    rec.span(trk, 0, id, FlowStamp::decide(0));
    rec.span(trk, 10, id, {FlowMark::checkpoint}, true);
    rec.span(trk, 20, id, {FlowMark::checkpoint}, true); // duplicated final leg
    ASSERT_EQ(rec.events().size(), 3u);
    EXPECT_EQ(rec.events()[1].phase, 'f');
    EXPECT_EQ(rec.events()[2].phase, 't');
}

TEST(Trace, FlowStampsSerializeAndSurviveAbsorb)
{
    TraceRecorder rec;
    const int trk = rec.track("fabric", "fabric.0-1");
    const TraceId id = rec.newFlow();
    rec.span(trk, 1000, id, FlowStamp::decide(1000));
    rec.span(trk, 1500, id, FlowStamp::hop(true, 121500, true));
    rec.span(trk, 121500, id, {FlowMark::fold}, true);

    // Written into each flow event's args ...
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(rec.json(), doc, &err)) << err;
    std::vector<FlowStamp> parsed;
    for (const auto &e : doc.get("traceEvents")->items) {
        FlowStamp st;
        if (e.get("id") && flowStampFromArgs(e.get("args"), st))
            parsed.push_back(st);
    }
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0].mark, FlowMark::decide);
    EXPECT_EQ(parsed[0].end, 1000u);
    EXPECT_EQ(parsed[1].mark, FlowMark::ack);
    EXPECT_EQ(parsed[1].end, 121500u);
    EXPECT_TRUE(parsed[1].replay);
    EXPECT_EQ(parsed[2].mark, FlowMark::fold);

    // ... and carried through the shard merge's absorb.
    TraceRecorder merged;
    for (const TraceEvent &e : rec.events())
        merged.absorb(e, "fabric", "fabric.0-1");
    ASSERT_EQ(merged.events().size(), 3u);
    EXPECT_EQ(merged.events()[1].stamp.mark, FlowMark::ack);
    EXPECT_EQ(merged.events()[1].stamp.end, 121500u);
    EXPECT_EQ(merged.events()[2].phase, 'f');
    EXPECT_EQ(merged.json(), rec.json());
}

// Arguments keep their type until the trace is written, and then
// read exactly as the recorder's eager formatting wrote them:
// "%.10g" for doubles, decimal integers, escaped quoted strings.
TEST(Trace, TypedArgumentsWriteTheirOldText)
{
    const auto g10 = [](double v) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.10g", v);
        return std::string(buf);
    };
    const std::vector<double> doubles = {
        0.1, 1e-7, -0.0, 1e300, 42.0, -3.0, 1.0 / 3.0, 123456789012.0,
        2.5e-300, 65536.0};
    std::vector<TraceArg> args;
    std::vector<std::pair<std::string, std::string>> want;
    for (std::size_t i = 0; i < doubles.size(); ++i) {
        const std::string key = "d" + std::to_string(i);
        args.emplace_back(key, doubles[i]);
        want.emplace_back(key, g10(doubles[i]));
    }
    const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
    args.emplace_back("umax", umax);
    want.emplace_back("umax", std::to_string(umax));
    args.emplace_back("neg", -17);
    want.emplace_back("neg", std::to_string(-17));
    args.emplace_back("esc", std::string("q\"b\\n\nc\x01"));
    want.emplace_back("esc", "\"q\\\"b\\\\n\\nc\\u0001\"");
    args.emplace_back("lit", "plain");
    want.emplace_back("lit", "\"plain\"");
    EXPECT_EQ(want[2].second, "-0");
    EXPECT_EQ(want[3].second, "1e+300");

    TraceRecorder rec;
    rec.instant(rec.track("p", "t"), 0, "ev", "cat", args);
    rec.counter(rec.track("p", "t"), 5, "ctr", "series", 0.1);
    const std::string json = rec.json();
    for (const auto &[key, text] : want) {
        const std::string field = "\"" + key + "\": " + text;
        const std::size_t at = json.find(field);
        ASSERT_NE(at, std::string::npos) << field << "\n" << json;
        const char next = json[at + field.size()];
        EXPECT_TRUE(next == ',' || next == '\n') << field;
    }
    EXPECT_NE(json.find("\"series\": 0.1\n"), std::string::npos);
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(json, doc, &err)) << err;

    // A typed value costs no more room than the old text value.
    EXPECT_LE(sizeof(TraceArg), 2 * sizeof(std::string) + sizeof(double));
}

TEST(Trace, ScopeSavesAndRestoresFlowContext)
{
    TraceRecorder rec;
    EXPECT_EQ(rec.currentFlow().id, 0u);
    {
        TraceScope outer(&rec, 5, false);
        EXPECT_EQ(rec.currentFlow().id, 5u);
        EXPECT_FALSE(rec.currentFlow().final);
        {
            TraceScope inner(&rec, 9, true);
            EXPECT_EQ(rec.currentFlow().id, 9u);
            EXPECT_TRUE(rec.currentFlow().final);
        }
        EXPECT_EQ(rec.currentFlow().id, 5u);
    }
    EXPECT_EQ(rec.currentFlow().id, 0u);
}

//
// Causal spans across a faulty channel
//

namespace {

class StubIsland : public ResourceIsland
{
  public:
    StubIsland(IslandId island_id, std::string island_name)
        : id_(island_id), name_(std::move(island_name))
    {}

    IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(EntityId e, double d) override
    {
        tunes.emplace_back(e, d);
    }
    void applyTrigger(EntityId e) override { triggers.push_back(e); }
    void learnBinding(const EntityBinding &) override {}

    std::vector<std::pair<EntityId, double>> tunes;
    std::vector<EntityId> triggers;

  private:
    IslandId id_;
    std::string name_;
};

} // namespace

TEST(TraceSpans, OneCausalChainAcrossFaultyChannel)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    corm::interconnect::FaultPlanParams faults;
    faults.seed = 77;
    faults.lossProb = 0.4; // force retransmissions
    faults.dupProb = 0.4;  // force duplicate deliveries
    ch.installFaultPlan(faults);

    TraceRecorder rec;
    ch.setTrace(&rec);
    ReliableSender::Params params;
    params.retryTimeout = 2 * msec;
    params.maxAttempts = 32;
    ReliableSender sender(sim, ch, ixp.id(), params);
    sender.setTrace(&rec);

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = ixp.id();
    m.dst = x86.id();
    m.entity = 4;
    m.value = 2.5;
    m.trace = rec.newFlow();
    const int policyTrk = rec.track("ixp", "policy");
    rec.complete(policyTrk, sim.now(), 0, "decide:tune", "coord");
    rec.span(policyTrk, sim.now(), m.trace, FlowStamp::decide(sim.now()));
    sender.send(m);
    sim.runFor(1 * sec);

    // Delivered exactly once despite loss-driven retries and
    // fault-injected duplicates.
    ASSERT_EQ(x86.tunes.size(), 1u);
    EXPECT_EQ(x86.tunes[0].first, EntityId{4});
    EXPECT_DOUBLE_EQ(x86.tunes[0].second, 2.5);

    int begins = 0, steps = 0, ends = 0;
    Tick lastTs = 0;
    for (const auto &e : rec.events()) {
        if (e.phase != 's' && e.phase != 't' && e.phase != 'f')
            continue;
        EXPECT_EQ(e.flow, m.trace); // single chain, single id
        EXPECT_GE(e.ts, lastTs);
        lastTs = e.ts;
        if (e.phase == 's')
            ++begins;
        else if (e.phase == 't')
            ++steps;
        else
            ++ends;
    }
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(ends, 1); // ack return ends the span exactly once
    EXPECT_GE(steps, 1);

    // The weather actually fired: at least one retry or duplicate
    // marker joined the chain.
    bool sawRecovery = false;
    for (const auto &e : rec.events()) {
        if (e.name.rfind("retry:", 0) == 0
            || e.name.rfind("hop:dup:", 0) == 0)
            sawRecovery = true;
    }
    EXPECT_TRUE(sawRecovery);
}

TEST(TraceSpans, RubisTraceIsDeterministic)
{
    auto run = [] {
        corm::platform::RubisScenarioConfig cfg;
        cfg.coordination = true;
        cfg.warmup = corm::sim::sec / 2;
        cfg.measure = 2 * corm::sim::sec;
        TraceRecorder rec;
        cfg.testbed.trace = &rec;
        corm::platform::runRubisScenario(cfg);
        return rec.json();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(a, doc, &err)) << err;
    // At least one complete classifier -> Tune -> apply span.
    std::map<double, std::pair<int, int>> chains; // id -> (s, f)
    for (const auto &e : doc.get("traceEvents")->items) {
        const std::string &ph = e.get("ph")->str;
        if (ph == "s")
            ++chains[e.get("id")->num].first;
        else if (ph == "f")
            ++chains[e.get("id")->num].second;
    }
    bool complete = false;
    for (const auto &[id, sf] : chains) {
        EXPECT_LE(sf.second, 1);
        if (sf.first == 1 && sf.second == 1)
            complete = true;
    }
    EXPECT_TRUE(complete);
}

//
// Per-component log configuration
//

namespace {

/** Restores the global LogConfig on scope exit. */
struct LogConfigGuard
{
    ~LogConfigGuard()
    {
        corm::sim::LogConfig::instance().clearComponentLevels();
        corm::sim::LogConfig::instance().setLevel(
            corm::sim::LogLevel::warn);
    }
};

} // namespace

TEST(LogConfig, ComponentPrefixOverrides)
{
    LogConfigGuard guard;
    auto &cfg = corm::sim::LogConfig::instance();
    ASSERT_TRUE(cfg.configure("warn,coord=debug,xen.sched=info"));

    using corm::sim::LogLevel;
    EXPECT_EQ(cfg.levelFor("coord"), LogLevel::debug);
    EXPECT_EQ(cfg.levelFor("coord.channel"), LogLevel::debug);
    EXPECT_EQ(cfg.levelFor("xen.sched"), LogLevel::info);
    EXPECT_EQ(cfg.levelFor("xen.sched.credit"), LogLevel::info);
    // Prefixes match whole dotted segments only.
    EXPECT_EQ(cfg.levelFor("xen.scheduler"), LogLevel::warn);
    EXPECT_EQ(cfg.levelFor("xen"), LogLevel::warn);
    EXPECT_EQ(cfg.levelFor("net"), LogLevel::warn);
    EXPECT_EQ(cfg.floorLevel(), LogLevel::debug);

    // The most specific prefix wins.
    cfg.setComponentLevel("xen", LogLevel::error);
    EXPECT_EQ(cfg.levelFor("xen.sched"), LogLevel::info);
    EXPECT_EQ(cfg.levelFor("xen.island"), LogLevel::error);

    corm::sim::Logger logger("coord.channel");
    EXPECT_TRUE(logger.enabledFor(LogLevel::debug));
    corm::sim::Logger other("net.packet");
    EXPECT_FALSE(other.enabledFor(LogLevel::info));
}

TEST(LogConfig, MalformedSpecsRejected)
{
    LogConfigGuard guard;
    auto &cfg = corm::sim::LogConfig::instance();
    EXPECT_FALSE(cfg.configure("verbose"));
    EXPECT_FALSE(cfg.configure("coord=loud"));
    EXPECT_FALSE(cfg.configure("=debug"));
    EXPECT_TRUE(cfg.configure("error"));
    EXPECT_EQ(cfg.level(), corm::sim::LogLevel::error);
    EXPECT_TRUE(cfg.configure("")); // empty spec is a no-op
}

//
// Escaping (PR 4 satellite): metric names and label values carrying
// '"', '\' or newlines must survive both machine exports.
//

TEST(Metrics, HostileLabelValuesRoundTripThroughJson)
{
    const Labels hostile{{"path", "C:\\tmp\"x\"\nend"}};
    MetricRegistry m;
    m.counter("weird.total", hostile).add(5);

    const std::string snap = m.jsonSnapshot();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(snap, doc, &err)) << err;

    // The canonical full name (label value verbatim) must come back
    // as exactly one key of the parsed object.
    const std::string full =
        MetricRegistry::fullName("weird.total", hostile);
    ASSERT_TRUE(doc.isObject());
    const JsonValue *v = doc.get(full);
    ASSERT_NE(v, nullptr) << snap;
    EXPECT_TRUE(v->isNumber());
    EXPECT_DOUBLE_EQ(v->num, 5.0);
}

TEST(Metrics, PrometheusExpositionEscapesLabelValues)
{
    MetricRegistry m;
    m.counter("weird.total", {{"path", "a\\b\"c\nd"}}).add(2);
    m.gauge("plain.gauge").set(1.5);

    std::ostringstream out;
    m.writeProm(out);
    const std::string prom = out.str();

    // Dotted names sanitize to the Prometheus charset; the hostile
    // label value is escaped per the exposition format.
    EXPECT_NE(prom.find("# TYPE weird_total counter"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("weird_total{path=\"a\\\\b\\\"c\\nd\"} 2"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("plain_gauge 1.5"), std::string::npos);
    // The raw (unescaped) forms must not appear.
    EXPECT_EQ(prom.find("a\\b\"c\nd"), std::string::npos);
}

TEST(Metrics, PrometheusHistogramIsCumulative)
{
    MetricRegistry m;
    Histogram &h = m.histogram("lat.us");
    h.record(0.5);
    h.record(1.5);
    h.record(3.0);

    std::ostringstream out;
    m.writeProm(out);
    const std::string prom = out.str();
    EXPECT_NE(prom.find("lat_us_bucket{le=\"1\"} 1"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("lat_us_bucket{le=\"2\"} 2"),
              std::string::npos);
    EXPECT_NE(prom.find("lat_us_bucket{le=\"4\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("lat_us_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("lat_us_count 3"), std::string::npos);
}

//
// Histogram percentile estimation (PR 4 satellite)
//

TEST(Metrics, HistogramQuantiles)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0); // empty

    // One value: every quantile is that value (clamped to [min,max]).
    h.record(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);

    // Uniform 1..1000: log2 buckets give coarse but ordered
    // estimates; p50 must sit well below p99 and both inside range.
    Histogram u;
    for (int i = 1; i <= 1000; ++i)
        u.record(static_cast<double>(i));
    const double p50 = u.quantile(0.50);
    const double p99 = u.quantile(0.99);
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1000.0);
    EXPECT_GT(p99, p50);
    EXPECT_LE(p99, 1000.0);
    EXPECT_GE(u.quantile(0.0), 1.0);
    // Monotone in q.
    EXPECT_LE(u.quantile(0.25), u.quantile(0.75));
}

TEST(Metrics, TextReportCarriesPercentilesNotBuckets)
{
    MetricRegistry m;
    Histogram &h = m.histogram("d.hist");
    for (int i = 0; i < 100; ++i)
        h.record(8.0);
    std::ostringstream out;
    m.writeText(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("p50="), std::string::npos) << text;
    EXPECT_NE(text.find("p99="), std::string::npos);
    EXPECT_EQ(text.find("buckets"), std::string::npos);
}

//
// Trace schema checker edge cases (PR 4 satellite): the shared
// checker (obs/tracecheck.hpp) on inputs a healthy bench never emits.
//

TEST(TraceCheck, EmptyTraceIsValidUnlessFlowRequired)
{
    TraceRecorder rec;
    rec.setEnabled(true);
    const std::string json = rec.json();

    const TraceCheckResult lax = checkTraceText(json, false);
    EXPECT_TRUE(lax.ok()) << (lax.violations.empty()
                                  ? ""
                                  : lax.violations.front());
    EXPECT_EQ(lax.flows, 0u);

    const TraceCheckResult strict = checkTraceText(json, true);
    EXPECT_FALSE(strict.ok());
    ASSERT_EQ(strict.violations.size(), 1u);
    EXPECT_NE(strict.violations[0].find("no complete multi-hop flow"),
              std::string::npos);
}

TEST(TraceCheck, FlowMissingAckLegIsIncomplete)
{
    // A coordination span whose ack never arrived: begin + step but
    // no end. Structurally legal, but not a complete chain — so
    // --require-flow must reject it.
    TraceRecorder rec;
    rec.setEnabled(true);
    const int t = rec.track("island", "ixp");
    rec.span(t, 100, 7, FlowStamp::decide(100));
    rec.span(t, 200, 7, {FlowMark::checkpoint});

    const TraceCheckResult r = checkTraceText(rec.json(), false);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.flows, 1u);
    EXPECT_EQ(r.complete, 0u);
    EXPECT_EQ(r.multiHop, 0u);

    const TraceCheckResult strict = checkTraceText(rec.json(), true);
    EXPECT_FALSE(strict.ok());
}

TEST(TraceCheck, DoubleBeginAndDisorderAreViolations)
{
    // Hand-built JSON: two begins on one flow, plus a time-travelling
    // step. The recorder never emits this; the checker must still
    // catch it (it also guards third-party traces).
    const std::string bad = R"({"traceEvents":[
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":100,"id":7,
         "args":{"leg":"decide","end_ns":100000}},
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":150,"id":7,
         "args":{"leg":"decide","end_ns":150000}},
        {"ph":"t","name":"x","pid":1,"tid":1,"ts":50,"id":7,
         "args":{"leg":"checkpoint"}},
        {"ph":"f","name":"x","pid":1,"tid":1,"ts":200,"id":7,
         "args":{"leg":"checkpoint"}}
    ]})";
    const TraceCheckResult r = checkTraceText(bad, false);
    EXPECT_FALSE(r.ok());
    bool sawBegins = false, sawOrder = false;
    for (const std::string &v : r.violations) {
        if (v.find("2 begins") != std::string::npos)
            sawBegins = true;
        if (v.find("out of ts order") != std::string::npos)
            sawOrder = true;
    }
    EXPECT_TRUE(sawBegins);
    EXPECT_TRUE(sawOrder);

    const TraceCheckResult garbage = checkTraceText("{nope", false);
    EXPECT_FALSE(garbage.ok());
    EXPECT_NE(garbage.violations[0].find("malformed JSON"),
              std::string::npos);
}

TEST(TraceCheck, FlowEventWithoutStampIsViolation)
{
    // Attribution reads each flow event's own stamp; a flow event
    // that carries none cannot be attributed.
    const std::string missing = R"({"traceEvents":[
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":100,"id":7,
         "args":{"leg":"decide","end_ns":100000}},
        {"ph":"f","name":"x","pid":1,"tid":1,"ts":200,"id":7}
    ]})";
    const TraceCheckResult r = checkTraceText(missing, false);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_NE(r.violations[0].find("event 1: flow event without a "
                                   "known leg stamp"),
              std::string::npos)
        << r.violations[0];
}

TEST(TraceCheck, UnknownStampAndHopEndingEarlyAreViolations)
{
    // An unknown leg name, and a hop whose delivery tick precedes
    // its own transmit.
    const std::string bad = R"({"traceEvents":[
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":100,"id":7,
         "args":{"leg":"decide","end_ns":100000}},
        {"ph":"t","name":"x","pid":1,"tid":1,"ts":150,"id":7,
         "args":{"leg":"teleport"}},
        {"ph":"t","name":"x","pid":1,"tid":2,"ts":160,"id":7,
         "args":{"leg":"wire","end_ns":159999,"replay":false}},
        {"ph":"f","name":"x","pid":1,"tid":1,"ts":200,"id":7,
         "args":{"leg":"checkpoint"}}
    ]})";
    const TraceCheckResult r = checkTraceText(bad, false);
    ASSERT_EQ(r.violations.size(), 2u);
    EXPECT_NE(r.violations[0].find("event 1: flow event without a "
                                   "known leg stamp"),
              std::string::npos)
        << r.violations[0];
    EXPECT_NE(r.violations[1].find("event 2: flow event whose leg ends "
                                   "before its ts"),
              std::string::npos)
        << r.violations[1];

    // The recorder's own output always carries valid stamps.
    TraceRecorder rec;
    const int trk = rec.track("fabric", "pci");
    rec.span(trk, 100, 9, FlowStamp::decide(100));
    rec.span(trk, 100, 9, FlowStamp::hop(false, 220, true));
    rec.span(trk, 220, 9, {FlowMark::apply}, true);
    const TraceCheckResult good = checkTraceText(rec.json(), true);
    EXPECT_TRUE(good.ok()) << (good.violations.empty()
                                   ? ""
                                   : good.violations.front());
}

TEST(TraceCheck, ExpectTracksCountsDeclaredTracks)
{
    // An empty trace declares no tracks: --expect-tracks must flag
    // it rather than vacuously pass (the sharded merge regression
    // this guards is "every per-shard track silently dropped").
    TraceRecorder rec;
    rec.setEnabled(true);
    TraceCheckParams p;
    p.expect_tracks = 3;
    const TraceCheckResult empty = checkTraceText(rec.json(), p);
    EXPECT_FALSE(empty.ok());
    ASSERT_EQ(empty.violations.size(), 1u);
    EXPECT_NE(empty.violations[0].find("expected 3 tracks, found 0"),
              std::string::npos);

    rec.track("fabric", "fabric@1");
    rec.track("fabric", "fabric@2");
    const TraceCheckResult two = checkTraceText(rec.json(), p);
    EXPECT_FALSE(two.ok());
    EXPECT_EQ(two.tracks, 2u);

    rec.track("fabric", "fabric.1-2");
    const TraceCheckResult three = checkTraceText(rec.json(), p);
    EXPECT_TRUE(three.ok()) << (three.violations.empty()
                                    ? ""
                                    : three.violations.front());
    EXPECT_EQ(three.tracks, 3u);
}

TEST(TraceCheck, StitchedFlowsRejectTeleportingSpans)
{
    // A flow that begins on one track and ends on another with no
    // step in between is exactly what a sharded merge that lost the
    // lane flow-steps produces: the span "teleports" across shards.
    const std::string teleport = R"({"traceEvents":[
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":100,"id":7,
         "args":{"leg":"decide","end_ns":100000}},
        {"ph":"f","name":"x","pid":2,"tid":5,"ts":200,"id":7,
         "args":{"leg":"checkpoint"}}
    ]})";
    TraceCheckParams p;
    p.require_stitched = true;
    const TraceCheckResult bad = checkTraceText(teleport, p);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.crossTrack, 1u);
    ASSERT_EQ(bad.violations.size(), 1u);
    EXPECT_NE(bad.violations[0].find(
                  "different track with no stitching step"),
              std::string::npos);

    // Same shape with the lane hop present: stitched, accepted.
    const std::string stitched = R"({"traceEvents":[
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":100,"id":7,
         "args":{"leg":"decide","end_ns":100000}},
        {"ph":"t","name":"x","pid":1,"tid":2,"ts":150,"id":7,
         "args":{"leg":"checkpoint"}},
        {"ph":"f","name":"x","pid":2,"tid":5,"ts":200,"id":7,
         "args":{"leg":"checkpoint"}}
    ]})";
    const TraceCheckResult good = checkTraceText(stitched, p);
    EXPECT_TRUE(good.ok()) << (good.violations.empty()
                                   ? ""
                                   : good.violations.front());
    EXPECT_EQ(good.crossTrack, 1u);

    // A trace whose flows all stay on one track has nothing to
    // stitch — the option demands at least one cross-track span so
    // the check cannot pass vacuously.
    const std::string local = R"({"traceEvents":[
        {"ph":"s","name":"x","pid":1,"tid":1,"ts":100,"id":7,
         "args":{"leg":"decide","end_ns":100000}},
        {"ph":"t","name":"x","pid":1,"tid":1,"ts":150,"id":7,
         "args":{"leg":"checkpoint"}},
        {"ph":"f","name":"x","pid":1,"tid":1,"ts":200,"id":7,
         "args":{"leg":"checkpoint"}}
    ]})";
    const TraceCheckResult none = checkTraceText(local, p);
    EXPECT_FALSE(none.ok());
    ASSERT_EQ(none.violations.size(), 1u);
    EXPECT_NE(none.violations[0].find("no cross-track flow found"),
              std::string::npos);
}

//
// SLO rule grammar (PR 4 satellite): parse(str()) round-trips.
//

TEST(SloRules, ParseAndRoundTrip)
{
    SloRule r;
    std::string err;
    ASSERT_TRUE(SloRule::parse(
        "coord.channel.delivery_latency_us{channel=coord.pci} "
        "p99 < 5000",
        r, &err))
        << err;
    EXPECT_EQ(r.metric,
              "coord.channel.delivery_latency_us{channel=coord.pci}");
    EXPECT_EQ(r.agg, SloRule::Agg::p99);
    EXPECT_EQ(r.op, SloRule::Op::lt);
    EXPECT_DOUBLE_EQ(r.threshold, 5000.0);
    EXPECT_EQ(r.window, 1 * corm::sim::sec); // default

    SloRule again;
    ASSERT_TRUE(SloRule::parse(r.str(), again, &err)) << err;
    EXPECT_EQ(r, again);

    // Explicit window, every agg and op spelling.
    ASSERT_TRUE(SloRule::parse(
        "coord.channel.retries rate >= 12.5 window 500ms", r, &err))
        << err;
    EXPECT_EQ(r.agg, SloRule::Agg::rate);
    EXPECT_EQ(r.op, SloRule::Op::ge);
    EXPECT_DOUBLE_EQ(r.threshold, 12.5);
    EXPECT_EQ(r.window, 500 * corm::sim::msec);
    ASSERT_TRUE(SloRule::parse(r.str(), again, &err)) << err;
    EXPECT_EQ(r, again);

    for (const char *text :
         {"m value < 1", "m rate <= 2 window 250us", "m mean > 3",
          "m p50 >= 4 window 2s", "m p99 < 5 window 10ns"}) {
        ASSERT_TRUE(SloRule::parse(text, r, &err)) << text << err;
        ASSERT_TRUE(SloRule::parse(r.str(), again, &err))
            << r.str() << err;
        EXPECT_EQ(r, again) << text;
    }

    // Every default platform rule must parse.
    for (const std::string &text : defaultHealthRules()) {
        EXPECT_TRUE(SloRule::parse(text, r, &err)) << text << err;
    }
}

TEST(SloRules, MalformedRulesRejected)
{
    SloRule r;
    std::string err;
    EXPECT_FALSE(SloRule::parse("", r, &err));
    EXPECT_FALSE(SloRule::parse("metric", r, &err));
    EXPECT_FALSE(SloRule::parse("m value < ", r, &err));
    EXPECT_FALSE(SloRule::parse("m middling < 5", r, &err));
    EXPECT_FALSE(SloRule::parse("m value ~ 5", r, &err));
    EXPECT_FALSE(SloRule::parse("m value < 5 window", r, &err));
    EXPECT_FALSE(SloRule::parse("m value < 5 window 10", r, &err));
    EXPECT_FALSE(SloRule::parse("m value < 5 window 10fortnights",
                                r, &err));
    EXPECT_FALSE(SloRule::parse("m value < five", r, &err));
    EXPECT_FALSE(
        SloRule::parse("m value < 5 window 1s extra", r, &err));
    EXPECT_FALSE(err.empty());
}

//
// SeriesRing + RegistrySampler
//

TEST(Series, RingWindowsAndRates)
{
    SeriesRing ring(4);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_DOUBLE_EQ(ring.rate(corm::sim::sec, corm::sim::sec), 0.0);

    // Counter-like series: +10 per 100ms sample.
    using corm::sim::msec;
    for (int i = 1; i <= 6; ++i)
        ring.push(i * 100 * msec, 10.0 * i);
    EXPECT_EQ(ring.size(), 4u); // oldest two overwritten
    EXPECT_DOUBLE_EQ(ring.at(0).value, 30.0);
    EXPECT_DOUBLE_EQ(ring.latest().value, 60.0);

    // Rate over the last 300ms: (60-30)/0.3s = 100/s.
    const double r = ring.rate(600 * msec, 300 * msec);
    EXPECT_NEAR(r, 100.0, 1e-9);

    EXPECT_NEAR(ring.windowMean(600 * msec, 300 * msec),
                (40.0 + 50.0 + 60.0) / 3.0, 1e-9);
    EXPECT_NEAR(ring.percentile(0.5, 600 * msec, 400 * msec), 50.0,
                1e-9);
}

TEST(Series, SamplerPollsRegistryAndDerivesPercentiles)
{
    MetricRegistry m;
    m.counter("c.total").add(4);
    Histogram &h = m.histogram("lat.us");
    for (int i = 0; i < 100; ++i)
        h.record(10.0);

    RegistrySampler s(m);
    s.sample(1 * corm::sim::msec);
    m.counter("c.total").add(6);
    s.sample(2 * corm::sim::msec);

    ASSERT_NE(s.series("c.total"), nullptr);
    EXPECT_DOUBLE_EQ(s.series("c.total")->latest().value, 10.0);
    // Histograms additionally expose derived :p50/:p99 series.
    ASSERT_NE(s.series("lat.us:p50"), nullptr);
    EXPECT_GT(s.series("lat.us:p50")->latest().value, 0.0);
    ASSERT_NE(s.series("lat.us:p99"), nullptr);

    const std::string html = s.dashboardHtml("t");
    EXPECT_NE(html.find("c.total"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
}
