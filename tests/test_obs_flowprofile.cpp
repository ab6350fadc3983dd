/**
 * @file
 * Tests for flow-latency attribution (obs/flowprofile.hpp): leg
 * arithmetic over synthetic recorder streams, retry/backoff vs wire
 * separation, the channel's transmit-anchored hops under duplication, coalesced and
 * abandoned outcomes, orphan fragments, per-link distributions,
 * byte-exact agreement between the in-process and offline feeders,
 * the flight recorder's embedded breach report, the p999 summary
 * additions, the monotone-flows trace check, and the end-to-end
 * outage -> breach -> blame acceptance scenario.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coord/channel.hpp"
#include "coord/reliable.hpp"
#include "interconnect/faults.hpp"
#include "obs/flight.hpp"
#include "obs/flowprofile.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "obs/tracecheck.hpp"
#include "platform/scenarios.hpp"
#include "sim/types.hpp"

using namespace corm::sim;
using namespace corm::obs;

namespace {

/** Common tracks of the synthetic streams. */
struct Tracks
{
    int policy, link01, link12, link10, node2;

    explicit Tracks(TraceRecorder &rec)
        : policy(rec.track("policy:mgr", "decisions")),
          link01(rec.track("fabric", "link:0->1")),
          link12(rec.track("fabric", "link:1->2")),
          link10(rec.track("fabric", "link:1->0")),
          node2(rec.track("island:2", "coord"))
    {
    }
};

constexpr std::uint64_t kUs = 1000; // ns per us

/** Minimal island endpoint for the seq-exhaustion test. */
class ExhaustStubIsland : public corm::coord::ResourceIsland
{
  public:
    ExhaustStubIsland(corm::coord::IslandId island_id, std::string nm)
        : id_(island_id), name_(std::move(nm))
    {
    }

    corm::coord::IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(corm::coord::EntityId e, double d) override
    {
        tunes.emplace_back(e, d);
    }
    void applyTrigger(corm::coord::EntityId e) override
    {
        triggers.push_back(e);
    }
    void learnBinding(const corm::coord::EntityBinding &b) override
    {
        bindings.push_back(b);
    }

    std::vector<std::pair<corm::coord::EntityId, double>> tunes;
    std::vector<corm::coord::EntityId> triggers;
    std::vector<corm::coord::EntityBinding> bindings;

  private:
    corm::coord::IslandId id_;
    std::string name_;
};

} // namespace

// A two-hop relayed tune: a 20 us decision, two hops traced at
// transmit (flow step at the slice's own ts, stamped with its
// delivery tick) with a relay dwell between them, then an apply.
// Every gap must land in the right leg, with no time double-counted.
TEST(FlowProfiler, TwoHopRelayAttributesEveryLeg)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId id = rec.newFlow();

    rec.complete(t.policy, 120 * usec, 20 * usec, "decide:tune",
                 "coord");
    rec.span(t.policy, 120 * usec, id, FlowStamp::decide(140 * usec));
    rec.complete(t.link01, 200 * usec, 50 * usec, "hop:tune", "coord");
    rec.span(t.link01, 200 * usec, id, FlowStamp::hop(false, 250 * usec));
    rec.complete(t.link12, 260 * usec, 45 * usec, "hop:tune", "coord");
    rec.span(t.link12, 260 * usec, id, FlowStamp::hop(false, 305 * usec));
    rec.complete(t.node2, 320 * usec, 0, "tune:apply", "coord");
    rec.span(t.node2, 320 * usec, id, {FlowMark::apply}, true);

    FlowProfiler prof;
    prof.ingest(rec);

    ASSERT_EQ(prof.flows().size(), 1u);
    const FlowBreakdown &f = prof.flows().at(id);
    EXPECT_EQ(f.outcome, FlowOutcome::completed);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::decide)], 20 * kUs);
    // 120 -> 200 before hop 1, 250 -> 260 before hop 2.
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::queue)], 90 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::wire)], 95 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::apply)], 15 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::retry)], 0u);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::ack)], 0u);
    EXPECT_EQ(f.hops, 2u);
    EXPECT_EQ(f.totalNs(), 200 * kUs);
    // The post-begin legs partition the end-to-end time exactly
    // (the decision's interval is stamped on the begin, not a gap
    // after it, so it is additive on top).
    std::uint64_t sum = 0;
    for (std::uint64_t ns : f.legNs)
        sum += ns;
    EXPECT_EQ(sum,
              f.totalNs()
                  + f.legNs[static_cast<int>(FlowLeg::decide)]);
    EXPECT_STREQ(f.blame(), "wire");
    EXPECT_EQ(prof.blameCount("wire"), 1u);
    EXPECT_EQ(prof.outcomeCount(FlowOutcome::completed), 1u);

    // Per-link wire weather, keyed (track, message type).
    const auto &links = prof.links();
    ASSERT_EQ(links.size(), 2u);
    const auto &l01 = links.at({"fabric/link:0->1", "tune"});
    EXPECT_EQ(l01.count, 1u);
    EXPECT_EQ(l01.sumNs, 50 * kUs);
    const auto &l12 = links.at({"fabric/link:1->2", "tune"});
    EXPECT_EQ(l12.sumNs, 45 * kUs);
}

// A reliable retransmission: the backoff wait between the lost send
// and the retry marker (and the dwell between the marker and the
// re-sent hop) belongs to the retry leg, NOT to wire or queue — the
// separation the 10%-loss breakdown cell depends on.
TEST(FlowProfiler, RetryBackoffLandsInRetryLegNotWire)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId id = rec.newFlow();

    rec.span(t.policy, 100 * usec, id, FlowStamp::decide(100 * usec));
    rec.complete(t.link01, 110 * usec, 50 * usec, "hop:tune", "coord");
    rec.span(t.link01, 110 * usec, id, FlowStamp::hop(false, 160 * usec));
    // First copy eaten by weather; the sender times out and retries.
    rec.instant(t.policy, 800 * usec, "retry:tune", "coord");
    rec.span(t.policy, 800 * usec, id, {FlowMark::retry});
    rec.complete(t.link01, 810 * usec, 50 * usec, "hop:tune", "coord");
    rec.span(t.link01, 810 * usec, id, FlowStamp::hop(false, 860 * usec));
    // Ack returns on the reverse link; the span ends on arrival.
    rec.complete(t.link10, 870 * usec, 30 * usec, "hop:ack", "coord");
    rec.span(t.link10, 870 * usec, id, FlowStamp::hop(true, 900 * usec));
    rec.span(t.link10, 900 * usec, id, {FlowMark::checkpoint}, true);

    FlowProfiler prof;
    prof.ingest(rec);

    const FlowBreakdown &f = prof.flows().at(id);
    EXPECT_EQ(f.outcome, FlowOutcome::completed);
    // 160 -> 800 backoff + 800 -> 810 dwell after the marker.
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::retry)], 650 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::wire)], 100 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::ack)], 30 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::queue)], 20 * kUs);
    EXPECT_EQ(f.retries, 1u);
    EXPECT_EQ(f.hops, 2u);
    EXPECT_STREQ(f.blame(), "retry");
    EXPECT_EQ(prof.blameCount("retry"), 1u);
}

/** One reliable tune x86 -> ixp over a 120 us channel whose plan
 *  duplicates every message, traced from its decide slice to the
 *  end of the run. */
struct DuplicatedChannelTune
{
    Simulator sim;
    ExhaustStubIsland x86{1, "x86"}, ixp{2, "ixp"};
    corm::coord::CoordChannel ch{sim, ixp, x86, 120 * usec, "pci"};
    corm::coord::ReliableSender snd{sim, ch, x86.id()};
    TraceRecorder rec;
    TraceId span = 0;

    DuplicatedChannelTune()
    {
        using namespace corm::coord;
        corm::interconnect::FaultPlanParams faults;
        faults.seed = 7;
        faults.dupProb = 1.0;
        ch.installFaultPlan(faults);
        ch.setTrace(&rec);
        snd.setTrace(&rec);
        const int policy = rec.track("policy:mgr", "decisions");

        CoordMessage m;
        m.type = MsgType::tune;
        m.src = x86.id();
        m.dst = ixp.id();
        m.entity = 3;
        m.value = 1.0;
        m.trace = span = rec.newFlow();
        rec.complete(policy, sim.now(), 0, "decide:tune", "coord");
        rec.span(policy, sim.now(), m.trace, FlowStamp::decide(sim.now()));
        snd.send(m, nullptr);
        sim.runToCompletion();
    }
};

// The channel traces hops at transmit, as the fabric does: every
// hop slice on its track is followed by the span's flow step at the
// slice's own timestamp. Under full duplication a reliable tune's
// ack return is one whole mailbox transit, and the duplicate copies
// arriving after the first must not split it into queue dwell.
TEST(FlowProfiler, ChannelHopsAnchorAtTransmitUnderDuplication)
{
    DuplicatedChannelTune run;
    ASSERT_EQ(run.ixp.tunes.size(), 1u);
    EXPECT_GT(run.ch.stats().duplicates.value(), 0u);

    const auto &evs = run.rec.events();
    const int channelTrack = run.rec.track("fabric", "pci");
    int hopSlices = 0;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const TraceEvent &e = evs[i];
        if (e.phase != 'X' || e.name.rfind("hop:", 0) != 0)
            continue;
        ++hopSlices;
        EXPECT_EQ(e.track, channelTrack) << e.name;
        ASSERT_LT(i + 1, evs.size());
        const TraceEvent &step = evs[i + 1];
        EXPECT_EQ(step.phase, 't') << e.name << " at " << e.ts;
        EXPECT_EQ(step.track, e.track);
        EXPECT_EQ(step.ts, e.ts);
        EXPECT_EQ(step.flow, run.span);
        EXPECT_EQ(e.dur, 120 * usec);
    }
    // The tune and its ack: the receiver drops the tune's duplicate
    // copy, so it draws no re-ack.
    EXPECT_EQ(hopSlices, 2);

    FlowProfiler prof;
    prof.ingest(run.rec);
    const FlowBreakdown &f = prof.flows().at(run.span);
    EXPECT_EQ(f.outcome, FlowOutcome::completed);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::wire)], 120 * kUs);
    EXPECT_GE(f.legNs[static_cast<int>(FlowLeg::ack)], 120 * kUs);
    // One link key per message type on the channel track.
    EXPECT_EQ(prof.links().at({"fabric/pci", "tune"}).count, 1u);
}

// A duplicate copy's arrival is a bare hop:dup:* instant, as on a
// fabric lane: it neither steps nor ends the span, and the receiver
// drops it before the endpoint, so the tune's copy draws no re-ack.
// The span ends at the first ack copy's arrival (240 us), one tune
// transit and one ack transit after the decision; no dwell is queue.
TEST(FlowProfiler, ChannelDuplicateCopyIsOnlyAnInstant)
{
    DuplicatedChannelTune run;
    std::vector<std::pair<char, Tick>> flowEvents;
    int dupInstants = 0;
    for (const TraceEvent &e : run.rec.events()) {
        if (e.name.rfind("hop:dup:", 0) == 0)
            ++dupInstants;
        if ((e.phase == 's' || e.phase == 't' || e.phase == 'f')
            && e.flow == run.span)
            flowEvents.emplace_back(e.phase, e.ts);
    }
    // The tune and its ack each arrive twice.
    EXPECT_EQ(dupInstants, 2);
    const std::vector<std::pair<char, Tick>> expected = {
        {'s', 0},           // decide
        {'t', 0},           // tune hop
        {'t', 120 * usec},  // tune arrival
        {'t', 120 * usec},  // ack hop
        {'f', 240 * usec},  // ack arrival
    };
    EXPECT_EQ(flowEvents, expected);

    FlowProfiler prof;
    prof.ingest(run.rec);
    const FlowBreakdown &f = prof.flows().at(run.span);
    EXPECT_EQ(f.outcome, FlowOutcome::completed);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::queue)], 0u);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::wire)], 120 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::ack)], 120 * kUs);
    EXPECT_EQ(f.totalNs(), 240 * kUs);
}

// A duplicate copy is traced whether or not its message carries a
// span, as on a fabric lane: the channel's hop:dup:* instants count
// exactly its wire duplicates.
TEST(FlowProfiler, ChannelTracesDuplicateOfUnflowedMessage)
{
    using namespace corm::coord;
    Simulator sim;
    ExhaustStubIsland x86{1, "x86"}, ixp{2, "ixp"};
    CoordChannel ch{sim, ixp, x86, 120 * usec, "pci"};
    corm::interconnect::FaultPlanParams faults;
    faults.seed = 7;
    faults.dupProb = 1.0;
    ch.installFaultPlan(faults);
    TraceRecorder rec;
    ch.setTrace(&rec);

    CoordMessage tune;
    tune.type = MsgType::tune;
    tune.src = x86.id();
    tune.dst = ixp.id();
    tune.entity = 3;
    tune.value = 1.0;
    ch.send(tune); // no span
    sim.runToCompletion();

    EXPECT_EQ(ch.stats().duplicates.value(), 1u);
    EXPECT_EQ(ixp.tunes.size(), 1u);
    int dupInstants = 0;
    for (const TraceEvent &e : rec.events())
        if (e.phase == 'i' && e.name == "hop:dup:tune")
            ++dupInstants;
    EXPECT_EQ(dupInstants, 1);
}

/** An unflowed tune, then an ack on span @p span, sent at one tick
 *  over the channel's single fabric/pci track. */
struct SameTickChannelSends
{
    Simulator sim;
    ExhaustStubIsland x86{1, "x86"}, ixp{2, "ixp"};
    corm::coord::CoordChannel ch{sim, ixp, x86, 120 * usec, "pci"};
    TraceRecorder rec;
    TraceId span = 0;

    SameTickChannelSends()
    {
        using namespace corm::coord;
        ch.setTrace(&rec);
        const int policy = rec.track("policy:mgr", "decisions");
        span = rec.newFlow();
        rec.complete(policy, 0, 0, "decide:tune", "coord");
        rec.span(policy, 0, span, FlowStamp::decide(0));

        CoordMessage tune;
        tune.type = MsgType::tune;
        tune.src = x86.id();
        tune.dst = ixp.id();
        tune.entity = 3;
        tune.value = 1.0;
        ch.send(tune);
        CoordMessage ack;
        ack.type = MsgType::ack;
        ack.src = ixp.id();
        ack.dst = x86.id();
        ack.entity = 3;
        ack.seq = 1;
        ack.trace = span;
        ch.send(ack);
        sim.runToCompletion();
    }
};

// Two messages share one track and one tick: the unflowed tune's hop
// slice sits right before the ack's hop slice and flow step. The flow
// step carries its own ack stamp, so the transit is ack time and no
// forward hop. Read by position, the tune's slice in front of it made
// the same transit a wire hop.
TEST(FlowProfiler, SameTickChannelSendsKeepTheirOwnLegs)
{
    SameTickChannelSends run;
    const auto &evs = run.rec.events();
    const int channelTrack = run.rec.track("fabric", "pci");
    std::vector<std::string> atZero;
    for (const TraceEvent &e : evs) {
        if (e.track == channelTrack && e.ts == 0)
            atZero.push_back(e.name);
    }
    const std::vector<std::string> shape = {"hop:tune", "hop:ack",
                                            "coord.span"};
    EXPECT_EQ(atZero, shape);

    FlowProfiler prof;
    prof.ingest(run.rec);
    const FlowBreakdown &f = prof.flows().at(run.span);
    EXPECT_EQ(f.outcome, FlowOutcome::completed);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::ack)], 120 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::wire)], 0u);
    EXPECT_EQ(f.hops, 0u);
    EXPECT_EQ(f.totalNs(), 120 * kUs);
    EXPECT_STREQ(f.blame(), "ack");
}

// A tune folded into an open aggregation bucket at a tree hub: the
// hold time is queue dwell and the outcome is `coalesced` — counted,
// never silently dropped.
TEST(FlowProfiler, AggregationFoldCoalescesWithQueueDwell)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId id = rec.newFlow();

    rec.span(t.policy, 100 * usec, id, FlowStamp::decide(100 * usec));
    rec.complete(t.link01, 120 * usec, 50 * usec, "hop:tune", "coord");
    rec.span(t.link01, 120 * usec, id, FlowStamp::hop(false, 170 * usec));
    rec.instant(t.node2, 400 * usec, "agg:fold", "coord");
    rec.span(t.node2, 400 * usec, id, {FlowMark::fold}, true);

    FlowProfiler prof;
    prof.ingest(rec);

    const FlowBreakdown &f = prof.flows().at(id);
    EXPECT_EQ(f.outcome, FlowOutcome::coalesced);
    // 100 -> 120 pre-hop + 170 -> 400 aggregation hold.
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::queue)], 250 * kUs);
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::wire)], 50 * kUs);
    EXPECT_STREQ(f.blame(), "queue");
    EXPECT_EQ(prof.outcomeCount(FlowOutcome::coalesced), 1u);
}

// Abandons in both shapes: an explicit abandon marker (the reliable
// sender's budget exhaustion, which does end the span) and a span
// left dangling (the link layer's deliberate no-flow-end). Both are
// attributed as `abandoned` — and blamed that way — not dropped.
TEST(FlowProfiler, AbandonMarkerAndDanglingSpanAreAbandoned)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId a = rec.newFlow();
    const TraceId b = rec.newFlow();

    rec.span(t.policy, 100 * usec, a, FlowStamp::decide(100 * usec));
    rec.instant(t.policy, 900 * usec, "abandon", "coord");
    rec.span(t.policy, 900 * usec, a, {FlowMark::abandon}, true);

    rec.span(t.policy, 200 * usec, b, FlowStamp::decide(200 * usec));
    rec.complete(t.link01, 210 * usec, 50 * usec, "hop:tune", "coord");
    rec.span(t.link01, 210 * usec, b, FlowStamp::hop(false, 260 * usec));
    // No further events: the link layer abandoned the message.

    FlowProfiler prof;
    prof.ingest(rec);

    const FlowBreakdown &fa = prof.flows().at(a);
    EXPECT_EQ(fa.outcome, FlowOutcome::abandoned);
    EXPECT_EQ(fa.legNs[static_cast<int>(FlowLeg::retry)], 800 * kUs);
    EXPECT_STREQ(fa.blame(), "abandoned");

    const FlowBreakdown &fb = prof.flows().at(b);
    EXPECT_EQ(fb.outcome, FlowOutcome::abandoned);
    EXPECT_STREQ(fb.blame(), "abandoned");

    EXPECT_EQ(prof.outcomeCount(FlowOutcome::abandoned), 2u);
    EXPECT_EQ(prof.blameCount("abandoned"), 2u);
}

// End to end through the real reliable sender: exhausting a
// shrunken seq space on a dead channel reclaims the OLDEST
// in-flight send, and that reclaim must ride the trace as a
// first-class abandon (marker + flow end), which the profiler
// attributes to the retry leg and blames `abandoned` — the flow is
// never silently dropped from the report.
TEST(FlowProfiler, SeqExhaustionAbandonIsTracedAndAttributed)
{
    using namespace corm::coord;

    Simulator sim;
    ExhaustStubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0); // nothing delivers, nothing acks
    ReliableSender::Params params;
    params.seqSpace = 4; // usable seqs cycle 1..3
    params.retryTimeout = 10 * sec; // no retries inside the test
    ReliableSender snd(sim, ch, x86.id(), params);

    TraceRecorder rec;
    snd.setTrace(&rec);
    const int policy = rec.track("policy:mgr", "decisions");

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.value = 1.0;

    // Only the first send carries a span; it is the oldest in
    // flight, so it is the one exhaustion reclaims.
    const TraceId id = rec.newFlow();
    rec.complete(policy, sim.now(), 0, "decide:tune", "coord");
    rec.span(policy, sim.now(), id, FlowStamp::decide(sim.now()));
    m.entity = 1;
    m.trace = id;
    snd.send(m, nullptr);
    m.trace = 0;
    for (EntityId e = 2; e <= 3; ++e) {
        sim.runFor(100 * usec);
        m.entity = e;
        snd.send(m, nullptr);
    }
    EXPECT_EQ(snd.pendingCount(), 3u);

    sim.runFor(100 * usec);
    m.entity = 4; // all usable seqs in flight: reclaims seq 1
    snd.send(m, nullptr);
    EXPECT_EQ(snd.abandoned(), 1u);

    FlowProfiler prof;
    prof.ingest(rec);
    ASSERT_EQ(prof.flows().size(), 1u);
    const FlowBreakdown &f = prof.flows().at(id);
    EXPECT_EQ(f.outcome, FlowOutcome::abandoned);
    EXPECT_STREQ(f.blame(), "abandoned");
    // The whole 300 us wait between decide and the reclaim lands in
    // the retry leg: the span ended on an abandon marker.
    EXPECT_EQ(f.legNs[static_cast<int>(FlowLeg::retry)], 300 * kUs);
    EXPECT_EQ(prof.blameCount("abandoned"), 1u);
}

// Flow fragments whose begin scrolled out of a flight ring: counted
// as orphans, anchored at their first surviving event (no garbage
// gap from time zero), and excluded from leg/blame aggregation.
TEST(FlowProfiler, OrphanFragmentsAnchoredAndExcluded)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId whole = rec.newFlow();
    const TraceId frag = rec.newFlow();

    rec.span(t.policy, 100 * usec, whole, FlowStamp::decide(100 * usec));
    rec.complete(t.node2, 150 * usec, 0, "tune:apply", "coord");
    rec.span(t.node2, 150 * usec, whole, {FlowMark::apply}, true);

    // The fragment: step + end only, begin evicted.
    rec.span(t.link01, 500 * usec, frag, {FlowMark::checkpoint});
    rec.complete(t.node2, 620 * usec, 0, "tune:apply", "coord");
    rec.span(t.node2, 620 * usec, frag, {FlowMark::apply}, true);

    FlowProfiler prof;
    prof.ingest(rec);

    const FlowBreakdown &f = prof.flows().at(frag);
    EXPECT_EQ(f.outcome, FlowOutcome::orphan);
    EXPECT_EQ(f.beginTs, 500 * kUs); // anchored, not ts 0
    EXPECT_EQ(f.totalNs(), 120 * kUs);
    EXPECT_EQ(prof.outcomeCount(FlowOutcome::orphan), 1u);
    // Only the whole flow feeds the aggregates.
    EXPECT_EQ(prof.total().count, 1u);
    EXPECT_EQ(prof.blameCount("apply"), 1u);
}

// The two feeders must agree byte for byte: profiling the recorder
// in process and re-ingesting its serialized JSON must produce the
// identical report (the flow_attr bench asserts the same end to end).
TEST(FlowProfiler, InProcessAndJsonFeedersAgreeByteForByte)
{
    TraceRecorder rec;
    Tracks t(rec);
    for (int i = 0; i < 8; ++i) {
        const TraceId id = rec.newFlow();
        const Tick base = (100 + 300 * i) * usec;
        rec.complete(t.policy, base, 0, "decide:tune", "coord");
        rec.span(t.policy, base, id, FlowStamp::decide(base));
        rec.complete(t.link01, base + 20 * usec, 50 * usec, "hop:tune",
                     "coord");
        rec.span(t.link01, base + 20 * usec, id,
                 FlowStamp::hop(false, base + 70 * usec));
        if (i % 3 == 0) {
            rec.instant(t.policy, base + 500 * usec, "retry:tune",
                        "coord");
            rec.span(t.policy, base + 500 * usec, id, {FlowMark::retry});
            rec.complete(t.link01, base + 510 * usec, 50 * usec,
                         "hop:tune", "coord");
            rec.span(t.link01, base + 510 * usec, id,
                     FlowStamp::hop(false, base + 560 * usec));
        }
        rec.complete(t.node2, base + 600 * usec, 0, "tune:apply",
                     "coord");
        rec.span(t.node2, base + 600 * usec, id, {FlowMark::apply}, true);
    }

    FlowProfiler inproc;
    inproc.ingest(rec);
    FlowProfiler offline;
    std::string err;
    ASSERT_TRUE(offline.ingestTraceText(rec.json(), &err)) << err;

    EXPECT_EQ(inproc.flows().size(), 8u);
    EXPECT_EQ(inproc.reportJson(3), offline.reportJson(3));
    EXPECT_EQ(inproc.reportJson(), offline.reportJson());
}

// slowest() ranks by end-to-end time with deterministic id
// tie-breaks, and the serialized report embeds exactly top_k rows.
TEST(FlowProfiler, SlowestFlowsRankedAndCapped)
{
    TraceRecorder rec;
    Tracks t(rec);
    const std::uint64_t totalsUs[] = {300, 100, 500, 200};
    TraceId slowestId = 0;
    for (std::uint64_t tot : totalsUs) {
        const TraceId id = rec.newFlow();
        if (tot == 500)
            slowestId = id;
        rec.span(t.policy, 100 * usec, id, FlowStamp::decide(100 * usec));
        rec.complete(t.node2, (100 + tot) * usec, 0, "tune:apply",
                     "coord");
        rec.span(t.node2, (100 + tot) * usec, id, {FlowMark::apply}, true);
    }

    FlowProfiler prof;
    prof.ingest(rec);
    const auto top = prof.slowest(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].id, slowestId);
    EXPECT_EQ(top[0].totalNs(), 500 * kUs);
    EXPECT_EQ(top[1].totalNs(), 300 * kUs);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(prof.reportJson(2), doc, &err)) << err;
    const JsonValue *slow = doc.get("slowest");
    ASSERT_NE(slow, nullptr);
    ASSERT_TRUE(slow->isArray());
    EXPECT_EQ(slow->items.size(), 2u);
    const JsonValue *legs = slow->items[0].get("legs_ns");
    ASSERT_NE(legs, nullptr);
    EXPECT_NE(legs->get("apply"), nullptr);
}

// Flight snapshots carry the attribution report: the breach dump is
// still a loadable trace (traceEvents intact) with a `flowProfile`
// member naming the top-k slowest flows and their blame.
TEST(FlightRecorder, SnapshotEmbedsFlowProfile)
{
    FlightRecorder flight(256);
    TraceRecorder &rec = flight.recorder();
    Tracks t(rec);
    const TraceId id = rec.newFlow();
    rec.span(t.policy, 100 * usec, id, FlowStamp::decide(100 * usec));
    rec.complete(t.link01, 120 * usec, 50 * usec, "hop:tune", "coord");
    rec.span(t.link01, 120 * usec, id, FlowStamp::hop(false, 170 * usec));
    rec.complete(t.node2, 200 * usec, 0, "tune:apply", "coord");
    rec.span(t.node2, 200 * usec, id, {FlowMark::apply}, true);

    flight.snapshot("breach:test", 1 * msec);
    ASSERT_TRUE(flight.hasSnapshot());

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(flight.snapshotJson(), doc, &err)) << err;
    ASSERT_NE(doc.get("traceEvents"), nullptr);
    const JsonValue *fp = doc.get("flowProfile");
    ASSERT_NE(fp, nullptr);
    ASSERT_TRUE(fp->isObject());
    const JsonValue *flows = fp->get("flows");
    ASSERT_NE(flows, nullptr);
    EXPECT_EQ(flows->num, 1.0);
    const JsonValue *slow = fp->get("slowest");
    ASSERT_NE(slow, nullptr);
    ASSERT_TRUE(slow->isArray());
    ASSERT_EQ(slow->items.size(), 1u);
    EXPECT_NE(slow->items[0].get("blame"), nullptr);

    // The extra member must not break the schema checker.
    TraceCheckParams params;
    params.require_flow = true;
    const auto r = checkTraceText(flight.snapshotJson(), params);
    EXPECT_TRUE(r.ok()) << (r.violations.empty()
                                ? std::string()
                                : r.violations.front());
}

// An untraced platform run through a channel outage: the monitor's
// flight ring alone (components trace into it via effectiveTrace())
// must yield a breach snapshot whose flowProfile names slowest flows
// with leg breakdowns — outage -> breach -> blame, end to end.
TEST(FlowProfiler, OutageBreachSnapshotCarriesBlame)
{
    corm::platform::RubisScenarioConfig cfg;
    cfg.coordination = true;
    cfg.warmup = 500 * msec;
    cfg.measure = 3 * sec;
    cfg.testbed.monitor = true; // no full trace recorder
    corm::interconnect::FaultPlanParams faults;
    faults.outages.push_back({2 * sec, 300 * msec});
    cfg.testbed.coordFaults = faults;

    std::string flightJson;
    cfg.inspect = [&](corm::platform::Testbed &tb) {
        HealthMonitor *mon = tb.monitor();
        ASSERT_NE(mon, nullptr);
        if (mon->flight().hasSnapshot())
            flightJson = mon->flight().snapshotJson();
    };
    corm::platform::runRubisScenario(cfg);

    ASSERT_FALSE(flightJson.empty());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(flightJson, doc, &err)) << err;
    const JsonValue *fp = doc.get("flowProfile");
    ASSERT_NE(fp, nullptr) << flightJson.substr(0, 400);
    const JsonValue *flows = fp->get("flows");
    ASSERT_NE(flows, nullptr);
    EXPECT_GT(flows->num, 0.0);
    const JsonValue *slow = fp->get("slowest");
    ASSERT_NE(slow, nullptr);
    ASSERT_TRUE(slow->isArray());
    ASSERT_FALSE(slow->items.empty());
    const JsonValue *blame = slow->items[0].get("blame");
    ASSERT_NE(blame, nullptr);
    EXPECT_TRUE(blame->isString());
    EXPECT_NE(slow->items[0].get("legs_ns"), nullptr);
}

// The fabric scenario's post-run attribution hook: profiling is
// digest-neutral and reports flows for every outcome class under
// faulty weather.
TEST(FlowProfiler, FabricScenarioProfilesFlowsDigestNeutrally)
{
    corm::platform::FabricScenarioConfig cfg;
    cfg.islands = 8;
    cfg.shards = 1;
    cfg.firstIslandId = 0;
    cfg.fabric.topology = corm::coord::FabricTopology::tree;
    cfg.fabric.treeFanout = 3;
    cfg.fabric.aggWindow = 300 * usec;
    cfg.tunesPerPair = 10;
    cfg.triggerProb = 0.1;
    cfg.fabric.faults.lossProb = 0.10;
    cfg.fabric.faults.dupProb = 0.05;
    cfg.monitorLanes = false;

    TraceRecorder rec;
    corm::platform::FabricScenarioConfig profiled = cfg;
    profiled.trace = &rec;
    profiled.profileFlows = true;
    const auto rp = corm::platform::runFabricScenario(profiled);
    const auto rb = corm::platform::runFabricScenario(cfg);

    EXPECT_EQ(rp.digest, rb.digest);
    EXPECT_GT(rp.profiledFlows, 0u);
    ASSERT_FALSE(rp.flowProfileJson.empty());

    // The scenario's in-process report equals an offline pass over
    // the same recorder — and parses with sane outcome accounting.
    FlowProfiler prof;
    prof.ingest(rec);
    EXPECT_EQ(prof.reportJson(cfg.profileTopK), rp.flowProfileJson);
    const std::uint64_t sum =
        prof.outcomeCount(FlowOutcome::completed)
        + prof.outcomeCount(FlowOutcome::coalesced)
        + prof.outcomeCount(FlowOutcome::abandoned)
        + prof.outcomeCount(FlowOutcome::orphan);
    EXPECT_EQ(sum, prof.flows().size());
    EXPECT_EQ(rp.profiledFlows, prof.flows().size());
}

//
// p999 summary additions (obs/metrics.hpp, platform/report.hpp)
//

// Nearest-rank at small N: ceil(q * N) clamped to [1, N]. With ten
// observations, p999 must resolve to rank 10 — the maximum, exactly
// (the quantile clamps to the recorded max).
TEST(MetricsP999, NearestRankSmallN)
{
    corm::obs::Histogram h;
    for (int i = 1; i <= 10; ++i)
        h.record(100.0 * i);
    EXPECT_DOUBLE_EQ(h.quantile(0.999), h.max());
    EXPECT_DOUBLE_EQ(h.quantile(0.999), 1000.0);
    // p50 ranks at ceil(0.5 * 10) = 5 -> within bucket [512, 1024).
    EXPECT_GE(h.quantile(0.5), 100.0);
    EXPECT_LE(h.quantile(0.5), 1000.0);

    corm::obs::Histogram one;
    one.record(42.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.999), 42.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
}

TEST(MetricsP999, SummariesIncludeP999)
{
    MetricRegistry reg;
    corm::obs::Histogram &h = reg.histogram("chan.latency_us");
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));

    std::ostringstream text;
    reg.writeText(text);
    EXPECT_NE(text.str().find("p999="), std::string::npos)
        << text.str();

    const std::string json = reg.jsonSnapshot();
    EXPECT_NE(json.find("\"p999\""), std::string::npos) << json;

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, &err)) << err;
}

//
// --monotone-flows trace validation (obs/tracecheck.hpp)
//

TEST(TraceCheckMonotone, BackwardsStepIsPerEventViolation)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId id = rec.newFlow();
    rec.span(t.policy, 200 * usec, id, FlowStamp::decide(200 * usec));
    rec.span(t.link01, 100 * usec, id, {FlowMark::checkpoint});
    rec.span(t.node2, 300 * usec, id, {FlowMark::checkpoint}, true);
    const std::string trace = rec.json();

    // Default mode: one coarse per-flow ordering violation; the
    // inversion count is surfaced either way.
    TraceCheckParams coarse;
    const auto r1 = checkTraceText(trace, coarse);
    EXPECT_EQ(r1.monotoneViolations, 1u);
    ASSERT_EQ(r1.violations.size(), 1u);
    EXPECT_NE(r1.violations[0].find("out of ts order"),
              std::string::npos);

    // Forensics mode: the individual backwards step is its own
    // violation naming the event index and both timestamps.
    TraceCheckParams fine;
    fine.monotone_flows = true;
    const auto r2 = checkTraceText(trace, fine);
    EXPECT_EQ(r2.monotoneViolations, 1u);
    ASSERT_EQ(r2.violations.size(), 2u);
    EXPECT_NE(r2.violations[0].find("steps backwards"),
              std::string::npos)
        << r2.violations[0];
    EXPECT_NE(r2.violations[0].find("200.000 -> 100.000"),
              std::string::npos)
        << r2.violations[0];
}

TEST(TraceCheckMonotone, MonotoneAndDanglingFlowsPass)
{
    TraceRecorder rec;
    Tracks t(rec);
    const TraceId a = rec.newFlow();
    rec.span(t.policy, 100 * usec, a, FlowStamp::decide(100 * usec));
    rec.span(t.link01, 200 * usec, a, {FlowMark::checkpoint});
    rec.span(t.node2, 300 * usec, a, {FlowMark::checkpoint}, true);
    // A dangling (abandoned) flow is not a monotonicity violation.
    const TraceId b = rec.newFlow();
    rec.span(t.policy, 150 * usec, b, FlowStamp::decide(150 * usec));
    rec.span(t.link01, 250 * usec, b, {FlowMark::checkpoint});

    TraceCheckParams params;
    params.monotone_flows = true;
    params.require_flow = true;
    const auto r = checkTraceText(rec.json(), params);
    EXPECT_TRUE(r.ok()) << (r.violations.empty()
                                ? std::string()
                                : r.violations.front());
    EXPECT_EQ(r.monotoneViolations, 0u);
    EXPECT_EQ(r.dangling, 1u);
}
