/**
 * @file
 * Tests for reliable delivery under injected channel faults: the
 * ReliableSender/ReliableAnnouncer retry machinery against seeded
 * loss, duplication, reordering and burst outages, plus the
 * channel-side accounting (per-endpoint ack observers, duplicate
 * suppression, latency/reorder bookkeeping).
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "coord/channel.hpp"
#include "coord/fabric.hpp"
#include "coord/reliable.hpp"
#include "fabric_rig.hpp"
#include "interconnect/faults.hpp"
#include "sim/simulator.hpp"

using namespace corm::sim;
using namespace corm::coord;
using corm::interconnect::FaultPlanParams;

namespace {

using corm::testrig::FabricRig;
using corm::testrig::StubIsland;
using corm::testrig::meshParams;

EntityBinding
binding(IslandId island, EntityId entity)
{
    EntityBinding b;
    b.ref = {island, entity};
    b.ip = corm::net::IpAddr(0x0a000000u + entity);
    b.name = "vm" + std::to_string(entity);
    return b;
}

} // namespace

//
// ReliableAnnouncer under fault plans
//

TEST(ReliableUnderFaults, ConvergesThroughLossAndReordering)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    FaultPlanParams faults;
    faults.seed = 2024;
    faults.lossProb = 0.2;
    faults.reorderProb = 0.2;
    ch.installFaultPlan(faults);
    ReliableAnnouncer::Params params;
    params.retryTimeout = 2 * msec;
    params.maxAttempts = 32;
    ReliableAnnouncer ann(sim, ch, params);

    for (EntityId e = 1; e <= 8; ++e)
        ann.announce(ixp.id(), binding(1, e));
    sim.runFor(1 * sec);

    EXPECT_EQ(ann.acked(), 8u);
    EXPECT_EQ(ann.abandoned(), 0u);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_GE(ixp.bindings.size(), 8u);
    // The weather actually happened, and the channel accounted it.
    ASSERT_NE(ch.faultPlan(), nullptr);
    EXPECT_GT(ch.faultPlan()->lost(), 0u);
    EXPECT_EQ(ch.stats().retries.value(), ann.retries());
}

TEST(ReliableUnderFaults, ConvergesThroughBurstOutage)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    FaultPlanParams faults;
    faults.outages.push_back({0, 50 * msec}); // blackout at bring-up
    ch.installFaultPlan(faults);
    ReliableAnnouncer::Params params;
    params.retryTimeout = 5 * msec;
    params.maxAttempts = 32;
    ReliableAnnouncer ann(sim, ch, params);

    for (EntityId e = 1; e <= 4; ++e)
        ann.announce(ixp.id(), binding(1, e));
    sim.runFor(45 * msec);
    EXPECT_EQ(ann.acked(), 0u); // still dark
    sim.runFor(1 * sec);
    EXPECT_EQ(ann.acked(), 4u); // retries outlived the outage
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_GT(ch.health().outageDrops, 0u);
    EXPECT_NEAR(ch.health().outageTimeUs, 50e3, 1.0);
}

TEST(ReliableUnderFaults, DuplicatedRegistrationAppliesOnce)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    FaultPlanParams faults;
    faults.dupProb = 1.0; // every message delivered twice
    ch.installFaultPlan(faults);
    ReliableAnnouncer ann(sim, ch);

    ann.announce(ixp.id(), binding(1, 5));
    sim.runFor(100 * msec);

    EXPECT_EQ(ann.acked(), 1u);
    EXPECT_EQ(ann.pendingCount(), 0u);
    // The duplicate was suppressed at the endpoint: the binding
    // applied exactly once despite two copies on the wire.
    EXPECT_EQ(ixp.bindings.size(), 1u);
    EXPECT_EQ(ch.stats().registrations.value(), 1u);
    EXPECT_GE(ch.stats().duplicates.value(), 1u);
}

TEST(ReliableUnderFaults, AckAfterGiveUpCountsAsLate)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    // Channel RTT (240 ms) far beyond the announcer's patience
    // (2 attempts x 1 ms): the registration lands, but its ack
    // arrives long after the announcer abandoned the slot.
    CoordChannel ch(sim, ixp, x86, 120 * msec);
    ReliableAnnouncer::Params params;
    params.retryTimeout = 1 * msec;
    params.maxAttempts = 2;
    ReliableAnnouncer ann(sim, ch, params);

    ann.announce(ixp.id(), binding(1, 3));
    sim.runFor(1 * sec);

    EXPECT_EQ(ann.abandoned(), 1u);
    EXPECT_EQ(ann.acked(), 0u);
    EXPECT_EQ(ann.pendingCount(), 0u);
    EXPECT_GE(ann.lateAcks(), 1u);
    // Delivery still happened — give-up is about retries, not about
    // un-sending what already left.
    EXPECT_GE(ixp.bindings.size(), 1u);
}

TEST(ReliableUnderFaults, SameSeedSameConvergenceStory)
{
    auto run = [](std::uint64_t seed) {
        Simulator sim;
        StubIsland x86(1, "x86"), ixp(2, "ixp");
        CoordChannel ch(sim, ixp, x86, 100 * usec);
        FaultPlanParams faults;
        faults.seed = seed;
        faults.lossProb = 0.3;
        faults.reorderProb = 0.1;
        ch.installFaultPlan(faults);
        ReliableAnnouncer::Params params;
        params.retryTimeout = 2 * msec;
        params.maxAttempts = 64;
        ReliableAnnouncer ann(sim, ch, params);
        for (EntityId e = 1; e <= 6; ++e)
            ann.announce(ixp.id(), binding(1, e));
        sim.runFor(1 * sec);
        return std::make_tuple(ann.retries(), ch.faultPlan()->lost(),
                               ch.stats().delivered.value(),
                               ch.stats().reorders.value());
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

//
// ReliableSender: the general layer
//

TEST(ReliableSender, BacksOffExponentiallyUpToCap)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0); // black hole
    ReliableSender::Params params;
    params.retryTimeout = 1 * msec;
    params.backoffFactor = 2.0;
    params.backoffCap = 8 * msec;
    params.maxAttempts = 6;
    ReliableSender snd(sim, ch, x86.id(), params);

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.entity = 1;
    m.value = 2.0;
    snd.send(m);

    // Attempts at t = 0, 1, 3, 7, 15, 23 ms (cap clamps the last
    // gaps to 8 ms); give-up when the t = 31 ms timer fires.
    sim.runFor(2500 * usec);
    EXPECT_EQ(snd.retries(), 1u); // constant backoff would show 2
    sim.runFor(5 * msec); // t = 7.5 ms
    EXPECT_EQ(snd.retries(), 3u);
    sim.runFor(16 * msec); // t = 23.5 ms
    EXPECT_EQ(snd.retries(), 5u);
    EXPECT_EQ(snd.pendingCount(), 1u);
    sim.runFor(10 * msec);
    EXPECT_EQ(snd.abandoned(), 1u);
    EXPECT_EQ(snd.pendingCount(), 0u);
}

TEST(ReliableSender, ReliableTuneIsAckedAndAppliedOnce)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ReliableSender snd(sim, ch, x86.id());

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.entity = 42;
    m.value = -3.0;
    std::vector<ReliableSender::Outcome> outcomes;
    snd.send(m, [&](ReliableSender::Outcome o, const CoordMessage &) {
        outcomes.push_back(o);
    });
    sim.runFor(10 * msec);

    EXPECT_EQ(snd.acked(), 1u);
    EXPECT_EQ(snd.retries(), 0u);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0], ReliableSender::Outcome::acked);
    ASSERT_EQ(ixp.tunes.size(), 1u);
    EXPECT_EQ(ixp.tunes[0].first, 42u);
    EXPECT_DOUBLE_EQ(ixp.tunes[0].second, -3.0);
}

TEST(ReliableSender, PerEndpointAckObserversDoNotCrossTalk)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    // Channel side a = ixp, side b = x86 (Testbed convention).
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ReliableSender fromX86(sim, ch, x86.id());
    ReliableSender fromIxp(sim, ch, ixp.id());

    CoordMessage toIxp;
    toIxp.type = MsgType::tune;
    toIxp.src = x86.id();
    toIxp.dst = ixp.id();
    toIxp.entity = 1;
    toIxp.value = 1.0;
    fromX86.send(toIxp);

    CoordMessage toX86;
    toX86.type = MsgType::trigger;
    toX86.src = ixp.id();
    toX86.dst = x86.id();
    toX86.entity = 2;
    fromIxp.send(toX86);

    sim.runFor(10 * msec);

    // Each sender saw exactly its own ack. With a single global
    // observer, one sender would also consume the other's ack and
    // count it against a missing seq.
    EXPECT_EQ(fromX86.acked(), 1u);
    EXPECT_EQ(fromIxp.acked(), 1u);
    EXPECT_EQ(fromX86.lateAcks(), 0u);
    EXPECT_EQ(fromIxp.lateAcks(), 0u);
    EXPECT_EQ(fromX86.pendingCount(), 0u);
    EXPECT_EQ(fromIxp.pendingCount(), 0u);
    ASSERT_EQ(ixp.tunes.size(), 1u);
    ASSERT_EQ(x86.triggers.size(), 1u);
}

TEST(ReliableSender, CancelSupersedesWithoutAbandonCount)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0);
    ReliableSender snd(sim, ch, x86.id());

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.entity = 9;
    m.value = 1.0;
    std::vector<ReliableSender::Outcome> outcomes;
    const SeqNum seq =
        snd.send(m, [&](ReliableSender::Outcome o, const CoordMessage &) {
            outcomes.push_back(o);
        });
    sim.runFor(1 * msec);
    snd.cancel(seq);

    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_EQ(snd.abandoned(), 0u);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0], ReliableSender::Outcome::superseded);
    snd.cancel(seq); // idempotent
    EXPECT_EQ(outcomes.size(), 1u);
}

//
// Sequence-space width: the regression behind the 32-bit seq
//

namespace {

/** Three islands on a clean mesh: 1 sends densely to 2, rarely to 3. */
struct WrapRig : FabricRig
{
    StubIsland &b = at(2);
    StubIsland &c = at(3);

    WrapRig() : FabricRig(meshParams(10 * usec), 3) {}

    /**
     * The traffic pattern that exposed the old 8-bit wrap: one early
     * trigger to the rarely-visited island 3 (seq 1 lands in its
     * dedup window and is never evicted), a full old-seq-space cycle
     * of 254 tunes to island 2, then the trigger to island 3 again.
     * With an 8-bit space the second trigger re-used seq 1, matched
     * the stale window entry, and was eaten as a replay — and
     * re-acked, so the sender never noticed the loss.
     */
    void
    driveWrapPattern(ReliableSender &snd)
    {
        CoordMessage trig;
        trig.type = MsgType::trigger;
        trig.src = 1;
        trig.dst = 3;
        trig.entity = 99;
        snd.send(trig); // seq 1: the stale window entry
        runFor(1 * msec);

        CoordMessage m;
        m.type = MsgType::tune;
        m.src = 1;
        m.dst = 2;
        m.value = 1.0;
        for (int i = 0; i < 254; ++i) { // seqs 2..255: one old cycle
            m.entity = static_cast<EntityId>(i);
            snd.send(m);
            runFor(200 * usec);
        }
        snd.send(trig); // 8-bit space: seq 1 again; 32-bit: seq 256
        runFor(5 * msec);
    }
};

} // namespace

TEST(SeqWrapRegression, DenseSenderNeverSuppressesLegitDeliveries)
{
    WrapRig rig;
    ReliableSender snd(rig.sim(), rig.fabric, 1);
    rig.driveWrapPattern(snd);

    // Every legitimate delivery applied; nothing dedup-suppressed.
    EXPECT_EQ(rig.c.triggers.size(), 2u);
    EXPECT_EQ(rig.b.tunes.size(), 254u);
    EXPECT_EQ(snd.acked(), 256u);
    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_EQ(snd.abandoned(), 0u);
    EXPECT_EQ(rig.fabric.stats().duplicates.value(), 0u);
}

TEST(SeqWrapRegression, ShrunkenSpaceReproducesTheOldSuppression)
{
    // Sensitivity check for the test above: the same traffic in a
    // seq space shrunk to the old 8-bit size exhibits the bug the
    // wide space fixed. The wrapped trigger is suppressed at island
    // 3 yet still acked — a silent loss the sender cannot see.
    WrapRig rig;
    ReliableSender::Params p;
    p.seqSpace = 256; // emulate the old uint8_t space
    ReliableSender snd(rig.sim(), rig.fabric, 1, p);
    rig.driveWrapPattern(snd);

    EXPECT_EQ(rig.c.triggers.size(), 1u); // second trigger eaten
    EXPECT_GE(rig.fabric.stats().duplicates.value(), 1u);
    EXPECT_EQ(snd.acked(), 256u); // ...and the loss was silent
    EXPECT_EQ(snd.pendingCount(), 0u);
    EXPECT_EQ(snd.abandoned(), 0u);
}

TEST(ReliableSender, ExhaustedSeqSpaceReclaimsOldestAsAbandoned)
{
    // When every usable seq is in flight (only reachable with the
    // shrunken test space or a totally dead channel), the allocator
    // must reclaim the OLDEST in-flight send as a first-class
    // Abandoned completion: observer notified, outcome callback
    // fired, retry timer cancelled, accounting consistent.
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0); // nothing ever acks
    ReliableSender::Params params;
    params.seqSpace = 8; // usable seqs cycle 1..7
    params.retryTimeout = 1 * sec;
    params.maxAttempts = 100;
    ReliableSender snd(sim, ch, x86.id(), params);

    std::vector<std::pair<ReliableSender::Outcome, EntityId>> outcomes;
    std::vector<EntityId> observed;
    snd.setAbandonObserver(
        [&](const CoordMessage &m) { observed.push_back(m.entity); });
    const auto record = [&](ReliableSender::Outcome o,
                            const CoordMessage &m) {
        outcomes.emplace_back(o, m.entity);
    };

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.value = 1.0;
    std::vector<SeqNum> seqs;
    for (EntityId e = 1; e <= 7; ++e) {
        m.entity = e;
        seqs.push_back(snd.send(m, record));
        sim.runFor(10 * usec);
    }
    EXPECT_EQ(snd.pendingCount(), 7u);
    EXPECT_EQ(snd.abandoned(), 0u);
    EXPECT_TRUE(outcomes.empty());

    m.entity = 8;
    const SeqNum reused = snd.send(m, record);

    EXPECT_EQ(reused, seqs.front()); // oldest seq recycled
    EXPECT_EQ(snd.abandoned(), 1u);
    EXPECT_EQ(snd.pendingCount(), 7u); // one out, one in
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].first, ReliableSender::Outcome::abandoned);
    EXPECT_EQ(outcomes[0].second, 1u); // the oldest send's message
    ASSERT_EQ(observed.size(), 1u);
    EXPECT_EQ(observed[0], 1u);
}

//
// One endpoint: the channel and the fabric apply by the same rules
//

namespace {

/** What both endpoints of a two-island transport did with a script. */
struct EndpointOutcome
{
    /** Per endpoint (index 0 = island 1, 1 = island 2). */
    std::array<std::vector<std::pair<EntityId, double>>, 2> tunes;
    std::array<std::vector<EntityId>, 2> triggers;
    std::array<std::vector<EntityId>, 2> bindings;
    /** Seqs of the acks each endpoint's observer saw. */
    std::array<std::vector<SeqNum>, 2> acks;

    bool operator==(const EndpointOutcome &) const = default;
};

CoordMessage
scripted(MsgType type, IslandId src, EntityId entity, SeqNum seq)
{
    CoordMessage m;
    m.type = type;
    m.src = src;
    m.dst = src == 1 ? 2 : 1;
    m.entity = entity;
    m.seq = seq;
    m.value = type == MsgType::tune ? 0.5 : 0.0;
    return m;
}

/** Send each message of @p script in turn over @p t, running
 *  @p run between sends, and record both endpoints' outcomes. */
EndpointOutcome
playScript(CoordTransport &t, StubIsland &one, StubIsland &two,
           const std::function<void()> &run,
           const std::vector<CoordMessage> &script)
{
    EndpointOutcome out;
    t.addAckObserver(1, [&out](const CoordMessage &a) {
        out.acks[0].push_back(a.seq);
    });
    t.addAckObserver(2, [&out](const CoordMessage &a) {
        out.acks[1].push_back(a.seq);
    });
    for (const CoordMessage &m : script) {
        t.send(m);
        run();
    }
    StubIsland *isl[] = {&one, &two};
    for (int i = 0; i < 2; ++i) {
        out.tunes[i] = isl[i]->tunes;
        out.triggers[i] = isl[i]->triggers;
        for (const EntityBinding &b : isl[i]->bindings)
            out.bindings[i].push_back(b.ref.entity);
    }
    return out;
}

} // namespace

TEST(OneEndpoint, ChannelAndFabricApplyTheSameScript)
{
    struct Case
    {
        const char *name;
        std::vector<CoordMessage> script;
        EndpointOutcome expect;
    };
    const MsgType tune = MsgType::tune, trigger = MsgType::trigger,
                  reg = MsgType::registerEntity;
    std::vector<Case> cases;
    {
        Case c{"sequenced duplicate is re-acked, not re-applied",
               {scripted(tune, 1, 7, 9), scripted(tune, 1, 7, 9)},
               {}};
        c.expect.tunes[1] = {{7, 0.5}};
        c.expect.acks[0] = {9, 9};
        cases.push_back(c);
    }
    {
        Case c{"type is part of the dedup key",
               {scripted(reg, 1, 4, 1), scripted(trigger, 1, 5, 1)},
               {}};
        c.expect.bindings[1] = {4};
        c.expect.triggers[1] = {5};
        c.expect.acks[0] = {1, 1};
        cases.push_back(c);
    }
    {
        Case c{"registration is acked without a seq",
               {scripted(reg, 1, 6, 0)},
               {}};
        c.expect.bindings[1] = {6};
        c.expect.acks[0] = {0};
        cases.push_back(c);
    }
    {
        Case c{"unsequenced tune applies once per copy",
               {scripted(tune, 1, 2, 0), scripted(tune, 1, 2, 0)},
               {}};
        c.expect.tunes[1] = {{2, 0.5}, {2, 0.5}};
        cases.push_back(c);
    }
    {
        Case c{"acks reach only the addressed endpoint",
               {scripted(tune, 2, 3, 4), scripted(trigger, 1, 8, 4)},
               {}};
        c.expect.tunes[0] = {{3, 0.5}};
        c.expect.triggers[1] = {8};
        c.expect.acks[0] = {4};
        c.expect.acks[1] = {4};
        cases.push_back(c);
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Simulator sim;
        StubIsland one(1, "one"), two(2, "two");
        CoordChannel ch(sim, two, one, 100 * usec);
        const EndpointOutcome viaChannel = playScript(
            ch, one, two, [&] { sim.runFor(msec); }, c.script);

        FabricRig rig(meshParams(100 * usec), 2);
        const EndpointOutcome viaFabric = playScript(
            rig.fabric, rig.at(1), rig.at(2),
            [&] { rig.runFor(msec); }, c.script);

        EXPECT_TRUE(viaChannel == c.expect);
        EXPECT_TRUE(viaFabric == c.expect);
    }
}

//
// Channel accounting under fault plans
//

TEST(ChannelAccounting, LatencySlotsSurviveIdenticalInFlightMessages)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 500 * usec);

    // Two byte-identical tunes in flight at once. With word0-keyed
    // latency slots they collided (one overwrote the other and the
    // survivor double-counted); tag-keyed slots keep both.
    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.entity = 7;
    m.value = 2.0;
    ch.send(m);
    sim.runFor(100 * usec);
    ch.send(m);
    sim.runToCompletion();

    EXPECT_EQ(ch.stats().delivered.value(), 2u);
    EXPECT_EQ(ch.stats().deliveryLatencyUs.count(), 2u);
    EXPECT_NEAR(ch.stats().deliveryLatencyUs.mean(), 500.0, 1e-6);
    EXPECT_NEAR(ch.stats().deliveryLatencyUs.max(), 500.0, 1e-6);
}

TEST(ChannelAccounting, ObservedReordersAreCounted)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    FaultPlanParams faults;
    faults.seed = 11;
    faults.reorderProb = 0.5;
    faults.reorderWindow = 5 * msec;
    ch.installFaultPlan(faults);

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.value = 1.0;
    for (EntityId e = 0; e < 50; ++e) {
        m.entity = e;
        ch.send(m);
        sim.runFor(200 * usec);
    }
    sim.runToCompletion();

    EXPECT_GT(ch.faultPlan()->reordered(), 0u);
    EXPECT_GT(ch.stats().reorders.value(), 0u);
}

// A duplicated copy arrives after its first copy and carries the
// same send tag; the receiver drops it, as a fabric lane does, so a
// dup-only plan reports no reorders however many copies it injects,
// and each tune is delivered and applied once.
TEST(ChannelAccounting, DuplicatesAreNotReorders)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    FaultPlanParams faults;
    faults.seed = 5;
    faults.dupProb = 0.5;
    ch.installFaultPlan(faults);

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.value = 1.0;
    for (EntityId e = 0; e < 50; ++e) {
        m.entity = e;
        ch.send(m);
        sim.runFor(200 * usec);
    }
    sim.runToCompletion();

    ASSERT_GT(ch.faultPlan()->duplicated(), 0u);
    EXPECT_EQ(ch.faultPlan()->reordered(), 0u);
    EXPECT_EQ(ch.stats().reorders.value(), 0u);
    EXPECT_EQ(ch.stats().delivered.value(), 50u);
    EXPECT_EQ(ch.stats().duplicates.value(),
              ch.faultPlan()->duplicated());
    EXPECT_EQ(ixp.tunes.size(), 50u);
}

TEST(ChannelAccounting, InstallingEmptyPlanRestoresPerfectChannel)
{
    Simulator sim;
    StubIsland x86(1, "x86"), ixp(2, "ixp");
    CoordChannel ch(sim, ixp, x86, 100 * usec);
    ch.setLossProbability(1.0);
    EXPECT_NE(ch.faultPlan(), nullptr);

    CoordMessage m;
    m.type = MsgType::tune;
    m.src = x86.id();
    m.dst = ixp.id();
    m.entity = 1;
    m.value = 1.0;
    ch.send(m);
    sim.runToCompletion();
    EXPECT_EQ(ixp.tunes.size(), 0u);
    EXPECT_EQ(ch.stats().dropped.value(), 1u);

    ch.installFaultPlan(FaultPlanParams{}); // no faults enabled
    EXPECT_EQ(ch.faultPlan(), nullptr);
    ch.send(m);
    sim.runToCompletion();
    EXPECT_EQ(ixp.tunes.size(), 1u);
    EXPECT_EQ(ch.stats().dropped.value(), 1u);
}
