/**
 * @file
 * Unit tests for the PCIe interconnect substrate: the serialising
 * link, descriptor rings, the DMA engine, the wire rule (WireLane)
 * and the coordination mailbox.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "interconnect/faults.hpp"
#include "interconnect/msgring.hpp"
#include "interconnect/pcie.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

using namespace corm::sim;
using namespace corm::interconnect;
using corm::net::FiveTuple;
using corm::net::PacketFactory;

namespace {

LinkParams
simpleParams(Tick latency, double bw, std::uint32_t overhead = 0)
{
    LinkParams p;
    p.latency = latency;
    p.bandwidthBytesPerSec = bw;
    p.overheadBytes = overhead;
    return p;
}

} // namespace

TEST(Link, DeliveryAfterSerializationPlusLatency)
{
    Simulator sim;
    // 1000 bytes/s -> 1 byte per ms of simulated time.
    Link link(sim, simpleParams(10 * msec, 1000.0), "t");
    Tick delivered = 0;
    link.transfer(500, [&] { delivered = sim.now(); });
    sim.runToCompletion();
    // 500 bytes at 1 B/ms = 500 ms serialisation + 10 ms latency.
    EXPECT_EQ(delivered, 510 * msec);
    EXPECT_EQ(link.totalBytes(), 500u);
    EXPECT_EQ(link.totalTransfers(), 1u);
}

TEST(Link, OverheadBytesAreCharged)
{
    Simulator sim;
    Link link(sim, simpleParams(0, 1000.0, 100), "t");
    Tick delivered = 0;
    link.transfer(100, [&] { delivered = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(delivered, 200 * msec); // 100 + 100 overhead
}

TEST(Link, TransfersSerializeAndKeepFifoOrder)
{
    Simulator sim;
    Link link(sim, simpleParams(5 * msec, 1000.0), "t");
    std::vector<int> order;
    std::vector<Tick> times;
    link.transfer(100, [&] {
        order.push_back(1);
        times.push_back(sim.now());
    });
    link.transfer(100, [&] {
        order.push_back(2);
        times.push_back(sim.now());
    });
    sim.runToCompletion();
    ASSERT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(times[0], 105 * msec);        // 100 ser + 5 lat
    EXPECT_EQ(times[1], 205 * msec);        // waits for the wire
    EXPECT_EQ(link.busyTime(), 200 * msec); // both serialisations
    EXPECT_GT(link.queueingDelay().max(), 0.0);
}

TEST(Link, UtilizationFractionIsBusyOverElapsed)
{
    Simulator sim;
    Link link(sim, simpleParams(0, 1000.0), "t");
    link.transfer(250, [] {});
    sim.runUntil(1 * sec);
    EXPECT_NEAR(link.utilization(1 * sec), 0.25, 1e-9);
    EXPECT_DOUBLE_EQ(link.utilization(0), 0.0);
}

TEST(DuplexLink, DirectionsAreIndependent)
{
    Simulator sim;
    DuplexLink link(sim, simpleParams(0, 1000.0), "pcie");
    Tick up = 0, down = 0;
    link.deviceToHost().transfer(100, [&] { down = sim.now(); });
    link.hostToDevice().transfer(100, [&] { up = sim.now(); });
    sim.runToCompletion();
    // Same time: full duplex, no shared wire.
    EXPECT_EQ(up, down);
    EXPECT_EQ(up, 100 * msec);
}

TEST(DescriptorRing, PostConsumeFifo)
{
    PacketFactory f;
    DescriptorRing ring(4, "r");
    EXPECT_TRUE(ring.post(f.make(FiveTuple{}, 10)));
    EXPECT_TRUE(ring.post(f.make(FiveTuple{}, 20)));
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.front()->bytes, 10u);
    EXPECT_EQ(ring.consume()->bytes, 10u);
    EXPECT_EQ(ring.consume()->bytes, 20u);
    EXPECT_TRUE(ring.empty());
}

TEST(DescriptorRing, FullRingRejects)
{
    PacketFactory f;
    DescriptorRing ring(2, "r");
    EXPECT_TRUE(ring.post(f.make(FiveTuple{}, 1)));
    EXPECT_TRUE(ring.post(f.make(FiveTuple{}, 2)));
    EXPECT_FALSE(ring.post(f.make(FiveTuple{}, 3)));
    EXPECT_EQ(ring.totalFullRejects(), 1u);
    EXPECT_EQ(ring.highWater(), 2u);
    ring.consume();
    EXPECT_TRUE(ring.post(f.make(FiveTuple{}, 4)));
}

TEST(DmaEngine, PostsDescriptorAfterTransfer)
{
    Simulator sim;
    PacketFactory f;
    Link link(sim, simpleParams(1 * msec, 1e6), "d2h");
    DescriptorRing ring(8, "r");
    DmaEngine dma(link, ring);
    bool posted = false;
    dma.dma(f.make(FiveTuple{}, 1000), [&] { posted = true; },
            [](corm::net::PacketPtr) { FAIL() << "unexpected reject"; });
    sim.runToCompletion();
    EXPECT_TRUE(posted);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(dma.totalCompleted(), 1u);
}

TEST(DmaEngine, FullRingHandsPacketBack)
{
    Simulator sim;
    PacketFactory f;
    Link link(sim, simpleParams(0, 1e6), "d2h");
    DescriptorRing ring(1, "r");
    DmaEngine dma(link, ring);
    int rejects = 0;
    for (int i = 0; i < 3; ++i) {
        dma.dma(f.make(FiveTuple{}, 100), {},
                [&](corm::net::PacketPtr p) {
                    ++rejects;
                    EXPECT_TRUE(p != nullptr);
                });
    }
    sim.runToCompletion();
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(rejects, 2);
    EXPECT_EQ(dma.totalCompleted(), 1u);
}

TEST(Mailbox, DeliversAfterLatency)
{
    Simulator sim;
    Mailbox mbox(sim, 120 * usec, "m");
    Tick delivered = 0;
    int deliveries = 0;
    std::uint64_t got0 = 0, got1 = 0, got2 = 0;
    mbox.setReceiver([&](std::uint64_t w0, std::uint64_t w1,
                         std::uint64_t w2, std::uint64_t,
                         std::uint64_t) {
        delivered = sim.now();
        ++deliveries;
        got0 = w0;
        got1 = w1;
        got2 = w2;
    });
    mbox.send(0xdead, 0xbeef, 0xf00d);
    sim.runToCompletion();
    EXPECT_EQ(delivered, 120 * usec);
    EXPECT_EQ(got0, 0xdeadu);
    EXPECT_EQ(got1, 0xbeefu);
    EXPECT_EQ(got2, 0xf00du);
    EXPECT_EQ(deliveries, 1);
}

TEST(Mailbox, NeverReordersAcrossLatencyChange)
{
    Simulator sim;
    Mailbox mbox(sim, 100 * usec, "m");
    std::vector<std::uint64_t> got;
    mbox.setReceiver(
        [&](std::uint64_t w0, std::uint64_t, std::uint64_t,
            std::uint64_t, std::uint64_t) {
            got.push_back(w0);
        });
    mbox.send(1, 0, 0);
    // Lowering the latency mid-stream must not overtake message 1.
    mbox.setLatency(1 * usec);
    mbox.send(2, 0, 0);
    sim.runToCompletion();
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2}));
}

/** Parameterised: delivery time scales linearly with payload size. */
class LinkBandwidthSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LinkBandwidthSweep, SerializationMatchesBandwidth)
{
    const std::uint64_t bytes = GetParam();
    Simulator sim;
    Link link(sim, simpleParams(0, 1e9), "t"); // 1 GB/s
    Tick delivered = 0;
    link.transfer(bytes, [&] { delivered = sim.now(); });
    sim.runToCompletion();
    const double expect_ns = static_cast<double>(bytes); // 1 B/ns
    EXPECT_NEAR(static_cast<double>(delivered), expect_ns,
                expect_ns * 0.01 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinkBandwidthSweep,
                         ::testing::Values(64, 1500, 64 * 1024,
                                           1024 * 1024));

//
// Link serialisation rounding
//

TEST(Link, SubTickTransferStillOccupiesWire)
{
    Simulator sim;
    // 1e12 B/s: a 25-byte message serialises in 0.025 ticks — which
    // must round UP to one tick, not truncate to an infinitely fast
    // wire.
    Link link(sim, simpleParams(0, 1e12, 24), "t");
    std::vector<Tick> times;
    link.transfer(1, [&] { times.push_back(sim.now()); });
    link.transfer(1, [&] { times.push_back(sim.now()); });
    sim.runToCompletion();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 1u); // one whole tick of serialisation
    EXPECT_EQ(times[1], 2u); // second transfer waited for the wire
    EXPECT_EQ(link.busyTime(), 2u);
}

TEST(Link, IntegralSerializationTimeIsNotInflated)
{
    Simulator sim;
    // 200 bytes at 1000 B/s is exactly 200 ms; the round-up must not
    // push products that are integral up to double rounding into the
    // next tick.
    Link link(sim, simpleParams(0, 1000.0, 100), "t");
    Tick delivered = 0;
    link.transfer(100, [&] { delivered = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(delivered, 200 * msec);
    EXPECT_EQ(link.busyTime(), 200 * msec);
}

//
// Fault injection
//

namespace {

/** Compare two injectors draw-by-draw over @p n decisions. */
bool
sameDecisions(FaultInjector &x, FaultInjector &y, int n)
{
    for (int i = 0; i < n; ++i) {
        const FaultAction a = x.apply(0);
        const FaultAction b = y.apply(0);
        if (a.drop != b.drop || a.duplicate != b.duplicate
            || a.reorder != b.reorder || a.extraDelay != b.extraDelay)
            return false;
    }
    return true;
}

FaultPlanParams
stormyParams()
{
    FaultPlanParams p;
    p.lossProb = 0.2;
    p.dupProb = 0.1;
    p.reorderProb = 0.15;
    p.spikeProb = 0.05;
    return p;
}

} // namespace

TEST(FaultInjector, SameSeedReplaysSameWeather)
{
    const FaultPlanParams p = stormyParams();
    FaultInjector a(p, 42), b(p, 42), c(p, 43);
    EXPECT_TRUE(sameDecisions(a, b, 1000));
    FaultInjector a2(p, 42);
    EXPECT_FALSE(sameDecisions(a2, c, 1000));
}

TEST(FaultInjector, OutageWindowDropsEverything)
{
    FaultPlanParams p;
    p.outages.push_back({1 * msec, 2 * msec});
    FaultInjector inj(p, 7);
    EXPECT_FALSE(inj.apply(0).drop);
    EXPECT_TRUE(inj.apply(1 * msec).drop);
    EXPECT_TRUE(inj.apply(2 * msec).drop);
    EXPECT_FALSE(inj.apply(3 * msec).drop); // end is exclusive
    EXPECT_EQ(inj.counters().outageDrops.value(), 2u);
}

namespace {

/** One wire attempt's expected fate, after a clean attempt at tick 0
 *  with @c priorLatency has set the in-order clamp. */
struct WireRow
{
    const char *name;
    FaultPlanParams plan;
    Tick priorLatency;
    Tick now;
    Tick latency;
    bool dropped;
    Tick first;
    std::optional<Tick> second;
    /** The clamp after the attempt (read back by a clean probe). */
    Tick clampAfter;
};

FaultPlanParams
planWith(double FaultPlanParams::*prob)
{
    FaultPlanParams p;
    p.*prob = 1.0;
    p.dupOffset = 5 * usec;
    p.reorderWindow = 1; // a reorder holds the copy exactly 1 tick
    p.spikeLatency = 2 * msec;
    return p;
}

FaultPlanParams
outagePlan()
{
    FaultPlanParams p;
    p.outages.push_back({100 * usec, 1 * msec});
    return p;
}

FaultPlanParams
dupReorderPlan()
{
    FaultPlanParams p = planWith(&FaultPlanParams::dupProb);
    p.reorderProb = 1.0;
    return p;
}

} // namespace

TEST(WireLane, DecidesFateAndTicksOfEachAttempt)
{
    const Tick prior = 50 * usec; // clamp set by the tick-0 attempt
    const std::optional<Tick> none;
    const WireRow rows[] = {
        {"clean", FaultPlanParams{}, prior, 100 * usec, 10 * usec,
         false, 110 * usec, none, 110 * usec},
        {"loss", planWith(&FaultPlanParams::lossProb), prior,
         100 * usec, 10 * usec, true, 0, none, prior},
        {"duplicate", planWith(&FaultPlanParams::dupProb), prior,
         100 * usec, 10 * usec, false, 110 * usec, 115 * usec,
         110 * usec},
        // Held 1 tick past its base time yet below the clamp: it
        // overtakes the earlier copy and leaves the clamp alone.
        {"reorder", planWith(&FaultPlanParams::reorderProb),
         500 * usec, 100 * usec, 10 * usec, false, 110 * usec + 1,
         none, 500 * usec},
        {"spike", planWith(&FaultPlanParams::spikeProb), prior,
         100 * usec, 10 * usec, false, 2110 * usec, none, 2110 * usec},
        {"outage", outagePlan(), prior, 100 * usec, 10 * usec, true, 0,
         none, prior},
        {"duplicate+reorder", dupReorderPlan(), 500 * usec, 100 * usec,
         10 * usec, false, 110 * usec + 1, 115 * usec + 1, 500 * usec},
        // The latency drops mid-stream: the clamp keeps the new copy
        // behind the one sent under the old latency.
        {"latency change", FaultPlanParams{}, 200 * usec, 100 * usec,
         10 * usec, false, 200 * usec, none, 200 * usec},
    };
    for (const WireRow &r : rows) {
        SCOPED_TRACE(r.name);
        FaultInjector inj(r.plan, 1);
        WireLane lane;
        EXPECT_EQ(lane.attempt(0, r.priorLatency)->first, r.priorLatency);
        lane.setInjector(&inj);
        const std::optional<WireTicks> t = lane.attempt(r.now, r.latency);
        ASSERT_EQ(!t, r.dropped);
        if (t) {
            EXPECT_EQ(t->first, r.first);
            EXPECT_EQ(t->second, r.second);
        }
        // A clean zero-latency probe at tick 0 lands on the clamp.
        lane.setInjector(nullptr);
        EXPECT_EQ(lane.attempt(0, 0)->first, r.clampAfter);
    }
}

TEST(Mailbox, FaultLossDropIsReportedBySend)
{
    Simulator sim;
    Mailbox mbox(sim, 10 * usec, "m");
    FaultPlanParams p;
    p.lossProb = 1.0;
    FaultInjector inj(p, 1);
    mbox.setFaultInjector(&inj);
    int deliveries = 0;
    mbox.setReceiver(
        [&](std::uint64_t, std::uint64_t, std::uint64_t,
            std::uint64_t, std::uint64_t) {
            ++deliveries;
        });
    EXPECT_EQ(mbox.send(1, 2, 3, 77), std::nullopt);
    sim.runToCompletion();
    EXPECT_EQ(deliveries, 0);
    EXPECT_EQ(inj.counters().lost.value(), 1u);

    // A posted send reports its delivery tick.
    mbox.setFaultInjector(nullptr);
    EXPECT_EQ(mbox.send(1, 2, 3, 78), std::optional<Tick>(
                                          sim.now() + 10 * usec));
    sim.runToCompletion();
    EXPECT_EQ(deliveries, 1);
}

TEST(Mailbox, FaultDuplicateDeliversSameTagTwice)
{
    Simulator sim;
    Mailbox mbox(sim, 10 * usec, "m");
    FaultPlanParams p;
    p.dupProb = 1.0;
    p.dupOffset = 5 * usec;
    FaultInjector inj(p, 1);
    mbox.setFaultInjector(&inj);
    std::vector<std::pair<std::uint64_t, Tick>> got;
    mbox.setReceiver(
        [&](std::uint64_t, std::uint64_t, std::uint64_t,
            std::uint64_t tag, std::uint64_t) {
            got.emplace_back(tag, sim.now());
        });
    mbox.send(1, 2, 3, 9);
    sim.runToCompletion();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, 9u);
    EXPECT_EQ(got[1].first, 9u);
    EXPECT_EQ(got[1].second - got[0].second, 5 * usec);
}

TEST(Mailbox, ReorderedMessageIsOvertaken)
{
    Simulator sim;
    Mailbox mbox(sim, 10 * usec, "m");
    FaultPlanParams p;
    p.reorderProb = 1.0;
    p.reorderWindow = 1 * msec;
    FaultInjector inj(p, 123);
    mbox.setFaultInjector(&inj);
    std::vector<std::uint64_t> order;
    mbox.setReceiver(
        [&](std::uint64_t w0, std::uint64_t, std::uint64_t,
            std::uint64_t, std::uint64_t) {
            order.push_back(w0);
        });
    // First message is held back by up to the reorder window; the
    // second (sent without faults) must be allowed to overtake it.
    mbox.send(1, 0, 0, 1);
    mbox.setFaultInjector(nullptr);
    mbox.send(2, 0, 0, 2);
    sim.runToCompletion();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2u);
    EXPECT_EQ(order[1], 1u);
}

TEST(Mailbox, OutageWindowSilencesDirection)
{
    Simulator sim;
    Mailbox mbox(sim, 10 * usec, "m");
    FaultPlanParams p;
    p.outages.push_back({0, 50 * msec});
    FaultInjector inj(p, 1);
    mbox.setFaultInjector(&inj);
    std::vector<std::uint64_t> got;
    mbox.setReceiver(
        [&](std::uint64_t w0, std::uint64_t, std::uint64_t,
            std::uint64_t, std::uint64_t) {
            got.push_back(w0);
        });
    mbox.send(1, 0, 0, 1); // inside the outage: lost
    sim.scheduleAt(60 * msec, [&] { mbox.send(2, 0, 0, 2); });
    sim.runToCompletion();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 2u);
    EXPECT_EQ(inj.counters().outageDrops.value(), 1u);
}
