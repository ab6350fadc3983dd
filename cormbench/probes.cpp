#include "probes.hpp"

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coord/channel.hpp"
#include "coord/fabric.hpp"
#include "interconnect/msgring.hpp"
#include "platform/testbed.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "xen/sched.hpp"

namespace cormbench {

namespace {

namespace sim = corm::sim;
namespace coord = corm::coord;
using Clock = std::chrono::steady_clock;

/** Work one timed chunk did, in operations and lower-layer units. */
struct Chunk
{
    double ops = 0.0;
    double events = 0.0;
    double boundary = 0.0;
    double wire = 0.0;
    double mailbox = 0.0;
};

/**
 * Time @p chunk repeatedly until @p budgetS has passed (at least five
 * timed chunks after one untimed warm-up) and report the median
 * chunk's ns per operation. Unit counts are pooled over all chunks.
 */
template <typename Fn>
ProbeResult
timeChunks(double budgetS, Fn &&chunk)
{
    chunk();
    std::vector<double> perOp;
    Chunk total;
    const auto start = Clock::now();
    const auto budget = std::chrono::duration<double>(budgetS);
    while (perOp.size() < 5 || Clock::now() - start < budget) {
        const auto t0 = Clock::now();
        const Chunk c = chunk();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        if (c.ops <= 0.0)
            break;
        perOp.push_back(ns / c.ops);
        total.ops += c.ops;
        total.events += c.events;
        total.boundary += c.boundary;
        total.wire += c.wire;
        total.mailbox += c.mailbox;
    }
    ProbeResult r;
    r.ns = median(perOp);
    if (total.ops > 0.0) {
        r.events = total.events / total.ops;
        r.boundary = total.boundary / total.ops;
        r.wire = total.wire / total.ops;
        r.mailbox = total.mailbox / total.ops;
    }
    return r;
}

/** A fabric endpoint that accepts everything and keeps nothing. */
struct NullIsland : coord::ResourceIsland
{
    explicit NullIsland(coord::IslandId i)
        : id_(i), name_("probe" + std::to_string(i))
    {}
    coord::IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(coord::EntityId, double) override {}
    void applyTrigger(coord::EntityId) override {}

    coord::IslandId id_;
    std::string name_;
};

coord::CoordMessage
tune(coord::IslandId src, coord::IslandId dst, coord::EntityId entity)
{
    coord::CoordMessage m;
    m.type = coord::MsgType::tune;
    m.src = src;
    m.dst = dst;
    m.entity = entity;
    m.value = 1.0;
    return m;
}

/**
 * The workload's fabric, sharded at K=1 like the scenario runs it,
 * with null islands at ids 0..n-1 and the hub at 0.
 */
struct ProbeFabric
{
    ProbeFabric(Workload w, bool aggregate, std::uint64_t seed)
    {
        const FabricShape shape = fabricShape(w);
        coord::FabricParams p = shape.params;
        p.hub = 0;
        if (!aggregate)
            p.aggWindow = 0;
        p.faults.seed = seed;
        n = shape.islands;
        engine = std::make_unique<sim::ShardedEngine>(1, p.hopLatency,
                                                      seed);
        fabric = std::make_unique<coord::CoordFabric>(engine->sim(0), p);
        for (int i = 0; i < n; ++i) {
            islands.push_back(std::make_unique<NullIsland>(
                static_cast<coord::IslandId>(i)));
            fabric->attach(*islands.back());
        }
        fabric->setAbandonObserver([](const coord::CoordMessage &) {});
        fabric->enableSharding(*engine, std::vector<int>(
                                            static_cast<std::size_t>(n), 0));
        engine->setProbe([this](sim::Tick) {
            fabric->drainAbandoned();
            return false;
        });
    }

    /** Run @p body's sends to quiescence and count what they cost. */
    template <typename Body>
    Chunk
    run(Body &&body)
    {
        const coord::FabricStats &fs = fabric->stats();
        const std::uint64_t ev0 = engine->eventsExecuted();
        const std::uint64_t b0 = engine->stats().messages;
        const std::uint64_t w0 = fs.wireMessages.value();
        const std::uint64_t f0 = fs.aggFolded.value();
        body();
        // Long enough for a full replay ladder on a faulty link.
        engine->runFor(40 * sim::msec);
        const coord::FabricStats &fe = fabric->stats();
        Chunk c;
        c.events = static_cast<double>(engine->eventsExecuted() - ev0);
        c.boundary = static_cast<double>(engine->stats().messages - b0);
        c.wire = static_cast<double>(fe.wireMessages.value() - w0);
        folded = static_cast<double>(fe.aggFolded.value() - f0);
        return c;
    }

    int n = 0;
    double folded = 0.0;
    std::unique_ptr<sim::ShardedEngine> engine;
    std::unique_ptr<coord::CoordFabric> fabric;
    std::vector<std::unique_ptr<NullIsland>> islands;
};

} // namespace

ProbeResult
probeDispatch(std::uint64_t depth, double budgetS, std::uint64_t seed)
{
    // Hold model: every dispatched event schedules its successor a
    // random delay ahead, so the queue stays at `depth` live events.
    struct Hold
    {
        sim::Simulator &s;
        sim::Rng rng;
        std::uint64_t spread;

        void
        fire()
        {
            s.schedule(1 + static_cast<sim::Tick>(rng.uniformInt(spread)),
                       [this] { fire(); });
        }
    };
    depth = std::max<std::uint64_t>(depth, 1);
    sim::Simulator s;
    s.reserve(depth + 64);
    Hold hold{s, sim::Rng(seed), 2 * depth};
    for (std::uint64_t i = 0; i < depth; ++i)
        hold.fire();
    constexpr int kSteps = 200000;
    return timeChunks(budgetS, [&] {
        for (int i = 0; i < kSteps; ++i)
            s.step();
        Chunk c;
        c.ops = kSteps;
        c.events = kSteps;
        return c;
    });
}

ProbeResult
probeDrain(std::uint64_t perWindow, double budgetS, std::uint64_t seed)
{
    const sim::Tick lookahead = 500 * sim::usec;
    sim::ShardedEngine engine(1, lookahead, seed);
    std::uint64_t sunk = 0;
    engine.setSink(0, [&sunk](const sim::ShardMessage &) { ++sunk; });
    sim::Rng rng(seed);
    std::uint64_t seq = 0;
    perWindow = std::max<std::uint64_t>(perWindow, 1);
    constexpr int kWindows = 32;
    return timeChunks(budgetS, [&] {
        const std::uint64_t ev0 = engine.eventsExecuted();
        const std::uint64_t b0 = engine.stats().messages;
        for (int w = 0; w < kWindows; ++w) {
            for (std::uint64_t j = 0; j < perWindow; ++j) {
                sim::ShardMessage m;
                m.when = engine.now() + lookahead
                    + static_cast<sim::Tick>(rng.uniformInt(lookahead));
                m.lane = rng.uniformInt(1024);
                m.seq = ++seq;
                engine.post(0, 0, m);
            }
            engine.runFor(lookahead);
        }
        Chunk c;
        c.ops = static_cast<double>(kWindows) * static_cast<double>(perWindow);
        c.events = static_cast<double>(engine.eventsExecuted() - ev0);
        c.boundary = static_cast<double>(engine.stats().messages - b0);
        return c;
    });
}

ProbeResult
probeHop(Workload w, double budgetS, std::uint64_t seed)
{
    ProbeFabric pf(w, false, seed);
    sim::Rng rng(seed);
    const auto leaves = static_cast<std::uint64_t>(pf.n - 1);
    return timeChunks(budgetS, [&] {
        Chunk c = pf.run([&] {
            for (int k = 0; k < 64; ++k) {
                const auto leaf =
                    static_cast<coord::IslandId>(1 + rng.uniformInt(leaves));
                pf.fabric->send(k % 2 ? tune(leaf, 0, 100)
                                      : tune(0, leaf, 100));
            }
        });
        c.ops = c.wire;
        return c;
    });
}

ProbeResult
probeFold(Workload w, double budgetS, std::uint64_t seed)
{
    ProbeFabric pf(w, true, seed);
    coord::EntityId entity = 100;
    return timeChunks(budgetS, [&] {
        // Every leaf reports on one shared entity in the same instant:
        // the incast the hubs fold.
        Chunk c = pf.run([&] {
            for (int i = 1; i < pf.n; ++i)
                pf.fabric->send(
                    tune(static_cast<coord::IslandId>(i), 0, entity));
        });
        entity = entity == 102 ? 100 : entity + 1;
        c.ops = pf.folded;
        return c;
    });
}

ProbeResult
probeMailbox(double budgetS)
{
    sim::Simulator s;
    corm::interconnect::Mailbox mb(s, 120 * sim::usec, "probe.mailbox");
    std::uint64_t got = 0;
    mb.setReceiver([&got](std::uint64_t, std::uint64_t, std::uint64_t,
                          std::uint64_t, std::uint64_t) { ++got; });
    constexpr int kBatch = 64;
    return timeChunks(budgetS, [&] {
        const std::uint64_t ev0 = s.executedEvents();
        for (int k = 0; k < 8; ++k) {
            for (int i = 0; i < kBatch; ++i)
                mb.send(static_cast<std::uint64_t>(i), 1, 2);
            s.runFor(200 * sim::usec);
        }
        Chunk c;
        c.ops = 8 * kBatch;
        c.events = static_cast<double>(s.executedEvents() - ev0);
        return c;
    });
}

ProbeResult
probeChannelTune(double budgetS)
{
    sim::Simulator s;
    NullIsland a(1), b(2);
    coord::CoordChannel ch(s, a, b, 120 * sim::usec, "probe.pci");
    constexpr int kBatch = 64;
    const coord::CoordMessage m = tune(1, 2, 7);
    return timeChunks(budgetS, [&] {
        const std::uint64_t ev0 = s.executedEvents();
        const std::uint64_t d0 = ch.stats().delivered.value();
        for (int k = 0; k < 8; ++k) {
            for (int i = 0; i < kBatch; ++i)
                ch.send(m);
            s.runFor(200 * sim::usec);
        }
        Chunk c;
        c.ops = static_cast<double>(ch.stats().delivered.value() - d0);
        c.events = static_cast<double>(s.executedEvents() - ev0);
        c.mailbox = c.ops;
        return c;
    });
}

ProbeResult
probeBoost(double budgetS)
{
    // Three CPU-bound domains share one PCPU, and boosts rotate
    // among them, so most boosts preempt the running domain.
    sim::Simulator s;
    corm::xen::CreditScheduler sched(s, 1);
    std::vector<std::unique_ptr<corm::xen::Domain>> doms;
    for (int i = 0; i < 3; ++i) {
        doms.push_back(std::make_unique<corm::xen::Domain>(
            sched, static_cast<std::uint32_t>(i + 1),
            "d" + std::to_string(i), 256.0));
        doms.back()->submit(100000 * sim::sec, corm::xen::JobKind::user);
    }
    s.runFor(5 * sim::msec);
    constexpr int kBoosts = 256;
    return timeChunks(budgetS, [&] {
        const std::uint64_t ev0 = s.executedEvents();
        for (int i = 0; i < kBoosts; ++i) {
            sched.boost(*doms[static_cast<std::size_t>(i % 3)]);
            s.runFor(100 * sim::usec);
        }
        Chunk c;
        c.ops = kBoosts;
        c.events = static_cast<double>(s.executedEvents() - ev0);
        return c;
    });
}

ProbeResult
probeSchedSecond(double budgetS)
{
    // Three tiers plus Dom0 on the testbed's two PCPUs, each pumping
    // 2 ms CPU bursts back to back.
    sim::Simulator s;
    corm::xen::CreditScheduler sched(s, 2);
    std::vector<std::unique_ptr<corm::xen::Domain>> doms;
    std::function<void(corm::xen::Domain &)> pump =
        [&pump](corm::xen::Domain &d) {
            d.submit(2 * sim::msec, corm::xen::JobKind::user,
                     [&pump, &d] { pump(d); });
        };
    for (int i = 0; i < 4; ++i) {
        doms.push_back(std::make_unique<corm::xen::Domain>(
            sched, static_cast<std::uint32_t>(i + 1),
            "d" + std::to_string(i), 256.0));
        pump(*doms.back());
    }
    const sim::Tick slice = 100 * sim::msec;
    return timeChunks(budgetS, [&] {
        const std::uint64_t ev0 = s.executedEvents();
        s.runFor(slice);
        Chunk c;
        c.ops = sim::toSeconds(slice);
        c.events = static_cast<double>(s.executedEvents() - ev0);
        return c;
    });
}

ProbeResult
probeIxpPacket(double budgetS)
{
    corm::platform::Testbed tb;
    const corm::net::IpAddr guestIp(10, 0, 8, 2);
    tb.addGuest("probe-vm", guestIp);
    tb.run(1 * sim::sec); // registrations reach the IXP classifier
    corm::net::FiveTuple flow;
    flow.src = corm::net::IpAddr(10, 1, 0, 1);
    flow.dst = guestIp;
    flow.dport = 80;
    constexpr int kBatch = 64;
    std::uint16_t port = 1024;
    return timeChunks(budgetS, [&] {
        const std::uint64_t ev0 = tb.sim().executedEvents();
        const std::uint64_t k0 = tb.ixp().stats().classified.value();
        for (int k = 0; k < 4; ++k) {
            for (int i = 0; i < kBatch; ++i) {
                flow.sport = ++port;
                tb.ixp().injectFromWire(
                    tb.packets().make(flow, 1000, {}, tb.sim().now()));
            }
            tb.run(2 * sim::msec);
        }
        Chunk c;
        c.ops = static_cast<double>(tb.ixp().stats().classified.value() - k0);
        c.events = static_cast<double>(tb.sim().executedEvents() - ev0);
        return c;
    });
}

} // namespace cormbench
