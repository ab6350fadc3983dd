/**
 * @file
 * Allocation-count regression test for the fabric hot path. Once a
 * 64-island tree fabric has carried one batch of tunes and triggers,
 * an identical second batch must run with fewer than one heap
 * allocation per 100 wire messages: hops, hub folds and deliveries
 * reuse the fabric's flat tables instead of allocating map nodes.
 * The bound holds with the lane watchdogs fed at every barrier too.
 * A warm ordered event queue, which carries the barrier batches and
 * fold flushes, must allocate nothing at all.
 *
 * Global operator new is replaced with a counting one, so this binary
 * gets no sanitizer twin (the sanitizers bring their own allocator).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "coord/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never sees free() meet a new-expression.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

// The over-aligned forms too (the event kernel's callback table is
// cache-line aligned), so no allocation escapes the count.
[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc wants a non-zero multiple of the alignment.
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace corm::sim;
using namespace corm::coord;

namespace {

constexpr int kIslands = 64;
constexpr EntityId kTiers = 3;
constexpr int kEpochs = 6;
constexpr Tick kEpoch = 2 * msec;

/** An island that only sums what it is sent (no per-message storage). */
class SumIsland : public ResourceIsland
{
  public:
    SumIsland(IslandId island_id, std::string island_name)
        : id_(island_id), name_(std::move(island_name))
    {}

    IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(EntityId, double d) override { sum += d; }
    void applyTrigger(EntityId) override { ++triggers; }
    void learnBinding(const EntityBinding &) override {}

    double sum = 0.0;
    std::uint64_t triggers = 0;

  private:
    IslandId id_;
    std::string name_;
};

FabricParams
treeParams()
{
    FabricParams p;
    p.topology = FabricTopology::tree;
    p.treeFanout = 4;
    p.hopLatency = 200 * usec;
    p.aggWindow = 300 * usec;
    return p;
}

/**
 * One batch: per epoch, every leaf gets two root tunes per tier (they
 * fold at the hubs on the way down) and reports one tune per tier to
 * the root (those fold across siblings on the way up); every eighth
 * leaf also gets a fire-and-forget trigger.
 */
std::vector<CoordMessage>
batch()
{
    std::vector<CoordMessage> msgs;
    for (int leaf = 1; leaf < kIslands; ++leaf) {
        for (EntityId t = 0; t < kTiers; ++t) {
            CoordMessage down;
            down.type = MsgType::tune;
            down.src = 0;
            down.dst = static_cast<IslandId>(leaf);
            down.entity = 100 + t;
            down.value = 1.0;
            msgs.push_back(down);
            msgs.push_back(down);
            CoordMessage up = down;
            up.src = down.dst;
            up.dst = 0;
            msgs.push_back(up);
        }
        if (leaf % 8 == 0) {
            CoordMessage trig;
            trig.type = MsgType::trigger;
            trig.src = 0;
            trig.dst = static_cast<IslandId>(leaf);
            trig.entity = 100;
            msgs.push_back(trig);
        }
    }
    return msgs;
}

/**
 * Schedule every epoch of @p msgs on @p sim, run with @p runFor, and
 * return the number of wire messages the batch put on links.
 */
template <typename RunFor>
std::uint64_t
sendBatch(CoordFabric &fabric, Simulator &sim,
          const std::vector<CoordMessage> &msgs, RunFor runFor)
{
    const std::uint64_t before = fabric.stats().wireMessages.value();
    for (int e = 0; e < kEpochs; ++e)
        for (std::size_t i = 0; i < msgs.size(); ++i)
            sim.schedule(static_cast<Tick>(e) * kEpoch
                             + static_cast<Tick>(i % 16) * usec,
                         [&fabric, &msgs, i] { fabric.send(msgs[i]); });
    runFor(static_cast<Tick>(kEpochs + 2) * kEpoch);
    return fabric.stats().wireMessages.value() - before;
}

/** Allocations per 100 wire messages of the second, warmed-up batch. */
template <typename RunFor>
void
expectSecondBatchAllocationFree(CoordFabric &fabric, Simulator &sim,
                                RunFor runFor)
{
    const std::vector<CoordMessage> msgs = batch();
    const std::uint64_t warmWire = sendBatch(fabric, sim, msgs, runFor);

    allocations.store(0);
    counting.store(true);
    const std::uint64_t wire = sendBatch(fabric, sim, msgs, runFor);
    counting.store(false);
    const std::uint64_t allocs = allocations.load();

    ASSERT_EQ(wire, warmWire);
    EXPECT_GT(fabric.stats().aggFolded.value(), 0u);
    EXPECT_LT(allocs * 100, wire)
        << allocs << " allocations for " << wire << " wire messages";
}

std::vector<std::unique_ptr<SumIsland>>
attachIslands(CoordFabric &fabric)
{
    std::vector<std::unique_ptr<SumIsland>> islands;
    for (int i = 0; i < kIslands; ++i) {
        islands.push_back(std::make_unique<SumIsland>(
            static_cast<IslandId>(i), "isl" + std::to_string(i)));
        fabric.attach(*islands.back());
    }
    return islands;
}

} // namespace

TEST(FabricAllocations, WarmShardedTreeBatchAllocatesAlmostNothing)
{
    const FabricParams p = treeParams();
    ShardedEngine engine(1, p.hopLatency);
    CoordFabric fabric(engine.sim(0), p);
    const auto islands = attachIslands(fabric);
    fabric.enableSharding(engine, std::vector<int>(kIslands, 0));
    expectSecondBatchAllocationFree(
        fabric, engine.sim(0),
        [&engine](Tick d) { engine.runFor(d); });
}

TEST(FabricAllocations, WarmMonitoredTreeBatchAllocatesAlmostNothing)
{
    // The same batch with the lane watchdogs on: every wire attempt
    // and delivery is logged, merged and fed to the monitor at each
    // barrier, which polls at its sample period. The logs, the drain
    // scratch and the lane index are warm after the first batch.
    const FabricParams p = treeParams();
    ShardedEngine engine(1, p.hopLatency);
    CoordFabric fabric(engine.sim(0), p);
    const auto islands = attachIslands(fabric);
    fabric.enableSharding(engine, std::vector<int>(kIslands, 0));
    corm::obs::MetricRegistry registry;
    corm::obs::HealthMonitor monitor(engine.sim(0), registry);
    fabric.watchLanes(monitor);
    Tick nextPoll = 0;
    engine.setProbe([&](Tick windowEnd) {
        fabric.feedLaneWatch();
        if (windowEnd >= nextPoll) {
            monitor.poll(windowEnd);
            nextPoll = windowEnd + kEpoch;
        }
        return false;
    });
    expectSecondBatchAllocationFree(
        fabric, engine.sim(0),
        [&engine](Tick d) { engine.runFor(d); });
    // Clean links: every send was answered, nothing stalled.
    EXPECT_TRUE(monitor.events().empty()) << monitor.healthReport();
}

TEST(SimulatorAllocations, WarmOrderedQueueAllocatesNothing)
{
    // A fixed-delay timer with a few firings in flight, as the fold
    // flushes are: the queue recycles its consumed prefix in place.
    Simulator sim;
    const Simulator::OrderedQueue q = sim.addOrderedQueue();
    std::uint64_t fired = 0;
    const auto cycles = [&](int n) {
        for (int i = 0; i < n; ++i) {
            sim.scheduleInOrder(q, sim.now() + 10, [&fired] { ++fired; });
            ASSERT_TRUE(sim.step());
        }
    };
    for (int i = 0; i < 8; ++i)
        sim.scheduleInOrder(q, static_cast<Tick>(i), [&fired] { ++fired; });
    cycles(10000);

    allocations.store(0);
    counting.store(true);
    cycles(10000);
    counting.store(false);

    EXPECT_EQ(allocations.load(), 0u);
    EXPECT_EQ(fired, 20000u);
    EXPECT_EQ(sim.pendingEvents(), 8u);
    EXPECT_EQ(sim.orderedFallbacks(), 0u);
}
