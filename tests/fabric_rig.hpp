/**
 * @file
 * Shared setup for tests that drive coordination transports
 * directly: a recording stub island, and a fabric rig that owns the
 * ShardedEngine a CoordFabric runs on.
 *
 * The rig follows the same barrier-time protocol runFabricScenario
 * does: the engine's probe drains queued abandons into the abandon
 * observer and completes re-parents whose delay has elapsed, and
 * membership changes (join, leave, crash, migrateEntity) are made
 * between runFor calls with the rig's clock as the barrier tick.
 */

#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coord/fabric.hpp"
#include "coord/island.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace corm::testrig {

/** Island that records every tune, trigger and binding it applies. */
class StubIsland : public coord::ResourceIsland
{
  public:
    StubIsland(coord::IslandId island_id, std::string island_name)
        : id_(island_id), name_(std::move(island_name))
    {}

    coord::IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }
    void applyTune(coord::EntityId e, double d) override
    {
        tunes.emplace_back(e, d);
    }
    void applyTrigger(coord::EntityId e) override
    {
        triggers.push_back(e);
    }
    void learnBinding(const coord::EntityBinding &b) override
    {
        bindings.push_back(b);
    }

    double
    tuneSum(coord::EntityId e) const
    {
        double s = 0.0;
        for (const auto &[entity, delta] : tunes)
            if (entity == e)
                s += delta;
        return s;
    }

    std::vector<std::pair<coord::EntityId, double>> tunes;
    std::vector<coord::EntityId> triggers;
    std::vector<coord::EntityBinding> bindings;

  private:
    coord::IslandId id_;
    std::string name_;
};

/**
 * A fabric over stub islands with ids @p ids, on an engine of
 * @p shards shards (islands placed contiguously in id order, the
 * runFabricScenario placement) whose lookahead is the hop latency.
 */
struct FabricRig
{
    sim::ShardedEngine engine;
    std::vector<std::unique_ptr<StubIsland>> islands;
    coord::CoordFabric fabric;
    /** Extra barrier work (a monitor feed, say), after the rig's. */
    std::function<void(sim::Tick)> onBarrier;

    FabricRig(const coord::FabricParams &p,
              const std::vector<coord::IslandId> &ids, int shards = 1)
        : engine(shards, p.hopLatency), fabric(engine.sim(0), p)
    {
        std::vector<int> shardOf;
        const auto n = static_cast<long long>(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            islands.push_back(std::make_unique<StubIsland>(
                ids[i], "isl" + std::to_string(ids[i])));
            fabric.attach(*islands.back());
            if (ids[i] >= shardOf.size())
                shardOf.resize(static_cast<std::size_t>(ids[i]) + 1, 0);
            shardOf[ids[i]] = static_cast<int>(
                static_cast<long long>(i) * engine.shardCount() / n);
        }
        fabric.enableSharding(engine, shardOf);
        engine.setProbe([this](sim::Tick windowEnd) {
            fabric.drainAbandoned();
            fabric.churnTick(windowEnd);
            if (onBarrier)
                onBarrier(windowEnd);
            return false;
        });
    }

    /** Islands 1..n. */
    FabricRig(const coord::FabricParams &p, int n, int shards = 1)
        : FabricRig(p, idsFrom1(n), shards)
    {}

    /** Shard 0's simulator: where island 1's events run. */
    sim::Simulator &sim() { return engine.sim(0); }

    /** The barrier clock: end of the last run. */
    sim::Tick now() const { return engine.now(); }

    /** Run @p d ticks, then drain abandons queued by sends made
     *  between runs (a run with no event has no barrier). */
    void
    runFor(sim::Tick d)
    {
        engine.runFor(d);
        fabric.drainAbandoned();
    }

    StubIsland &
    at(coord::IslandId id)
    {
        for (auto &isl : islands)
            if (isl->id() == id)
                return *isl;
        throw std::out_of_range("no island " + std::to_string(id));
    }

    static std::vector<coord::IslandId>
    idsFrom1(int n)
    {
        std::vector<coord::IslandId> ids;
        for (int i = 1; i <= n; ++i)
            ids.push_back(static_cast<coord::IslandId>(i));
        return ids;
    }
};

/** A fanout-2 tree rooted at island 1: 1 <- {2,3}, 2 <- {4,5},
 *  3 <- {6,7} for the default 7 islands. */
inline coord::FabricParams
treeParams(coord::FabricParams p)
{
    p.topology = coord::FabricTopology::tree;
    p.hub = 1;
    p.treeFanout = 2;
    return p;
}

/** A mesh with @p hop one-way latency. */
inline coord::FabricParams
meshParams(sim::Tick hop)
{
    coord::FabricParams p;
    p.topology = coord::FabricTopology::mesh;
    p.hopLatency = hop;
    return p;
}

} // namespace corm::testrig
