/**
 * @file
 * Multi-island coordination fabric.
 *
 * The prototype's CoordChannel is point-to-point because the paper's
 * platform has exactly two islands; §5's ongoing work — "evaluations
 * of the scalability of such mechanisms to large-scale multicore
 * platforms ... distributed coordination algorithms across multiple
 * island resource managers" — needs an N-island transport. The
 * fabric provides three topologies:
 *
 *  * **star** — every message relays through a hub island (the
 *    global controller's home, Dom0-style). Two hops for any
 *    non-hub pair; the hub is a serialisation point.
 *  * **mesh** — direct island-to-island delivery, one hop. What
 *    §3.3's "hardware-supported queues / fast on-chip shared memory"
 *    would provide.
 *  * **tree** — a fanout-k hierarchy rooted at the hub. Messages
 *    relay along the unique tree path; hub (non-leaf) nodes
 *    additionally *aggregate* fire-and-forget Tune deltas per
 *    (destination, entity) within a configurable window and forward
 *    one batch message whose value is the exact sum (coalesced
 *    counts track how many logical Tunes it stands for). Triggers,
 *    registrations and sequenced messages bypass aggregation on the
 *    low-latency path.
 *
 * Every edge is a pair of directional lanes with the interconnect's
 * wire semantics (fault stream, in-order clamp), carried as boundary
 * messages of a ShardedEngine — one shard or many, the same
 * delivery path (enableSharding). Per-link FaultPlan weather applies
 * below the message semantics, a link-layer replay budget (modelling
 * PCIe DLLP ACK/NAK retry) re-sends fault-eaten wire messages with
 * exponential backoff, causal trace spans are carried hop by hop,
 * and per-lane activity logs feed health-monitor stall watchdogs at
 * window barriers (see watchLanes). Delivery semantics match
 * CoordChannel: Tune/Trigger dispatch to the destination island,
 * sequenced messages are acknowledged and deduplicated at the
 * endpoint, registrations install bindings and are always acked.
 *
 * Membership is dynamic (DESIGN.md §13): islands join() and leave()
 * at runtime, tree hubs crash() with their orphans re-parented to a
 * fallback after a detection window (or immediately via the
 * watchdog-driven reparentNow()), and entities migrate between
 * islands with migrateEntity() installing forwarding pointers so
 * in-flight tunes chase the entity to its new home. Every delta a
 * churn event strands — an unroutable send, a dead-route hop, a
 * delivery to a departed endpoint, a crashed hub's open aggregation
 * bucket — is attributed through the abandon observer, never
 * silently lost, and the route-independent endpoint dedup keys make
 * re-driven tunes apply exactly once across any re-parent or
 * migration.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coord/flattable.hpp"
#include "coord/island.hpp"
#include "coord/message.hpp"
#include "coord/transport.hpp"
#include "interconnect/faults.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace corm::coord {

/** Fabric topology. */
enum class FabricTopology { star, mesh, tree };

/** Human-readable topology name. */
constexpr const char *
fabricTopologyName(FabricTopology t)
{
    switch (t) {
      case FabricTopology::star: return "star";
      case FabricTopology::mesh: return "mesh";
      case FabricTopology::tree: return "tree";
    }
    return "?";
}

/** Parse a topology name; returns false on an unknown name. */
inline bool
parseFabricTopology(const std::string &name, FabricTopology &out)
{
    if (name == "star") { out = FabricTopology::star; return true; }
    if (name == "mesh") { out = FabricTopology::mesh; return true; }
    if (name == "tree") { out = FabricTopology::tree; return true; }
    return false;
}

/** Fabric construction parameters. */
struct FabricParams
{
    FabricTopology topology = FabricTopology::mesh;
    /** One-way latency of every link. */
    corm::sim::Tick hopLatency = 120 * corm::sim::usec;
    /**
     * Hub island: the star centre / tree root. 0 (or an unattached
     * id) falls back to the lowest attached island id.
     */
    IslandId hub = 0;
    /** Children per node of the tree topology. */
    int treeFanout = 4;
    /**
     * Tune-aggregation window of tree hub nodes; 0 disables
     * aggregation. Only fire-and-forget (seq == 0) tunes aggregate.
     */
    corm::sim::Tick aggWindow = 0;
    /**
     * Link weather, applied to every link when any() — each link
     * derives its own pair of deterministic fault streams from
     * faults.seed and the link's endpoint ids, so runs replay
     * bit-identically under any --jobs fan-out.
     */
    corm::interconnect::FaultPlanParams faults;
    /**
     * Link-layer replay budget (PCIe DLLP ACK/NAK retry model): a
     * wire message eaten by link weather is re-sent on the same link
     * up to replayAttempts times, the first after replayTimeout and
     * exponentially backed off by replayBackoff up to replayCap;
     * exhausting the budget abandons the message (see
     * setAbandonObserver). 0 disables replay.
     */
    int replayAttempts = 4;
    corm::sim::Tick replayTimeout = 500 * corm::sim::usec;
    double replayBackoff = 2.0;
    corm::sim::Tick replayCap = 8 * corm::sim::msec;
    /**
     * Delay between a hub crash and its orphaned children re-binding
     * to the fallback parent — the detection window in which the
     * lane-stall watchdog fires. Due re-parents complete at
     * churnTick(); a monitor policy hook may call reparentNow()
     * earlier (watchdog-driven re-parenting).
     */
    corm::sim::Tick reparentDelay = 2 * corm::sim::msec;
    /**
     * Configured fallback parent for re-parenting after a hub
     * crash. 0 (or a departed id) falls back to the crashed hub's
     * own parent, then to the tree root.
     */
    IslandId fallbackParent = 0;
    /** Name prefix of the per-link lanes (trace tracks, monitor). */
    std::string name = "fabric";
};

/** Aggregate fabric statistics. */
struct FabricStats
{
    /** Logical send() calls accepted. */
    corm::sim::Counter sent;
    /** Dispatches at a final destination (dedup-suppressed incl.). */
    corm::sim::Counter delivered;
    corm::sim::Counter dropped; ///< unknown destination (unroutable)
    corm::sim::Counter hubRelays; ///< hops forwarded by a relay node
    /** Wire messages put on a link (relays and replays included). */
    corm::sim::Counter wireMessages;
    /** Wire messages that were tunes (the per-applied-Tune cost). */
    corm::sim::Counter wireTunes;
    /** Logical tunes applied at destinations (coalesced counts). */
    corm::sim::Counter appliedTunes;
    corm::sim::Counter linkDrops;   ///< wire sends eaten by weather
    corm::sim::Counter linkReplays; ///< link-layer retransmissions
    /** Wire messages abandoned after the replay budget. */
    corm::sim::Counter abandoned;
    /** Duplicate deliveries suppressed (wire dups + endpoint dedup). */
    corm::sim::Counter duplicates;
    /** Logical tunes folded into an already-open aggregation bucket. */
    corm::sim::Counter aggFolded;
    /** Aggregated batch messages emitted by hub nodes. */
    corm::sim::Counter aggBatches;
    /** Triggers relayed past an aggregating hub un-delayed. */
    corm::sim::Counter triggerBypass;
    /** Deliveries re-forwarded to a migrated entity's new home. */
    corm::sim::Counter migForwards;
    /** Retransmissions performed by the reliable layer above. */
    corm::sim::Counter retries;
    /** Send-to-apply latency (microseconds), end to end. */
    corm::sim::Summary deliveryLatencyUs;
    /** Link hops per first-copy delivery. */
    corm::sim::Summary hopsPerDelivery;
};

/**
 * An N-island coordination transport with configurable topology,
 * per-link fault weather, link-layer replay and (tree) hub-side
 * Tune aggregation. Implements CoordTransport, so ReliableSender /
 * ReliableAnnouncer run over it unchanged.
 *
 * A fabric runs on a ShardedEngine: build it on the engine's shard 0
 * simulator, attach the islands, then call enableSharding() before
 * any traffic (one shard is the ordinary single-threaded run).
 */
class CoordFabric : public CoordTransport
{
  public:
    CoordFabric(corm::sim::Simulator &simulator, FabricParams params)
        : sim(simulator), cfg(std::move(params))
    {}

    CoordFabric(const CoordFabric &) = delete;
    CoordFabric &operator=(const CoordFabric &) = delete;

    /** Attach an island to the fabric (before traffic, ideally). */
    void
    attach(ResourceIsland &island)
    {
        setIsland(island);
        dirty = true;
    }

    /** Number of attached islands. */
    std::size_t islandCount() const { return liveIslands_; }

    /** Parameters in force. */
    const FabricParams &params() const { return cfg; }

    /** Per-hop latency. */
    corm::sim::Tick perHopLatency() const { return cfg.hopLatency; }

    /**
     * Send a message toward msg.dst, relaying along the topology's
     * path. Messages to an unknown destination (or from an
     * unattached source) are counted as dropped.
     */
    void
    send(CoordMessage msg) override
    {
        assert(engine_ != nullptr && "enableSharding() before traffic");
        ensureBuilt();
        ShardState &st = stateFor(msg.src);
        st.stats.sent.add();
        if (!attached(msg.dst) || !attached(msg.src)) {
            // Routine under churn (a peer keeps sending to a
            // departed island for a beat), so debug, not warn. The
            // lost delta is attributed, not silently dropped.
            dropAttributed(msg.src, msg, msg.src, msg.dst);
            logger.debug("unroutable %s %u -> %u (%zu islands attached)",
                         msgTypeName(msg.type),
                         static_cast<unsigned>(msg.src),
                         static_cast<unsigned>(msg.dst),
                         islandCount());
            return;
        }
        if (msg.dst == msg.src) {
            // Loopback: no link; model one hop of latency. Stays on
            // the source's own simulator (a node is never split
            // across shards), so no boundary crossing.
            corm::sim::Simulator &s = simFor(msg.src);
            s.schedule(cfg.hopLatency, [this, msg, &s] {
                finalDeliver(msg, s.now() - cfg.hopLatency, 1);
            });
            return;
        }
        forwardFrom(msg.src, msg, simFor(msg.src).now(), 0);
    }

    std::uint64_t
    addAckObserver(IslandId endpoint, AckObservers::Fn fn) override
    {
        return acks_.add(endpoint, std::move(fn));
    }

    void
    removeAckObserver(IslandId endpoint, std::uint64_t token) override
    {
        acks_.remove(endpoint, token);
    }

    /**
     * Record a retransmission performed by the reliable layer. The
     * reliable senders all live at the hub (shard 0), so charging
     * shard 0's counter is race-free.
     */
    void noteRetransmit() override { states[0].stats.retries.add(); }

    /**
     * Observe wire messages abandoned after the link replay budget
     * (the fabric's "this delta is really gone" signal — scenarios
     * subtract abandoned deltas from the convergence intent).
     * Notifications are queued per shard and reach the observer only
     * at drainAbandoned().
     */
    using AbandonFn = std::function<void(const CoordMessage &)>;
    void setAbandonObserver(AbandonFn fn) { onAbandon = std::move(fn); }

    /**
     * Tracing: one recorder per shard — with several shards, the
     * window-local recorders of a ShardCapture (obs/shardcapture.hpp),
     * which merges them at barriers; with one shard, any recorder.
     * During a window each shard's wire instrumentation writes only
     * its own recorder: per-link hop slices, relay flow steps,
     * aggregation fold/flush markers and drop/replay/abandon
     * instants. Hop slices are emitted at transmit time (the sender
     * knows the delivery tick) on *directional* lane tracks
     * ("<name>.<from>-<to>"), so every track has exactly one writing
     * shard and the merged trace is byte-identical for any shard
     * count. Call after enableSharding().
     */
    void
    setShardTrace(const std::vector<corm::obs::TraceRecorder *> &recs)
    {
        assert(recs.size() == states.size());
        for (std::size_t k = 0; k < states.size(); ++k)
            states[k].rec = recs[k];
    }

    /** One lane send/delivery, replayed canonically at a barrier. */
    struct LaneEvent
    {
        corm::sim::Tick when = 0;
        std::uint64_t lane = 0; ///< directional lane id
        std::uint64_t seq = 0;  ///< per-shard-state program order
        bool delivered = false; ///< false = entered the lane (sent)
    };

    /**
     * Feed @p mon's per-lane stall watchdogs: every directional lane
     * registers as a monitor lane, in link-key order, and each shard
     * logs its lanes' sends and deliveries during a window (a vector
     * push per wire attempt or arriving copy, so off by default).
     * Call resyncLaneWatch() after a membership change and
     * feedLaneWatch() at each window barrier.
     */
    void
    watchLanes(corm::obs::HealthMonitor &mon)
    {
        watch_ = &mon;
        resyncLaneWatch();
    }

    /**
     * Register the lanes a join or re-parent created and retire the
     * lanes that departed with an island. Lane ids and names are pure
     * functions of the endpoint ids, so a re-joined pair revives its
     * old monitor lane, and each lane's index is resolved only here.
     */
    void
    resyncLaneWatch()
    {
        std::vector<int> live;
        forEachLaneId([&](const std::string &name, std::uint64_t id) {
            auto [lane, fresh] = watchLane_.tryEmplace(id);
            if (fresh)
                lane = watch_->lane(name);
            live.push_back(lane);
        });
        watch_->retireLanesExcept(live);
    }

    /** Replay the window's lane activity into the watched monitor,
     *  stamped with the tick each send or delivery happened at. */
    void
    feedLaneWatch()
    {
        drainLaneActivity([this](const LaneEvent &e) {
            const int *lane = watchLane_.find(e.lane);
            assert(lane && "lane activity before resyncLaneWatch()");
            if (e.delivered)
                watch_->laneDeliveredAt(*lane, e.when);
            else
                watch_->laneSentAt(*lane, e.when);
        });
    }

    /**
     * Hand the window's lane activity to @p fn in canonical
     * (when, lane, delivered-before-sent, seq) order — placement
     * independent because a lane's sends are logged only by its
     * sender shard and its deliveries only by its receiver shard.
     * Each shard's log rises in time, so merging the logs by time
     * leaves only runs of equal times to sort. Runs on the
     * coordinator at a window barrier.
     */
    template <typename Fn>
    void
    drainLaneActivity(Fn &&fn)
    {
        laneScratch_.clear();
        for (ShardState &st : states) {
            laneMerge_.clear();
            std::merge(laneScratch_.begin(), laneScratch_.end(),
                       st.laneLog.begin(), st.laneLog.end(),
                       std::back_inserter(laneMerge_),
                       [](const LaneEvent &a, const LaneEvent &b) {
                           return a.when < b.when;
                       });
            laneScratch_.swap(laneMerge_);
            st.laneLog.clear();
        }
        corm::sim::sortTimeRuns(
            laneScratch_, [](const LaneEvent &a, const LaneEvent &b) {
                if (a.when != b.when)
                    return a.when < b.when;
                if (a.lane != b.lane)
                    return a.lane < b.lane;
                if (a.delivered != b.delivered)
                    return a.delivered;
                return a.seq < b.seq;
            });
        for (const LaneEvent &e : laneScratch_)
            fn(e);
    }

    /**
     * Visit every directional lane as (name, lane id), in the
     * deterministic link-key order — monitor lane registration
     * depends on it, and lane ids are how drainLaneActivity
     * identifies lanes. Lane names are "<name>.<from>-<to>".
     */
    void
    forEachLaneId(
        const std::function<void(const std::string &, std::uint64_t)>
            &fn)
    {
        ensureBuilt();
        for (Link *link : linksInKeyOrder()) {
            fn(laneName(link->lo, link->hi), link->laneLoHi.id);
            fn(laneName(link->hi, link->lo), link->laneHiLo.id);
        }
    }

    /**
     * Run the fabric on @p engine: islands are partitioned across the
     * engine's shard simulators per @p shardOfNode (indexed by island
     * id; ids past its end, all of them for an empty vector, run on
     * shard 0), and every wire hop is carried as a boundary message
     * through the engine — including same-shard hops, so the
     * event-ordering structure (and therefore every scenario digest)
     * is identical for any shard count. Call after every island is
     * attached and before any traffic. Constraints:
     *
     *  - the fabric was built on engine.sim(0);
     *  - the engine's lookahead must not exceed hopLatency (a hop is
     *    the minimum cross-shard interaction latency);
     *  - tracing uses per-shard recorders (setShardTrace), and lane
     *    monitoring runs off feedLaneWatch at barriers;
     *  - send(msg) must execute on the shard owning msg.src, which
     *    falls out naturally when workload events are scheduled on
     *    the source island's shard simulator;
     *  - abandon notifications reach the abandon observer only at
     *    drainAbandoned(), and membership changes (join, leave,
     *    crash, migrateEntity, churnTick, reparentNow) run only
     *    between windows — both from the engine's barrier probe or
     *    between runs.
     */
    void
    enableSharding(corm::sim::ShardedEngine &engine,
                   const std::vector<int> &shardOfNode)
    {
        assert(&sim == &engine.sim(0));
        engine_ = &engine;
        shardOf = shardOfNode;
        states.clear();
        states.resize(static_cast<std::size_t>(engine.shardCount()));
        ensureBuilt();
        // One hop is the minimum cross-shard latency; a larger
        // lookahead would let a shard run past an incoming message.
        assert(engine.lookahead() <= cfg.hopLatency);
        for (int i = 0; i < engine.shardCount(); ++i) {
            engine.setSink(i, [this](const corm::sim::ShardMessage &m) {
                onLaneDeliver(m);
            });
            states[static_cast<std::size_t>(i)].flushQueue =
                engine.sim(i).addOrderedQueue();
        }
    }

    /**
     * Deliver queued abandon notifications to the abandon observer
     * in canonical (when, lane, program-order) order — the same
     * placement-independent sort the boundary drain uses, so
     * observer-visible side effects (monitor abandon events, for
     * one) are identical for any shard count. Runs on the
     * coordinator thread at a window barrier or between runs.
     */
    void
    drainAbandoned()
    {
        abandonScratch_.clear();
        for (auto &st : states) {
            abandonScratch_.insert(abandonScratch_.end(),
                                   st.abandonedQueue.begin(),
                                   st.abandonedQueue.end());
            st.abandonedQueue.clear();
        }
        std::sort(abandonScratch_.begin(), abandonScratch_.end(),
                  [](const AbandonRecord &a, const AbandonRecord &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.lane != b.lane)
                          return a.lane < b.lane;
                      return a.seq < b.seq;
                  });
        for (const AbandonRecord &r : abandonScratch_) {
            if (onAbandon)
                onAbandon(r.msg);
        }
    }

    /**
     * Fabric statistics. With several shards the per-shard counters
     * are folded into one view on each call (harvest-time cost
     * only); call from the coordinator with no window in flight.
     */
    const FabricStats &
    stats() const
    {
        if (states.size() == 1)
            return states[0].stats;
        merged_ = FabricStats{};
        for (const ShardState &st : states)
            foldStats(merged_, st.stats);
        return merged_;
    }

    /** Link fault counters summed over every link and direction. */
    corm::interconnect::FaultPlanParams faultParams() const
    {
        return cfg.faults;
    }

    /** Aggregation buckets currently open (all hubs). */
    std::size_t
    aggPending() const
    {
        std::size_t n = 0;
        for (const ShardState &st : states)
            n += st.aggBuckets.size();
        return n;
    }

    /** High-water mark of open buckets at any single hub node. */
    std::size_t
    aggPendingHighWater() const
    {
        std::size_t m = 0;
        for (const ShardState &st : states)
            m = std::max(m, st.aggHighWater);
        return m;
    }

    /** Wire messages originated or forwarded by @p island. */
    std::uint64_t
    wireSendsFrom(IslandId island) const
    {
        return island < wireFrom.size() ? wireFrom[island] : 0;
    }

    /** Wire messages arriving at @p island (terminal or relayed). */
    std::uint64_t
    wireReceivedAt(IslandId island) const
    {
        return island < wireInto.size() ? wireInto[island] : 0;
    }

    /**
     * Total wire messages handled by @p island (sent + received):
     * the per-node load metric behind the hub-bottleneck claim.
     */
    std::uint64_t
    wireHandledAt(IslandId island) const
    {
        return wireSendsFrom(island) + wireReceivedAt(island);
    }

    /** Highest per-island wire-send load (the hub bottleneck). */
    std::uint64_t
    maxWireSends() const
    {
        std::uint64_t m = 0;
        for (IslandId id : liveIds())
            m = std::max(m, wireSendsFrom(id));
        return m;
    }

    /** Highest in-flight queue depth seen on any live link direction
     *  (copies on the wire, duplicates included). */
    std::size_t
    maxLaneQueueHighWater()
    {
        ensureBuilt();
        std::size_t m = 0;
        links.forEach([&m](std::uint64_t, const std::unique_ptr<Link> &l) {
            m = std::max({m, l->laneLoHi.onWire.highWater,
                          l->laneHiLo.onWire.highWater});
        });
        return m;
    }

    /** Parent of @p island in the built tree (root maps to itself). */
    IslandId
    parentOf(IslandId island)
    {
        ensureBuilt();
        const std::uint32_t p = parentId(island);
        return p == noParent ? island : static_cast<IslandId>(p);
    }

    /** Link hops between two attached islands (0 for self). */
    int
    hopCount(IslandId from, IslandId to)
    {
        ensureBuilt();
        int hops = 0;
        IslandId at = from;
        while (at != to && hops <= 2 * static_cast<int>(islandCount())) {
            at = nextHopFrom(at, to);
            ++hops;
        }
        return hops;
    }

    // ------------------------------------------------------------------
    // Dynamic membership (churn). All of these run on the coordinator
    // between windows — from the engine's barrier probe or between
    // runs — and take the barrier tick as `now`: with the workers
    // parked at placement-dependent ticks, it is the only
    // placement-independent clock.
    // ------------------------------------------------------------------

    /** True while @p id is an attached (live) member. */
    bool
    attached(IslandId id) const
    {
        return id < islands.size() && islands[id] != nullptr;
    }

    /**
     * Route epoch: bumps on every membership or route change
     * (build, join, leave, crash, completed re-parent) — the epoch
     * announcements advertise so peers can supersede stale routes.
     */
    std::uint64_t routeEpoch() const { return routeEpoch_; }

    /** Lifetime churn tallies. */
    struct ChurnCounters
    {
        std::uint64_t joins = 0;
        std::uint64_t leaves = 0;
        std::uint64_t crashes = 0;
        std::uint64_t migrations = 0;
        std::uint64_t reparents = 0;
    };
    const ChurnCounters &churnCounters() const { return churn_; }

    /** Orphaned children still awaiting re-parenting. */
    std::size_t
    pendingReparentCount() const
    {
        return pendingReparents_.size();
    }

    /**
     * Runtime join: attach @p island to a live fabric and wire it in
     * incrementally (mesh: links to every member; star: a link to
     * the hub; tree: under the first BFS-order node with spare
     * fanout). Routes rebuild and the route epoch bumps — the
     * scenario layer re-announces bindings to the joiner through
     * ReliableAnnouncer supersede slots. Before the first build this
     * degenerates to attach().
     */
    void
    join(ResourceIsland &island, corm::sim::Tick now)
    {
        if (dirty || liveIslands_ == 0) {
            attach(island);
            return;
        }
        const IslandId id = island.id();
        if (attached(id))
            return;
        ChurnScope scope(*this, now);
        setIsland(island);
        growNodeTables(static_cast<std::size_t>(id) + 1);
        switch (cfg.topology) {
          case FabricTopology::mesh:
            for (IslandId other : liveIds())
                if (other != id)
                    ensureLink(other, id);
            break;
          case FabricTopology::star:
            if (id != hubId)
                ensureLink(hubId, id);
            break;
          case FabricTopology::tree:
            if (id != hubId) {
                const IslandId p = pickTreeParent();
                parent[id] = p;
                children[p].push_back(id);
                ensureLink(p, id);
            }
            break;
        }
        rebuildLiveRoutes();
        ++churn_.joins;
        ++routeEpoch_;
    }

    /**
     * Graceful leave: the island flushes its own open aggregation
     * buckets, peers' buckets destined to it flush immediately, its
     * links retire, and (tree) its children re-bind to the fallback
     * parent at once — a cooperative departure needs no detection
     * window. In-flight messages toward the departed island are
     * attributed as abandoned when they hit the dead route or the
     * missing endpoint, never silently lost.
     */
    void
    leave(IslandId id, corm::sim::Tick now)
    {
        ensureBuilt();
        if (!attached(id))
            return;
        if (id == hubId) {
            logger.warn("leave(%u) ignored: the hub cannot depart",
                        static_cast<unsigned>(id));
            return;
        }
        ChurnScope scope(*this, now);
        flushBucketsWhere(id, /*includeDest=*/true);
        const IslandId fb = fallbackFor(id);
        const std::vector<IslandId> orphans = detachNode(id);
        for (IslandId c : orphans)
            applyReparent(c, fb);
        rebuildLiveRoutes();
        ++churn_.leaves;
        ++routeEpoch_;
    }

    /**
     * Crash failure: no flushes, no goodbyes. Open aggregation
     * buckets at the dead node are attributed as abandoned (a batch
     * proto carries the exact folded sum and coalesced count, so the
     * conservation ledger balances), its links retire, and (tree)
     * orphaned children queue for re-parenting after reparentDelay —
     * the window in which the lane-stall watchdog detects the dead
     * hub. churnTick() / reparentNow() complete the re-bind.
     */
    void
    crash(IslandId id, corm::sim::Tick now)
    {
        ensureBuilt();
        if (!attached(id))
            return;
        if (id == hubId) {
            logger.warn("crash(%u) ignored: the hub cannot depart",
                        static_cast<unsigned>(id));
            return;
        }
        ChurnScope scope(*this, now);
        abandonOwnBuckets(id);
        const IslandId fb = fallbackFor(id);
        const std::vector<IslandId> orphans = detachNode(id);
        for (IslandId c : orphans)
            pendingReparents_.push_back({c, fb, now + cfg.reparentDelay});
        rebuildLiveRoutes();
        ++churn_.crashes;
        ++routeEpoch_;
    }

    /**
     * Live entity migration: future deliveries addressed to
     * (src, entity) re-forward to @p dst. Dedup keys are checked at
     * the old home FIRST (lookup-only), so a retransmission whose
     * original applied pre-migration is re-acked, never re-applied —
     * and a miss forwards without claiming the key, leaving the new
     * home's dedup window authoritative. Open aggregation buckets
     * destined to the old home flush immediately so no delta lingers
     * under a stale address. The caller hands over coordination
     * state (weights, convergence intent) and re-announces bindings;
     * the fabric handles addressing.
     *
     * Precondition: @p dst must currently home its own (dst, entity)
     * address — or forward it to @p src, the "migrate back home"
     * case, where the state coming in IS the state that left. If
     * dst's address forwards anywhere else, the call is refused: two
     * distinct logical entity states would collide at one address,
     * and the forwarded state's deliveries would silently re-home.
     * Migrate the forwarded state back (or pick another destination)
     * first.
     */
    bool
    migrateEntity(IslandId src, IslandId dst, EntityId entity,
                  corm::sim::Tick now)
    {
        ensureBuilt();
        if (src == dst || !attached(src) || !attached(dst))
            return false;
        const IslandId dstHome = resolveEntity(dst, entity);
        if (resolveEntity(src, entity) != src
            || (dstHome != dst && dstHome != src))
            return false;
        ChurnScope scope(*this, now);
        flushBucketsDestined(src, entity);
        // Path-compress: every chain ending at src re-points to dst,
        // so resolution is single-hop. A chain that re-points onto
        // its own origin (migrating merged state back home) becomes
        // a self-loop, which erases — the address is home again.
        for (auto &[key, to] : migrated_)
            if (to == src
                && static_cast<EntityId>(key & 0xffffffffu) == entity)
                to = dst;
        migrated_[migKey(src, entity)] = dst;
        migrated_.erase(migKey(dst, entity));
        ++churn_.migrations;
        return true;
    }

    /** Present home of @p entity declared at @p home (identity when
     *  never migrated). */
    IslandId
    currentHome(IslandId home, EntityId entity) const
    {
        return resolveEntity(home, entity);
    }

    /**
     * Complete re-parents whose delay has elapsed (dueAt <= now).
     * Call periodically, at window barriers.
     */
    void churnTick(corm::sim::Tick now) { processReparents(now, false); }

    /**
     * Complete every pending re-parent immediately — the watchdog
     * path: a lane-stall breach told the policy layer the hub is
     * dead, so there is no need to wait out reparentDelay.
     */
    void reparentNow(corm::sim::Tick now) { processReparents(now, true); }

  private:
    /**
     * Delivery ticks of a lane's copies still on the wire, ascending,
     * in a power-of-two ring: the lane's queue depth. Pruned at each
     * transmit, so the depth (and its high water, the hub-pressure
     * metric) is what the sender sees when it puts a copy on the
     * wire. In-order copies append at the tail in O(1); reordered and
     * duplicate copies insert in place.
     */
    struct OnWire
    {
        std::vector<corm::sim::Tick> ring;
        std::size_t head = 0, count = 0, highWater = 0;

        /** Out of line: inlined into transmit() it slowed the
         *  fabric hop path by ~8% (fabric_tree_dense wall). */
        [[gnu::noinline]] void
        push(corm::sim::Tick now, corm::sim::Tick when)
        {
            while (count != 0 && ring[head] <= now) {
                head = (head + 1) & (ring.size() - 1);
                --count;
            }
            if (count == ring.size())
                grow();
            const std::size_t mask = ring.size() - 1;
            std::size_t i = (head + count) & mask;
            for (std::size_t n = count; n != 0; --n) {
                const std::size_t prev = (i - 1) & mask;
                if (ring[prev] <= when)
                    break;
                ring[i] = ring[prev];
                i = prev;
            }
            ring[i] = when;
            highWater = std::max(highWater, ++count);
        }

        void
        grow()
        {
            std::vector<corm::sim::Tick> bigger(
                ring.empty() ? 8 : 2 * ring.size());
            for (std::size_t k = 0; k < count; ++k)
                bigger[k] = ring[(head + k) & (ring.size() - 1)];
            ring.swap(bigger);
            head = 0;
        }
    };

    /**
     * One link direction: the interconnect's wire rule (WireLane:
     * fault stream, in-order clamp, duplicate tick) over the engine's
     * boundary queues, owned by the sender's shard. The lane id is
     * derived from the endpoint ids alone — placement-independent, so
     * the engine's canonical (when, lane, seq) injection order does
     * not change with the shard count.
     */
    struct Lane
    {
        std::uint64_t id = 0;
        IslandId from = 0, to = 0;
        corm::interconnect::WireLane wire;
        std::uint64_t nextSeq = 0; ///< per-lane send counter
        OnWire onWire;
    };

    struct Link
    {
        IslandId lo, hi;
        std::unique_ptr<corm::interconnect::FaultPlan> weather;
        Lane laneLoHi, laneHiLo;

        Lane &
        laneFrom(IslandId from)
        {
            return from == lo ? laneLoHi : laneHiLo;
        }
    };

    /** One wire message in flight on one link. */
    struct Flight
    {
        CoordMessage msg;
        corm::sim::Tick originSentAt = 0; ///< logical send time
        IslandId from = 0, to = 0;
        int hopsSoFar = 0; ///< link hops completed before this one
        int attempts = 1;  ///< wire attempts on this link
        corm::sim::Tick timeout = 0;
    };

    /** An open hub aggregation bucket. */
    struct AggBucket
    {
        CoordMessage proto; ///< dst/entity template; value = sum
        IslandId node = 0, next = 0;
        corm::sim::Tick earliestOrigin = 0;
    };

    /** One queued abandon with its canonical-ordering key. */
    struct AbandonRecord
    {
        CoordMessage msg;
        corm::sim::Tick when = 0; ///< abandon tick on the owner shard
        std::uint64_t lane = 0;   ///< lane the flight died on
        std::uint64_t seq = 0;    ///< per-shard-state program order
    };

    /**
     * Lazily registered trace track ids (-1 = not registered yet),
     * indexed by island id: one per node, and one per directional
     * (from, to) lane in the sender's row.
     */
    struct TrackIds
    {
        std::vector<int> nodes;
        std::vector<std::vector<std::pair<IslandId, int>>> lanes;

        int &
        node(IslandId n)
        {
            if (n >= nodes.size())
                nodes.resize(static_cast<std::size_t>(n) + 1, -1);
            return nodes[n];
        }

        int &
        lane(IslandId from, IslandId to)
        {
            if (from >= lanes.size())
                lanes.resize(static_cast<std::size_t>(from) + 1);
            for (auto &[peer, trk] : lanes[from])
                if (peer == to)
                    return trk;
            return lanes[from].emplace_back(to, -1).second;
        }
    };

    /**
     * "<prefix><type>" trace event names, built once per message type
     * so a traced hop formats no string.
     */
    struct TypedNames
    {
        std::array<std::string, 5> byType; ///< [0] = unknown type

        explicit TypedNames(const char *prefix)
        {
            for (std::size_t t = 0; t < byType.size(); ++t)
                byType[t] = std::string(prefix)
                    + msgTypeName(static_cast<MsgType>(t));
        }

        const std::string &
        operator()(MsgType t) const
        {
            const auto i = static_cast<std::size_t>(t);
            return byType[i < byType.size() ? i : 0];
        }
    };

    static inline const TypedNames hopName{"hop:"};
    static inline const TypedNames replayName{"replay:"};
    static inline const TypedNames dupName{"hop:dup:"};

    /**
     * Mutable fabric state owned by one shard. Each shard's worker
     * touches only its own state: flights and aggregation buckets
     * are keyed by nodes the shard owns, tags only need to be unique
     * within a shard, and the stats counters are folded at harvest
     * (see stats()).
     */
    struct ShardState
    {
        FlatTable<Flight> flights;
        FlatTable<AggBucket> aggBuckets;
        std::uint64_t nextTag = 0;
        std::size_t aggHighWater = 0;
        /** Abandons awaiting drainAbandoned(). */
        std::vector<AbandonRecord> abandonedQueue;
        std::uint64_t abandonSeq = 0;
        FabricStats stats;
        /** This shard's trace recorder (see setShardTrace). */
        corm::obs::TraceRecorder *rec = nullptr;
        /** Lazy track ids on rec. */
        TrackIds tracks;
        /** Window-local lane activity log (see drainLaneActivity). */
        std::vector<LaneEvent> laneLog;
        std::uint64_t laneLogSeq = 0;
        /** Flush timers of the fold windows: always now + aggWindow
         *  on this shard's simulator, hence in order. */
        corm::sim::Simulator::OrderedQueue flushQueue;
    };

    static std::uint32_t
    linkKey(IslandId a, IslandId b)
    {
        const IslandId lo = std::min(a, b), hi = std::max(a, b);
        return (static_cast<std::uint32_t>(lo) << 16) | hi;
    }

    /** One orphaned child queued for re-binding after a hub crash. */
    struct PendingReparent
    {
        IslandId child = 0;
        IslandId fallback = 0;
        corm::sim::Tick dueAt = 0;
    };

    /**
     * Scoped barrier-time override: while a churn action runs at a
     * window barrier the shard sims are parked at placement-dependent
     * ticks, so nowFor() must serve the barrier tick instead — the
     * only placement-independent clock available there.
     */
    struct ChurnScope
    {
        CoordFabric &f;
        std::optional<corm::sim::Tick> saved;
        ChurnScope(CoordFabric &fab, corm::sim::Tick now)
            : f(fab), saved(fab.churnNow_)
        {
            fab.churnNow_ = now;
        }
        ~ChurnScope() { f.churnNow_ = saved; }
    };

    /** Current tick for @p node's actions; the barrier tick during a
     *  churn action (see ChurnScope). */
    corm::sim::Tick
    nowFor(IslandId node)
    {
        return churnNow_ ? *churnNow_ : simFor(node).now();
    }

    /** Grow the node-indexed tables to cover ids below @p span. */
    void
    growNodeTables(std::size_t span)
    {
        if (wireFrom.size() < span) {
            wireFrom.resize(span, 0);
            wireInto.resize(span, 0);
            aggDepth.resize(span, 0);
            seen.resize(span);
            parent.resize(span, noParent);
            children.resize(span);
        }
    }

    /** Install @p island in the id-indexed membership table. */
    void
    setIsland(ResourceIsland &island)
    {
        const std::size_t id = island.id();
        if (id >= islands.size())
            islands.resize(id + 1, nullptr);
        if (islands[id] == nullptr)
            ++liveIslands_;
        islands[id] = &island;
    }

    /** Attached island ids, ascending. */
    std::vector<IslandId>
    liveIds() const
    {
        std::vector<IslandId> ids;
        ids.reserve(liveIslands_);
        for (std::size_t id = 0; id < islands.size(); ++id)
            if (islands[id] != nullptr)
                ids.push_back(static_cast<IslandId>(id));
        return ids;
    }

    /** Tree parent of @p node, or noParent. */
    std::uint32_t
    parentId(IslandId node) const
    {
        return node < parent.size() ? parent[node] : noParent;
    }

    /** Live link between @p a and @p b, or null. */
    Link *
    linkBetween(IslandId a, IslandId b)
    {
        std::unique_ptr<Link> *l = links.find(linkKey(a, b));
        return l ? l->get() : nullptr;
    }

    /** Live links in link-key order, the order monitor lane
     *  registration depends on. */
    std::vector<Link *>
    linksInKeyOrder()
    {
        std::vector<Link *> v;
        v.reserve(links.size());
        links.forEach([&v](std::uint64_t, std::unique_ptr<Link> &l) {
            v.push_back(l.get());
        });
        std::sort(v.begin(), v.end(), [](const Link *a, const Link *b) {
            return linkKey(a->lo, a->hi) < linkKey(b->lo, b->hi);
        });
        return v;
    }

    /** makeLink unless the endpoint pair is already live (a re-join
     *  may reuse a pair whose old link was retired). */
    void
    ensureLink(IslandId a, IslandId b)
    {
        if (!links.contains(linkKey(a, b)))
            makeLink(a, b);
    }

    /** Rebuild routes over the live membership, dropping stale
     *  entries that routed to or through departed nodes. */
    void rebuildLiveRoutes() { buildRoutes(liveIds()); }

    /** First BFS-order tree node with spare fanout (join placement —
     *  deterministic for a given call sequence). */
    IslandId
    pickTreeParent() const
    {
        const std::size_t k =
            static_cast<std::size_t>(std::max(1, cfg.treeFanout));
        std::vector<IslandId> q{hubId};
        for (std::size_t i = 0; i < q.size(); ++i) {
            const std::vector<IslandId> &kids = children[q[i]];
            if (kids.size() < k)
                return q[i];
            q.insert(q.end(), kids.begin(), kids.end());
        }
        return hubId;
    }

    /** Fallback parent for @p id's orphans: the configured fallback,
     *  else @p id's own parent, else the root. */
    IslandId
    fallbackFor(IslandId id) const
    {
        if (cfg.fallbackParent != 0 && cfg.fallbackParent != id
            && attached(cfg.fallbackParent))
            return cfg.fallbackParent;
        const std::uint32_t p = parentId(id);
        if (p != noParent && attached(static_cast<IslandId>(p)))
            return static_cast<IslandId>(p);
        return hubId;
    }

    /** True if climbing the parent chain from @p node reaches
     *  @p root (cycle-guarded; broken chains answer false). */
    bool
    inSubtree(IslandId node, IslandId root) const
    {
        std::size_t guard = 0;
        IslandId at = node;
        while (at != hubId && ++guard <= liveIslands_ + 1) {
            if (at == root)
                return true;
            const std::uint32_t p = parentId(at);
            if (p == noParent)
                return false;
            at = static_cast<IslandId>(p);
        }
        return at == root;
    }

    /**
     * Remove @p id from membership, retire its links, unhook it from
     * its parent; returns its (tree) children, now orphaned. The
     * orphans keep their dangling parent entry until re-bound:
     * treeNextHop sees the broken chain and routes to the unroutable
     * sentinel, which attributes the message instead of throwing.
     */
    std::vector<IslandId>
    detachNode(IslandId id)
    {
        islands[id] = nullptr;
        --liveIslands_;
        std::vector<std::uint64_t> dead;
        links.forEach([&](std::uint64_t key, std::unique_ptr<Link> &l) {
            if (l->lo == id || l->hi == id)
                dead.push_back(key);
        });
        for (std::uint64_t key : dead)
            links.erase(key);
        std::vector<IslandId> orphans;
        orphans.swap(children[id]);
        if (const std::uint32_t p = parentId(id); p != noParent) {
            auto &v = children[p];
            v.erase(std::remove(v.begin(), v.end(), id), v.end());
            parent[id] = noParent;
        }
        return orphans;
    }

    /** Re-bind @p child under @p fallback (or the root when the
     *  fallback is gone or would create a cycle). */
    void
    applyReparent(IslandId child, IslandId fallback)
    {
        if (!attached(child))
            return; // departed while orphaned
        if (!attached(fallback))
            fallback = attached(cfg.fallbackParent) ? cfg.fallbackParent
                                                    : hubId;
        if (fallback == child || inSubtree(fallback, child))
            fallback = hubId;
        parent[child] = fallback;
        children[fallback].push_back(child);
        ensureLink(fallback, child);
        ++churn_.reparents;
    }

    /** Complete pending re-parents (all of them when @p force). */
    void
    processReparents(corm::sim::Tick now, bool force)
    {
        if (pendingReparents_.empty())
            return;
        ChurnScope scope(*this, now);
        bool changed = false;
        auto it = pendingReparents_.begin();
        while (it != pendingReparents_.end()) {
            if (!force && it->dueAt > now) {
                ++it;
                continue;
            }
            applyReparent(it->child, it->fallback);
            it = pendingReparents_.erase(it);
            changed = true;
        }
        if (changed) {
            rebuildLiveRoutes();
            ++routeEpoch_;
        }
    }

    /**
     * Flush open buckets owned by @p id and (optionally) buckets at
     * other hubs destined to @p id, in deterministic key order. The
     * bucket keys embed the owning node, so keys are unique across
     * shard states.
     */
    void
    flushBucketsWhere(IslandId id, bool includeDest)
    {
        std::vector<std::uint64_t> keys;
        for (ShardState &st : states)
            st.aggBuckets.forEach([&](std::uint64_t key, const AggBucket &b) {
                if (b.node == id || (includeDest && b.proto.dst == id))
                    keys.push_back(key);
            });
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t key : keys)
            flushBucket(key);
    }

    /** Flush open buckets anywhere destined to (@p dst, @p entity) —
     *  the migration path: no delta may linger under a stale
     *  address. */
    void
    flushBucketsDestined(IslandId dst, EntityId entity)
    {
        std::vector<std::uint64_t> keys;
        for (ShardState &st : states)
            st.aggBuckets.forEach([&](std::uint64_t key, const AggBucket &b) {
                if (b.proto.dst == dst && b.proto.entity == entity)
                    keys.push_back(key);
            });
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t key : keys)
            flushBucket(key);
    }

    /** Attribute and discard every open bucket at a crashed node;
     *  the already-scheduled flush timers then find nothing. */
    void
    abandonOwnBuckets(IslandId id)
    {
        ShardState &st = stateFor(id);
        std::vector<std::uint64_t> keys;
        st.aggBuckets.forEach([&](std::uint64_t key, const AggBucket &b) {
            if (b.node == id)
                keys.push_back(key);
        });
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t key : keys) {
            AggBucket b;
            st.aggBuckets.take(key, b);
            if (aggDepth[b.node] > 0)
                --aggDepth[b.node];
            st.stats.abandoned.add();
            if (onAbandon)
                st.abandonedQueue.push_back({b.proto, nowFor(id),
                                             laneIdOf(b.node, b.next),
                                             ++st.abandonSeq});
        }
    }

    /** (old home:16 << 32 | entity:32) forwarding-map key. */
    static std::uint64_t
    migKey(IslandId home, EntityId entity)
    {
        return (static_cast<std::uint64_t>(home) << 32) | entity;
    }

    /** Resolve (declared home, entity) through the forwarding map —
     *  single-hop thanks to path compression at migrateEntity(). */
    IslandId
    resolveEntity(IslandId home, EntityId entity) const
    {
        auto it = migrated_.find(migKey(home, entity));
        return it == migrated_.end() ? home : it->second;
    }

    /**
     * Count an unroutable / dead-route / departed-endpoint drop and,
     * for fire-and-forget tunes, hand the message to the abandon
     * observer so the lost delta is attributed in the conservation
     * ledger instead of silently vanishing. Sequenced messages are
     * not attributed here: their reliable sender owns the retry loop
     * and the terminal abandon.
     */
    void
    dropAttributed(IslandId owner, const CoordMessage &msg,
                   IslandId from, IslandId to)
    {
        ShardState &st = stateFor(owner);
        st.stats.dropped.add();
        if (msg.type != MsgType::tune || msg.seq != 0 || !onAbandon)
            return;
        st.abandonedQueue.push_back({msg, nowFor(from), laneIdOf(from, to),
                                     ++st.abandonSeq});
    }

    void
    ensureBuilt()
    {
        if (!dirty)
            return;
        dirty = false;
        links = {};
        parent.assign(parent.size(), noParent);
        for (std::vector<IslandId> &kids : children)
            kids.clear();
        const std::vector<IslandId> ids = liveIds();
        if (ids.empty()) {
            buildRoutes(ids);
            return;
        }
        hubId = attached(cfg.hub) ? cfg.hub : ids.front();

        // Size the node-indexed tables from the topology (ids.back()
        // is the highest attached id). Grow-only: re-attachment
        // rebuilds must not discard the accumulated per-node tallies
        // or dedup windows.
        growNodeTables(static_cast<std::size_t>(ids.back()) + 1);

        switch (cfg.topology) {
          case FabricTopology::mesh:
            for (std::size_t i = 0; i < ids.size(); ++i)
                for (std::size_t j = i + 1; j < ids.size(); ++j)
                    makeLink(ids[i], ids[j]);
            break;
          case FabricTopology::star:
            for (IslandId id : ids)
                if (id != hubId)
                    makeLink(hubId, id);
            break;
          case FabricTopology::tree: {
            // BFS-heap layout over the sorted ids, root first.
            std::vector<IslandId> order;
            order.push_back(hubId);
            for (IslandId id : ids)
                if (id != hubId)
                    order.push_back(id);
            const int k = std::max(1, cfg.treeFanout);
            for (std::size_t i = 1; i < order.size(); ++i) {
                const IslandId p = order[(i - 1) / k];
                parent[order[i]] = p;
                children[p].push_back(order[i]);
                makeLink(p, order[i]);
            }
            parent[hubId] = hubId;
            break;
          }
        }
        buildRoutes(ids);
        ++routeEpoch_;
    }

    void
    makeLink(IslandId a, IslandId b)
    {
        auto link = std::make_unique<Link>();
        link->lo = std::min(a, b);
        link->hi = std::max(a, b);
        if (cfg.faults.any()) {
            // Per-link deterministic weather: the link's stream pair
            // derives from the master seed and the (lo, hi) ids, so
            // it is independent of construction order.
            corm::interconnect::FaultPlanParams p = cfg.faults;
            p.seed = corm::sim::SplitMix64(
                         cfg.faults.seed
                         ^ (0x9e3779b97f4a7c15ULL
                            * (static_cast<std::uint64_t>(
                                   linkKey(a, b))
                               + 1)))
                         .next();
            link->weather =
                std::make_unique<corm::interconnect::FaultPlan>(p);
            link->laneLoHi.wire.setInjector(&link->weather->aToB());
            link->laneHiLo.wire.setInjector(&link->weather->bToA());
        }
        link->laneLoHi.id = laneIdOf(link->lo, link->hi);
        link->laneLoHi.from = link->lo;
        link->laneLoHi.to = link->hi;
        link->laneHiLo.id = laneIdOf(link->hi, link->lo);
        link->laneHiLo.from = link->hi;
        link->laneHiLo.to = link->lo;
        links.tryEmplace(linkKey(a, b)).first = std::move(link);
    }

    /**
     * Fill the route table over the live @p ids. Every entry starts
     * as its own destination — the answer for a pair with no route —
     * so only live pairs are computed.
     */
    void
    buildRoutes(const std::vector<IslandId> &ids)
    {
        routeSpan_ = wireFrom.size();
        nextHop.resize(routeSpan_ * routeSpan_);
        for (std::size_t i = 0; i < nextHop.size(); ++i)
            nextHop[i] = static_cast<IslandId>(i % routeSpan_);
        for (IslandId from : ids) {
            for (IslandId to : ids) {
                if (from == to)
                    continue;
                IslandId next = to;
                switch (cfg.topology) {
                  case FabricTopology::mesh:
                    next = to;
                    break;
                  case FabricTopology::star:
                    next = (from == hubId) ? to : hubId;
                    break;
                  case FabricTopology::tree:
                    next = treeNextHop(from, to);
                    break;
                }
                nextHop[from * routeSpan_ + to] = next;
            }
        }
    }

    /** Next hop from @p from toward @p to; @p to itself when no route
     *  was built (including ids outside the table). */
    IslandId
    nextHopFrom(IslandId from, IslandId to) const
    {
        return from < routeSpan_ && to < routeSpan_
            ? nextHop[from * routeSpan_ + to]
            : to;
    }

    /**
     * Next hop from @p from toward @p to along the tree path. While
     * a crashed hub's orphans await re-parenting their chains dangle;
     * a broken (or cyclic) chain answers @p from itself — the
     * unroutable sentinel, which no link ever matches, so wireSend
     * attributes the message instead of throwing here.
     */
    IslandId
    treeNextHop(IslandId from, IslandId to)
    {
        // Climb from `to` toward the root; if we pass `from`, the
        // hop below it is the downward next hop. Otherwise `to` is
        // not in from's subtree and the next hop is from's parent.
        IslandId at = to;
        IslandId below = to;
        std::size_t guard = 0;
        while (at != hubId) {
            const std::uint32_t p = parentId(at);
            if (p == noParent || ++guard > liveIslands_)
                return from;
            if (p == from)
                return at;
            below = at;
            at = static_cast<IslandId>(p);
        }
        if (from == hubId)
            return below;
        const std::uint32_t p = parentId(from);
        return p == noParent ? from : static_cast<IslandId>(p);
    }

    bool
    isTreeHub(IslandId node) const
    {
        return node < children.size() && !children[node].empty();
    }

    /**
     * Forward @p msg from @p node toward msg.dst: fold eligible
     * tunes into the node's aggregation bucket, everything else
     * straight onto the next link.
     */
    void
    forwardFrom(IslandId node, const CoordMessage &msg,
                corm::sim::Tick origin, int hopsSoFar)
    {
        const IslandId next = nextHopFrom(node, msg.dst);
        if (cfg.topology == FabricTopology::tree && cfg.aggWindow > 0
            && isTreeHub(node)) {
            if (msg.type == MsgType::tune && msg.seq == 0) {
                foldInto(node, next, msg, origin);
                return;
            }
            if (msg.type == MsgType::trigger)
                stateFor(node).stats.triggerBypass.add();
        }
        wireSend(node, next, msg, origin, hopsSoFar);
    }

    void
    foldInto(IslandId node, IslandId next, const CoordMessage &msg,
             corm::sim::Tick origin)
    {
        ShardState &sst = stateFor(node);
        // (node:16, dst:16, entity:32). The next hop needs no key
        // lane: routing is deterministic, so one (node, dst) pair
        // always forwards through the same next hop (kept in the
        // bucket for the flush).
        const std::uint64_t key =
            (static_cast<std::uint64_t>(node) << 48)
            | (static_cast<std::uint64_t>(msg.dst) << 32)
            | msg.entity;
        auto [b, fresh] = sst.aggBuckets.tryEmplace(key);
        if (fresh) {
            b.proto = msg;
            b.proto.src = node; // the batch originates at the hub
            b.node = node;
            b.next = next;
            b.earliestOrigin = origin;
            const std::size_t depth = ++aggDepth[node];
            sst.aggHighWater = std::max(sst.aggHighWater, depth);
            corm::obs::TraceRecorder *const r = sst.rec;
            if (CORM_TRACE_ACTIVE(r) && msg.trace != 0) {
                r->instant(nodeTrackOn(sst, node), simFor(node).now(),
                           "agg:open", "coord",
                           {{"entity",
                             static_cast<std::uint64_t>(msg.entity)},
                            {"dst", static_cast<int>(msg.dst)}});
            }
            corm::sim::Simulator &s = simFor(node);
            s.scheduleInOrder(sst.flushQueue, s.now() + cfg.aggWindow,
                              [this, key] { flushBucket(key); });
            return;
        }
        sst.stats.aggFolded.add();
        b.proto.value += msg.value;
        b.proto.coalesced += msg.coalesced;
        b.earliestOrigin = std::min(b.earliestOrigin, origin);
        corm::obs::TraceRecorder *const r = sst.rec;
        if (CORM_TRACE_ACTIVE(r) && msg.trace != 0
            && msg.trace != b.proto.trace) {
            // The folded contributor's span ends here; the batch
            // carries the first contributor's span onward.
            r->instant(nodeTrackOn(sst, node), simFor(node).now(),
                       "agg:fold", "coord",
                       {{"entity",
                         static_cast<std::uint64_t>(msg.entity)}});
            r->span(nodeTrackOn(sst, node), simFor(node).now(),
                    msg.trace, {corm::obs::FlowMark::fold}, true);
        }
    }

    void
    flushBucket(std::uint64_t key)
    {
        // The owning node rides in the key's top 16 bits, locating
        // the shard state on whichever thread the flush timer fires.
        const IslandId node = static_cast<IslandId>(key >> 48);
        ShardState &sst = stateFor(node);
        AggBucket b;
        if (!sst.aggBuckets.take(key, b))
            return;
        if (aggDepth[b.node] > 0)
            --aggDepth[b.node];
        sst.stats.aggBatches.add();
        corm::obs::TraceRecorder *const r = sst.rec;
        if (CORM_TRACE_ACTIVE(r) && b.proto.trace != 0) {
            r->instant(
                nodeTrackOn(sst, b.node), nowFor(b.node),
                "agg:flush", "coord",
                {{"coalesced",
                  static_cast<std::uint64_t>(b.proto.coalesced)},
                 {"entity",
                  static_cast<std::uint64_t>(b.proto.entity)}});
        }
        wireSend(b.node, b.next, b.proto, b.earliestOrigin, 0);
    }

    /**
     * Put @p msg on the @p from -> @p to link. The flight record
     * stays local unless weather drops the attempt — it only exists
     * to feed drop/replay chains, and the payload rides the boundary
     * message itself, so the receiving shard never touches this
     * shard's flight map.
     */
    void
    wireSend(IslandId from, IslandId to, const CoordMessage &msg,
             corm::sim::Tick origin, int hopsSoFar)
    {
        ShardState &st = stateFor(from);
        Link *lk = linkBetween(from, to);
        if (lk == nullptr) {
            // Topology changed under an in-flight message: the next
            // hop is gone (or routing answered the unroutable
            // sentinel). Attribute rather than lose the delta.
            dropAttributed(from, msg, from, to);
            return;
        }
        const std::uint64_t tag = ++st.nextTag;
        Flight f;
        f.msg = msg;
        f.originSentAt = origin;
        f.from = from;
        f.to = to;
        f.hopsSoFar = hopsSoFar;
        f.attempts = 1;
        f.timeout = cfg.replayTimeout;
        st.stats.wireMessages.add();
        if (msg.type == MsgType::tune)
            st.stats.wireTunes.add();
        ++wireFrom[from];
        transmit(st, *lk, tag, f);
    }

    /**
     * One wire attempt of a flight (first send or replay). Returns
     * true if the attempt was posted; false if weather dropped it,
     * in which case dropFlight has recorded (or abandoned) the
     * flight under @p tag.
     */
    bool
    transmit(ShardState &st, Link &link, std::uint64_t tag, Flight &f)
    {
        Lane &lane = link.laneFrom(f.from);
        // Barrier-time churn actions (a leave's bucket flush, say)
        // transmit while the shard sims are parked at placement-
        // dependent ticks: nowFor serves the barrier tick there and
        // the owning sim's clock during a window.
        const corm::sim::Tick tnow = nowFor(f.from);
        // Logged before the fault roll, so the stall watchdog sees
        // attempts the weather ate.
        if (watch_)
            st.laneLog.push_back(
                {tnow, lane.id, ++st.laneLogSeq, false});
        const std::optional<corm::interconnect::WireTicks> t =
            lane.wire.attempt(tnow, cfg.hopLatency);
        if (!t) {
            if (CORM_TRACE_ACTIVE(st.rec))
                st.rec->instant(laneTrackOn(st, lane), tnow,
                                "hop:drop", "coord");
            dropFlight(st, tag, f, lane.id);
            return false;
        }
        lane.onWire.push(tnow, t->first);
        if (CORM_TRACE_ACTIVE(st.rec))
            traceHop(st, lane, tnow, t->first, f);
        corm::sim::ShardMessage e;
        e.when = t->first;
        e.seq = ++lane.nextSeq;
        e.lane = lane.id;
        e.node = f.to;
        e.hops = static_cast<std::uint16_t>(f.hopsSoFar);
        e.w0 = f.msg.encodeWord0();
        e.w1 = f.msg.encodeWord1();
        e.w2 = f.msg.encodeWord2();
        e.origin = f.originSentAt;
        e.flow = f.msg.trace;
        e.aux = f.msg.coalesced;
        engine_->post(shardOfNode(f.from), shardOfNode(f.to), e);
        if (t->second) {
            // Second copy; the receiver counts it and drops it.
            corm::sim::ShardMessage d = e;
            d.when = *t->second;
            d.seq = ++lane.nextSeq;
            d.flags |= corm::sim::ShardMessage::flagDuplicate;
            lane.onWire.push(tnow, d.when);
            engine_->post(shardOfNode(f.from), shardOfNode(f.to), d);
        }
        return true;
    }

    /**
     * Trace one posted wire attempt. The sender already knows the
     * delivery tick, so the hop slice is emitted at transmit: the
     * slice stays on the sender's shard (single-writer tracks). The
     * flow step on the lane track, stamped with that delivery tick,
     * is the stitch between the sender-side span and the
     * receiver-side continuation. Out of line, so the untraced
     * transmit() stays lean.
     */
    [[gnu::noinline]] void
    traceHop(ShardState &st, Lane &lane, corm::sim::Tick tnow,
             corm::sim::Tick delivery, const Flight &f)
    {
        const int trk = laneTrackOn(st, lane);
        st.rec->complete(
            trk, tnow, delivery - tnow, hopName(f.msg.type), "coord",
            {{"entity", static_cast<std::uint64_t>(f.msg.entity)},
             {"seq", static_cast<int>(f.msg.seq)},
             {"hop", f.hopsSoFar + 1}});
        st.rec->span(trk, tnow, f.msg.trace,
                     corm::obs::FlowStamp::hop(f.msg.type == MsgType::ack,
                                               delivery, f.attempts > 1));
    }

    /**
     * Weather ate a wire attempt: back off or abandon. The first
     * drop of a flight is where its record enters the flight map; a
     * replay's record is already there.
     */
    void
    dropFlight(ShardState &st, std::uint64_t tag, const Flight &dropped,
               std::uint64_t laneId)
    {
        st.stats.linkDrops.add();
        if (dropped.attempts > cfg.replayAttempts) {
            abandonFlight(st, tag, dropped, laneId);
            return;
        }
        auto [f, fresh] = st.flights.tryEmplace(tag);
        if (fresh)
            f = dropped;
        const corm::sim::Tick wait = f.timeout;
        const double next = static_cast<double>(f.timeout)
            * (cfg.replayBackoff > 1.0 ? cfg.replayBackoff : 1.0);
        f.timeout = std::min(
            cfg.replayCap, static_cast<corm::sim::Tick>(next));
        const IslandId from = f.from;
        simFor(from).schedule(
            wait, [this, from, tag] { replayFlight(from, tag); });
    }

    void
    replayFlight(IslandId from, std::uint64_t tag)
    {
        ShardState &st = stateFor(from);
        Flight *fp = st.flights.find(tag);
        if (fp == nullptr)
            return;
        Flight &f = *fp;
        Link *lk = linkBetween(f.from, f.to);
        if (lk == nullptr) {
            abandonFlight(st, tag, f, 0);
            return;
        }
        ++f.attempts;
        st.stats.linkReplays.add();
        st.stats.wireMessages.add();
        if (f.msg.type == MsgType::tune)
            st.stats.wireTunes.add();
        ++wireFrom[f.from];
        if (CORM_TRACE_ACTIVE(st.rec)) {
            Lane &lane = lk->laneFrom(f.from);
            st.rec->instant(laneTrackOn(st, lane), simFor(from).now(),
                            replayName(f.msg.type), "coord",
                            {{"attempt", f.attempts}});
        }
        if (transmit(st, *lk, tag, f))
            st.flights.erase(tag);
    }

    /**
     * Replay budget exhausted. The notification is queued, not
     * delivered: abandon observers mutate scenario state and must
     * only run on the coordinator (drainAbandoned). @p laneId 0
     * means "derive from the flight's endpoints" (real lane ids are
     * never 0: linkKey is at least 1).
     */
    void
    abandonFlight(ShardState &st, std::uint64_t tag, const Flight &f,
                  std::uint64_t laneId)
    {
        const CoordMessage msg = f.msg;
        const IslandId from = f.from, to = f.to;
        st.flights.erase(tag); // no record if the first attempt died
        st.stats.abandoned.add();
        if (laneId == 0)
            laneId = laneIdOf(from, to);
        const corm::sim::Tick when = simFor(from).now();
        if (CORM_TRACE_ACTIVE(st.rec)) {
            // Deliberately no flow end: an abandoned message's span
            // dangles (begin/steps without end), which is exactly
            // what the trace shows for information that was lost.
            st.rec->instant(
                laneTrackOn(st, from, to), when, "abandon",
                "coord",
                {{"entity", static_cast<std::uint64_t>(msg.entity)}});
        }
        if (onAbandon)
            st.abandonedQueue.push_back(
                {msg, when, laneId, ++st.abandonSeq});
    }

    /**
     * Delivery sink: a boundary message reached its destination
     * shard. Runs on that shard's thread; the decoded message rejoins
     * the normal relay / final-delivery path.
     */
    void
    onLaneDeliver(const corm::sim::ShardMessage &e)
    {
        const IslandId node = e.node;
        ShardState &st = stateFor(node);
        // Every arriving copy counts as lane activity, duplicates
        // included.
        if (watch_)
            st.laneLog.push_back({simFor(node).now(), e.lane,
                                  ++st.laneLogSeq, true});
        if (e.flags & corm::sim::ShardMessage::flagDuplicate) {
            st.stats.duplicates.add();
            if (CORM_TRACE_ACTIVE(st.rec)) {
                const CoordMessage m =
                    CoordMessage::decode(e.w0, e.w1, e.w2);
                st.rec->instant(nodeTrackOn(st, node),
                                simFor(node).now(), dupName(m.type),
                                "coord");
            }
            return;
        }
        ++wireInto[node];
        CoordMessage msg = CoordMessage::decode(e.w0, e.w1, e.w2);
        msg.trace = e.flow;
        msg.coalesced = e.aux;
        const int hops = e.hops + 1;
        if (node != msg.dst) {
            st.stats.hubRelays.add();
            if (CORM_TRACE_ACTIVE(st.rec) && msg.trace != 0)
                st.rec->span(nodeTrackOn(st, node), simFor(node).now(),
                             msg.trace,
                             {corm::obs::FlowMark::checkpoint});
            forwardFrom(node, msg, e.origin, hops);
            return;
        }
        if (CORM_TRACE_ACTIVE(st.rec) && msg.trace != 0) {
            // Final hop of the span: an ack ending a reliable chain
            // or a fire-and-forget apply both terminate here; a
            // sequenced request still has its ack leg ahead.
            st.rec->span(nodeTrackOn(st, node), simFor(node).now(),
                         msg.trace, {corm::obs::FlowMark::checkpoint},
                         msg.type == MsgType::ack || msg.seq == 0);
        }
        finalDeliver(msg, e.origin, hops);
    }

    void
    finalDeliver(const CoordMessage &msg, corm::sim::Tick origin,
                 int hops)
    {
        ShardState &sst = stateFor(msg.dst);
        if (!attached(msg.dst)) {
            // Destination departed while the message was in flight.
            dropAttributed(msg.dst, msg, msg.src, msg.dst);
            return;
        }
        ResourceIsland &dst = *islands[msg.dst];
        if (!migrated_.empty()
            && (msg.type == MsgType::tune
                || msg.type == MsgType::trigger)) {
            const IslandId home = resolveEntity(msg.dst, msg.entity);
            if (home != msg.dst) {
                // Live-migration forwarding. Dedup is consulted at
                // the old home FIRST (lookup-only): a retry whose
                // original applied here pre-migration is re-acked,
                // never forwarded — the exactly-once half the new
                // home cannot see. A miss forwards without claiming
                // the key, so the new home's window stays
                // authoritative for the forwarded copy.
                if (msg.seq != 0 && seen[msg.dst].contains(msg)) {
                    sst.stats.duplicates.add();
                    sendAckFor(*this, msg.dst, msg);
                    return;
                }
                sst.stats.migForwards.add();
                CoordMessage onward = msg;
                onward.dst = home;
                forwardFrom(msg.dst, onward, origin, hops);
                return;
            }
        }
        sst.stats.delivered.add();
        sst.stats.deliveryLatencyUs.record(
            corm::sim::toMicros(simFor(msg.dst).now() - origin));
        sst.stats.hopsPerDelivery.record(static_cast<double>(hops));
        const EndpointResult r =
            applyAtEndpoint(*this, dst, seen[msg.dst], acks_, sst.rec, msg);
        if (r == EndpointResult::duplicate)
            sst.stats.duplicates.add();
        else if (r == EndpointResult::tune)
            sst.stats.appliedTunes.add(msg.coalesced);
    }

    /** Per-island trace track (lazy) on @p st's recorder: relays,
     *  aggregation, applies. */
    int
    nodeTrackOn(ShardState &st, IslandId node)
    {
        int &trk = st.tracks.node(node);
        if (trk < 0)
            trk = st.rec->track("fabric",
                                cfg.name + "@" + std::to_string(node));
        return trk;
    }

    /** "<name>.<from>-<to>": a directional lane's track and monitor
     *  lane name. */
    std::string
    laneName(IslandId from, IslandId to) const
    {
        return cfg.name + "." + std::to_string(from) + "-"
            + std::to_string(to);
    }

    /**
     * Directional lane track on @p st's recorder. Directional, so
     * each lane track is written only by its sender shard.
     */
    int
    laneTrackOn(ShardState &st, IslandId from, IslandId to)
    {
        int &trk = st.tracks.lane(from, to);
        if (trk < 0)
            trk = st.rec->track("fabric", laneName(from, to));
        return trk;
    }

    int
    laneTrackOn(ShardState &st, const Lane &lane)
    {
        return laneTrackOn(st, lane.from, lane.to);
    }

    /** Directional lane id: (linkKey << 1) | direction bit — a pure
     *  function of the endpoint ids, 64-bit so the 32-bit link key
     *  shifts without truncation. */
    static std::uint64_t
    laneIdOf(IslandId from, IslandId to)
    {
        return (static_cast<std::uint64_t>(linkKey(from, to)) << 1)
            | (from < to ? 0u : 1u);
    }

    /** Shard owning @p node. */
    int
    shardOfNode(IslandId node) const
    {
        return static_cast<std::size_t>(node) < shardOf.size()
                   ? shardOf[node]
                   : 0;
    }

    ShardState &
    stateFor(IslandId node)
    {
        return states[static_cast<std::size_t>(shardOfNode(node))];
    }

    /** Simulator that @p node's events run on. */
    corm::sim::Simulator &
    simFor(IslandId node)
    {
        return engine_->sim(shardOfNode(node));
    }

    /** Fold @p s into @p into (counter sums, Summary merges). */
    static void
    foldStats(FabricStats &into, const FabricStats &s)
    {
        into.sent.add(s.sent.value());
        into.delivered.add(s.delivered.value());
        into.dropped.add(s.dropped.value());
        into.hubRelays.add(s.hubRelays.value());
        into.wireMessages.add(s.wireMessages.value());
        into.wireTunes.add(s.wireTunes.value());
        into.appliedTunes.add(s.appliedTunes.value());
        into.linkDrops.add(s.linkDrops.value());
        into.linkReplays.add(s.linkReplays.value());
        into.abandoned.add(s.abandoned.value());
        into.duplicates.add(s.duplicates.value());
        into.aggFolded.add(s.aggFolded.value());
        into.aggBatches.add(s.aggBatches.value());
        into.triggerBypass.add(s.triggerBypass.value());
        into.migForwards.add(s.migForwards.value());
        into.retries.add(s.retries.value());
        into.deliveryLatencyUs.merge(s.deliveryLatencyUs);
        into.hopsPerDelivery.merge(s.hopsPerDelivery);
    }

    corm::sim::Simulator &sim;
    FabricParams cfg;
    IslandId hubId = 0;
    bool dirty = true;
    /** Attached islands by id (null = not attached) and their count. */
    std::vector<ResourceIsland *> islands;
    std::size_t liveIslands_ = 0;
    /** Live links by linkKey. */
    FlatTable<std::unique_ptr<Link>> links;
    /**
     * Next hop, row-major routeSpan_ x routeSpan_ (row = from),
     * rebuilt over the live membership on every membership change.
     */
    std::vector<IslandId> nextHop;
    std::size_t routeSpan_ = 0;
    /** Tree parent by id (the root is its own parent). */
    static constexpr std::uint32_t noParent = ~std::uint32_t{0};
    std::vector<std::uint32_t> parent;
    /** Tree children by id; a node with children is a tree hub. */
    std::vector<std::vector<IslandId>> children;
    /** Per-shard mutable state, one entry per engine shard. */
    std::vector<ShardState> states = std::vector<ShardState>(1);
    mutable FabricStats merged_; ///< stats() scratch (sharded)
    corm::sim::ShardedEngine *engine_ = nullptr;
    std::vector<int> shardOf; ///< island id -> shard
    // Node-indexed tallies and dedup windows (and the tree tables
    // above), sized by growNodeTables() to the highest attached id + 1
    // at ensureBuilt() and join(), so a run pays only for the id
    // range it attaches, not the whole 16-bit space. Each entry has a
    // single writer (the owner shard), and the vectors only grow,
    // never shrink.
    std::vector<std::uint64_t> wireFrom;
    std::vector<std::uint64_t> wireInto;
    std::vector<std::size_t> aggDepth;
    std::vector<SeenWindow> seen;
    AckObservers acks_;
    std::uint64_t routeEpoch_ = 0;
    ChurnCounters churn_;
    /** Barrier tick override while a churn action runs (ChurnScope). */
    std::optional<corm::sim::Tick> churnNow_;
    std::vector<PendingReparent> pendingReparents_;
    /** (old home, entity) -> new home forwarding pointers. */
    std::map<std::uint64_t, IslandId> migrated_;
    AbandonFn onAbandon;
    corm::obs::HealthMonitor *watch_ = nullptr; ///< see watchLanes
    FlatTable<int> watchLane_; ///< lane id -> monitor lane
    std::vector<LaneEvent> laneScratch_, laneMerge_; ///< drain scratch
    std::vector<AbandonRecord> abandonScratch_;
    corm::sim::Logger logger{"coord.fabric"};
};

} // namespace corm::coord
