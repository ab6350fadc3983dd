/**
 * @file
 * Sharded parallel event loop: conservative-lookahead PDES.
 *
 * One Simulator is single-threaded by design; --jobs parallelism
 * lives at the trial level (platform/harness.hpp). This file adds
 * the missing axis: intra-trial parallelism. A ShardedEngine owns K
 * Simulators ("shards"), each modelling a disjoint subset of the
 * platform's islands, and advances them concurrently in lockstep
 * windows under the classic conservative-lookahead rule: with every
 * cross-shard interaction carried by a modelled link of latency L, a
 * message sent at time t cannot take effect before t + L, so every
 * shard may safely execute all events up to
 *
 *     windowEnd = min(until, earliestPendingEventAnywhere + L)
 *
 * without ever seeing a message from the "future" of another shard.
 *
 * Cross-shard traffic crosses only at window barriers. During a
 * window each shard appends ShardMessage PODs to per-(src, dst)
 * boundary queues — single-writer per queue, read exclusively by the
 * coordinator while every worker is parked at the barrier, so the
 * mutex/condvar generation barrier provides all the happens-before
 * the queues need (no atomics in the hot path, clean under TSan).
 * Between windows the coordinator moves the queues into each
 * destination's ingress arena, copying each message at most once (a
 * lone source queue meeting an empty arena hands its buffer over and
 * is not copied at all), sorts the arrivals in place into the
 * canonical (when, lane, seq) order and injects them into the
 * destination Simulator as batch events,
 * through one ordered queue per shard simulator (Simulator::
 * scheduleInOrder): a barrier's batches rise in time, and so do
 * successive barriers' while every hop takes the same latency. The
 * arrivals usually come in time order already (every queue is in
 * send order), so the sort makes one linear pass and only orders
 * each run of equal times by (lane, seq); it sorts the whole batch
 * only when the times themselves are out of order.
 *
 * Determinism contract: the window sequence is a pure function of
 * the global live-event set (Simulator::nextEventAt() deliberately
 * ignores tombstone timing), the canonical order is a pure function
 * of placement-independent lane ids and per-lane send sequences, and
 * a message's injection barrier is the window of its send time. None
 * of those depend on how islands are partitioned, so a scenario
 * digest is bit-identical for any shard count — the property the
 * shard-determinism ctests and the FabricFuzz extension enforce.
 *
 * Allocation discipline (this wraps the innermost loop): boundary
 * payloads live in per-destination ingress arenas that grow but are
 * never reshuffled, and injected batch events capture only
 * {engine, shard, offset, count} — 24 bytes, inside SmallCallback's
 * inline buffer — so parallel delivery performs no per-message heap
 * allocation.
 */

#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace corm::sim {

/**
 * One message crossing a shard boundary. POD: queues and arenas
 * shuffle these by memcpy. The payload words are opaque to the
 * engine — the fabric packs its wire words plus side-band fields
 * (origin timestamp, trace flow, coalesced count) the same way the
 * interconnect mailboxes carry (w0, w1, w2, tag, flow) tuples.
 */
struct ShardMessage
{
    /** Absolute delivery time at the destination shard. */
    Tick when = 0;
    /** Per-lane send sequence: canonical tiebreak within a lane. */
    std::uint64_t seq = 0;
    /**
     * Placement-independent lane id (one per link direction).
     * Canonical tiebreak between lanes delivering at the same tick —
     * deliberately NOT the source shard index, which would change
     * with the partition and break cross-shard-count determinism.
     * 64-bit: the fabric derives it from a 32-bit link key plus a
     * direction bit, which no longer fits 32 bits.
     */
    std::uint64_t lane = 0;
    /** Destination node, for the sink's routing context. */
    std::uint16_t node = 0;
    /** ShardMessage::flagDuplicate etc. */
    std::uint8_t flags = 0;
    /** Link hops completed before this one. */
    std::uint16_t hops = 0;
    /** Opaque payload words (the fabric's encoded wire message). */
    std::uint64_t w0 = 0, w1 = 0, w2 = 0;
    /** Side-band: logical origin timestamp of the message. */
    Tick origin = 0;
    /** Side-band: trace flow id. */
    std::uint64_t flow = 0;
    /** Side-band: payload multiplicity (coalesced tune count). */
    std::uint32_t aux = 1;

    /** Second copy of a weather-duplicated wire message. */
    static constexpr std::uint8_t flagDuplicate = 1;
};

/**
 * Sort the range @p v (a vector or a span) by @p before, a total
 * order that ranks by the elements' `when` first. If the times
 * already rise, only each run of equal times needs sorting;
 * otherwise the whole range is sorted. The order is total, so both
 * ways give the same result. Returns false when it had to sort
 * everything.
 */
template <typename Range, typename Before>
bool
sortTimeRuns(Range &&v, Before before)
{
    for (auto i = v.begin(); i != v.end();) {
        auto j = i + 1;
        while (j != v.end() && j->when == i->when)
            ++j;
        if (j != v.end() && j->when < i->when) {
            std::sort(v.begin(), v.end(), before);
            return false;
        }
        if (j - i > 1)
            std::sort(i, j, before);
        i = j;
    }
    return true;
}

/** Host-side counters of the sharded engine itself. */
struct ShardEngineStats
{
    std::uint64_t windows = 0;  ///< lookahead windows executed
    std::uint64_t messages = 0; ///< boundary messages carried
    std::uint64_t batches = 0;  ///< injection batch events scheduled
    /** Barrier batches whose times were out of order, so they took
     *  a full sort rather than per-tick tie sorts. */
    std::uint64_t fullSorts = 0;
    std::size_t maxBoundaryDepth = 0; ///< deepest (src,dst) queue
    /**
     * Host nanoseconds the coordinator spent parked at barriers
     * waiting for the slowest worker — the load-imbalance signal
     * behind the shard_scale speedup numbers. Host time, hence
     * nondeterministic: report it, never digest or baseline it.
     */
    std::uint64_t barrierWaitNs = 0;
};

/**
 * K Simulators advancing concurrently under a conservative-lookahead
 * barrier. Shard 0 runs on the calling thread; shards 1..K-1 each
 * own a persistent worker. With K == 1 no threads are spawned and
 * the engine is an ordinary (windowed) single-threaded run — the
 * honest baseline the shard_scale bench compares against.
 *
 * Usage protocol: configure sinks/probe, schedule initial events on
 * the shard simulators, then runUntil()/runFor() from one thread.
 * Between runs the caller may freely touch any shard simulator (all
 * workers are parked). During a run, shard code must only touch its
 * own simulator and post() boundary messages.
 */
class ShardedEngine
{
  public:
    /** Destination-shard delivery callback (runs on that shard). */
    using Sink = std::function<void(const ShardMessage &)>;
    /**
     * Barrier probe: runs on the coordinator thread at every window
     * barrier (all shards quiescent at the window end, boundary
     * messages already injected). Return true to stop the run —
     * the sharded analogue of Simulator::requestStop(), used for
     * convergence polling. May inspect and schedule on any shard.
     */
    using Probe = std::function<bool(Tick)>;

    /**
     * @param shards Number of shards (>= 1).
     * @param lookahead Conservative lookahead L (> 0): the minimum
     *        cross-shard latency the model guarantees.
     * @param seed Master seed the per-shard RNG streams split from.
     */
    ShardedEngine(int shards, Tick lookahead,
                  std::uint64_t seed = 0x5eedc0de5eedc0deULL)
        : nShards_(shards > 1 ? shards : 1), lookahead_(lookahead)
    {
        assert(lookahead_ > 0 && "lookahead must be positive");
        sims_.reserve(static_cast<std::size_t>(nShards_));
        for (int i = 0; i < nShards_; ++i) {
            sims_.push_back(std::make_unique<Simulator>());
            injectQueues_.push_back(sims_.back()->addOrderedQueue());
            rngs_.push_back(Rng::stream(
                seed, static_cast<std::uint64_t>(i)));
        }
        sinks_.resize(static_cast<std::size_t>(nShards_));
        postedBy_.assign(static_cast<std::size_t>(nShards_), 0);
        receivedBy_.assign(static_cast<std::size_t>(nShards_), 0);
        outbox_.resize(static_cast<std::size_t>(nShards_));
        for (auto &row : outbox_)
            row.resize(static_cast<std::size_t>(nShards_));
        ingress_.resize(static_cast<std::size_t>(nShards_));
        consumed_.assign(static_cast<std::size_t>(nShards_), 0);
        workers_.reserve(
            static_cast<std::size_t>(nShards_ > 1 ? nShards_ - 1 : 0));
        for (int i = 1; i < nShards_; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    }

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    ~ShardedEngine()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            quit_ = true;
        }
        cvWork_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    /** Number of shards. */
    int shardCount() const { return nShards_; }

    /** Simulator of @p shard. */
    Simulator &
    sim(int shard)
    {
        return *sims_[static_cast<std::size_t>(shard)];
    }

    /**
     * Independent RNG stream of @p shard, split statelessly from the
     * master seed (Rng::stream), so stream k is identical no matter
     * how many shards exist.
     */
    Rng &
    rng(int shard)
    {
        return rngs_[static_cast<std::size_t>(shard)];
    }

    /** Coordinator clock: end of the last completed window. */
    Tick now() const { return clock_; }

    /** Conservative lookahead the engine was built with. */
    Tick lookahead() const { return lookahead_; }

    /** Install the delivery callback of @p shard (before running). */
    void
    setSink(int shard, Sink s)
    {
        sinks_[static_cast<std::size_t>(shard)] = std::move(s);
    }

    /** Install the barrier probe (see Probe). */
    void setProbe(Probe p) { probe_ = std::move(p); }

    /** True if the last run was ended early by the probe. */
    bool stopped() const { return stopped_; }

    /**
     * Queue a boundary message from @p src to @p dst. Runs on shard
     * @p src (its worker thread, mid-window) or on the coordinator
     * between windows. The delivery time must respect the lookahead
     * contract: at or after the current window's end.
     */
    void
    post(int src, int dst, const ShardMessage &m)
    {
        assert(m.when >= windowEnd_ &&
               "boundary message violates the lookahead contract");
        outbox_[static_cast<std::size_t>(src)]
               [static_cast<std::size_t>(dst)]
                   .push_back(m);
        // Single-writer like the outbox row itself; read only at
        // barriers under the generation barrier's happens-before.
        ++postedBy_[static_cast<std::size_t>(src)];
    }

    /** Pre-size each shard simulator for @p eventsByShard[k] pending
     *  events (Simulator::reserve). */
    void
    reserve(const std::vector<std::size_t> &eventsByShard)
    {
        for (std::size_t k = 0; k < sims_.size(); ++k)
            sims_[k]->reserve(eventsByShard.at(k));
        for (auto &row : outbox_)
            for (auto &q : row)
                q.reserve(64);
    }

    /**
     * Advance every shard to @p until (or until the probe stops the
     * run), window by window. On return all shard clocks sit at
     * @p until unless the probe stopped early, in which case they
     * sit at the stopping window's end (== now()).
     */
    void
    runUntil(Tick until)
    {
        stopped_ = false;
        // Boundary messages posted between runs (scenario setup
        // traffic) sit in the outboxes, not in any simulator yet:
        // inject them before planning the first window.
        drainAndInject();
        for (;;) {
            Tick minNext = maxTick;
            for (auto &s : sims_)
                minNext = std::min(minNext, s->nextEventAt());
            if (minNext > until)
                break;
            const Tick wEnd = (until - minNext < lookahead_)
                                  ? until
                                  : minNext + lookahead_;
            runWindow(wEnd);
            ++stats_.windows;
            clock_ = wEnd;
            drainAndInject();
            if (probe_ && probe_(wEnd)) {
                stopped_ = true;
                return;
            }
        }
        // No pending event at or before `until` anywhere: advance
        // every clock without running anything.
        for (auto &s : sims_)
            s->runUntil(until);
        clock_ = until;
    }

    /** Run @p duration ticks from now(). */
    void runFor(Tick duration) { runUntil(clock_ + duration); }

    /** Total events dispatched across every shard simulator. */
    std::uint64_t
    eventsExecuted() const
    {
        std::uint64_t n = 0;
        for (const auto &s : sims_)
            n += s->executedEvents();
        return n;
    }

    /** Engine-level counters. */
    const ShardEngineStats &stats() const { return stats_; }

    // Per-shard self-observability. Deterministic for a fixed shard
    // count (they describe the partition, so they differ across
    // shard counts — report them per `shard{k}`, never digest them
    // across K). Read at barriers or between runs only.

    /** Boundary messages posted by @p shard so far. */
    std::uint64_t
    postedBy(int shard) const
    {
        return postedBy_[static_cast<std::size_t>(shard)];
    }

    /** Boundary messages injected into @p shard so far. */
    std::uint64_t
    receivedBy(int shard) const
    {
        return receivedBy_[static_cast<std::size_t>(shard)];
    }

  private:
    /** Canonical boundary order: (when, lane, seq). */
    static bool
    canonicalBefore(const ShardMessage &a, const ShardMessage &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.lane != b.lane)
            return a.lane < b.lane;
        return a.seq < b.seq;
    }

    void
    workerLoop(int idx)
    {
        std::uint64_t seenGen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(m_);
                cvWork_.wait(lk, [&] {
                    return quit_ || generation_ != seenGen;
                });
                if (quit_)
                    return;
                seenGen = generation_;
            }
            sims_[static_cast<std::size_t>(idx)]->runUntil(target_);
            {
                std::lock_guard<std::mutex> lk(m_);
                if (--running_ == 0)
                    cvDone_.notify_one();
            }
        }
    }

    /** Run every shard to @p wEnd; blocks until all are parked. */
    void
    runWindow(Tick wEnd)
    {
        windowEnd_ = wEnd;
        if (nShards_ == 1) {
            sims_[0]->runUntil(wEnd);
            return;
        }
        {
            std::lock_guard<std::mutex> lk(m_);
            target_ = wEnd;
            running_ = nShards_ - 1;
            ++generation_;
        }
        cvWork_.notify_all();
        sims_[0]->runUntil(wEnd); // shard 0 rides the caller's thread
        const auto parkedAt = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lk(m_);
        cvDone_.wait(lk, [&] { return running_ == 0; });
        stats_.barrierWaitNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - parkedAt)
                .count());
    }

    /**
     * Barrier work: move every boundary message into its
     * destination's ingress arena, sort the new arrivals there into
     * canonical order and schedule one batch event per
     * equal-timestamp run. Each message is copied at most once: the
     * first non-empty queue to meet an empty arena swaps buffers with
     * it instead (the arena's old buffer, empty, becomes the queue's),
     * and later queues append.
     */
    void
    drainAndInject()
    {
        for (int d = 0; d < nShards_; ++d) {
            const auto dd = static_cast<std::size_t>(d);
            auto &arena = ingress_[dd];
            if (!arena.empty() && consumed_[dd] == arena.size()) {
                // Fully drained: recycle the arena's memory. Indices
                // held by still-pending batch events would dangle,
                // hence the full-consumption check.
                arena.clear();
                consumed_[dd] = 0;
            }
            const std::size_t base = arena.size();
            for (int s = 0; s < nShards_; ++s) {
                auto &q = outbox_[static_cast<std::size_t>(s)][dd];
                stats_.maxBoundaryDepth =
                    std::max(stats_.maxBoundaryDepth, q.size());
                if (q.empty())
                    continue;
                if (arena.empty())
                    arena.swap(q);
                else
                    arena.insert(arena.end(), q.begin(), q.end());
                q.clear();
            }
            const std::span<ShardMessage> fresh(arena.data() + base,
                                                arena.size() - base);
            if (fresh.empty())
                continue;
            if (!sortTimeRuns(fresh, canonicalBefore))
                ++stats_.fullSorts;
            stats_.messages += fresh.size();
            receivedBy_[dd] += fresh.size();
            std::size_t i = 0;
            while (i < fresh.size()) {
                std::size_t j = i + 1;
                while (j < fresh.size() && fresh[j].when == fresh[i].when)
                    ++j;
                const std::size_t at = base + i;
                const std::uint32_t count =
                    static_cast<std::uint32_t>(j - i);
                sims_[dd]->scheduleInOrder(
                    injectQueues_[dd], fresh[i].when,
                    [this, d, at, count] { deliverRun(d, at, count); });
                ++stats_.batches;
                i = j;
            }
        }
    }

    /** Deliver @p count arena entries starting at @p at to @p d. */
    void
    deliverRun(int d, std::size_t at, std::uint32_t count)
    {
        const auto dd = static_cast<std::size_t>(d);
        Sink &sink = sinks_[dd];
        for (std::uint32_t k = 0; k < count; ++k)
            sink(ingress_[dd][at + k]);
        consumed_[dd] += count;
    }

    const int nShards_;
    const Tick lookahead_;
    std::vector<std::unique_ptr<Simulator>> sims_;
    /** injectQueues_[k]: sims_[k]'s ordered queue for batch events. */
    std::vector<Simulator::OrderedQueue> injectQueues_;
    std::vector<Rng> rngs_;
    std::vector<Sink> sinks_;
    Probe probe_;

    /** outbox_[src][dst]: written by src mid-window, drained at the
     *  barrier by the coordinator. */
    std::vector<std::vector<std::vector<ShardMessage>>> outbox_;
    /** Per-destination payload arena batch events index into. */
    std::vector<std::vector<ShardMessage>> ingress_;
    /** Arena entries already delivered (written by the owner shard). */
    std::vector<std::size_t> consumed_;
    /** postedBy_[src]: written by src's thread (like its outbox row);
     *  receivedBy_[dst]: written by the coordinator at barriers. */
    std::vector<std::uint64_t> postedBy_;
    std::vector<std::uint64_t> receivedBy_;

    Tick clock_ = 0;
    Tick windowEnd_ = 0;
    bool stopped_ = false;
    ShardEngineStats stats_;

    // Generation barrier for the persistent workers.
    std::mutex m_;
    std::condition_variable cvWork_, cvDone_;
    std::uint64_t generation_ = 0;
    int running_ = 0;
    Tick target_ = 0;
    bool quit_ = false;
    std::vector<std::thread> workers_;
};

} // namespace corm::sim
