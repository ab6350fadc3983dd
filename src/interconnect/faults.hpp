/**
 * @file
 * Deterministic fault injection for the island interconnect.
 *
 * The paper's coordination argument rests on Tune/Trigger/registration
 * messages surviving a "relatively large latency" PCIe channel between
 * independently managed islands (§2.3). To claim that coordination
 * "degrades gracefully" we must be able to subject the channel to the
 * fault modes a real shared interconnect exhibits — silent loss,
 * duplication (link-layer replay), reordering, latency spikes and
 * timed burst outages (bus resets, firmware stalls) — and do so
 * *reproducibly*: a FaultPlan is fully determined by its parameters
 * plus one 64-bit seed, so a faulty run replays bit-identically under
 * any `--jobs` fan-out (each trial owns its own plan instance).
 *
 * WireLane is the one place where a wire attempt's fate and ticks are
 * decided. The Mailbox below CoordChannel and each CoordFabric lane
 * both send through it, so every message crossing a direction sees the
 * same rule regardless of which layer above produced it.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace corm::interconnect {

/**
 * Declarative description of the channel weather. Probabilities are
 * per message and independent per direction (each direction draws
 * from its own RNG stream forked from `seed`).
 */
struct FaultPlanParams
{
    /** Master seed; both direction streams derive from it. */
    std::uint64_t seed = 0xfa011705fa011705ULL;

    /** Probability a message is silently lost. */
    double lossProb = 0.0;
    /** Probability a delivered message is duplicated once. */
    double dupProb = 0.0;
    /**
     * Probability a message is held back so later sends overtake it
     * (delivered out of FIFO order, extra delay uniform in
     * (0, reorderWindow]).
     */
    double reorderProb = 0.0;
    /** Probability a message sees a latency spike of spikeLatency. */
    double spikeProb = 0.0;

    /** Maximum extra holding delay of a reordered message. */
    corm::sim::Tick reorderWindow = 500 * corm::sim::usec;
    /** Extra one-way delay of a latency spike. */
    corm::sim::Tick spikeLatency = 2 * corm::sim::msec;
    /** Extra delay of a duplicate's second copy. */
    corm::sim::Tick dupOffset = 50 * corm::sim::usec;

    /** A timed burst outage: every send inside the window is lost. */
    struct Outage
    {
        corm::sim::Tick start = 0;
        corm::sim::Tick duration = 0;
    };
    /** Scheduled outages (absolute simulated-time windows). */
    std::vector<Outage> outages;

    /** True if this plan can perturb any message. */
    bool
    any() const
    {
        return lossProb > 0.0 || dupProb > 0.0 || reorderProb > 0.0
            || spikeProb > 0.0 || !outages.empty();
    }
};

/** What the injector decided for one message. */
struct FaultAction
{
    /** Drop the message (loss or outage). */
    bool drop = false;
    /** Deliver a second copy dupOffset after the first. */
    bool duplicate = false;
    /** Exempt from FIFO ordering (later sends may overtake). */
    bool reorder = false;
    /** Extra one-way delay (reorder hold or latency spike). */
    corm::sim::Tick extraDelay = 0;
};

/** Injected-fault counters of one direction. */
struct FaultCounters
{
    corm::sim::Counter lost;
    corm::sim::Counter duplicated;
    corm::sim::Counter reordered;
    corm::sim::Counter spiked;
    corm::sim::Counter outageDrops;
};

/**
 * Per-direction fault stream. Each message consumes a fixed number of
 * RNG draws (one per enabled fault class), so the decision sequence
 * depends only on (params, seed, message index) — never on simulated
 * time or host scheduling.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlanParams &params, std::uint64_t seed)
        : cfg(params), rng(seed)
    {}

    /** Decide the fate of the message sent at @p now. */
    FaultAction
    apply(corm::sim::Tick now)
    {
        FaultAction act;
        for (const auto &o : cfg.outages) {
            if (now >= o.start && now < o.start + o.duration) {
                counters_.outageDrops.add();
                act.drop = true;
                return act;
            }
        }
        if (cfg.lossProb > 0.0 && rng.chance(cfg.lossProb)) {
            counters_.lost.add();
            act.drop = true;
            return act;
        }
        if (cfg.dupProb > 0.0 && rng.chance(cfg.dupProb)) {
            counters_.duplicated.add();
            act.duplicate = true;
        }
        if (cfg.reorderProb > 0.0 && rng.chance(cfg.reorderProb)) {
            counters_.reordered.add();
            act.reorder = true;
            act.extraDelay += 1
                + rng.uniformInt(std::max<corm::sim::Tick>(
                    1, cfg.reorderWindow));
        }
        if (cfg.spikeProb > 0.0 && rng.chance(cfg.spikeProb)) {
            counters_.spiked.add();
            act.extraDelay += cfg.spikeLatency;
        }
        return act;
    }

    /** Injected-fault counters. */
    const FaultCounters &counters() const { return counters_; }

    /** Parameters in force. */
    const FaultPlanParams &params() const { return cfg; }

  private:
    FaultPlanParams cfg;
    corm::sim::Rng rng;
    FaultCounters counters_;
};

/** Where a posted wire attempt's copies land (WireLane::attempt). */
struct WireTicks
{
    corm::sim::Tick first = 0;             ///< first copy's tick
    std::optional<corm::sim::Tick> second; ///< duplicate's, if any
};

/**
 * The wire rule of one link direction: its fault stream and the
 * in-order clamp. A copy overtakes earlier ones only when the injector
 * drew a reorder for it; it is then exempt from the clamp and leaves
 * it untouched. The duplicate copy lands dupOffset after the first.
 */
class WireLane
{
  public:
    /** Subject the lane to @p injector's weather (nullptr: the
     *  perfect wire). Not owned. */
    void setInjector(FaultInjector *injector) { faults = injector; }

    /** One attempt sent at @p now over a wire of one-way
     *  @p latency: one weather roll, then the copies' ticks, or
     *  std::nullopt if the weather dropped it (loss or outage). */
    std::optional<WireTicks>
    attempt(corm::sim::Tick now, corm::sim::Tick latency)
    {
        FaultAction act;
        if (faults)
            act = faults->apply(now);
        if (act.drop)
            return std::nullopt;
        WireTicks t;
        t.first = now + latency + act.extraDelay;
        if (!act.reorder) {
            t.first = std::max(t.first, lastDelivery);
            lastDelivery = t.first;
        }
        if (act.duplicate)
            t.second = t.first + faults->params().dupOffset;
        return t;
    }

  private:
    FaultInjector *faults = nullptr;
    corm::sim::Tick lastDelivery = 0; ///< in-order clamp
};

/**
 * The full-duplex plan: one injector per direction, both derived from
 * the single master seed. Owned by whoever owns the channel (the
 * Testbed via CoordChannel::installFaultPlan).
 */
class FaultPlan
{
  public:
    explicit FaultPlan(const FaultPlanParams &params)
        : cfg(params),
          forward(params, corm::sim::SplitMix64(params.seed).next()),
          reverse(params,
                  corm::sim::SplitMix64(params.seed ^
                                        0x9e3779b97f4a7c15ULL)
                      .next())
    {}

    /** Injector of the a-to-b direction. */
    FaultInjector &aToB() { return forward; }
    /** Injector of the b-to-a direction. */
    FaultInjector &bToA() { return reverse; }

    /** Parameters in force. */
    const FaultPlanParams &params() const { return cfg; }

    /** Sum of a named counter across both directions. */
    std::uint64_t
    lost() const
    {
        return forward.counters().lost.value()
            + reverse.counters().lost.value();
    }
    std::uint64_t
    duplicated() const
    {
        return forward.counters().duplicated.value()
            + reverse.counters().duplicated.value();
    }
    std::uint64_t
    reordered() const
    {
        return forward.counters().reordered.value()
            + reverse.counters().reordered.value();
    }
    std::uint64_t
    spiked() const
    {
        return forward.counters().spiked.value()
            + reverse.counters().spiked.value();
    }
    std::uint64_t
    outageDrops() const
    {
        return forward.counters().outageDrops.value()
            + reverse.counters().outageDrops.value();
    }

    /** Total scheduled outage time that has elapsed by @p now. */
    corm::sim::Tick
    outageTimeUpTo(corm::sim::Tick now) const
    {
        corm::sim::Tick total = 0;
        for (const auto &o : cfg.outages) {
            if (now > o.start)
                total += std::min(now - o.start, o.duration);
        }
        return total;
    }

  private:
    FaultPlanParams cfg;
    FaultInjector forward;
    FaultInjector reverse;
};

} // namespace corm::interconnect
