/**
 * @file
 * Per-layer probes: short timed loops over one layer's public entry
 * point, sized from the workload (event depth, messages per window,
 * fabric topology and fault plan). Each reports host ns per operation
 * plus the lower-layer work one operation caused, so a layer's self
 * cost can be separated from the kernel work it triggers.
 */

#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace cormbench {

struct ProbeResult
{
    double ns = 0.0;       ///< host ns per operation (median chunk)
    double events = 0.0;   ///< kernel events dispatched per operation
    double boundary = 0.0; ///< sharded boundary messages per operation
    double wire = 0.0;     ///< fabric wire messages per operation
    double mailbox = 0.0;  ///< mailbox sends per operation
};

/** Simulator schedule + dispatch at @p depth live events (hold model). */
ProbeResult probeDispatch(std::uint64_t depth, double budgetS,
                          std::uint64_t seed);
/** ShardedEngine post + runUntil at K=1, @p perWindow messages a window. */
ProbeResult probeDrain(std::uint64_t perWindow, double budgetS,
                       std::uint64_t seed);
/** CoordFabric send -> deliver, per wire message, aggregation off. */
ProbeResult probeHop(Workload w, double budgetS, std::uint64_t seed);
/** CoordFabric incast bursts that fold at hubs, per folded tune. */
ProbeResult probeFold(Workload w, double budgetS, std::uint64_t seed);
/** Mailbox send -> deliver, per message. */
ProbeResult probeMailbox(double budgetS);
/** CoordChannel tune send -> applyTune, per tune. */
ProbeResult probeChannelTune(double budgetS);
/** CreditScheduler::boost plus the dispatch it causes, per boost. */
ProbeResult probeBoost(double budgetS);
/** A saturated 4-domain credit scheduler, per simulated second. */
ProbeResult probeSchedSecond(double budgetS);
/** IxpIsland wire packet -> guest, per packet, on the testbed. */
ProbeResult probeIxpPacket(double budgetS);

} // namespace cormbench
