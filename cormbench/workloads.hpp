/**
 * @file
 * The benchmark's workloads: what one trial runs, the outputs it must
 * produce, and the deterministic counts it contributes to the
 * per-layer report. Every call into the simulator goes through its
 * public entry points (runRubisScenario, runFabricScenario and the
 * hooks their configs expose).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "arith.hpp"
#include "coord/fabric.hpp"

namespace cormbench {

enum class Workload { rubisPaper, fabricTreeDense, fabricChurnFaulty };

/** Workload by its command-line name; nullopt for an unknown name. */
std::optional<Workload> parseWorkload(std::string_view name);
const char *workloadName(Workload w);

/**
 * Full size is what the benchmark measures; small is the same shape
 * cut down so the self-test can replay a trial twice in a second.
 */
enum class Scale { full, small };

/**
 * Deterministic per-trial counts. For a fixed (workload, scale, seed)
 * every field repeats exactly; a change meant only to speed the
 * simulator up must leave them bit-identical.
 */
struct TrialCounts
{
    // Event kernel and sharded engine.
    std::uint64_t events = 0;
    std::uint64_t liveDepth = 0; ///< pending events the kernel holds
    std::uint64_t windows = 0;
    std::uint64_t boundaryMsgs = 0;

    // Coordination fabric.
    std::uint64_t wireMsgs = 0;
    std::uint64_t wireTunes = 0;
    std::uint64_t appliedTunes = 0;
    std::uint64_t hubRelays = 0;
    std::uint64_t aggFolded = 0;
    std::uint64_t linkDrops = 0;
    std::uint64_t linkReplays = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reparents = 0;
    std::uint64_t migForwards = 0;
    std::uint64_t triggersSent = 0;
    std::uint64_t triggersAcked = 0;
    std::uint64_t healthBreaches = 0;
    std::uint64_t hubWireMsgs = 0;
    double convergenceMs = 0.0;

    // Two-island platform (RUBiS).
    std::uint64_t channelMsgs = 0;   ///< CoordChannel sends
    std::uint64_t channelTunes = 0;  ///< tunes applied on x86
    std::uint64_t ixpPackets = 0;    ///< packets through the IXP
    std::uint64_t boosts = 0;        ///< credit-scheduler boosts
    std::uint64_t requests = 0;      ///< RUBiS requests completed
    double simSeconds = 0.0;         ///< simulated platform seconds
    double baseRps = 0.0, coordRps = 0.0;

    void add(const TrialCounts &o);
    void mixInto(Fnv &h) const;
};

/** What one trial returned and whether it passed its checks. */
struct TrialOutcome
{
    bool ok = false;
    std::string failure;      ///< first failed check, empty when ok
    std::uint64_t digest = 0; ///< hash of the deterministic results
    TrialCounts counts;
    double wallNs = 0.0;      ///< host time of the whole trial
    double setupNs = 0.0;     ///< fabric: call to the wire hook; 0 for RUBiS
};

/**
 * Run one trial. @p spans (nullable) receives a `trial` span with its
 * scenario children, all tagged @p trialId. @p monitorTwin flips lane
 * monitoring relative to the workload's own setting; twins are timing
 * references only and are not checked.
 */
TrialOutcome runTrial(Workload w, Scale scale, std::uint64_t seed,
                      SpanLog *spans = nullptr, int trialId = 0,
                      bool monitorTwin = false);

/**
 * Host seconds to build the RUBiS testbed and tear it down, timed as
 * a zero-length window (no simulated event runs).
 */
double rubisSetupSeconds(std::uint64_t seed, SpanLog *spans, int sampleId);

/** Seed of the trial pinned against the benchmark's recorded digest. */
inline constexpr std::uint64_t canarySeed = 0x5eedc0de5eedc0deULL;

/** Recorded digest of the full-size canary trial of @p w. */
std::uint64_t pinnedDigest(Workload w);

/** The fabric parameters and island count of a fabric workload. */
struct FabricShape
{
    int islands = 0;
    corm::coord::FabricParams params;
};
FabricShape fabricShape(Workload w);

} // namespace cormbench
