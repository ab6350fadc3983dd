/**
 * @file
 * Dynamic-fabric churn sweep: islands x churn rate on a tree fabric,
 * each cell replayed at every swept shard count.
 *
 * The cell workload is the standard fabric scenario plus a
 * deterministic schedule of membership/placement changes (island
 * joins, graceful leaves, hub crashes with delayed re-parenting,
 * and live entity migrations) spread across the workload span. The
 * schedule is derived from the trial seed, so every shard count
 * replays the same churn.
 *
 * Two claims are self-checked (exit non-zero on violation):
 *
 *  1. Conservation: for every trial of every cell, tunes_lost — the
 *     scenario's logical-minus-applied-minus-abandoned ledger — must
 *     be exactly zero: every root-issued tune is applied exactly
 *     once or attributed as abandoned, across any migration,
 *     crash, or re-parent. Always enforced.
 *  2. Determinism: for a given cell and seed, the scenario digest
 *     and the full churn accounting (reparents, migration forwards,
 *     skipped events) are bit-identical for every swept shard
 *     count. Always enforced.
 *
 * Custom flags, consumed before the shared bench CLI:
 *
 *   --islands N[,N...]   island counts to sweep (default 16,64)
 *   --churn C[,C...]     churn events per run (default 0,8,32)
 *   --shards K[,K...]    shard counts to replay (default 1,2,4)
 *
 * The workload window is fixed by the scenario (not --warmup-sec /
 * --measure-sec) so the gated baseline stays comparable.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "coord/fabric.hpp"
#include "sim/random.hpp"

namespace {

/**
 * Deterministic churn schedule: @p count events spread across the
 * workload span, drawn from a stream keyed on (seed, islands, count)
 * so every shard count — and every re-run of the gate — replays the
 * identical schedule. Events that are invalid at their tick (double
 * leave, join of a live island, self-migration) are skipped and
 * tallied by the scenario, so no pre-validation is needed here.
 */
std::vector<corm::platform::FabricScenarioConfig::ChurnEvent>
makeChurnSchedule(std::uint64_t seed, int islands, int count,
                  const corm::platform::FabricScenarioConfig &cfg)
{
    using Ev = corm::platform::FabricScenarioConfig::ChurnEvent;
    corm::sim::Rng rng(corm::sim::SplitMix64(
                           seed ^ 0xc08a5cULL
                           ^ (0x9e3779b97f4a7c15ULL
                              * (static_cast<std::uint64_t>(islands)
                                 * 131 + count)))
                           .next());
    std::vector<Ev> plan;
    plan.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        Ev ev;
        switch (rng.uniformInt(4)) {
        case 0: ev.kind = Ev::Kind::join; break;
        case 1: ev.kind = Ev::Kind::leave; break;
        case 2: ev.kind = Ev::Kind::crash; break;
        default: ev.kind = Ev::Kind::migrate; break;
        }
        ev.at = static_cast<corm::sim::Tick>(
            rng.uniformInt(static_cast<std::uint64_t>(
                cfg.workloadSpan)));
        ev.island = 1
            + static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(islands - 1)));
        ev.dstIsland = 1
            + static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(islands - 1)));
        ev.tier = static_cast<int>(
            rng.uniformInt(static_cast<std::uint64_t>(cfg.tiers)));
        plan.push_back(ev);
    }
    return plan;
}

/** Per-cell deterministic fingerprint, compared across shard counts. */
struct CellIdentity
{
    std::vector<std::uint64_t> digests; // per trial
    std::uint64_t applied = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t reparents = 0;
    std::uint64_t migForwards = 0;
    std::uint64_t skipped = 0;

    bool
    operator==(const CellIdentity &o) const
    {
        return digests == o.digests && applied == o.applied
            && abandoned == o.abandoned && reparents == o.reparents
            && migForwards == o.migForwards && skipped == o.skipped;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> islandCounts = {16, 64};
    std::vector<int> churnCounts = {0, 8, 32};
    std::vector<int> shardCounts = {1, 2, 4};
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--islands") && i + 1 < argc) {
            islandCounts = corm::bench::intListFlag(
                "churn_scale", "--islands", argv[++i], 3, 4096);
        } else if (!std::strcmp(argv[i], "--churn") && i + 1 < argc) {
            churnCounts = corm::bench::intListFlag(
                "churn_scale", "--churn", argv[++i], 0, 4096);
        } else if (!std::strcmp(argv[i], "--shards") && i + 1 < argc) {
            shardCounts = corm::bench::intListFlag(
                "churn_scale", "--shards", argv[++i], 1, 16);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const auto opts = corm::bench::parseArgs(
        static_cast<int>(passthrough.size()), passthrough.data(),
        "churn_scale");

    corm::bench::banner("Churn scale",
                        "islands x churn rate on a tree fabric, "
                        "replayed at every shard count: exactly-once "
                        "tune conservation under membership churn");
    corm::bench::BenchReport report(opts);

    std::printf("%-20s | %8s | %8s %9s %7s | %6s %6s %6s | %5s\n",
                "cell", "wall s", "applied", "abandoned", "lost",
                "repar", "migfw", "skip", "epoch");

    const auto makeCfg = [](int n, int k) {
        corm::platform::FabricScenarioConfig cfg;
        cfg.islands = n;
        cfg.shards = k;
        cfg.firstIslandId = 0;
        cfg.fabric.topology = corm::coord::FabricTopology::tree;
        cfg.fabric.treeFanout = 4;
        cfg.fabric.hopLatency = 500 * corm::sim::usec;
        cfg.fabric.aggWindow = 300 * corm::sim::usec;
        cfg.tunesPerPair = 40;
        cfg.triggerProb = 0.02;
        cfg.settleLimit = 500 * corm::sim::msec;
        cfg.convergencePoll = 2 * corm::sim::msec;
        cfg.monitorLanes = false;
        return cfg;
    };

    bool conservationHolds = true;
    bool identityHolds = true;
    for (int n : islandCounts) {
        for (int c : churnCounts) {
            CellIdentity baseline;
            bool haveBaseline = false;
            int baselineShards = 0;
            for (int k : shardCounts) {
                const corm::platform::FabricScenarioConfig proto =
                    makeCfg(n, k);

                const auto t0 = std::chrono::steady_clock::now();
                auto results = corm::platform::runTrials(
                    opts.trial, [&](int, std::uint64_t seed) {
                        corm::platform::FabricScenarioConfig cfg =
                            proto;
                        cfg.seed = seed;
                        cfg.churn =
                            makeChurnSchedule(seed, n, c, cfg);
                        return corm::platform::runFabricScenario(cfg);
                    });
                const double wall =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

                using R = corm::platform::FabricScenarioResult;
                CellIdentity id;
                std::uint64_t events = 0, routeEpochs = 0;
                std::uint64_t fallbacks = 0, spills = 0;
                std::int64_t lostTotal = 0;
                for (const R &r : results) {
                    id.digests.push_back(r.digest);
                    fallbacks += r.orderedFallbacks;
                    spills += r.spills;
                    id.applied += r.appliedTunes;
                    id.abandoned += r.abandonedTunes;
                    id.reparents += r.churnReparents;
                    id.migForwards += r.migForwards;
                    id.skipped += r.churnSkipped;
                    events += r.eventsExecuted;
                    routeEpochs += r.routeEpochs;
                    lostTotal += r.tunesLost;
                    // The headline gate: applied + abandoned must
                    // account for every logical tune, exactly.
                    if (r.tunesLost != 0 || !r.deltaSumsExact
                        || !r.converged || !r.triggersAccounted) {
                        conservationHolds = false;
                        std::fprintf(
                            stderr,
                            "churn_scale: CONSERVATION VIOLATION "
                            "n=%d churn=%d shards=%d (lost=%lld "
                            "exact=%d conv=%d trig=%d)\n%s",
                            n, c, k,
                            static_cast<long long>(r.tunesLost),
                            r.deltaSumsExact, r.converged,
                            r.triggersAccounted,
                            r.convergenceMismatch.c_str());
                    }
                }

                if (!haveBaseline) {
                    baseline = id;
                    haveBaseline = true;
                    baselineShards = k;
                } else if (!(id == baseline)) {
                    identityHolds = false;
                    std::fprintf(
                        stderr,
                        "churn_scale: DETERMINISM VIOLATION n=%d "
                        "churn=%d: shards=%d disagrees with "
                        "shards=%d (digest0 %016llx vs %016llx, "
                        "reparents %llu vs %llu, migfw %llu vs "
                        "%llu)\n",
                        n, c, k, baselineShards,
                        static_cast<unsigned long long>(
                            id.digests[0]),
                        static_cast<unsigned long long>(
                            baseline.digests[0]),
                        static_cast<unsigned long long>(id.reparents),
                        static_cast<unsigned long long>(
                            baseline.reparents),
                        static_cast<unsigned long long>(
                            id.migForwards),
                        static_cast<unsigned long long>(
                            baseline.migForwards));
                }

                char label[48];
                std::snprintf(label, sizeof(label),
                              "tree_n%d_c%d_s%d", n, c, k);
                std::printf("%-20s | %8.3f | %8llu %9llu %7lld | "
                            "%6llu %6llu %6llu | %5llu\n",
                            label, wall,
                            static_cast<unsigned long long>(
                                id.applied),
                            static_cast<unsigned long long>(
                                id.abandoned),
                            static_cast<long long>(lostTotal),
                            static_cast<unsigned long long>(
                                id.reparents),
                            static_cast<unsigned long long>(
                                id.migForwards),
                            static_cast<unsigned long long>(
                                id.skipped),
                            static_cast<unsigned long long>(
                                routeEpochs));

                // wall_seconds is reported for humans but never
                // baselined (machine-dependent); everything else in
                // the cell is deterministic and pinned exactly.
                report.addScalars(
                    label,
                    {
                        {"digest_hi",
                         static_cast<double>(id.digests[0] >> 32)},
                        {"digest_lo",
                         static_cast<double>(id.digests[0]
                                             & 0xffffffffULL)},
                        {"applied_tunes",
                         static_cast<double>(id.applied)},
                        {"abandoned_tunes",
                         static_cast<double>(id.abandoned)},
                        {"tunes_lost",
                         static_cast<double>(lostTotal)},
                        {"churn_reparents",
                         static_cast<double>(id.reparents)},
                        {"mig_forwards",
                         static_cast<double>(id.migForwards)},
                        {"churn_skipped",
                         static_cast<double>(id.skipped)},
                        {"route_epochs",
                         static_cast<double>(routeEpochs)},
                        {"ordered_fallbacks",
                         static_cast<double>(fallbacks)},
                        {"spills", static_cast<double>(spills)},
                        {"wall_seconds", wall},
                    },
                    events);
            }
        }
    }

    report.write();

    if (!conservationHolds) {
        std::fprintf(stderr,
                     "churn_scale: FAILED (tunes lost or invariant "
                     "violations under churn)\n");
        return 1;
    }
    if (!identityHolds) {
        std::fprintf(stderr,
                     "churn_scale: FAILED (results differ across "
                     "shard counts)\n");
        return 1;
    }
    return 0;
}
