/**
 * @file
 * Scale-out fabric sweep: islands x topology x link weather.
 *
 * The paper's prototype coordinates three islands over a single
 * PCIe mailbox; this bench asks what happens when the same
 * coordination protocol has to span many islands. Each cell runs
 * the sharded-RUBiS fabric scenario (root classifier island, N-1
 * shard islands, shared tier entities) on one fabric topology and
 * one link-weather setting, and reports the scale-out cost metric
 * — hub wire messages per applied (logical) tune — alongside hub
 * queue depth and convergence time.
 *
 * The claim under test: a hierarchical (tree) fabric with hub
 * aggregation needs measurably fewer messages per applied tune than
 * a star at large island counts, because intermediate hubs coalesce
 * per-entity deltas within the aggregation window. The bench
 * self-checks that claim at the largest swept island count and
 * exits non-zero if it does not hold, and also requires the exact
 * delta-sum invariant (sum of applied + abandoned deltas equals the
 * policy intent, bit-for-bit) in every cell.
 *
 * Custom flags, consumed before the shared bench CLI:
 *
 *   --islands N[,N...]    island counts to sweep (default 2,8,16)
 *   --topology T[,T...]   topologies to sweep (default star,mesh,tree)
 *
 * The slow ctest profile passes --islands 2,8,16,64. The workload
 * window is fixed by the scenario (not --warmup-sec/--measure-sec)
 * so the gated baseline stays comparable across invocations.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coord/fabric.hpp"
#include "obs/trace.hpp"

namespace {

struct Weather
{
    const char *label;
    corm::interconnect::FaultPlanParams faults;
};

std::vector<corm::coord::FabricTopology>
parseTopologyList(const char *arg)
{
    std::vector<corm::coord::FabricTopology> out;
    std::string s(arg);
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string tok = s.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        corm::coord::FabricTopology t;
        if (!corm::coord::parseFabricTopology(tok, t)) {
            std::fprintf(stderr,
                         "fabric_scale: unknown topology '%s' "
                         "(star|mesh|tree)\n",
                         tok.c_str());
            std::exit(2);
        }
        out.push_back(t);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Mean of a member across trials. */
template <typename R, typename Fn>
double
meanOf(const std::vector<R> &rs, Fn f)
{
    if (rs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : rs)
        sum += static_cast<double>(f(r));
    return sum / static_cast<double>(rs.size());
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off the sweep flags the shared CLI does not know, then
    // hand the rest to parseArgs (which exits on unknown options).
    std::vector<int> islandCounts = {2, 8, 16};
    std::vector<corm::coord::FabricTopology> topologies = {
        corm::coord::FabricTopology::star,
        corm::coord::FabricTopology::mesh,
        corm::coord::FabricTopology::tree,
    };
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--islands") && i + 1 < argc) {
            islandCounts = corm::bench::intListFlag(
                "fabric_scale", "--islands", argv[++i], 2, 4096);
        } else if (!std::strcmp(argv[i], "--topology")
                   && i + 1 < argc) {
            topologies = parseTopologyList(argv[++i]);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const auto opts = corm::bench::parseArgs(
        static_cast<int>(passthrough.size()), passthrough.data(),
        "fabric_scale");

    corm::bench::banner("Fabric scale",
                        "sharded RUBiS tiers across N islands: "
                        "topology x link weather");
    corm::bench::BenchReport report(opts);

    const Weather weathers[] = {
        {"clean", {}},
        {"faulty",
         []() {
             corm::interconnect::FaultPlanParams p;
             p.lossProb = 0.02;
             p.dupProb = 0.01;
             p.reorderProb = 0.01;
             return p;
         }()},
    };

    std::printf("%-18s | %7s %7s %9s | %6s %7s | %6s %6s\n", "cell",
                "hub/ap", "wire/ap", "applied", "hub q", "conv ms",
                "replay", "aband");

    // msgsPerAppliedTune means, keyed for the tree-vs-star check.
    double gridMsgs[2][3] = {}; // [weather][topology ordinal]
    bool gridSet[2][3] = {};
    int largestN = 0;
    for (int n : islandCounts)
        largestN = std::max(largestN, n);

    bool invariantsHold = true;
    for (int n : islandCounts) {
        for (const auto topo : topologies) {
            for (std::size_t w = 0; w < 2; ++w) {
                corm::platform::FabricScenarioConfig cfg;
                cfg.islands = n;
                cfg.fabric.topology = topo;
                cfg.fabric.treeFanout = 4;
                // The aggregation window is the tree's whole point;
                // star/mesh have no relay hubs so it is inert there.
                cfg.fabric.aggWindow = 300 * corm::sim::usec;
                cfg.fabric.faults = weathers[w].faults;
                cfg.fabric.faults.seed = opts.trial.seed ^ 0xfab;
                cfg.monitorLanes = false;

                // Capture (--trace/--monitor/--metrics) attaches to
                // trial 0 of the first swept cell, same contract as
                // shard_scale: the seed and schedule there are
                // --jobs-independent, so captured artefacts are
                // reproducible.
                const corm::bench::ObsCapture &obs = *opts.obs;
                const bool captureCell =
                    (!obs.tracePath.empty() || obs.metrics
                     || obs.monitor)
                    && n == islandCounts.front()
                    && topo == topologies.front() && w == 0;

                auto results = corm::platform::runTrials(
                    opts.trial, [&](int idx, std::uint64_t seed) {
                        corm::platform::FabricScenarioConfig c = cfg;
                        c.seed = seed;
                        corm::obs::TraceRecorder rec;
                        const bool cap = captureCell && idx == 0;
                        if (cap) {
                            if (!obs.tracePath.empty()) {
                                rec.setEnabled(true);
                                c.trace = &rec;
                            }
                            if (obs.monitor)
                                c.monitorLanes = true;
                            c.captureMetrics = obs.metrics;
                        }
                        auto r = corm::platform::runFabricScenario(c);
                        if (cap) {
                            if (c.trace)
                                opts.obs->traceJson = rec.json();
                            if (obs.metrics) {
                                opts.obs->metricsJson = r.metricsJson;
                                opts.obs->metricsText =
                                    r.metricsJson + "\n";
                            }
                            if (obs.monitor) {
                                opts.obs->healthReport =
                                    r.healthReport;
                                opts.obs->healthBreaches =
                                    r.healthBreaches;
                            }
                        }
                        return r;
                    });

                using R = corm::platform::FabricScenarioResult;
                const double msgsPer = meanOf(
                    results,
                    [](const R &r) { return r.msgsPerAppliedTune; });
                const double hubPer = meanOf(
                    results,
                    [](const R &r) { return r.hubMsgsPerAppliedTune; });
                const double applied = meanOf(
                    results, [](const R &r) { return r.appliedTunes; });
                const double wireTunes = meanOf(
                    results,
                    [](const R &r) { return r.wireTuneMessages; });
                const double hubQ = meanOf(results, [](const R &r) {
                    return r.hubQueueHighWater;
                });
                const double convMs = meanOf(
                    results, [](const R &r) { return r.convergenceMs; });
                const double replays = meanOf(
                    results, [](const R &r) { return r.linkReplays; });
                const double aband = meanOf(results, [](const R &r) {
                    return r.abandonedWire;
                });
                std::uint64_t events = 0;
                for (const auto &r : results) {
                    events += r.eventsExecuted;
                    if (!r.deltaSumsExact || !r.converged
                        || !r.bindingsOk || !r.triggersAccounted
                        || r.fabricDropped != 0) {
                        invariantsHold = false;
                        std::fprintf(
                            stderr,
                            "fabric_scale: INVARIANT VIOLATION "
                            "n=%d topo=%s weather=%s "
                            "(exact=%d conv=%d bind=%d trig=%d "
                            "dropped=%llu)\n",
                            n, corm::coord::fabricTopologyName(topo),
                            weathers[w].label, r.deltaSumsExact,
                            r.converged, r.bindingsOk,
                            r.triggersAccounted,
                            static_cast<unsigned long long>(
                                r.fabricDropped));
                    }
                }

                char label[64];
                std::snprintf(label, sizeof(label), "%s_n%d_%s",
                              corm::coord::fabricTopologyName(topo), n,
                              weathers[w].label);
                std::printf("%-18s | %7.3f %7.3f %9.0f | %6.0f "
                            "%7.1f | %6.0f %6.0f\n",
                            label, hubPer, msgsPer, applied, hubQ,
                            convMs, replays, aband);

                report.addScalars(
                    label,
                    {
                        {"hub_messages_per_applied_tune", hubPer},
                        {"hub_wire_messages",
                         meanOf(results,
                                [](const R &r) {
                                    return r.hubWireMessages;
                                })},
                        {"messages_per_applied_tune", msgsPer},
                        {"applied_tunes", applied},
                        {"wire_tune_messages", wireTunes},
                        {"wire_messages",
                         meanOf(results,
                                [](const R &r) {
                                    return r.wireMessages;
                                })},
                        {"hub_relays",
                         meanOf(results,
                                [](const R &r) {
                                    return r.hubRelays;
                                })},
                        {"agg_batches",
                         meanOf(results,
                                [](const R &r) {
                                    return r.aggBatches;
                                })},
                        {"agg_folded",
                         meanOf(results,
                                [](const R &r) {
                                    return r.aggFolded;
                                })},
                        {"hub_queue_depth", hubQ},
                        {"convergence_ms", convMs},
                        {"link_replays", replays},
                        {"abandoned_wire", aband},
                        {"mean_hops",
                         meanOf(results,
                                [](const R &r) {
                                    return r.meanHops;
                                })},
                        {"converged_fraction",
                         meanOf(results,
                                [](const R &r) {
                                    return r.converged ? 1.0 : 0.0;
                                })},
                    },
                    events);

                if (n == largestN) {
                    const int t = static_cast<int>(topo);
                    gridMsgs[w][t] = hubPer;
                    gridSet[w][t] = true;
                }
            }
        }
    }

    report.write();

    // The headline claim: at the largest island count (>= 8), the
    // hierarchical fabric must beat the star on hub messages per
    // applied tune in every weather cell where both ran: a star's
    // hub touches every wire message, a tree's root only its
    // children's folded batches.
    bool claimHolds = true;
    const int star = static_cast<int>(corm::coord::FabricTopology::star);
    const int tree = static_cast<int>(corm::coord::FabricTopology::tree);
    if (largestN >= 8) {
        for (std::size_t w = 0; w < 2; ++w) {
            if (!gridSet[w][star] || !gridSet[w][tree])
                continue;
            const double s = gridMsgs[w][star];
            const double t = gridMsgs[w][tree];
            std::printf("[scale-out @ n=%d %s] tree %.3f vs star %.3f "
                        "hub msgs/applied-tune (%s)\n",
                        largestN, weathers[w].label, t, s,
                        t < s ? "tree wins" : "CLAIM FAILS");
            if (t >= s)
                claimHolds = false;
        }
    }

    if (!invariantsHold) {
        std::fprintf(stderr,
                     "fabric_scale: FAILED (invariant violations)\n");
        return 1;
    }
    if (!claimHolds) {
        std::fprintf(stderr,
                     "fabric_scale: FAILED (tree did not beat star "
                     "at n=%d)\n",
                     largestN);
        return 1;
    }
    return 0;
}
