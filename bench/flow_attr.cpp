/**
 * @file
 * Flow-latency attribution bench + acceptance harness.
 *
 * Runs the scale-out fabric scenario on a small tree with the
 * in-process FlowProfiler armed (cfg.profileFlows) over two cells —
 * clean links and faulty links (10% loss + 5% dup, so the reliable
 * replay/retry machinery shows up in the leg breakdowns) — sweeping
 * the shard count, and self-checks the PR's attribution claims
 * (exit non-zero on violation):
 *
 *  1. Digest neutrality: profiling is pure post-run analysis; the
 *     scenario digest of the profiled trial equals a bare rerun of
 *     the same seed, at zero tolerance.
 *  2. Shard invariance: the merged trace bytes AND the attribution
 *     report bytes are identical for every swept shard count
 *     (byte-identical trace -> byte-identical report).
 *  3. In-process / offline agreement: re-ingesting the serialized
 *     trace JSON through FlowProfiler::ingestTraceText must
 *     reproduce the scenario's in-process report byte for byte —
 *     the same cross-validation bench/trace_analyze.cpp performs
 *     out of process (the flow_attr_check ctest closes that loop).
 *  4. Attribution sanity: the faulty cell must attribute retry time
 *     (blame or leg sum) that the clean cell does not, and every
 *     reassembled flow must land in a named outcome (completed +
 *     coalesced + abandoned + orphans == flows).
 *
 * Custom flags, consumed before the shared bench CLI:
 *
 *   --islands N          islands in both cells (default 12)
 *   --shards K[,K...]    shard counts to sweep (default 1,2,4)
 *   --profile PATH       write the faulty-cell front-shard report
 *                        (trailing newline, trace_analyze-compatible)
 *
 * The shared --trace PATH writes the matching merged trace, so
 * `flow_attr --trace t.json --profile p.json` followed by
 * `trace_analyze t.json --json q.json` must satisfy p == q.
 *
 * Gated scalars (bench/baselines/flow_attr.json): per-cell flow and
 * outcome counts, blame tallies and digests at zero tolerance; wall
 * time generously.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coord/fabric.hpp"
#include "obs/flowprofile.hpp"
#include "obs/trace.hpp"

namespace {

struct CellSpec
{
    const char *label;
    bool faulty;
};

} // namespace

int
main(int argc, char **argv)
{
    int islands = 12;
    std::vector<int> shardCounts = {1, 2, 4};
    std::string profilePath;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--islands") && i + 1 < argc) {
            islands = static_cast<int>(corm::bench::unsignedFlag(
                "flow_attr", argv[i], argv[i + 1], 2, 4096));
            ++i;
        } else if (!std::strcmp(argv[i], "--shards") && i + 1 < argc) {
            shardCounts = corm::bench::intListFlag(
                "flow_attr", "--shards", argv[++i], 1, 16);
        } else if (!std::strcmp(argv[i], "--profile")
                   && i + 1 < argc) {
            profilePath = argv[++i];
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const auto opts = corm::bench::parseArgs(
        static_cast<int>(passthrough.size()), passthrough.data(),
        "flow_attr");

    corm::bench::banner(
        "Flow attribution",
        "per-leg latency blame on a faulty tree fabric: in-process "
        "profiler vs offline trace analytics");
    corm::bench::BenchReport report(opts);

    const auto makeCfg = [&](bool faulty, int k) {
        corm::platform::FabricScenarioConfig cfg;
        cfg.islands = islands;
        cfg.shards = k;
        cfg.firstIslandId = 0;
        cfg.fabric.topology = corm::coord::FabricTopology::tree;
        cfg.fabric.treeFanout = 3;
        cfg.fabric.hopLatency = 200 * corm::sim::usec;
        // Aggregation open so tree hubs fold fire-and-forget tunes
        // (the `coalesced` outcome the profiler must attribute).
        cfg.fabric.aggWindow = 300 * corm::sim::usec;
        cfg.tunesPerPair = 30;
        cfg.triggerProb = 0.1; // reliable path: acks, retries
        cfg.settleLimit = 500 * corm::sim::msec;
        cfg.convergencePoll = 2 * corm::sim::msec;
        cfg.monitorLanes = false;
        if (faulty) {
            // Dense enough weather that link replays, reliable-layer
            // retries and the occasional budget-exhaustion abandon
            // all appear in a 200 ms workload span.
            cfg.fabric.faults.lossProb = 0.10;
            cfg.fabric.faults.dupProb = 0.05;
        }
        return cfg;
    };

    const CellSpec cells[] = {
        {"tree_clean", false},
        {"tree_faulty", true},
    };

    std::printf("%-12s | %6s | %6s %6s %6s %6s %6s | %-9s %9s\n",
                "cell", "shards", "flows", "compl", "coal", "aband",
                "orph", "blame", "p99 us");

    bool ok = true;
    std::uint64_t faultyRetryBlame = 0, faultyRetrySumNs = 0;
    std::uint64_t cleanRetrySumNs = 0;
    for (const CellSpec &cell : cells) {
        std::string baseTrace, baseProfile;
        int baseShards = 0;
        std::uint64_t profiledDigest = 0, profiledSeed = 0;
        for (int k : shardCounts) {
            const bool front = k == shardCounts.front();
            corm::obs::TraceRecorder rec;
            corm::platform::FabricScenarioResult r0;
            auto results = corm::platform::runTrials(
                opts.trial, [&](int idx, std::uint64_t seed) {
                    corm::platform::FabricScenarioConfig c =
                        makeCfg(cell.faulty, k);
                    c.seed = seed;
                    if (idx == 0) {
                        rec.setEnabled(true);
                        c.trace = &rec;
                        c.profileFlows = true;
                    }
                    return corm::platform::runFabricScenario(c);
                });
            r0 = results[0];
            profiledDigest = r0.digest;
            profiledSeed = corm::platform::trialSeed(
                opts.trial.seed, 0);

            const std::string traceJson = rec.json();
            if (r0.flowProfileJson.empty()) {
                ok = false;
                std::fprintf(stderr,
                             "flow_attr: %s s=%d produced no "
                             "attribution report\n",
                             cell.label, k);
                continue;
            }

            // Claim 3: offline reingest of the serialized trace must
            // reproduce the in-process report byte for byte.
            corm::obs::FlowProfiler offline;
            std::string err;
            if (!offline.ingestTraceText(traceJson, &err)) {
                ok = false;
                std::fprintf(stderr,
                             "flow_attr: %s s=%d trace reingest "
                             "failed: %s\n",
                             cell.label, k, err.c_str());
                continue;
            }
            const std::string offlineReport = offline.reportJson(5);
            if (offlineReport != r0.flowProfileJson) {
                ok = false;
                std::fprintf(stderr,
                             "flow_attr: ATTRIBUTION DISAGREEMENT "
                             "%s s=%d: offline report differs from "
                             "in-process (%zu vs %zu bytes)\n",
                             cell.label, k, offlineReport.size(),
                             r0.flowProfileJson.size());
            }

            // Claim 2: shard-count invariance of trace and report.
            if (baseShards == 0) {
                baseTrace = traceJson;
                baseProfile = r0.flowProfileJson;
                baseShards = k;
            } else {
                if (traceJson != baseTrace) {
                    ok = false;
                    std::fprintf(stderr,
                                 "flow_attr: MERGE VIOLATION %s: "
                                 "trace differs between shards=%d "
                                 "and shards=%d\n",
                                 cell.label, k, baseShards);
                }
                if (r0.flowProfileJson != baseProfile) {
                    ok = false;
                    std::fprintf(stderr,
                                 "flow_attr: ATTRIBUTION DRIFT %s: "
                                 "report differs between shards=%d "
                                 "and shards=%d\n",
                                 cell.label, k, baseShards);
                }
            }

            // Claim 4 bookkeeping + human row, from the offline
            // profiler (already proven byte-equal to in-process).
            using corm::obs::FlowLeg;
            using corm::obs::FlowOutcome;
            const std::uint64_t flows = offline.flows().size();
            const std::uint64_t completed =
                offline.outcomeCount(FlowOutcome::completed);
            const std::uint64_t coalesced =
                offline.outcomeCount(FlowOutcome::coalesced);
            const std::uint64_t abandoned =
                offline.outcomeCount(FlowOutcome::abandoned);
            const std::uint64_t orphans =
                offline.outcomeCount(FlowOutcome::orphan);
            if (completed + coalesced + abandoned + orphans != flows
                || flows == 0) {
                ok = false;
                std::fprintf(stderr,
                             "flow_attr: OUTCOME LEAK %s s=%d: "
                             "%llu flows but outcomes sum to %llu\n",
                             cell.label, k,
                             static_cast<unsigned long long>(flows),
                             static_cast<unsigned long long>(
                                 completed + coalesced + abandoned
                                 + orphans));
            }
            const char *domBlame = "none";
            std::uint64_t domCount = 0;
            for (const char *lbl :
                 {"decide", "queue", "wire", "retry", "apply", "ack",
                  "abandoned"}) {
                const std::uint64_t c = offline.blameCount(lbl);
                if (c > domCount) {
                    domCount = c;
                    domBlame = lbl;
                }
            }
            if (front) {
                std::printf(
                    "%-12s | %6d | %6llu %6llu %6llu %6llu %6llu | "
                    "%-9s %9.1f\n",
                    cell.label, k,
                    static_cast<unsigned long long>(flows),
                    static_cast<unsigned long long>(completed),
                    static_cast<unsigned long long>(coalesced),
                    static_cast<unsigned long long>(abandoned),
                    static_cast<unsigned long long>(orphans),
                    domBlame,
                    offline.total().hist.quantile(0.99));
                if (cell.faulty) {
                    faultyRetryBlame = offline.blameCount("retry")
                        + offline.blameCount("abandoned");
                    faultyRetrySumNs =
                        offline.leg(FlowLeg::retry).sumNs;
                } else {
                    cleanRetrySumNs =
                        offline.leg(FlowLeg::retry).sumNs;
                }
                report.addScalars(
                    cell.label,
                    {
                        {"digest_hi",
                         static_cast<double>(r0.digest >> 32)},
                        {"digest_lo",
                         static_cast<double>(r0.digest
                                             & 0xffffffffULL)},
                        {"flows", static_cast<double>(flows)},
                        {"completed",
                         static_cast<double>(completed)},
                        {"coalesced",
                         static_cast<double>(coalesced)},
                        {"abandoned",
                         static_cast<double>(abandoned)},
                        {"orphans", static_cast<double>(orphans)},
                        {"blame_queue",
                         static_cast<double>(
                             offline.blameCount("queue"))},
                        {"blame_wire",
                         static_cast<double>(
                             offline.blameCount("wire"))},
                        {"blame_retry",
                         static_cast<double>(
                             offline.blameCount("retry"))},
                        {"blame_abandoned",
                         static_cast<double>(
                             offline.blameCount("abandoned"))},
                        {"retry_sum_ns",
                         static_cast<double>(
                             offline.leg(FlowLeg::retry).sumNs)},
                        {"trace_events",
                         static_cast<double>(r0.traceEvents)},
                    },
                    r0.eventsExecuted);

                // Export the faulty cell's front-shard artefacts
                // (the trace with retries, replays and abandons in
                // it); trace and profile come from the same run, so
                // the flow_attr_check trace_analyze comparison
                // closes the loop out of process.
                if (cell.faulty) {
                    if (!opts.obs->tracePath.empty())
                        opts.obs->traceJson = traceJson;
                    if (!profilePath.empty()) {
                        std::ofstream pf(profilePath);
                        pf << r0.flowProfileJson << "\n";
                    }
                }
            }
        }

        // Claim 1: digest neutrality — bare rerun of the profiled
        // seed at the front shard count.
        corm::platform::FabricScenarioConfig bare =
            makeCfg(cell.faulty, shardCounts.front());
        bare.seed = profiledSeed;
        const auto rBare = corm::platform::runFabricScenario(bare);
        if (rBare.digest != profiledDigest) {
            ok = false;
            std::fprintf(
                stderr,
                "flow_attr: PROFILING PERTURBED DIGEST %s "
                "(profiled %016llx vs bare %016llx)\n",
                cell.label,
                static_cast<unsigned long long>(profiledDigest),
                static_cast<unsigned long long>(rBare.digest));
        }
    }

    // Claim 4: weather must surface as retry attribution the clean
    // cell lacks (the whole point of leg-level blame).
    if (faultyRetrySumNs <= cleanRetrySumNs
        || faultyRetryBlame == 0) {
        ok = false;
        std::fprintf(stderr,
                     "flow_attr: ATTRIBUTION INSENSITIVE: faulty "
                     "cell retry_sum_ns %llu (blamed %llu) vs clean "
                     "%llu — weather left no retry signature\n",
                     static_cast<unsigned long long>(
                         faultyRetrySumNs),
                     static_cast<unsigned long long>(
                         faultyRetryBlame),
                     static_cast<unsigned long long>(
                         cleanRetrySumNs));
    }

    report.write();

    if (!ok) {
        std::fprintf(stderr, "flow_attr: FAILED\n");
        return 1;
    }
    std::printf("[flow_attr: in-process and offline attribution "
                "agree byte-for-byte; digest and report shard-count "
                "invariant]\n");
    return 0;
}
