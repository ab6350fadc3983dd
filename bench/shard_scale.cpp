/**
 * @file
 * Sharded-engine sweep: islands x shard count on a tree fabric.
 *
 * The repo's trial harness already fans independent trials across
 * cores (--jobs); this bench measures the new axis — intra-trial
 * parallelism from the sharded event loop (sim/sharded.hpp). Each
 * cell runs the fabric scenario on a tree topology with the islands
 * partitioned across K shard simulators and reports wall time,
 * window/boundary accounting and the scenario's deterministic
 * counters.
 *
 * Two claims are self-checked (exit non-zero on violation):
 *
 *  1. Determinism: for a given island count and seed, the scenario
 *     digest — and the window/boundary-message counts, which are
 *     pure functions of the global event set — are bit-identical
 *     for every swept shard count. Always enforced.
 *  2. Speedup: at the largest swept island count, 4 shards must be
 *     at least 3x faster than 1 shard. Only enforced when the host's
 *     calibrated effective parallelism (bench_util.hpp HostInfo, a
 *     spin test of all hardware threads against one) is at least
 *     3.5: a shared container can report 4 threads and deliver one
 *     core, which cannot exhibit parallel speedup. Override the
 *     threshold with CORM_SHARD_SPEEDUP_MIN (0 disables). The
 *     default ctest set runs with it disabled; the wall-clock claim
 *     is the opt-in `perf` ctest label (bench/CMakeLists.txt).
 *
 * Custom flags, consumed before the shared bench CLI:
 *
 *   --islands N[,N...]   island counts to sweep (default 64,256)
 *   --shards K[,K...]    shard counts to sweep (default 1,2,4)
 *
 * The shared capture flags (--trace/--monitor/--metrics) attach to
 * trial 0 of the first swept cell and flow through the sharded
 * barrier-time merge (DESIGN.md §11). Any capture flag also arms
 * the observability overhead pin: the first island count is re-run
 * at the largest shard count fully captured, in flight mode
 * (monitor only) and bare; the three digests must agree at zero
 * tolerance (exit non-zero otherwise) and the wall ratios plus
 * capture counts are reported under results.obs_overhead for the
 * shard_obs_gate_check baseline.
 *
 * The workload is deliberately dense (many tunes per epoch, a
 * 500 us hop latency) so each lookahead window carries enough
 * events to amortise the barrier. The workload window is fixed by
 * the scenario (not --warmup-sec/--measure-sec) so the gated
 * baseline stays comparable across invocations.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "coord/fabric.hpp"
#include "obs/trace.hpp"

namespace {

/** Per-cell deterministic fingerprint, compared across shard counts. */
struct CellIdentity
{
    std::vector<std::uint64_t> digests; // per trial
    std::uint64_t shardWindows = 0;
    std::uint64_t boundaryMessages = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> islandCounts = {64, 256};
    std::vector<int> shardCounts = {1, 2, 4};
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--islands") && i + 1 < argc) {
            islandCounts = corm::bench::intListFlag(
                "shard_scale", "--islands", argv[++i], 2, 4096);
        } else if (!std::strcmp(argv[i], "--shards") && i + 1 < argc) {
            shardCounts = corm::bench::intListFlag(
                "shard_scale", "--shards", argv[++i], 1, 16);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const auto opts = corm::bench::parseArgs(
        static_cast<int>(passthrough.size()), passthrough.data(),
        "shard_scale");
    // Capture flags (--trace/--monitor/--metrics) attach to trial 0
    // of the FIRST swept cell — the same seed and schedule regardless
    // of --jobs or sweep order, so captured artefacts are comparable
    // across invocations that put different shard counts first.
    const corm::bench::ObsCapture &obs = *opts.obs;
    const bool wantCapture =
        !obs.tracePath.empty() || obs.metrics || obs.monitor;

    corm::bench::banner("Shard scale",
                        "one trial, K concurrent event-loop shards: "
                        "islands x shards on a tree fabric");
    corm::bench::BenchReport report(opts);

    const corm::bench::HostInfo &host = report.host();
    std::printf("host: %u hardware thread(s), effective parallelism "
                "%.2f\n",
                host.hardwareThreads, host.effectiveParallelism);
    std::printf("%-14s | %8s %8s | %9s %9s %8s | %7s %7s\n", "cell",
                "wall s", "speedup", "windows", "boundary", "applied",
                "conv ms", "ev/us");

    int largestN = 0;
    for (int n : islandCounts)
        largestN = std::max(largestN, n);

    const auto makeCfg = [](int n, int k) {
        corm::platform::FabricScenarioConfig cfg;
        cfg.islands = n;
        cfg.shards = k;
        // Ids 0..n-1; the 16-bit IslandId holds 65536 of them.
        cfg.firstIslandId = 0;
        cfg.fabric.topology = corm::coord::FabricTopology::tree;
        cfg.fabric.treeFanout = 4;
        // A coarse hop gives the conservative lookahead fat
        // windows; dense epochs fill them with parallel work.
        cfg.fabric.hopLatency = 500 * corm::sim::usec;
        cfg.fabric.aggWindow = 300 * corm::sim::usec;
        cfg.tunesPerPair = 150;
        // Triggers ride the reliable low-latency path. The old
        // 8-bit seq space wrapped under this density (the
        // endpoint dedup window ate re-used seqs as replays);
        // the 32-bit space never wraps, so the dense sweep now
        // exercises the full Tune + Trigger protocol.
        cfg.triggerProb = 0.02;
        cfg.settleLimit = 500 * corm::sim::msec;
        cfg.convergencePoll = 2 * corm::sim::msec;
        cfg.monitorLanes = false;
        return cfg;
    };

    bool invariantsHold = true;
    bool identityHolds = true;
    double wall1Largest = 0.0, wall4Largest = 0.0;
    for (int n : islandCounts) {
        CellIdentity baseline;
        bool haveBaseline = false;
        int baselineShards = 0;
        double wallBase = 0.0;
        for (int k : shardCounts) {
            const corm::platform::FabricScenarioConfig cfg =
                makeCfg(n, k);
            // Capture attaches to trial 0 of the first swept cell;
            // every other trial runs bare. The binary's own
            // digest-identity check then doubles as the
            // capture-neutrality proof: the captured cell must agree
            // with every uncaptured shard count, bit for bit.
            const bool captureCell = wantCapture
                && n == islandCounts.front()
                && k == shardCounts.front();

            const auto t0 = std::chrono::steady_clock::now();
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
                            opts.obs->metricsText = r.metricsJson + "\n";
                        }
                        if (obs.monitor) {
                            opts.obs->healthReport = r.healthReport;
                            opts.obs->healthBreaches = r.healthBreaches;
                        }
                    }
                    return r;
                });
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            using R = corm::platform::FabricScenarioResult;
            CellIdentity id;
            std::uint64_t events = 0, fallbacks = 0, spills = 0;
            double applied = 0.0, convMs = 0.0;
            for (const R &r : results) {
                id.digests.push_back(r.digest);
                fallbacks += r.orderedFallbacks;
                spills += r.spills;
                id.shardWindows = r.shardWindows;
                id.boundaryMessages = r.boundaryMessages;
                events += r.eventsExecuted;
                applied += static_cast<double>(r.appliedTunes);
                convMs += r.convergenceMs;
                if (!r.deltaSumsExact || !r.converged || !r.bindingsOk
                    || !r.triggersAccounted || r.fabricDropped != 0) {
                    invariantsHold = false;
                    std::fprintf(stderr,
                                 "shard_scale: INVARIANT VIOLATION "
                                 "n=%d shards=%d (exact=%d conv=%d "
                                 "bind=%d trig=%d dropped=%llu)\n",
                                 n, k, r.deltaSumsExact, r.converged,
                                 r.bindingsOk, r.triggersAccounted,
                                 static_cast<unsigned long long>(
                                     r.fabricDropped));
                }
            }
            const auto trials =
                static_cast<double>(results.size() ? results.size()
                                                   : 1);
            applied /= trials;
            convMs /= trials;

            if (!haveBaseline) {
                baseline = id;
                haveBaseline = true;
                baselineShards = k;
                wallBase = wall;
            } else if (id.digests != baseline.digests
                       || id.shardWindows != baseline.shardWindows
                       || id.boundaryMessages
                           != baseline.boundaryMessages) {
                identityHolds = false;
                std::fprintf(
                    stderr,
                    "shard_scale: DETERMINISM VIOLATION n=%d: "
                    "shards=%d disagrees with shards=%d "
                    "(digest0 %016llx vs %016llx, windows %llu vs "
                    "%llu, boundary %llu vs %llu)\n",
                    n, k, baselineShards,
                    static_cast<unsigned long long>(id.digests[0]),
                    static_cast<unsigned long long>(
                        baseline.digests[0]),
                    static_cast<unsigned long long>(id.shardWindows),
                    static_cast<unsigned long long>(
                        baseline.shardWindows),
                    static_cast<unsigned long long>(
                        id.boundaryMessages),
                    static_cast<unsigned long long>(
                        baseline.boundaryMessages));
            }
            const double speedup = wall > 0.0 ? wallBase / wall : 0.0;
            if (n == largestN && k == 1)
                wall1Largest = wall;
            if (n == largestN && k == 4)
                wall4Largest = wall;

            char label[48];
            std::snprintf(label, sizeof(label), "tree_n%d_s%d", n, k);
            std::printf("%-14s | %8.3f %8.2f | %9llu %9llu %8.0f | "
                        "%7.1f %7.2f\n",
                        label, wall, speedup,
                        static_cast<unsigned long long>(
                            id.shardWindows),
                        static_cast<unsigned long long>(
                            id.boundaryMessages),
                        applied, convMs,
                        wall > 0.0 ? static_cast<double>(events) / wall
                                / 1e6
                                   : 0.0);

            // wall_seconds is reported for humans but never
            // baselined (machine-dependent), and the smoke test's
            // jobs-determinism diff filters it out; the speedup
            // ratio stays out of the JSON for the same reason.
            report.addScalars(
                label,
                {
                    {"digest_hi",
                     static_cast<double>(id.digests[0] >> 32)},
                    {"digest_lo",
                     static_cast<double>(id.digests[0]
                                         & 0xffffffffULL)},
                    {"shard_windows",
                     static_cast<double>(id.shardWindows)},
                    {"boundary_messages",
                     static_cast<double>(id.boundaryMessages)},
                    {"applied_tunes", applied},
                    {"convergence_ms", convMs},
                    {"ordered_fallbacks",
                     static_cast<double>(fallbacks)},
                    {"spills", static_cast<double>(spills)},
                    {"wall_seconds", wall},
                },
                events);
        }
    }

    // Observability overhead pin: with any capture flag set, re-run
    // the first-island cell at the largest swept shard count three
    // ways — fully captured (trace + monitor + metrics), flight mode
    // (monitor only: the bounded, detail-gated flight ring, no full
    // trace), and bare — and report wall-time ratios plus the
    // deterministic capture counts. The digest must not move under
    // any capture mode (enforced here at zero tolerance); the gate
    // baseline pins the ratios generously (wall time is
    // machine-dependent) and the counts exactly.
    bool captureNeutral = true;
    if (wantCapture) {
        const int n = islandCounts.front();
        const int k = shardCounts.back();
        const auto timeRun =
            [](const corm::platform::FabricScenarioConfig &c,
               corm::platform::FabricScenarioResult &out) {
                const auto t0 = std::chrono::steady_clock::now();
                out = corm::platform::runFabricScenario(c);
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                    .count();
            };
        corm::obs::TraceRecorder rec;
        rec.setEnabled(true);
        corm::platform::FabricScenarioConfig cap = makeCfg(n, k);
        cap.seed = opts.trial.seed;
        cap.trace = &rec;
        cap.monitorLanes = true;
        cap.captureMetrics = true;
        corm::platform::FabricScenarioResult rCap, rFlight, rPlain;
        const double wallCap = timeRun(cap, rCap);
        corm::platform::FabricScenarioConfig flight = makeCfg(n, k);
        flight.seed = opts.trial.seed;
        flight.monitorLanes = true;
        const double wallFlight = timeRun(flight, rFlight);
        corm::platform::FabricScenarioConfig plain = makeCfg(n, k);
        plain.seed = opts.trial.seed;
        const double wallPlain = timeRun(plain, rPlain);

        const double ratio =
            wallPlain > 0.0 ? wallCap / wallPlain : 0.0;
        const double flightRatio =
            wallPlain > 0.0 ? wallFlight / wallPlain : 0.0;
        const bool digestMatch = rCap.digest == rPlain.digest
            && rFlight.digest == rPlain.digest;
        if (!digestMatch) {
            captureNeutral = false;
            std::fprintf(stderr,
                         "shard_scale: CAPTURE PERTURBED DIGEST "
                         "n=%d shards=%d (captured %016llx flight "
                         "%016llx plain %016llx)\n",
                         n, k,
                         static_cast<unsigned long long>(rCap.digest),
                         static_cast<unsigned long long>(
                             rFlight.digest),
                         static_cast<unsigned long long>(
                             rPlain.digest));
        }
        std::printf(
            "[obs overhead @ n=%d s=%d] captured %.3fs flight %.3fs "
            "plain %.3fs (ratio %.2f / %.2f), %llu trace events, "
            "%llu breach(es), digest %s\n",
            n, k, wallCap, wallFlight, wallPlain, ratio, flightRatio,
            static_cast<unsigned long long>(rCap.traceEvents),
            static_cast<unsigned long long>(rCap.healthBreaches),
            digestMatch ? "unchanged" : "PERTURBED");
        report.addScalars(
            "obs_overhead",
            {
                {"islands", static_cast<double>(n)},
                {"shards", static_cast<double>(k)},
                {"trace_events",
                 static_cast<double>(rCap.traceEvents)},
                {"health_breaches",
                 static_cast<double>(rCap.healthBreaches)},
                {"digest_match", digestMatch ? 1.0 : 0.0},
                {"wall_captured_seconds", wallCap},
                {"wall_flight_seconds", wallFlight},
                {"wall_plain_seconds", wallPlain},
                {"wall_ratio", ratio},
                {"flight_ratio", flightRatio},
            });
    }

    report.write();

    double speedupMin = 3.0;
    if (const char *env = std::getenv("CORM_SHARD_SPEEDUP_MIN"))
        speedupMin = std::atof(env);
    // Cores' worth of measured throughput the 4-shard claim needs.
    constexpr double minParallelism = 3.5;
    bool speedupHolds = true;
    if (wall1Largest > 0.0 && wall4Largest > 0.0) {
        const double s = wall1Largest / wall4Largest;
        const bool enforce = host.effectiveParallelism >= minParallelism
            && speedupMin > 0.0;
        std::printf("[shard speedup @ n=%d] 4 shards %.2fx vs 1 shard "
                    "(%s, need >= %.2f)\n",
                    largestN, s,
                    enforce ? (s >= speedupMin ? "OK" : "TOO SLOW")
                            : "not enforced on this host",
                    speedupMin);
        if (enforce && s < speedupMin)
            speedupHolds = false;
    }

    if (!invariantsHold) {
        std::fprintf(stderr,
                     "shard_scale: FAILED (invariant violations)\n");
        return 1;
    }
    if (!identityHolds) {
        std::fprintf(stderr,
                     "shard_scale: FAILED (results differ across "
                     "shard counts)\n");
        return 1;
    }
    if (!speedupHolds) {
        std::fprintf(stderr,
                     "shard_scale: FAILED (4-shard speedup below "
                     "threshold)\n");
        return 1;
    }
    if (!captureNeutral) {
        std::fprintf(stderr,
                     "shard_scale: FAILED (observability capture "
                     "changed the digest)\n");
        return 1;
    }
    return 0;
}
