/**
 * @file
 * Shared infrastructure for the paper-artefact benchmark binaries:
 *
 *  - banner/table formatting and the paper's reported values (for
 *    side-by-side shape comparison; we reproduce shapes, not absolute
 *    numbers — see EXPERIMENTS.md);
 *  - the common command line every bench accepts
 *    (--trials/--jobs/--seed/--warmup-sec/--measure-sec/--json);
 *  - multi-trial scenario runners fanning independent trials across
 *    host cores via platform/harness.hpp;
 *  - the machine-readable BENCH_<name>.json report (wall time,
 *    events/sec, merged trial results) that tracks the perf
 *    trajectory of the simulator from PR to PR.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_args.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "platform/harness.hpp"
#include "platform/scenarios.hpp"
#include "sim/log.hpp"

namespace corm::bench {

// The bench JSON report shares one writer with the metrics and trace
// emitters (obs/json.hpp) so every machine-readable artefact stays
// format-consistent.
using corm::obs::JsonWriter;
using corm::obs::jsonSummary;

/** Print a banner naming the artefact being regenerated. */
inline void
banner(const char *artefact, const char *description)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s — %s\n", artefact, description);
    std::printf("(CoRM reproduction; simulated substrate -- compare "
                "shapes, not absolute values)\n");
    std::printf("==================================================="
                "===========================\n");
}

/**
 * Paper Table 1: average request response times in ms
 * (base, coord-ixp-dom0), indexed by RequestType ordinal.
 */
struct PaperTable1Row
{
    double baseMs;
    double coordMs;
};

inline const PaperTable1Row paperTable1[] = {
    {1447, 1015}, // Register
    {922, 461},   // Browse
    {1896, 1242}, // BrowseCategories
    {1085, 788},  // SearchItemsInCategory
    {1491, 1490}, // BrowseRegions
    {1068, 927},  // BrowseCategoriesInRegion
    {590, 530},   // SearchItemsInRegion
    {2147, 1944}, // ViewItem
    {551, 292},   // BuyNow
    {1089, 867},  // PutBidAuth
    {1528, 538},  // PutBid
    {3366, 1421}, // StoreBid
    {4186, 721},  // PutComment
    {720, 490},   // Sell
    {351, 188},   // SellItemForm
    {1154, 546},  // AboutMe(authForm)
};

//
// Command line
//

/**
 * Observability capture for a bench run. The trial runners wire
 * trial 0 — which runs the same seed and configuration regardless of
 * --jobs, so the captured artefacts are byte-identical for any
 * parallelism — to fill this in; BenchReport::write() emits it.
 */
struct ObsCapture
{
    /** --trace destination; empty disables trace capture. */
    std::string tracePath;
    /** --metrics: dump + embed the registry snapshot. */
    bool metrics = false;
    /** --monitor: arm the online health monitor on trial 0. */
    bool monitor = false;
    /** --dashboard destination; empty disables (implies monitor). */
    std::string dashboardPath;

    /** Chrome trace-event JSON from trial 0 (filled by the run). */
    std::string traceJson;
    /** MetricRegistry JSON snapshot from trial 0. */
    std::string metricsJson;
    /** MetricRegistry text dump from trial 0. */
    std::string metricsText;
    /** Health monitor log from trial 0 (--monitor). */
    std::string healthReport;
    /** Unhealthy events observed on trial 0. */
    std::uint64_t healthBreaches = 0;
    /** Flight-recorder dump around the first incident, if any. */
    std::string flightJson;
    /** What triggered the flight dump. */
    std::string flightReason;
    /** Rendered time-series dashboard (--dashboard). */
    std::string dashboardHtml;
};

/** Options every bench binary accepts. */
struct BenchOptions
{
    corm::platform::TrialOptions trial;
    /** Scenario window overrides in seconds; < 0 keeps the default. */
    double warmupSec = -1.0;
    double measureSec = -1.0;
    /** Where the JSON report goes; empty = BENCH_<name>.json. */
    std::string jsonPath;
    bool writeJson = true;
    /** True once --seed was given explicitly. */
    bool seedSet = false;
    /** Bench name (set by parseArgs from the binary's artefact id). */
    std::string name;
    /**
     * Trace/metrics capture, shared between the trial runners (which
     * fill it) and the report (which writes it). Always non-null.
     */
    std::shared_ptr<ObsCapture> obs = std::make_shared<ObsCapture>();
};

inline void
printUsage(const char *bench_name)
{
    std::printf(
        "usage: %s [options]\n"
        "  --trials N        independent trials to run and merge "
        "(default 1)\n"
        "  --jobs M          worker threads; results are identical "
        "for any M (default 1)\n"
        "  --seed S          master seed, decimal or 0x-hex "
        "(default 0x5eedc0de5eedc0de)\n"
        "  --warmup-sec X    override scenario warm-up window\n"
        "  --measure-sec X   override scenario measurement window\n"
        "  --json PATH       write the JSON report to PATH "
        "(default BENCH_%s.json)\n"
        "  --no-json         skip the JSON report\n"
        "  --trace PATH      write a Perfetto-loadable trace of "
        "trial 0 to PATH\n"
        "  --metrics         print trial 0's metric registry and "
        "embed it in the report\n"
        "  --monitor         arm the online health monitor (SLO "
        "watchdogs + flight recorder) on trial 0\n"
        "  --dashboard PATH  write trial 0's time-series dashboard "
        "as HTML (implies --monitor)\n"
        "  --log-level SPEC  logging spec "
        "\"level[,component=level,...]\" (like CORM_LOG)\n"
        "  --help            this text\n",
        bench_name, bench_name);
}

/** Upper bounds of --trials and --jobs (cli_args.hpp range checks). */
inline constexpr std::uint64_t maxTrials = 1'000'000;
inline constexpr std::uint64_t maxJobs = 1024;

/**
 * Parse the shared bench flags. Exits with usage on error, so bench
 * main()s stay one-liners.
 */
inline BenchOptions
parseArgs(int argc, char **argv, const char *bench_name)
{
    BenchOptions o;
    o.name = bench_name;
    auto numeric = [&](const char *flag, int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                         flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--trials")) {
            o.trial.trials = static_cast<int>(
                unsignedFlag(argv[0], a, numeric(a, i), 1, maxTrials));
        } else if (!std::strcmp(a, "--jobs")) {
            o.trial.jobs = static_cast<int>(
                unsignedFlag(argv[0], a, numeric(a, i), 1, maxJobs));
        } else if (!std::strcmp(a, "--seed")) {
            o.trial.seed = unsignedFlag(argv[0], a, numeric(a, i), 0,
                                        UINT64_MAX, true);
            o.seedSet = true;
        } else if (!std::strcmp(a, "--warmup-sec")) {
            o.warmupSec = secondsFlag(argv[0], a, numeric(a, i));
        } else if (!std::strcmp(a, "--measure-sec")) {
            o.measureSec = secondsFlag(argv[0], a, numeric(a, i));
        } else if (!std::strcmp(a, "--json")) {
            o.jsonPath = numeric(a, i);
        } else if (!std::strcmp(a, "--no-json")) {
            o.writeJson = false;
        } else if (!std::strcmp(a, "--trace")) {
            o.obs->tracePath = numeric(a, i);
        } else if (!std::strcmp(a, "--metrics")) {
            o.obs->metrics = true;
        } else if (!std::strcmp(a, "--monitor")) {
            o.obs->monitor = true;
        } else if (!std::strcmp(a, "--dashboard")) {
            o.obs->dashboardPath = numeric(a, i);
            o.obs->monitor = true;
        } else if (!std::strcmp(a, "--log-level")) {
            const char *spec = numeric(a, i);
            if (!corm::sim::LogConfig::instance().configure(spec)) {
                std::fprintf(stderr,
                             "%s: bad --log-level spec '%s'\n",
                             argv[0], spec);
                std::exit(2);
            }
        } else if (!std::strcmp(a, "--help")) {
            printUsage(bench_name);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a);
            printUsage(bench_name);
            std::exit(2);
        }
    }
    // Observability capture is wired to trial 0 only (the one trial
    // whose seed and schedule are --jobs-independent); make the
    // narrowing explicit instead of silently dropping trials 2..N.
    if (o.trial.trials > 1
        && (!o.obs->tracePath.empty() || o.obs->monitor)) {
        std::fprintf(stderr,
                     "%s: note: --trace/--monitor capture trial 0 "
                     "only; trials 2..%d run unobserved\n",
                     argv[0], o.trial.trials);
    }
    return o;
}

/** Apply --warmup-sec/--measure-sec to a scenario window pair. */
inline void
applyWindow(const BenchOptions &o, corm::sim::Tick &warmup,
            corm::sim::Tick &measure)
{
    if (o.warmupSec >= 0.0)
        warmup = corm::sim::fromSeconds(o.warmupSec);
    if (o.measureSec >= 0.0)
        measure = corm::sim::fromSeconds(o.measureSec);
}

//
// Multi-trial scenario runners
//

/**
 * Wire a scenario config for observability capture if @p trial_idx
 * is 0 and the user asked for --trace or --metrics. The recorder
 * @p rec must outlive the scenario run (the inspect hook serializes
 * it after measurement, before teardown). Chains any inspect hook
 * the bench itself installed.
 */
template <typename Config>
inline void
attachObsCapture(const BenchOptions &o, int trial_idx, Config &cfg,
                 corm::obs::TraceRecorder &rec)
{
    std::shared_ptr<ObsCapture> obs = o.obs;
    if (!obs || trial_idx != 0
        || (obs->tracePath.empty() && !obs->metrics && !obs->monitor))
        return;
    if (!obs->tracePath.empty())
        cfg.testbed.trace = &rec;
    if (obs->monitor)
        cfg.testbed.monitor = true;
    auto prev = std::move(cfg.inspect);
    corm::obs::TraceRecorder *recp = &rec;
    cfg.inspect = [obs, prev, recp](corm::platform::Testbed &tb) {
        if (prev)
            prev(tb);
        if (obs->metrics) {
            std::ostringstream text;
            tb.metrics().writeText(text);
            obs->metricsText = text.str();
            obs->metricsJson = tb.metrics().jsonSnapshot();
        }
        if (!obs->tracePath.empty())
            obs->traceJson = recp->json();
        if (corm::obs::HealthMonitor *mon = tb.monitor()) {
            obs->healthReport = mon->healthReport();
            obs->healthBreaches = mon->breaches();
            if (mon->flight().hasSnapshot()) {
                obs->flightJson = mon->flight().snapshotJson();
                obs->flightReason = mon->flight().snapshotReason();
            }
            if (!obs->dashboardPath.empty())
                obs->dashboardHtml = mon->sampler().dashboardHtml(
                    "CoRM trial 0");
        }
    };
}

/**
 * Run --trials independent RUBiS trials of @p cfg_template across
 * --jobs threads and merge. Per-trial seeds derive from the master
 * seed; everything else in the template is shared. A default
 * single-trial run (no --seed) keeps the template's built-in RNG
 * seeds so the no-flag invocation regenerates the paper artefact
 * documented in EXPERIMENTS.md byte-for-byte.
 */
inline corm::platform::MergedRubis
runRubisTrials(const corm::platform::RubisScenarioConfig &cfg_template,
               const BenchOptions &o)
{
    const bool reseed = o.trial.trials > 1 || o.seedSet;
    auto results = corm::platform::runTrials(
        o.trial, [&](int idx, std::uint64_t seed) {
            corm::platform::RubisScenarioConfig cfg = cfg_template;
            applyWindow(o, cfg.warmup, cfg.measure);
            if (reseed)
                corm::platform::applyTrialSeed(cfg, seed);
            corm::obs::TraceRecorder rec;
            attachObsCapture(o, idx, cfg, rec);
            return corm::platform::runRubisScenario(cfg);
        });
    return corm::platform::mergeRubisResults(results);
}

/** RUBiS trials with the default scenario configuration. */
inline corm::platform::MergedRubis
runRubis(bool coordination, const BenchOptions &o)
{
    corm::platform::RubisScenarioConfig cfg;
    cfg.coordination = coordination;
    cfg.warmup = 20 * corm::sim::sec;
    cfg.measure = 300 * corm::sim::sec;
    return runRubisTrials(cfg, o);
}

/**
 * Run --trials MPlayer-QoS trials. The scenario's workload is fully
 * deterministic (no stochastic streams), so trials differ only if
 * the template does; the harness still parallelises sweeps.
 */
inline corm::platform::MergedMplayerQos
runMplayerTrials(const corm::platform::MplayerQosConfig &cfg_template,
                 const BenchOptions &o)
{
    auto results = corm::platform::runTrials(
        o.trial, [&](int idx, std::uint64_t) {
            corm::platform::MplayerQosConfig cfg = cfg_template;
            applyWindow(o, cfg.warmup, cfg.measure);
            corm::obs::TraceRecorder rec;
            attachObsCapture(o, idx, cfg, rec);
            return corm::platform::runMplayerQos(cfg);
        });
    return corm::platform::mergeMplayerResults(results);
}

/** Run --trials buffer-threshold Trigger trials. */
inline corm::platform::MergedTrigger
runTriggerTrials(
    const corm::platform::TriggerScenarioConfig &cfg_template,
    const BenchOptions &o)
{
    auto results = corm::platform::runTrials(
        o.trial, [&](int idx, std::uint64_t) {
            corm::platform::TriggerScenarioConfig cfg = cfg_template;
            applyWindow(o, cfg.warmup, cfg.measure);
            corm::obs::TraceRecorder rec;
            attachObsCapture(o, idx, cfg, rec);
            return corm::platform::runTriggerScenario(cfg);
        });
    return corm::platform::mergeTriggerResults(results);
}

//
// Host block
//

/**
 * What the host running a bench can deliver. hardware_concurrency()
 * is what the OS reports; in a shared container the throughput of
 * that many threads can sit far below it, so wall-clock speedup
 * checks arm on the calibrated number instead (see shard_scale).
 */
struct HostInfo
{
    unsigned hardwareThreads = 0;
    /** Cores' worth of throughput hardwareThreads threads get. */
    double effectiveParallelism = 0.0;
};

/** Wall seconds @p threads threads take to each spin @p n rounds. */
inline double
spinSeconds(unsigned threads, std::uint64_t n)
{
    std::atomic<std::uint64_t> sink{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([n, &sink] {
            std::uint64_t x = 0x9e3779b97f4a7c15ULL;
            for (std::uint64_t i = 0; i < n; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            sink.fetch_add(x, std::memory_order_relaxed);
        });
    }
    for (auto &th : pool)
        th.join();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Effective parallelism over @p k threads: k threads each spin the
 * work one thread spun alone, and k * t1 / tk is how many cores'
 * worth of throughput the host delivers. Costs about 40 ms.
 */
inline double
effectiveParallelism(unsigned k)
{
    constexpr std::uint64_t n = 20'000'000; // ~15 ms per thread
    spinSeconds(1, n / 4);                  // wake the core up
    const double t1 = spinSeconds(1, n);
    const double tk = spinSeconds(k, n);
    return tk > 0.0 ? k * t1 / tk : 0.0;
}

inline HostInfo
measureHost()
{
    HostInfo h;
    h.hardwareThreads = std::max(1u, std::thread::hardware_concurrency());
    h.effectiveParallelism = effectiveParallelism(h.hardwareThreads);
    return h;
}

//
// JSON report (writer and jsonSummary live in obs/json.hpp)
//

/**
 * Per-bench JSON report: collects merged results under labels, then
 * write() stamps wall time and events/sec and emits
 * BENCH_<name>.json (schema documented in EXPERIMENTS.md).
 */
class BenchReport
{
  public:
    explicit BenchReport(const BenchOptions &options)
        : opts(options), hostInfo(measureHost()),
          started(std::chrono::steady_clock::now())
    {
        json.beginObject();
        json.field("bench", opts.name);
        json.field("trials", opts.trial.trials);
        json.field("jobs", opts.trial.jobs);
        char seedbuf[32];
        std::snprintf(seedbuf, sizeof(seedbuf), "0x%016" PRIx64,
                      opts.trial.seed);
        json.field("seed", std::string(seedbuf));
        json.beginObject("results");
    }

    void
    add(const char *label, const corm::platform::MergedRubis &m)
    {
        totalEvents += m.totalEvents;
        json.beginObject(label);
        json.field("trials", m.trials);
        jsonSummary(json, "throughput_rps", m.throughputRps);
        jsonSummary(json, "mean_response_ms", m.meanResponseMs);
        json.field("sessions_completed", m.mean.sessionsCompleted);
        json.field("avg_session_sec", m.mean.avgSessionSec);
        json.field("platform_efficiency", m.mean.platformEfficiency);
        json.field("tunes_sent", m.mean.tunesSent);
        json.field("tunes_applied", m.mean.tunesApplied);
        json.beginObject("channel_health");
        json.field("dropped", m.mean.chanDropped);
        json.field("duplicates", m.mean.chanDuplicates);
        json.field("reorders", m.mean.chanReorders);
        json.field("retries", m.mean.chanRetries);
        json.field("outage_ms", m.mean.chanOutageMs);
        json.field("regs_acked", m.mean.regsAcked);
        json.field("regs_abandoned", m.mean.regsAbandoned);
        json.field("regs_pending", m.mean.regsPending);
        json.endObject();
        json.field("events_executed", m.totalEvents);
        json.beginArray("types");
        for (std::size_t i = 0; i < m.mean.types.size(); ++i) {
            const auto &t = m.mean.types[i];
            json.beginObject();
            json.field("name", t.name);
            json.field("count", t.count);
            json.field("min_ms", t.minMs);
            json.field("max_ms", t.maxMs);
            json.field("mean_ms", t.meanMs);
            json.field("stddev_ms", t.stddevMs);
            json.field("trial_mean_stddev_ms",
                       m.typeMeanMs[i].stddev());
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    void
    add(const char *label, const corm::platform::MergedMplayerQos &m)
    {
        totalEvents += m.totalEvents;
        json.beginObject(label);
        json.field("trials", m.trials);
        jsonSummary(json, "fps1", m.fps1);
        jsonSummary(json, "fps2", m.fps2);
        json.field("late1", m.mean.late1);
        json.field("late2", m.mean.late2);
        json.field("cpu1_pct", m.mean.cpu1Pct);
        json.field("cpu2_pct", m.mean.cpu2Pct);
        json.field("dom0_pct", m.mean.dom0Pct);
        json.field("weight1_end", m.mean.weight1End);
        json.field("weight2_end", m.mean.weight2End);
        json.field("events_executed", m.totalEvents);
        json.endObject();
    }

    void
    add(const char *label, const corm::platform::MergedTrigger &m)
    {
        totalEvents += m.totalEvents;
        json.beginObject(label);
        json.field("trials", m.trials);
        jsonSummary(json, "fps1", m.fps1);
        jsonSummary(json, "fps2", m.fps2);
        json.field("late1", m.mean.late1);
        json.field("triggers_sent", m.mean.triggersSent);
        json.field("boosts", m.mean.boosts);
        json.field("ixp_queue_drops", m.mean.ixpQueueDrops);
        json.field("buffer_peak_bytes", m.mean.bufferPeakBytes);
        json.field("driver_polls", m.mean.driverPolls);
        json.field("driver_interrupts", m.mean.driverInterrupts);
        json.field("events_executed", m.totalEvents);
        json.endObject();
    }

    /** Host calibration, taken before the bench's timed work. */
    const HostInfo &host() const { return hostInfo; }

    /** Free-form scalar rows (ablation sweeps). */
    void
    addScalars(
        const char *label,
        const std::vector<std::pair<std::string, double>> &values,
        std::uint64_t events = 0)
    {
        totalEvents += events;
        json.beginObject(label);
        for (const auto &[k, v] : values)
            json.field(k.c_str(), v);
        if (events)
            json.field("events_executed", events);
        json.endObject();
    }

    /**
     * Close the report and write it. Prints the destination so runs
     * leave a breadcrumb next to the human-readable tables.
     */
    void
    write()
    {
        if (written)
            return;
        written = true;
        json.endObject(); // results
        if (opts.obs && !opts.obs->metricsJson.empty())
            json.fieldRaw("metrics", opts.obs->metricsJson);
        if (opts.obs && !opts.obs->healthReport.empty()) {
            json.beginObject("health");
            json.field("breaches", opts.obs->healthBreaches);
            json.field("flight_reason", opts.obs->flightReason);
            json.endObject();
        }
        // Round-trip the capture flags into the run metadata, so a
        // report always records whether (and how) its run was
        // observed — a traced run's numbers are not a baseline for
        // an untraced one. Deterministic per invocation, so the
        // jobs-determinism smoke diff is unaffected.
        if (opts.obs) {
            json.beginObject("capture");
            json.field("trace", !opts.obs->tracePath.empty());
            json.field("metrics", opts.obs->metrics);
            json.field("monitor", opts.obs->monitor);
            json.field("dashboard", !opts.obs->dashboardPath.empty());
            json.endObject();
        }
        // Host-measured, so it varies run to run like wall_seconds
        // (the jobs-determinism smoke diff skips it).
        json.beginObject("host");
        json.field("hardware_concurrency",
                   static_cast<std::uint64_t>(hostInfo.hardwareThreads));
        json.field("effective_parallelism",
                   hostInfo.effectiveParallelism);
        json.endObject();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
        json.field("wall_seconds", wall);
        json.field("events_executed", totalEvents);
        json.field("events_per_second",
                   wall > 0.0 ? static_cast<double>(totalEvents) / wall
                              : 0.0);
        json.endObject();
        // Trace and metrics dumps are independent of --no-json.
        if (opts.obs) {
            const ObsCapture &obs = *opts.obs;
            if (!obs.tracePath.empty() && !obs.traceJson.empty()) {
                std::ofstream tf(obs.tracePath);
                tf << obs.traceJson << "\n";
                std::printf("\n[trace: trial 0 -> %s]\n",
                            obs.tracePath.c_str());
            }
            if (obs.metrics && !obs.metricsText.empty())
                std::printf("\n--- metrics (trial 0) ---\n%s",
                            obs.metricsText.c_str());
            if (!obs.healthReport.empty())
                std::printf("\n--- health (trial 0) ---\n%s",
                            obs.healthReport.c_str());
            if (!obs.flightJson.empty()) {
                const std::string fpath =
                    "BENCH_" + opts.name + "_flight.json";
                std::ofstream ff(fpath);
                ff << obs.flightJson << "\n";
                std::printf("[flight dump (%s) -> %s]\n",
                            obs.flightReason.c_str(), fpath.c_str());
            }
            if (!obs.dashboardPath.empty()
                && !obs.dashboardHtml.empty()) {
                std::ofstream df(obs.dashboardPath);
                df << obs.dashboardHtml;
                std::printf("[dashboard: trial 0 -> %s]\n",
                            obs.dashboardPath.c_str());
            }
        }
        if (!opts.writeJson)
            return;
        const std::string path = opts.jsonPath.empty()
            ? "BENCH_" + opts.name + ".json"
            : opts.jsonPath;
        std::ofstream f(path);
        f << json.str() << "\n";
        std::printf("\n[%s: %d trial(s) x %d job(s), %.2f s wall, "
                    "%.2fM events/s -> %s]\n",
                    opts.name.c_str(), opts.trial.trials,
                    opts.trial.jobs, wall,
                    wall > 0.0
                        ? static_cast<double>(totalEvents) / wall / 1e6
                        : 0.0,
                    path.c_str());
    }

  private:
    BenchOptions opts;
    HostInfo hostInfo;
    std::chrono::steady_clock::time_point started;
    JsonWriter json;
    std::uint64_t totalEvents = 0;
    bool written = false;
};

} // namespace corm::bench
