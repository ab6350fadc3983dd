/**
 * @file
 * corm_bench: host-cost benchmark of the CoRM simulator.
 *
 *   corm_bench --workload NAME --seed N --seconds S --trace 0|1
 *              [--spans PATH]
 *
 * Runs the workload's fixed set of seeded trials round after round, in
 * one thread, as a closed loop (a trial starts when the previous one
 * returns), checks every trial's outputs, and prints each metric by
 * name with its unit. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With --trace
 * 0 the metrics are the end-to-end ones, from untraced rounds only,
 * with times scaled to the host reference speed (raw host times are
 * printed beside them); with --trace 1 they are the per-layer ones,
 * from rounds that record spans plus the per-layer probes.
 *
 * Exit codes: 0 after a result line, 2 for a malformed command line,
 * 3 when the build is unoptimised or sanitized (timings refused).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "arith.hpp"
#include "platform/harness.hpp"
#include "probes.hpp"
#include "workloads.hpp"

#ifndef CORM_BENCH_BUILD_TYPE
#define CORM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CORM_BENCH_CXX_FLAGS
#define CORM_BENCH_CXX_FLAGS ""
#endif

namespace {

using namespace cormbench;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

//
// Command line
//

struct Options
{
    Workload workload = Workload::rubisPaper;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "corm_bench: %s\n"
                 "usage: corm_bench --workload rubis_paper|"
                 "fabric_tree_dense|fabric_churn_faulty\n"
                 "                  --seed N (decimal or 0x-hex) "
                 "--seconds S (1..600) --trace 0|1 [--spans PATH]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveW = false, haveSeed = false, haveS = false, haveT = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            const auto w = parseWorkload(v);
            if (!w)
                usage(("unknown workload '" + v + "'").c_str());
            o.workload = *w;
            haveW = true;
        } else if (flag == "--seed") {
            const auto s = parseSeed(v);
            if (!s)
                usage(("bad seed '" + v + "'").c_str());
            o.seed = *s;
            haveSeed = true;
        } else if (flag == "--seconds") {
            const auto s = parseSeed(v);
            if (!s || v.find_first_not_of("0123456789") != std::string::npos
                || *s < 1 || *s > 600)
                usage(("bad --seconds '" + v + "'").c_str());
            o.seconds = static_cast<int>(*s);
            haveS = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage(("bad --trace '" + v + "' (want 0 or 1)").c_str());
            o.trace = v == "1";
            haveT = true;
        } else if (flag == "--spans") {
            o.spansPath = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveW || !haveSeed || !haveS || !haveT)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

//
// Host block
//

std::uint64_t
spinWork(std::uint64_t n)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

volatile std::uint64_t spinSink = 0;

double
timeSpin(unsigned threads, std::uint64_t n)
{
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([n] { spinSink = spinWork(n); });
    for (auto &th : pool)
        th.join();
    return secondsSince(t0);
}

/**
 * Effective parallelism: K threads spin the same work one thread
 * did; K * t1 / tK is how many cores' worth of throughput the host
 * delivers, which may be far below hardware_concurrency in a shared
 * container.
 */
double
effectiveParallelism(unsigned k)
{
    constexpr std::uint64_t n = 20'000'000; // ~15 ms of work per thread
    timeSpin(1, n / 4);                     // wake the core up
    const double t1 = timeSpin(1, n);
    const double tk = timeSpin(k, n);
    return tk > 0.0 ? k * t1 / tk : 0.0;
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::strstr(CORM_BENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return std::strstr(CORM_BENCH_CXX_FLAGS, "-O0") == nullptr;
#else
    return false;
#endif
}

//
// Host speed reference
//

/**
 * A fixed piece of work owned by the benchmark: a binary-heap hold
 * loop over 512 KiB plus an ALU loop, about 25 ms. Other tenants of a
 * shared host slow it together with the simulator, and no change to
 * the simulator can move it, so the end-to-end times are scaled by
 * its nominal time over its time measured next to them: host seconds
 * at the reference speed.
 */
class HostReference
{
  public:
    /** One pass on this host when no other tenant is busy. */
    static constexpr double kNominalS = 0.025;

    HostReference()
    {
        for (int i = 0; i < kDepth; ++i)
            heap.push(next());
    }

    /** Scale factor for times measured now: nominal over current. */
    double
    factor()
    {
        const auto t0 = Clock::now();
        std::uint64_t acc = 0;
        for (int i = 0; i < kHold; ++i) {
            const std::uint64_t top = heap.top();
            heap.pop();
            heap.push(top + (next() & 0xffff));
            acc += top;
        }
        spinSink = acc + spinWork(kSpin);
        return kNominalS / secondsSince(t0);
    }

  private:
    static constexpr int kDepth = 1 << 16;
    static constexpr int kHold = 200000;
    static constexpr std::uint64_t kSpin = 16'000'000;

    std::uint64_t
    next()
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    }

    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
};

//
// Metric output
//

struct Metric
{
    double value = 0.0;
    const char *unit = "";
    bool integral = false;
};

/** Metrics in the order they were set, printed by name with units. */
class MetricSet
{
  public:
    void
    set(const std::string &name, double v, const char *unit)
    {
        m_.emplace_back(name, Metric{v, unit, false});
    }

    void
    count(const std::string &name, std::uint64_t v)
    {
        m_.emplace_back(name, Metric{static_cast<double>(v), "count", true});
    }

    void
    print() const
    {
        for (const auto &[name, m] : m_)
            std::printf("metric %-36s %s %s\n", name.c_str(),
                        num(m).c_str(), m.unit);
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (const auto &[name, m] : m_) {
            s += s.size() > 1 ? ", " : "";
            s += "\"" + name + "\": {\"value\": " + num(m)
                + ", \"unit\": \"" + m.unit + "\"}";
        }
        return s + "}";
    }

  private:
    static std::string
    num(const Metric &m)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, m.integral ? "%.0f" : "%.17g",
                      m.value);
        return buf;
    }

    std::vector<std::pair<std::string, Metric>> m_;
};

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

//
// The run
//

/**
 * Trials in one round: four of the half-second trials, or 32 of the
 * 20 ms churn trials, so a round always outlasts the reference pass
 * timed between rounds many times over.
 */
int
trialsPerRound(Workload w)
{
    return w == Workload::fabricChurnFaulty ? 32 : 4;
}

struct Runner
{
    Options opt;
    std::vector<std::uint64_t> seeds;
    std::vector<std::uint64_t> digests; ///< per trial, from round 0
    TrialCounts counts;                 ///< one round's sum
    FailureTally tally;
    int rounds = 0;

    explicit Runner(const Options &o) : opt(o)
    {
        for (int i = 0; i < trialsPerRound(o.workload); ++i)
            seeds.push_back(corm::platform::trialSeed(o.seed, i));
    }

    void
    check(const TrialOutcome &t, const char *what)
    {
        tally.record(t.ok);
        if (!t.ok)
            std::fprintf(stderr, "corm_bench: %s FAILED: %s\n", what,
                         t.failure.c_str());
    }

    /**
     * One closed-loop round over the fixed trial set. Round 0 records
     * each trial's digest and counts; every later round must replay
     * them exactly or the trial counts as failed.
     */
    double
    round(SpanLog *spans, std::vector<double> &trialMs,
          std::vector<double> &setupS)
    {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            const int id = rounds * static_cast<int>(seeds.size())
                + static_cast<int>(i);
            TrialOutcome t = runTrial(opt.workload, Scale::full, seeds[i],
                                      spans, id);
            if (rounds == 0) {
                digests.push_back(t.digest);
                counts.add(t.counts);
            } else if (t.ok && t.digest != digests[i]) {
                t.ok = false;
                t.failure = "replay of the same seed changed the results";
            }
            check(t, "trial");
            trialMs.push_back(t.wallNs * 1e-6);
            if (t.setupNs > 0.0)
                setupS.push_back(t.setupNs * 1e-9);
        }
        ++rounds;
        return secondsSince(t0);
    }

    void
    canary()
    {
        const TrialOutcome t =
            runTrial(opt.workload, Scale::full, canarySeed);
        const std::uint64_t want = pinnedDigest(opt.workload);
        TrialOutcome c = t;
        if (c.ok && c.digest != want) {
            c.ok = false;
            c.failure = "canary digest differs from the pinned value";
        }
        std::printf("canary: seed 0x%016llx digest 0x%016llx pinned "
                    "0x%016llx %s\n",
                    static_cast<unsigned long long>(canarySeed),
                    static_cast<unsigned long long>(t.digest),
                    static_cast<unsigned long long>(want),
                    c.ok ? "ok" : "MISMATCH");
        check(c, "canary");
    }

    /** RUBiS set-up samples: zero-length windows, median reported. */
    void
    rubisSetups(int count, SpanLog *spans, std::vector<double> &setupS)
    {
        for (int i = 0; i < count; ++i, ++setups)
            setupS.push_back(rubisSetupSeconds(
                corm::platform::trialSeed(opt.seed, 1000 + setups), spans,
                -1 - setups));
    }

    int setups = 0;
};

/** Simulated-model outputs, printed beside the host numbers. */
void
printSimMetrics(const Runner &run)
{
    const TrialCounts &c = run.counts;
    const double n = static_cast<double>(run.seeds.size());
    if (run.opt.workload == Workload::rubisPaper) {
        const double gain = 100.0 * (ratio(c.coordRps, c.baseRps) - 1.0);
        std::printf("sim coord_over_base_gain_pct             %.4f %%\n",
                    gain);
        std::printf("sim paper_gain_err_pts                   %.4f pts "
                    "(paper Table 2: +40%%)\n",
                    std::abs(gain - 40.0));
    } else {
        std::printf("sim hub_msgs_per_applied_tune            %.6f msgs\n",
                    ratio(static_cast<double>(c.hubWireMsgs),
                          static_cast<double>(c.appliedTunes)));
        std::printf("sim sim_convergence_ms                   %.4f ms\n",
                    c.convergenceMs / n);
    }
}

/** Append @p src[from..] scaled by @p f to @p dst. */
void
appendScaled(std::vector<double> &dst, const std::vector<double> &src,
             std::size_t from, double f)
{
    for (std::size_t i = from; i < src.size(); ++i)
        dst.push_back(src[i] * f);
}

void
runUntraced(Runner &run, MetricSet &out)
{
    // Raw host times, and the same times scaled to the reference
    // speed measured on either side of each round.
    std::vector<double> trialMs, setupS, roundS;
    std::vector<double> trialRefMs, setupRefS, roundRefS, factors;
    HostReference ref;
    double before = ref.factor();
    const auto measured = [&](std::size_t trials0, std::size_t setups0) {
        const double after = ref.factor();
        const double f = 0.5 * (before + after);
        before = after;
        factors.push_back(f);
        appendScaled(trialRefMs, trialMs, trials0, f);
        appendScaled(setupRefS, setupS, setups0, f);
        return f;
    };
    // The host's speed shifts within seconds, so RUBiS set-up samples
    // are spread over the run: a block of eight after each round. The
    // first of a block runs with caches cold from the round; the
    // median reports the warm majority.
    const bool rubis = run.opt.workload == Workload::rubisPaper;
    const auto start = Clock::now();
    do {
        const std::size_t t0 = trialMs.size(), s0 = setupS.size();
        roundS.push_back(run.round(nullptr, trialMs, setupS));
        if (rubis)
            run.rubisSetups(8, nullptr, setupS);
        roundRefS.push_back(roundS.back() * measured(t0, s0));
    } while (run.rounds < 3
             || secondsSince(start) + median(roundS) <= run.opt.seconds);

    printSimMetrics(run);
    std::printf("trials %zu in %d rounds of %zu\n", trialMs.size(),
                run.rounds, run.seeds.size());
    if (percentileReportable(trialRefMs.size(), 90.0))
        std::printf("extra trial_ms_p90                        %.6f ms\n",
                    percentile(trialRefMs, 90.0));
    else
        std::printf("extra trial_ms_p90 not reported: %zu trial(s) lie "
                    "beyond it, 10 needed\n",
                    samplesBeyond(trialRefMs.size(), 90.0));
    std::printf("host speed factor median %.6f (range %.6f .. %.6f)\n",
                median(factors),
                *std::min_element(factors.begin(), factors.end()),
                *std::max_element(factors.begin(), factors.end()));
    std::printf("raw wall_s %.9f trial_ms_p50 %.6f setup_s %.9g\n",
                median(roundS), percentile(trialMs, 50.0), median(setupS));
    out.set("wall_s", median(roundRefS), "s");
    out.set("trial_ms_p50", percentile(trialRefMs, 50.0), "ms");
    out.set("setup_s", median(setupRefS), "s");
    out.set("peak_rss_mb", peakRssMb(), "MB");
}

void
runTraced(Runner &run, MetricSet &out)
{
    const Workload w = run.opt.workload;
    const bool fabric = w != Workload::rubisPaper;
    const double budget = run.opt.seconds;
    SpanLog log;
    std::vector<double> trialMs, setupS, plainS, tracedS;
    const auto start = Clock::now();
    if (!fabric)
        run.rubisSetups(9, &log, setupS);

    // Untraced and traced rounds alternate, so drift hits both alike.
    do {
        plainS.push_back(run.round(nullptr, trialMs, setupS));
        tracedS.push_back(run.round(&log, trialMs, setupS));
    } while (plainS.size() < 2 || secondsSince(start) < 0.4 * budget);
    const double wallS = median(plainS);
    const TrialCounts &c = run.counts;

    // Lane-monitoring cost: the first trial against its twin.
    std::vector<double> monRatio;
    for (int i = 0; i < 2; ++i) {
        const int sp = log.open("probe.obs.monitor_wall_ratio", -1, -1);
        const TrialOutcome a =
            runTrial(w, Scale::full, run.seeds[0], nullptr, 0, false);
        const TrialOutcome b =
            runTrial(w, Scale::full, run.seeds[0], nullptr, 0, true);
        log.close(sp);
        const bool monitoredIsA = w == Workload::fabricChurnFaulty;
        monRatio.push_back(monitoredIsA ? a.wallNs / b.wallNs
                                        : b.wallNs / a.wallNs);
    }

    // Probes share what is left of the budget.
    const double slice =
        std::max(0.25, (budget - secondsSince(start)) / 10.0 * 0.9);
    const std::uint64_t depth = std::max<std::uint64_t>(c.liveDepth, 64);
    const std::uint64_t perWindow =
        c.windows ? c.boundaryMsgs / c.windows : 64;
    const Workload fabricW = fabric ? w : Workload::fabricTreeDense;
    const std::uint64_t pseed = run.opt.seed;
    std::map<std::string, ProbeResult> p;
    const auto probe = [&](const char *metric, auto &&fn) {
        const int sp = log.open(std::string("probe.") + metric, -1, -1);
        p[metric] = fn();
        log.close(sp);
    };
    probe("sim.dispatch_ns",
          [&] { return probeDispatch(depth, slice, pseed); });
    probe("sim.dispatch_shallow_ns",
          [&] { return probeDispatch(64, slice, pseed); });
    probe("sim.sharded.drain_ns_per_msg",
          [&] { return probeDrain(perWindow, slice, pseed); });
    probe("coord.fabric.hop_ns",
          [&] { return probeHop(fabricW, slice, pseed); });
    probe("coord.fabric.fold_ns",
          [&] { return probeFold(fabricW, slice, pseed); });
    probe("interconnect.mailbox_ns", [&] { return probeMailbox(slice); });
    probe("coord.channel.tune_ns", [&] { return probeChannelTune(slice); });
    probe("xen.boost_ns", [&] { return probeBoost(slice); });
    probe("xen.sched_ms_per_sim_s", [&] { return probeSchedSecond(slice); });
    probe("ixp.pkt_ns", [&] { return probeIxpPacket(slice); });

    for (const auto &[name, r] : p)
        std::printf("probe %-32s %.3f ns/op, per op: %.3f events, %.3f "
                    "boundary, %.3f wire, %.3f mailbox\n",
                    name.c_str(), r.ns, r.events, r.boundary, r.wire,
                    r.mailbox);

    // Self cost of each probe: its ns per operation minus the kernel
    // and boundary work the operation caused, so that layer shares do
    // not count that work twice. The probes' own queues are shallow,
    // so their kernel work is priced at the shallow dispatch cost; the
    // workload's events are priced at its own depth.
    const auto pos = [](double v) { return v > 0.0 ? v : 0.0; };
    const double dispatch = p["sim.dispatch_ns"].ns;
    const double shallow = p["sim.dispatch_shallow_ns"].ns;
    const auto minusKernel = [&](const ProbeResult &r) {
        return r.ns - r.events * shallow;
    };
    const ProbeResult &dr = p["sim.sharded.drain_ns_per_msg"];
    const double drainSelf = pos(minusKernel(dr));
    const ProbeResult &hp = p["coord.fabric.hop_ns"];
    const double hopSelf = pos(minusKernel(hp) - hp.boundary * drainSelf);
    const ProbeResult &fd = p["coord.fabric.fold_ns"];
    const double foldSelf = pos(minusKernel(fd) - fd.boundary * drainSelf
                                - fd.wire * hopSelf);
    const ProbeResult &mb = p["interconnect.mailbox_ns"];
    const double mailboxSelf = pos(minusKernel(mb));
    const ProbeResult &ch = p["coord.channel.tune_ns"];
    const double channelSelf = pos(minusKernel(ch) - ch.mailbox * mailboxSelf);
    const double boostSelf = pos(minusKernel(p["xen.boost_ns"]));
    const double schedSelf = pos(minusKernel(p["xen.sched_ms_per_sim_s"]));
    const double ixpSelf = pos(minusKernel(p["ixp.pkt_ns"]));

    // --- Counts (one round, deterministic for the seed) ---
    out.count("sim.events", c.events);
    out.set("sim.events_per_s", ratio(static_cast<double>(c.events), wallS),
            "1/s");
    out.set("sim.dispatch_ns", dispatch, "ns");
    out.set("sim.dispatch_shallow_ns", shallow, "ns");
    out.count("sim.sharded.windows", c.windows);
    out.count("sim.sharded.boundary_msgs", c.boundaryMsgs);
    out.set("sim.sharded.boundary_per_window",
            ratio(static_cast<double>(c.boundaryMsgs),
                  static_cast<double>(c.windows)),
            "msgs");
    out.set("sim.sharded.drain_ns_per_msg", dr.ns, "ns");
    out.count("coord.fabric.wire_msgs", c.wireMsgs);
    out.count("coord.fabric.hub_relays", c.hubRelays);
    out.count("coord.fabric.agg_folded", c.aggFolded);
    out.count("coord.fabric.link_drops", c.linkDrops);
    out.count("coord.fabric.link_replays", c.linkReplays);
    out.count("coord.fabric.abandoned", c.abandoned);
    out.count("coord.fabric.duplicates", c.duplicates);
    out.set("coord.fabric.wire_per_applied",
            ratio(static_cast<double>(c.wireTunes),
                  static_cast<double>(c.appliedTunes)),
            "ratio");
    out.set("coord.fabric.replay_ratio",
            ratio(static_cast<double>(c.linkReplays),
                  static_cast<double>(c.wireMsgs)),
            "ratio");
    out.set("coord.fabric.hop_ns", hp.ns, "ns");
    out.set("coord.fabric.fold_ns", fd.ns, "ns");
    out.count("coord.churn.reparents", c.reparents);
    out.count("coord.churn.mig_forwards", c.migForwards);
    out.count("coord.reliable.triggers_sent", c.triggersSent);
    out.set("coord.reliable.trigger_ack_ratio",
            ratio(static_cast<double>(c.triggersAcked),
                  static_cast<double>(c.triggersSent)),
            "ratio");
    out.count("coord.channel.tunes_applied", c.channelTunes);
    out.set("coord.channel.tune_ns", ch.ns, "ns");
    out.set("interconnect.mailbox_ns", mb.ns, "ns");
    out.set("xen.sched_ms_per_sim_s", p["xen.sched_ms_per_sim_s"].ns * 1e-6,
            "ms/s");
    out.set("xen.boost_ns", p["xen.boost_ns"].ns, "ns");
    out.set("ixp.pkt_ns", p["ixp.pkt_ns"].ns, "ns");
    out.count("apps.rubis.requests", c.requests);
    out.count("obs.health_breaches", c.healthBreaches);
    out.set("obs.monitor_wall_ratio", median(monRatio), "ratio");

    // --- Shares of the untraced round's wall time ---
    const double wallNs = wallS * 1e9;
    const auto share = [&](double ns) { return ns / wallNs; };
    const double shSim = share(dispatch * static_cast<double>(c.events));
    const double shSharded =
        share(drainSelf * static_cast<double>(c.boundaryMsgs));
    const double shFabric =
        share(hopSelf * static_cast<double>(c.wireMsgs)
              + foldSelf * static_cast<double>(c.aggFolded));
    const double shChannel =
        share(channelSelf * static_cast<double>(c.channelMsgs));
    const double shMailbox =
        share(mailboxSelf * static_cast<double>(c.channelMsgs));
    const double shXen = share(schedSelf * c.simSeconds
                               + boostSelf * static_cast<double>(c.boosts));
    const double shIxp = share(ixpSelf * static_cast<double>(c.ixpPackets));
    out.set("sim.share", shSim, "fraction");
    out.set("sim.sharded.share", shSharded, "fraction");
    out.set("coord.fabric.share", shFabric, "fraction");
    out.set("coord.channel.share", shChannel, "fraction");
    out.set("interconnect.share", shMailbox, "fraction");
    out.set("xen.share", shXen, "fraction");
    out.set("ixp.share", shIxp, "fraction");
    out.set("unattributed.share",
            1.0 - shSim - shSharded - shFabric - shChannel - shMailbox - shXen
                - shIxp,
            "fraction");

    // --- Tracing: overhead and span self times ---
    out.set("trace.overhead_ratio", median(tracedS) / wallS, "ratio");
    const std::vector<Span> &spans = log.spans();
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, std::pair<double, int>> byName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &[sum, n] = byName[spans[i].name];
        sum += static_cast<double>(self[i]) * 1e-6;
        ++n;
    }
    for (const char *name :
         {"trial", "scenario.setup", "scenario.run", "scenario.collect"}) {
        const auto it = byName.find(name);
        const double mean = it == byName.end() || it->second.second == 0
            ? 0.0
            : it->second.first / it->second.second;
        out.set(std::string("trace.") + name + ".self_ms", mean, "ms");
    }

    printSimMetrics(run);
    std::printf("traced: %zu untraced and %zu traced round(s), %zu spans\n",
                plainS.size(), tracedS.size(), spans.size());

    if (!run.opt.spansPath.empty()) {
        std::ofstream f(run.opt.spansPath);
        f << "[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &sp = spans[i];
            f << (i ? ",\n " : "") << "{\"name\": \"" << sp.name
              << "\", \"start_ns\": " << sp.startNs
              << ", \"end_ns\": " << sp.endNs << ", \"parent\": "
              << sp.parent << ", \"trial\": " << sp.trial
              << ", \"self_ns\": " << self[i] << "}";
        }
        f << "]\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const bool optimized = optimizedBuild();
    const bool sanitized = sanitizedBuild();
    if (!optimized || sanitized) {
        std::fprintf(stderr,
                     "corm_bench: refusing to report timings from a%s%s "
                     "build (build type %s)\n",
                     optimized ? "" : "n unoptimised",
                     sanitized ? " sanitized" : "", CORM_BENCH_BUILD_TYPE);
        return 3;
    }
    const double eff = effectiveParallelism(hw);
    std::printf("host: {\"hardware_concurrency\": %u, "
                "\"effective_parallelism\": %.3f, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"threads_used\": 1}\n",
                hw, eff, __VERSION__, CORM_BENCH_BUILD_TYPE);
    std::printf("workload %s seed 0x%016llx seconds %d trace %d\n",
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);

    Runner run(opt);
    run.canary();
    MetricSet out;
    if (opt.trace)
        runTraced(run, out);
    else
        runUntraced(run, out);

    std::printf("failures %llu of %llu trials (share %.6f)\n",
                static_cast<unsigned long long>(run.tally.failed),
                static_cast<unsigned long long>(run.tally.attempted),
                run.tally.share());
    out.print();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                run.tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(run.tally.attempted),
                static_cast<unsigned long long>(run.tally.failed),
                out.json().c_str());
    return 0;
}
