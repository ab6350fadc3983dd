/**
 * @file
 * Self-test of the benchmark's own arithmetic and determinism:
 * nearest-rank percentiles and the ten-beyond rule, span self time,
 * failure counting, seed parsing, and a same-seed replay of every
 * workload at small scale. Exits non-zero on the first failure.
 */

#include <cstdio>
#include <cstdlib>

#include "arith.hpp"
#include "workloads.hpp"

namespace {

using namespace cormbench;

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i); // 1..100, unsorted
    expect(percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
    expect(percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
    expect(percentile(v, 100.0) == 100.0, "p100 is the maximum");
    expect(percentile({7.0}, 50.0) == 7.0, "p50 of one sample");
    expect(percentile({}, 50.0) == 0.0, "empty percentile is 0");
    expect(percentile({1, 2, 3, 4}, 50.0) == 2.0, "p50 of 4 is rank 2");
    expect(percentile({3, 1, 2}, 50.0) == 2.0, "p50 of 3 is rank 2");
    expect(nearestRank(10, 90.0) == 9, "rank of p90 over 10");
    expect(nearestRank(11, 90.0) == 10, "rank of p90 over 11 rounds up");

    expect(samplesBeyond(100, 90.0) == 10, "10 beyond p90 of 100");
    expect(percentileReportable(100, 90.0), "p90 of 100 reportable");
    expect(!percentileReportable(99, 90.0), "p90 of 99 not reportable");
    expect(!percentileReportable(0, 90.0), "nothing to report");
    expect(percentileReportable(1000, 99.0), "p99 of 1000 reportable");
    expect(!percentileReportable(999, 99.0), "p99 of 999 not reportable");
}

void
testSelfTime()
{
    // root [0,100) with children [10,30) and [20,50) (overlapping,
    // merged to [10,50)) and [90,120) (clipped to [90,100));
    // grandchild [15,25) belongs to child 1 only.
    std::vector<Span> s = {
        {"trial", 0, 100, -1, 0},    {"a", 10, 30, 0, 0},
        {"b", 20, 50, 0, 0},         {"c", 90, 120, 0, 0},
        {"a.kid", 15, 25, 1, 0},     {"other", 0, 10, -1, 1},
    };
    const std::vector<std::int64_t> self = selfTimes(s);
    expect(self[0] == 100 - 40 - 10, "root self excludes merged children");
    expect(self[1] == 20 - 10, "child self excludes grandchild");
    expect(self[2] == 30, "leaf self is its duration");
    expect(self[3] == 30, "leaf past its parent keeps its duration");
    expect(self[4] == 10, "grandchild self");
    expect(self[5] == 10, "independent root");

    SpanLog log;
    const int a = log.open("trial", -1, 3);
    const int b = log.open("scenario.run", a, 3);
    log.close(b);
    log.close(a);
    const auto &sp = log.spans();
    expect(sp.size() == 2 && sp[1].parent == a && sp[1].trial == 3,
           "span log keeps parent and trial id");
    expect(sp[0].endNs >= sp[1].endNs && sp[1].startNs >= sp[0].startNs,
           "child nests inside parent");
    expect(selfTimes(sp)[0] >= 0, "self time is never negative");
}

void
testFailureTally()
{
    FailureTally t;
    expect(t.share() == 0.0, "no attempts, no failure share");
    for (int i = 0; i < 8; ++i)
        t.record(i % 4 != 0);
    expect(t.attempted == 8 && t.failed == 2, "2 of 8 failed");
    expect(t.share() == 0.25, "failure share 2/8");
}

void
testSeedParsing()
{
    expect(parseSeed("0") == 0u, "zero");
    expect(parseSeed("12345") == 12345u, "decimal");
    expect(parseSeed("0x1F") == 31u, "hex");
    expect(parseSeed("0XfF") == 255u, "upper-case hex prefix");
    expect(parseSeed("18446744073709551615") == UINT64_MAX, "max decimal");
    expect(parseSeed("0xffffffffffffffff") == UINT64_MAX, "max hex");
    for (const char *bad : {"", "zzz", "0x", "12a", "-1", "+1", " 1", "1 ",
                            "18446744073709551616", "0x10000000000000000",
                            "1e5", "0x1g"})
        expect(!parseSeed(bad).has_value(), bad);
    expect(parseWorkload("rubis_paper").has_value(), "known workload");
    expect(!parseWorkload("rubis").has_value(), "unknown workload");
}

void
testReplay()
{
    for (Workload w : {Workload::rubisPaper, Workload::fabricTreeDense,
                       Workload::fabricChurnFaulty}) {
        const TrialOutcome a = runTrial(w, Scale::small, 0xabcdef);
        const TrialOutcome b = runTrial(w, Scale::small, 0xabcdef);
        const TrialOutcome c = runTrial(w, Scale::small, 0xabcdf0);
        Fnv ha, hb;
        a.counts.mixInto(ha);
        b.counts.mixInto(hb);
        std::printf("selftest %s: digest %016llx events %llu %s\n",
                    workloadName(w),
                    static_cast<unsigned long long>(a.digest),
                    static_cast<unsigned long long>(a.counts.events),
                    a.ok ? "ok" : a.failure.c_str());
        expect(a.ok && b.ok && c.ok, "small trials pass their checks");
        expect(a.digest == b.digest, "same seed, same digest");
        expect(ha.value() == hb.value(), "same seed, same per-layer counts");
        expect(a.counts.events > 0, "trial dispatched events");
        expect(a.digest != c.digest, "another seed, another digest");
    }
}

} // namespace

int
main()
{
    testPercentile();
    testSelfTime();
    testFailureTally();
    testSeedParsing();
    testReplay();
    if (failures) {
        std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
