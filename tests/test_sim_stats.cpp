/**
 * @file
 * Unit and property tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

using namespace corm::sim;

TEST(Counter, AccumulatesAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, RatePerSecond)
{
    Counter c;
    c.add(100);
    EXPECT_DOUBLE_EQ(c.ratePerSecond(2 * sec), 50.0);
    EXPECT_DOUBLE_EQ(c.ratePerSecond(0), 0.0);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.record(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12); // classic textbook data set
}

TEST(Summary, SingleSample)
{
    Summary s;
    s.record(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeEqualsCombinedStream)
{
    Rng rng(99);
    Summary all, left, right;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.normal(50.0, 12.0);
        all.record(v);
        (i % 2 == 0 ? left : right).record(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, MergeWithEmptySides)
{
    Summary a, b;
    a.record(1.0);
    a.merge(b); // merging empty changes nothing
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // merging into empty copies
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(TimeSeries, RecordsInOrder)
{
    TimeSeries ts;
    ts.record(10, 1.0);
    ts.record(20, 3.0);
    ts.record(30, 2.0);
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.data()[1].when, 20u);
    EXPECT_DOUBLE_EQ(ts.max(), 3.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
}

TEST(TimeSeries, EmptyAggregatesAreZero)
{
    TimeSeries ts;
    EXPECT_DOUBLE_EQ(ts.max(), 0.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 0.0);
}

TEST(UtilizationTracker, SplitsByKind)
{
    UtilizationTracker u;
    u.addBusy(UtilizationTracker::Kind::user, 30 * msec);
    u.addBusy(UtilizationTracker::Kind::system, 10 * msec);
    u.addBusy(UtilizationTracker::Kind::iowait, 10 * msec);
    EXPECT_EQ(u.totalBusy(), 50 * msec);
    EXPECT_DOUBLE_EQ(u.utilizationPct(100 * msec), 50.0);
    EXPECT_DOUBLE_EQ(
        u.utilizationPct(UtilizationTracker::Kind::user, 100 * msec),
        30.0);
    u.reset();
    EXPECT_EQ(u.totalBusy(), 0u);
}

/** Property sweep: histogram mean matches streaming mean. */
class HistogramMeanSweep : public ::testing::TestWithParam<double>
{};

TEST_P(HistogramMeanSweep, SummaryMeanTracksExactMean)
{
    const double scale = GetParam();
    corm::obs::Histogram h;
    Rng rng(static_cast<std::uint64_t>(scale));
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.exponential(scale);
        h.record(v);
        sum += v;
    }
    EXPECT_NEAR(h.mean(), sum / n, sum / n * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramMeanSweep,
                         ::testing::Values(10.0, 1e3, 1e6, 1e9));
