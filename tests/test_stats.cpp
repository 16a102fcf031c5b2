/**
 * @file
 * Unit tests for common/stats.h.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"

namespace bxt {
namespace {

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStat, MatchesDirectComputation)
{
    const double samples[] = {1.0, 2.5, -3.0, 4.25, 0.0, 7.5};
    RunningStat s;
    double sum = 0.0;
    for (double x : samples) {
        s.add(x);
        sum += x;
    }
    const double mean = sum / 6.0;
    double var = 0.0;
    for (double x : samples)
        var += (x - mean) * (x - mean);
    var /= 5.0;

    EXPECT_NEAR(s.mean(), mean, 1e-12);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

} // namespace
} // namespace bxt
