#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace scidmz::sim {
namespace {

using namespace scidmz::sim::literals;

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, EmptyMinMaxAreZeroNotInfinite) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, ResetThenAddStartsFresh) {
  RunningStats s;
  s.add(1e9);
  s.add(-1e9);
  s.reset();
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(TimeWeightedMean, WeightsByDuration) {
  TimeWeightedMean m;
  const SimTime t0 = SimTime::zero();
  m.update(t0, 10.0);          // 10 for 1s
  m.update(t0 + 1_s, 20.0);    // 20 for 3s
  const double mean = m.mean(t0 + 4_s);
  EXPECT_DOUBLE_EQ(mean, (10.0 * 1 + 20.0 * 3) / 4.0);
}

TEST(TimeWeightedMean, SingleValue) {
  TimeWeightedMean m;
  m.update(SimTime::zero(), 42.0);
  EXPECT_DOUBLE_EQ(m.mean(SimTime::zero() + 10_s), 42.0);
  EXPECT_DOUBLE_EQ(m.current(), 42.0);
}

TEST(TimeWeightedMean, EqualTimestampsReplaceWithoutAccumulating) {
  TimeWeightedMean m;
  const SimTime t0 = SimTime::zero();
  m.update(t0, 10.0);
  m.update(t0, 20.0);  // zero-duration segment: 10.0 must contribute nothing
  EXPECT_DOUBLE_EQ(m.mean(t0 + 1_s), 20.0);
}

TEST(TimeWeightedMean, NonMonotonicUpdateDoesNotCorruptTheMean) {
  TimeWeightedMean m;
  const SimTime t0 = SimTime::zero();
  m.update(t0 + 1_s, 10.0);
  m.update(t0 + 500_ms, 20.0);  // clock went backwards: no negative-span area
  const double mean = m.mean(t0 + 1500_ms);
  EXPECT_DOUBLE_EQ(mean, 20.0);
  EXPECT_GE(mean, 0.0);  // a negative span would have produced nonsense
}

TEST(TimeWeightedMean, MeanBeforeAnyUpdateIsZero) {
  TimeWeightedMean m;
  EXPECT_DOUBLE_EQ(m.mean(SimTime::zero() + 1_s), 0.0);
  EXPECT_DOUBLE_EQ(m.current(), 0.0);
}

TEST(TimeWeightedMean, MeanAtLastUpdateTimeFallsBackToCurrent) {
  TimeWeightedMean m;
  const SimTime t0 = SimTime::zero();
  m.update(t0, 7.0);
  EXPECT_DOUBLE_EQ(m.mean(t0), 7.0);  // zero span: current value, not 0/0
}

}  // namespace
}  // namespace scidmz::sim
