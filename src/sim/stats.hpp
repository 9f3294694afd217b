// Lightweight statistics primitives used by the queues and by perfSONAR's
// OWAMP sessions and measurement archive.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/codec.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  void reset() { *this = RunningStats{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal (e.g. queue depth).
class TimeWeightedMean {
 public:
  void update(SimTime now, double newValue) {
    if (has_) {
      const double dt = (now - last_t_).toSeconds();
      if (dt > 0) {
        area_ += value_ * dt;
        span_ += dt;
      }
    }
    value_ = newValue;
    last_t_ = now;
    has_ = true;
  }

  /// Mean over [first update, now]; call with the current time to close the
  /// final segment.
  [[nodiscard]] double mean(SimTime now) const {
    double area = area_;
    double span = span_;
    if (has_) {
      const double dt = (now - last_t_).toSeconds();
      if (dt > 0) {
        area += value_ * dt;
        span += dt;
      }
    }
    return span > 0 ? area / span : value_;
  }

  [[nodiscard]] double current() const { return value_; }

  /// Snapshot/restore: doubles round-trip bit-exact through the codec, so
  /// a restored mean continues accumulating byte-identically.
  void serialize(Codec& c) {
    c.b(has_);
    c.f64(value_);
    c.f64(area_);
    c.f64(span_);
    codecTime(c, last_t_);
  }

 private:
  bool has_ = false;
  double value_ = 0.0;
  double area_ = 0.0;
  double span_ = 0.0;
  SimTime last_t_ = SimTime::zero();
};

}  // namespace scidmz::sim
