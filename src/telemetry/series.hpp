// Sampled time series: the storage behind cwnd/queue-depth/utilization
// probes and the perfSONAR measurement archive (which consumes the same
// type instead of keeping a private one).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/codec.hpp"
#include "sim/units.hpp"

namespace scidmz::telemetry {

struct Sample {
  sim::SimTime at;
  double value = 0.0;
};

class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void append(sim::SimTime at, double value) { samples_.push_back(Sample{at, value}); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  [[nodiscard]] double first() const { return samples_.empty() ? 0.0 : samples_.front().value; }
  [[nodiscard]] double last() const { return samples_.empty() ? 0.0 : samples_.back().value; }

  [[nodiscard]] double min() const {
    double m = samples_.empty() ? 0.0 : samples_.front().value;
    for (const auto& s : samples_) m = s.value < m ? s.value : m;
    return m;
  }

  [[nodiscard]] double max() const {
    double m = samples_.empty() ? 0.0 : samples_.front().value;
    for (const auto& s : samples_) m = s.value > m ? s.value : m;
    return m;
  }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double total = 0.0;
    for (const auto& s : samples_) total += s.value;
    return total / static_cast<double>(samples_.size());
  }

  /// Snapshot/restore overlay of the sample vector (the name is the lookup
  /// key and stays with the rebuilt object). Timestamps delta-encode.
  void serialize(sim::Codec& c) {
    std::uint64_t n = samples_.size();
    c.count(n, 72);  // a sample: a one-byte time delta at least, and a double
    if (!c.writing()) {
      samples_.clear();
      samples_.resize(static_cast<std::size_t>(n));
    }
    std::int64_t prevNs = 0;
    for (Sample& s : samples_) {
      std::int64_t deltaNs = s.at.ns() - prevNs;
      c.vi64(deltaNs);
      if (!c.writing()) s.at = sim::SimTime::fromNs(prevNs + deltaNs);
      prevNs = s.at.ns();
      c.f64(s.value);
    }
  }

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace scidmz::telemetry
