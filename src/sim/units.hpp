// Strong unit types used throughout the simulator.
//
// All simulation time is integer nanoseconds (Duration / SimTime), data
// sizes are integer bytes (DataSize) and rates are integer bits per second
// (DataRate). Integer representations keep event ordering exact and runs
// bit-reproducible across platforms.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace scidmz::sim {

/// 128-bit intermediate for rate/size arithmetic that would overflow 64
/// bits (e.g. terabyte transfers). GCC/Clang extension, hence the marker.
__extension__ using UInt128 = unsigned __int128;

/// A span of simulated time in nanoseconds. Distinct from SimTime (a point
/// on the simulation clock) so that the two cannot be mixed accidentally.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration nanoseconds(std::int64_t ns) { return Duration{ns}; }
  static constexpr Duration microseconds(std::int64_t us) { return Duration{us * 1'000}; }
  static constexpr Duration milliseconds(std::int64_t ms) { return Duration{ms * 1'000'000}; }
  static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  static constexpr Duration fromSeconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() { return Duration{std::numeric_limits<std::int64_t>::max()}; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double toMillis() const { return static_cast<double>(ns_) * 1e-6; }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
  constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{ns_ * k}; }
  constexpr Duration operator/(std::int64_t k) const { return Duration{ns_ / k}; }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An absolute point on the simulation clock (ns since simulation start).
class SimTime {
 public:
  constexpr SimTime() = default;
  static constexpr SimTime fromNs(std::int64_t ns) { return SimTime{ns}; }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() { return SimTime{std::numeric_limits<std::int64_t>::max()}; }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double toSeconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const SimTime&) const = default;
  constexpr SimTime operator+(Duration d) const { return SimTime{ns_ + d.ns()}; }
  constexpr SimTime operator-(Duration d) const { return SimTime{ns_ - d.ns()}; }
  constexpr Duration operator-(SimTime o) const { return Duration::nanoseconds(ns_ - o.ns_); }
  constexpr SimTime& operator+=(Duration d) { ns_ += d.ns(); return *this; }

 private:
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// A quantity of data in bytes.
class DataSize {
 public:
  constexpr DataSize() = default;
  static constexpr DataSize bytes(std::uint64_t b) { return DataSize{b}; }
  static constexpr DataSize kilobytes(std::uint64_t kb) { return DataSize{kb * 1'000}; }
  static constexpr DataSize megabytes(std::uint64_t mb) { return DataSize{mb * 1'000'000}; }
  static constexpr DataSize gigabytes(std::uint64_t gb) { return DataSize{gb * 1'000'000'000}; }
  static constexpr DataSize terabytes(std::uint64_t tb) { return DataSize{tb * 1'000'000'000'000}; }
  static constexpr DataSize kibibytes(std::uint64_t k) { return DataSize{k * 1024}; }
  static constexpr DataSize mebibytes(std::uint64_t m) { return DataSize{m * 1024 * 1024}; }
  static constexpr DataSize zero() { return DataSize{0}; }

  [[nodiscard]] constexpr std::uint64_t byteCount() const { return bytes_; }
  [[nodiscard]] constexpr std::uint64_t bitCount() const { return bytes_ * 8; }
  [[nodiscard]] constexpr double toMB() const { return static_cast<double>(bytes_) * 1e-6; }
  [[nodiscard]] constexpr double toGB() const { return static_cast<double>(bytes_) * 1e-9; }

  constexpr auto operator<=>(const DataSize&) const = default;
  constexpr DataSize operator+(DataSize o) const { return DataSize{bytes_ + o.bytes_}; }
  constexpr DataSize operator-(DataSize o) const { return DataSize{bytes_ - o.bytes_}; }
  constexpr DataSize operator*(std::uint64_t k) const { return DataSize{bytes_ * k}; }
  constexpr DataSize operator/(std::uint64_t k) const { return DataSize{bytes_ / k}; }
  constexpr DataSize& operator+=(DataSize o) { bytes_ += o.bytes_; return *this; }
  constexpr DataSize& operator-=(DataSize o) { bytes_ -= o.bytes_; return *this; }

 private:
  constexpr explicit DataSize(std::uint64_t b) : bytes_(b) {}
  std::uint64_t bytes_ = 0;
};

/// A data rate in bits per second.
class DataRate {
 public:
  constexpr DataRate() = default;
  static constexpr DataRate bitsPerSecond(std::uint64_t bps) { return DataRate{bps}; }
  static constexpr DataRate megabitsPerSecond(std::uint64_t m) { return DataRate{m * 1'000'000}; }
  static constexpr DataRate gigabitsPerSecond(std::uint64_t g) { return DataRate{g * 1'000'000'000}; }
  static constexpr DataRate zero() { return DataRate{0}; }

  [[nodiscard]] constexpr std::uint64_t bps() const { return bps_; }
  [[nodiscard]] constexpr double toGbps() const { return static_cast<double>(bps_) * 1e-9; }
  [[nodiscard]] constexpr double toMbps() const { return static_cast<double>(bps_) * 1e-6; }
  [[nodiscard]] constexpr double toMBps() const { return static_cast<double>(bps_) / 8e6; }

  /// Time to serialize `size` onto a medium of this rate. Rounds up to the
  /// next nanosecond so back-to-back transmissions never overlap.
  [[nodiscard]] constexpr Duration transmissionTime(DataSize size) const {
    // ns = bits * 1e9 / bps, computed in 128-bit to avoid overflow.
    const auto bits = static_cast<UInt128>(size.bitCount());
    const auto num = bits * 1'000'000'000u;
    const auto ns = (num + bps_ - 1) / bps_;
    return Duration::nanoseconds(static_cast<std::int64_t>(ns));
  }

  /// Bytes transferable in `d` at this rate (rounded down).
  [[nodiscard]] constexpr DataSize bytesIn(Duration d) const {
    const auto bits =
        static_cast<UInt128>(bps_) * static_cast<std::uint64_t>(d.ns()) / 1'000'000'000u;
    return DataSize::bytes(static_cast<std::uint64_t>(bits / 8));
  }

  constexpr auto operator<=>(const DataRate&) const = default;
  constexpr DataRate operator+(DataRate o) const { return DataRate{bps_ + o.bps_}; }
  constexpr DataRate operator-(DataRate o) const { return DataRate{bps_ - o.bps_}; }
  constexpr DataRate operator*(std::uint64_t k) const { return DataRate{bps_ * k}; }
  constexpr DataRate operator/(std::uint64_t k) const { return DataRate{bps_ / k}; }

 private:
  constexpr explicit DataRate(std::uint64_t bps) : bps_(bps) {}
  std::uint64_t bps_ = 0;
};

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) { return Duration::nanoseconds(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_us(unsigned long long v) { return Duration::microseconds(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_ms(unsigned long long v) { return Duration::milliseconds(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_s(unsigned long long v) { return Duration::seconds(static_cast<std::int64_t>(v)); }
constexpr DataSize operator""_B(unsigned long long v) { return DataSize::bytes(v); }
constexpr DataSize operator""_KB(unsigned long long v) { return DataSize::kilobytes(v); }
constexpr DataSize operator""_MB(unsigned long long v) { return DataSize::megabytes(v); }
constexpr DataSize operator""_GB(unsigned long long v) { return DataSize::gigabytes(v); }
constexpr DataSize operator""_TB(unsigned long long v) { return DataSize::terabytes(v); }
constexpr DataSize operator""_KiB(unsigned long long v) { return DataSize::kibibytes(v); }
constexpr DataSize operator""_MiB(unsigned long long v) { return DataSize::mebibytes(v); }
constexpr DataRate operator""_bps(unsigned long long v) { return DataRate::bitsPerSecond(v); }
constexpr DataRate operator""_Mbps(unsigned long long v) { return DataRate::megabitsPerSecond(v); }
constexpr DataRate operator""_Gbps(unsigned long long v) { return DataRate::gigabitsPerSecond(v); }
}  // namespace literals

/// Human-readable formatting helpers (used by reports and dashboards).
[[nodiscard]] std::string toString(Duration d);
[[nodiscard]] std::string toString(SimTime t);
[[nodiscard]] std::string toString(DataSize s);
[[nodiscard]] std::string toString(DataRate r);

}  // namespace scidmz::sim
