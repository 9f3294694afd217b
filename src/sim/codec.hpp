// Bit-packed serialization seam: the one encoding primitive every stateful
// layer speaks (snapshot/restore, binary flight-recorder export, and the
// ROADMAP's future distributed-sweep wire format).
//
// The encoding follows the utcp bit_buffer idiom (SNIPPETS.md): values are
// appended LSB-first at arbitrary bit offsets, so a bool costs one bit and
// small enums cost exactly their width — no per-field byte padding. On top
// of the raw bit stream sit three conveniences:
//
//   - varints (7-bit groups, LEB128-style) and zigzag for signed values, so
//     counters and timestamps cost bytes proportional to magnitude;
//   - doubles round-trip through std::bit_cast — byte-exact, never printf;
//   - byte-aligned sections (fourcc + u32 byte length + u32 CRC-32 of the
//     body) so readers can validate structure and integrity before
//     decoding, skip unknown sections, and external tools
//     (tools/validate_trace.py) can walk a blob without decoding bodies.
//
// Codec wraps a writer or a reader behind one dual-mode interface: a class
// writes one `serialize(Codec&)` that passes every field through `c.u64(x)`
// etc., and the same function both saves and loads. Restore-only logic
// (re-arming events, resetting containers) branches on `c.writing()`.
//
// Error handling is sticky-fail, not exceptions: a read past the end or a
// section mismatch sets fail() and every subsequent read returns zeros, so
// callers validate once at the end (the snapshot layer refuses the blob).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace scidmz::sim {

/// CRC-32 as zlib.crc32 computes it (reflected polynomial 0xEDB88320): the
/// integrity check in every section header.
[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static constexpr auto kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t v = i;
      for (int k = 0; k < 8; ++k) v = (v & 1) != 0 ? 0xEDB88320u ^ (v >> 1) : v >> 1;
      table[i] = v;
    }
    return table;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) crc = kTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

/// Append-only bit stream (LSB-first within each byte).
class BitWriter {
 public:
  /// Append the low `bits` bits of `value` (0 <= bits <= 64).
  void writeBits(std::uint64_t value, int bits) {
    while (bits > 0) {
      const std::size_t byte = bit_count_ >> 3;
      const int offset = static_cast<int>(bit_count_ & 7);
      if (byte == buf_.size()) buf_.push_back(0);
      const int take = bits < 8 - offset ? bits : 8 - offset;
      const std::uint64_t mask = (std::uint64_t{1} << take) - 1;
      buf_[byte] = static_cast<std::uint8_t>(buf_[byte] | ((value & mask) << offset));
      value >>= take;
      bits -= take;
      bit_count_ += static_cast<std::size_t>(take);
    }
  }

  void writeBool(bool v) { writeBits(v ? 1 : 0, 1); }
  void writeU8(std::uint8_t v) { writeBits(v, 8); }
  void writeU16(std::uint16_t v) { writeBits(v, 16); }
  void writeU32(std::uint32_t v) { writeBits(v, 32); }
  void writeU64(std::uint64_t v) { writeBits(v, 64); }

  /// LEB128-style varint: 7 value bits + 1 continuation bit per group.
  void writeVarint(std::uint64_t v) {
    while (v >= 0x80) {
      writeBits((v & 0x7F) | 0x80, 8);
      v >>= 7;
    }
    writeBits(v, 8);
  }

  /// Zigzag-mapped signed varint (small magnitudes of either sign are cheap).
  void writeZigzag(std::int64_t v) {
    writeVarint((static_cast<std::uint64_t>(v) << 1) ^
                static_cast<std::uint64_t>(v >> 63));
  }

  /// Byte-exact double (bit pattern, never a decimal round trip).
  void writeF64(double v) { writeU64(std::bit_cast<std::uint64_t>(v)); }

  /// Varint length + raw bytes.
  void writeString(const std::string& s) {
    writeVarint(s.size());
    for (const char ch : s) writeU8(static_cast<std::uint8_t>(ch));
  }

  /// Pad with zero bits to the next byte boundary.
  void align() {
    while ((bit_count_ & 7) != 0) writeBits(0, 1);
  }

  /// Byte-aligned raw copy (aligns first).
  void writeRaw(const void* data, std::size_t n) {
    align();
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
    bit_count_ += n * 8;
  }

  /// Open a byte-aligned section: fourcc + u32 length and u32 CRC-32
  /// placeholders. Returns a cookie for endSection(), which patches the
  /// body's byte length and checksum.
  std::size_t beginSection(const char (&fourcc)[5]) {
    writeRaw(fourcc, 4);
    writeU32(0);
    writeU32(0);
    return buf_.size();
  }

  void endSection(std::size_t cookie) {
    align();
    const auto length = static_cast<std::uint32_t>(buf_.size() - cookie);
    const std::uint32_t crc = crc32(buf_.data() + cookie, length);
    std::memcpy(buf_.data() + cookie - 8, &length, 4);
    std::memcpy(buf_.data() + cookie - 4, &crc, 4);
  }

  [[nodiscard]] std::size_t byteSize() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() {
    bit_count_ = 0;
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t bit_count_ = 0;
};

/// Sticky-fail bit stream reader over a borrowed byte range.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t sizeBytes)
      : data_(data), bit_size_(sizeBytes * 8) {}

  [[nodiscard]] std::uint64_t readBits(int bits) {
    if (fail_ || pos_ + static_cast<std::size_t>(bits) > bit_size_) {
      fail_ = true;
      return 0;
    }
    std::uint64_t out = 0;
    int got = 0;
    while (got < bits) {
      const std::size_t byte = pos_ >> 3;
      const int offset = static_cast<int>(pos_ & 7);
      const int take = bits - got < 8 - offset ? bits - got : 8 - offset;
      const std::uint64_t mask = (std::uint64_t{1} << take) - 1;
      out |= ((static_cast<std::uint64_t>(data_[byte]) >> offset) & mask)
             << got;
      got += take;
      pos_ += static_cast<std::size_t>(take);
    }
    return out;
  }

  [[nodiscard]] bool readBool() { return readBits(1) != 0; }
  [[nodiscard]] std::uint8_t readU8() { return static_cast<std::uint8_t>(readBits(8)); }
  [[nodiscard]] std::uint16_t readU16() { return static_cast<std::uint16_t>(readBits(16)); }
  [[nodiscard]] std::uint32_t readU32() { return static_cast<std::uint32_t>(readBits(32)); }
  [[nodiscard]] std::uint64_t readU64() { return readBits(64); }

  [[nodiscard]] std::uint64_t readVarint() {
    std::uint64_t out = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      const std::uint64_t group = readBits(8);
      out |= (group & 0x7F) << shift;
      if ((group & 0x80) == 0) return out;
    }
    fail_ = true;  // unterminated varint
    return 0;
  }

  [[nodiscard]] std::int64_t readZigzag() {
    const std::uint64_t z = readVarint();
    return static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
  }

  [[nodiscard]] double readF64() { return std::bit_cast<double>(readU64()); }

  [[nodiscard]] std::string readString() {
    const std::uint64_t n = readVarint();
    // No multiply: n * 8 wraps for a length of 2^61 or more.
    if (fail_ || n > (bit_size_ - pos_) / 8) {
      fail_ = true;
      return {};
    }
    std::string s;
    s.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) s.push_back(static_cast<char>(readU8()));
    return s;
  }

  void align() { pos_ = (pos_ + 7) & ~std::size_t{7}; }

  void readRaw(void* out, std::size_t n) {
    align();
    if (fail_ || n > (bit_size_ - pos_) / 8) {
      fail_ = true;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + (pos_ >> 3), n);
    pos_ += n * 8;
  }

  /// Enter a section: align, match the fourcc, check that the body fits in
  /// the stream and matches its CRC-32, and return the body length in
  /// bytes. Any mismatch sets fail() and returns 0.
  [[nodiscard]] std::uint32_t enterSection(const char (&fourcc)[5]) {
    char got[4];
    readRaw(got, 4);
    const std::uint32_t length = readU32();
    const std::uint32_t crc = readU32();
    if (fail_ || std::memcmp(got, fourcc, 4) != 0 || length > (bit_size_ - pos_) / 8 ||
        crc32(data_ + pos_ / 8, length) != crc) {
      fail_ = true;
      return 0;
    }
    return length;
  }

  void skipBytes(std::size_t n) {
    align();
    if (pos_ + n * 8 > bit_size_) {
      fail_ = true;
      return;
    }
    pos_ += n * 8;
  }

  /// Components call this when a decoded value is semantically impossible
  /// (e.g. the snapshot names state the rebuilt scenario lacks); the blob
  /// is then refused like any framing error.
  void markFailed() { fail_ = true; }

  [[nodiscard]] bool fail() const { return fail_; }
  [[nodiscard]] bool ok() const { return !fail_; }
  [[nodiscard]] bool atEnd() const { return ((pos_ + 7) & ~std::size_t{7}) >= bit_size_; }
  [[nodiscard]] std::size_t bitsLeft() const { return pos_ < bit_size_ ? bit_size_ - pos_ : 0; }
  [[nodiscard]] std::size_t bitPos() const { return pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t bit_size_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

/// Dual-mode archive: wraps either a BitWriter or a BitReader so one
/// `serialize(Codec&)` per class handles both directions. Every accessor
/// takes a reference — saved from it in write mode, stored to it in read
/// mode. Restore-only logic branches on writing().
class Codec {
 public:
  explicit Codec(BitWriter& w) : w_(&w) {}
  explicit Codec(BitReader& r) : r_(&r) {}

  [[nodiscard]] bool writing() const { return w_ != nullptr; }
  [[nodiscard]] bool ok() const { return r_ == nullptr || r_->ok(); }

  void b(bool& v) { writing() ? w_->writeBool(v) : void(v = r_->readBool()); }
  void u8(std::uint8_t& v) { writing() ? w_->writeU8(v) : void(v = r_->readU8()); }
  void u16(std::uint16_t& v) { writing() ? w_->writeU16(v) : void(v = r_->readU16()); }
  void u32(std::uint32_t& v) { writing() ? w_->writeU32(v) : void(v = r_->readU32()); }
  void u64(std::uint64_t& v) { writing() ? w_->writeU64(v) : void(v = r_->readU64()); }
  void vu32(std::uint32_t& v) {
    writing() ? w_->writeVarint(v) : void(v = static_cast<std::uint32_t>(r_->readVarint()));
  }
  void vu64(std::uint64_t& v) { writing() ? w_->writeVarint(v) : void(v = r_->readVarint()); }
  void vi64(std::int64_t& v) { writing() ? w_->writeZigzag(v) : void(v = r_->readZigzag()); }
  void f64(double& v) { writing() ? w_->writeF64(v) : void(v = r_->readF64()); }
  void str(std::string& v) { writing() ? w_->writeString(v) : void(v = r_->readString()); }

  /// The item count of a container the decoder is about to size, each item
  /// at least `minBits` bits on the wire. Reading, a count that the bits
  /// left cannot hold (compared by division, so nothing wraps) fails the
  /// reader and reads as 0: no resize or reserve ever sees it.
  void count(std::uint64_t& n, std::uint64_t minBits) {
    vu64(n);
    if (!writing() && (r_->fail() || n > r_->bitsLeft() / minBits)) {
      r_->markFailed();
      n = 0;
    }
  }

  /// size_t through a varint (container sizes).
  void size(std::size_t& v) {
    std::uint64_t wide = v;
    vu64(wide);
    v = static_cast<std::size_t>(wide);
  }

  /// Integer of any width through a varint (counters, enums as integers).
  template <typename T>
  void vint(T& v) {
    std::uint64_t wide = static_cast<std::uint64_t>(v);
    vu64(wide);
    v = static_cast<T>(wide);
  }

  [[nodiscard]] BitWriter& writer() { return *w_; }
  [[nodiscard]] BitReader& reader() { return *r_; }

 private:
  BitWriter* w_ = nullptr;
  BitReader* r_ = nullptr;
};

// Unit-type codecs: zigzag/varint encoded, so near-now timestamps and
// modest byte counts cost a few bytes instead of eight.
inline void codecTime(Codec& c, SimTime& t) {
  std::int64_t ns = t.ns();
  c.vi64(ns);
  if (!c.writing()) t = SimTime::fromNs(ns);
}

inline void codecDuration(Codec& c, Duration& d) {
  std::int64_t ns = d.ns();
  c.vi64(ns);
  if (!c.writing()) d = Duration::nanoseconds(ns);
}

inline void codecSize(Codec& c, DataSize& s) {
  std::uint64_t bytes = s.byteCount();
  c.vu64(bytes);
  if (!c.writing()) s = DataSize::bytes(bytes);
}

inline void codecRate(Codec& c, DataRate& r) {
  std::uint64_t bps = r.bps();
  c.vu64(bps);
  if (!c.writing()) r = DataRate::bitsPerSecond(bps);
}

/// Write an ASCII magic header ("scidmz.snap.v1" etc.), newline-terminated
/// so the format is identifiable with `head -c 16`.
void writeMagic(BitWriter& w, const char* magic);
/// Consume and verify a magic header; false on mismatch or truncation.
[[nodiscard]] bool readMagic(BitReader& r, const char* magic);

}  // namespace scidmz::sim
