// Endian-safe binary read/write primitives for the wire protocol.
// Integers are little-endian fixed width; doubles are IEEE-754 bit
// patterns. The Reader is bounds-checked and latches an error state
// instead of throwing, so malformed peer input can never crash a node.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace clash::wire {

// Raw little-endian stores/loads shared by the codec and the TCP
// framing layer (the u32 length prefix), so framing bytes match the
// codec on any host endianness.
inline void store_u32_le(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v);
  p[1] = std::uint8_t(v >> 8);
  p[2] = std::uint8_t(v >> 16);
  p[3] = std::uint8_t(v >> 24);
}

inline std::uint32_t load_u32_le(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
         (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

/// Append-only encoder over a pooled backing buffer. The default
/// constructor recycles an allocation from the thread's BufferPool and
/// the destructor returns it, so encoding a message allocates nothing
/// in steady state; take() transfers the buffer out (the transport
/// releases it after the flush).
class Writer {
 public:
  Writer();
  ~Writer();

  Writer(Writer&&) noexcept = default;
  Writer& operator=(Writer&&) noexcept = default;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) string.
  void str(std::string_view s);

  /// Overwrite 4 already-written bytes at `offset` (little-endian) —
  /// fills in length slots reserved before the value was known.
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void le(T v) {
    std::uint8_t b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = std::uint8_t(v >> (8 * i));
    }
    buf_.insert(buf_.end(), b, b + sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  /// Length-prefixed (u32) string; empty on error.
  std::string str();
  /// The next `n` raw bytes (a view into the input); empty on error.
  std::span<const std::uint8_t> bytes(std::size_t n);

  /// True while all reads so far were in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Latch the error state (semantic validation failed upstream).
  void fail() { ok_ = false; }
  /// True when the payload was consumed exactly.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const {
    return ok_ ? data_.size() - pos_ : 0;
  }

 private:
  [[nodiscard]] bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) ok_ = false;
    return ok_;
  }
  /// A little-endian T; 0 (and the error latched) past the end.
  template <typename T>
  T le() {
    if (!take(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= T(T(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace clash::wire
