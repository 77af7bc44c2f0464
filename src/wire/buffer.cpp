#include "wire/buffer.hpp"

#include <cassert>
#include <cstring>

#include "wire/buffer_pool.hpp"

namespace clash::wire {

Writer::Writer() : buf_(BufferPool::local().acquire()) {}

Writer::~Writer() { BufferPool::local().release(std::move(buf_)); }

void Writer::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Writer::str(std::string_view s) {
  u32(std::uint32_t(s.size()));
  bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Writer::patch_u32(std::size_t offset, std::uint32_t v) {
  assert(offset + 4 <= buf_.size());
  store_u32_le(buf_.data() + offset, v);
}

std::string Reader::str() {
  const auto raw = bytes(u32());
  return std::string(raw.begin(), raw.end());
}

std::span<const std::uint8_t> Reader::bytes(std::size_t n) {
  if (!take(n)) return {};
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace clash::wire
