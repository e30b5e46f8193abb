// Flat little-endian byte serialization for checkpoint images.
//
// The service node (src/svc) checkpoints its control-plane state into
// a persistent-memory region; these helpers define the wire format.
// Reads are bounds-checked: a truncated or corrupted image surfaces as
// ok() == false rather than undefined behavior, so restart code can
// fall back to a cold start.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace bg::sim {

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Write into `buf`'s storage (cleared first), so a caller that
  /// encodes again and again can keep one allocation.
  explicit ByteWriter(std::vector<std::byte> buf) : out_(std::move(buf)) {
    out_.clear();
  }

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v), 8); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) out_.push_back(static_cast<std::byte>(c));
  }
  /// Raw byte span, no length prefix (caller frames it).
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  const std::vector<std::byte>& bytes() const { return out_; }
  std::vector<std::byte> take() && { return std::move(out_); }

 private:
  void word(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out_.push_back(static_cast<std::byte>((v >> (i * 8)) & 0xFF));
    }
  }
  std::vector<std::byte> out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::byte>& in) : in_(in) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(word(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(word(4)); }
  std::uint64_t u64() { return word(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(word(8)); }
  std::string str() {
    const std::uint64_t n = u64();
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return {};
    }
    std::string s;
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(in_[pos_ + i]));
    }
    pos_ += n;
    return s;
  }

  /// Raw byte span, no length prefix; fills `out` or poisons ok().
  void raw(void* out, std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return;
    }
    std::memcpy(out, in_.data() + pos_, n);
    pos_ += n;
  }

  /// False once any read ran past the end; all subsequent reads
  /// return zero values.
  bool ok() const { return ok_; }
  bool atEnd() const { return pos_ == in_.size(); }

 private:
  std::uint64_t word(std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ + i]) << (i * 8);
    }
    pos_ += n;
    return v;
  }

  const std::vector<std::byte>& in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace bg::sim
