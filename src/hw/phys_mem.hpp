// Physical memory with real backing bytes.
//
// Backed sparsely by 64KB frames so a 2GB simulated DDR costs only what
// is actually touched. Real contents matter: function-shipped I/O
// marshals real buffers, the persistent-memory feature must preserve
// real linked-list bytes across job boundaries, and the reproducibility
// hash digests real memory images.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "hw/addr.hpp"

namespace bg::hw {

class PhysMem {
 public:
  explicit PhysMem(std::uint64_t size) : size_(size) {}

  std::uint64_t size() const { return size_; }

  void write(PAddr addr, std::span<const std::byte> data);
  void read(PAddr addr, std::span<std::byte> out) const;

  std::uint64_t read64(PAddr addr) const;
  void write64(PAddr addr, std::uint64_t value);

  /// Zero a range (releases nothing; just clears bytes).
  void zero(PAddr addr, std::uint64_t len);

  /// FNV-1a digest of a physical range (untouched frames hash as zero
  /// bytes, matching their read value).
  std::uint64_t hashRange(PAddr addr, std::uint64_t len) const;

  /// Call fn(PAddr at, std::span<const std::byte> bytes) for the part of
  /// [addr, addr+len) in each materialized frame, in ascending address
  /// order. Absent frames read as zero and are skipped; no frame is
  /// ever materialized, so the cost is one lookup per frame spanned
  /// plus the present bytes the callback chooses to look at.
  template <typename Fn>
  void forEachPresentFrame(PAddr addr, std::uint64_t len, Fn&& fn) const {
    checkAccess(addr, len);
    walk(addr, len, [&](std::uint64_t fi, std::uint64_t fo, std::uint64_t off,
                        std::uint64_t n) {
      if (const std::byte* f = frameIfPresent(fi)) {
        fn(addr + off, std::span<const std::byte>(f + fo, n));
      }
    });
  }

  /// DDR self-refresh (paper §III): while in self-refresh, contents are
  /// preserved but any access is a hardware error.
  void enterSelfRefresh() { selfRefresh_ = true; }
  void exitSelfRefresh() { selfRefresh_ = false; }
  bool inSelfRefresh() const { return selfRefresh_; }

  /// Number of frames actually materialized (for tests/metrics).
  std::size_t framesTouched() const { return frames_.size(); }

  static constexpr std::uint64_t kFrameSize = 64ULL << 10;

 private:
  /// Split [addr, addr+len) at frame boundaries: fn(frameIndex,
  /// offsetInFrame, offsetInRange, n) per piece, ascending.
  template <typename Fn>
  static void walk(PAddr addr, std::uint64_t len, Fn&& fn) {
    for (std::uint64_t off = 0; off < len;) {
      const std::uint64_t fi = (addr + off) / kFrameSize;
      const std::uint64_t fo = (addr + off) % kFrameSize;
      const std::uint64_t n = std::min(kFrameSize - fo, len - off);
      fn(fi, fo, off, n);
      off += n;
    }
  }

  std::byte* frameFor(std::uint64_t frameIndex);
  const std::byte* frameIfPresent(std::uint64_t frameIndex) const;
  void checkAccess(PAddr addr, std::uint64_t len) const;

  std::uint64_t size_;
  bool selfRefresh_ = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::byte[]>> frames_;
};

}  // namespace bg::hw
