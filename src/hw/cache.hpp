// Cache hierarchy model: per-core L1 and a shared banked L2/L3.
//
// The shared cache exposes the configuration knob the paper describes
// in §III: "L2 Cache configuration parameters that control the mapping
// of physical memory to cache controllers and to memory banks within
// the cache". Varying the mapping changes bank-conflict behaviour,
// which bench_cachemap measures (the design-time sensitivity study).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/addr.hpp"
#include "sim/types.hpp"

namespace bg::hw {

class MemFaultModel;

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Set-associative cache with true tag state and LRU replacement.
class CacheArray {
 public:
  CacheArray(std::uint64_t sizeBytes, std::uint32_t lineBytes,
             std::uint32_t ways);

  /// Returns true on hit; on miss the line is filled (evicting LRU).
  ///
  /// The header-inline fast path is a last-line hint: the hint always
  /// points at the line touched by the most recent access (which is
  /// therefore MRU and cannot have been evicted since), so a repeat
  /// access to the same line skips the set walk while keeping stats
  /// and LRU clocks bit-identical to the slow path.
  bool access(PAddr pa) {
    const std::uint64_t lineAddr = pa / lineBytes_;
    if (lastLine_ != nullptr && lineAddr == lastLineAddr_) {
      ++stats_.accesses;
      lastLine_->lastUse = tick();
      ++stats_.hits;
      return true;
    }
    return accessSlow(lineAddr);
  }

  /// Invalidate everything (used by the reproducible-reset path, which
  /// flushes all caches to DDR before toggling reset — paper §III).
  void flushAll();

  std::uint32_t lineBytes() const { return lineBytes_; }
  const CacheStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Parity fault injection (paper §V-B: parity-protected L1). The
  /// Node attaches the machine-wide MemFaultModel; the hot access()
  /// fast path above is untouched — Core judges line fills behind
  /// the parityArmed() flag, out of line in cache.cpp.
  void attachFaults(MemFaultModel* m, int nodeId) {
    faults_ = m;
    nodeId_ = nodeId;
  }
  void armParityFaults(bool armed) {
    parityArmed_ = armed && faults_ != nullptr;
  }
  bool parityArmed() const { return parityArmed_; }

  /// Judge one line fill against the fault model (defined in
  /// cache.cpp). Only call when parityArmed(); draws nothing at
  /// zero rates.
  bool judgeParity();

 private:
  friend struct CacheArrayPeek;  // tests: start the LRU clock near its end

  /// 8 bytes, so a node's 8 MiB L3 model costs 512 KiB of lines.
  /// lastUse == 0 marks an invalid line: every stamp tick() hands out
  /// is at least 1.
  struct Line {
    std::uint32_t tag = 0;
    std::uint32_t lastUse = 0;
  };

  /// Next LRU stamp. When 32-bit stamps run out, renumber() rewrites
  /// each set's valid stamps as 1..n in the same order, so every later
  /// hit, fill and victim choice is what a wider clock would give.
  std::uint32_t tick() {
    if (useClock_ == UINT32_MAX) [[unlikely]] renumber();
    return ++useClock_;
  }
  void renumber();
  bool accessSlow(std::uint64_t lineAddr);

  std::uint32_t lineBytes_;
  std::uint32_t ways_;
  std::uint32_t sets_;
  std::uint32_t useClock_ = 0;
  std::vector<Line> lines_;  // sets_ * ways_
  Line* lastLine_ = nullptr;        // line touched by the last access
  std::uint64_t lastLineAddr_ = 0;  // its line address (pa / lineBytes_)
  CacheStats stats_;
  bool parityArmed_ = false;
  MemFaultModel* faults_ = nullptr;
  int nodeId_ = 0;
};

/// Bank-mapping policies for the shared cache (paper §III knob).
enum class BankMap : std::uint8_t {
  kDirect,   // bank = (pa / lineBytes) % banks
  kXorFold,  // bank = fold of several address bit groups (conflict-resistant)
  kHighBits, // bank = high physical address bits (pathological for tiling)
};

struct SharedCacheConfig {
  std::uint64_t sizeBytes = 8ULL << 20;  // BG/P: 8MB L3
  std::uint32_t lineBytes = 128;
  std::uint32_t ways = 8;
  std::uint32_t banks = 2;
  BankMap bankMap = BankMap::kXorFold;
  sim::Cycle hitLatency = 12;
  sim::Cycle bankBusy = 4;  // cycles a bank stays busy per access
};

/// Shared cache with banking and a configurable phys->bank mapping.
class SharedCache {
 public:
  explicit SharedCache(const SharedCacheConfig& cfg);

  struct Result {
    bool hit;
    sim::Cycle extraStall;  // bank-conflict stall cycles
  };

  /// Access at simulated time `now`; tracks per-bank busy windows to
  /// model conflicts between cores.
  Result access(PAddr pa, sim::Cycle now);

  std::uint32_t bankOf(PAddr pa) const;
  void flushAll();

  const SharedCacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  std::uint64_t bankConflicts() const { return conflicts_; }
  const std::vector<std::uint64_t>& bankAccesses() const {
    return bankAccesses_;
  }
  void resetStats();

 private:
  SharedCacheConfig cfg_;
  std::vector<CacheArray> bankArrays_;
  std::vector<sim::Cycle> bankBusyUntil_;
  std::vector<std::uint64_t> bankAccesses_;
  std::uint64_t conflicts_ = 0;
  CacheStats stats_;
};

}  // namespace bg::hw
