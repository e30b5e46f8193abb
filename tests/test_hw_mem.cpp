// Unit tests: physical memory, MMU/TLB/DAC, caches, DDR refresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "hw/cache.hpp"
#include "hw/ddr.hpp"
#include "hw/mmu.hpp"
#include "hw/phys_mem.hpp"
#include "sim/rng.hpp"

namespace bg::hw {

/// Reaches into CacheArray's LRU clock (a friend of the class).
struct CacheArrayPeek {
  static void setClock(CacheArray& c, std::uint32_t v) { c.useClock_ = v; }
  static std::uint32_t clock(const CacheArray& c) { return c.useClock_; }
};

namespace {

// ---------------- PhysMem ----------------

TEST(PhysMem, RoundTripsBytes) {
  PhysMem m(1 << 20);
  const std::uint8_t raw[] = {1, 2, 3, 4, 5};
  m.write(100, std::as_bytes(std::span(raw)));
  std::uint8_t out[5] = {};
  m.read(100, std::as_writable_bytes(std::span(out)));
  EXPECT_TRUE(std::equal(std::begin(raw), std::end(raw), std::begin(out)));
}

TEST(PhysMem, UntouchedMemoryReadsZero) {
  PhysMem m(1 << 20);
  EXPECT_EQ(m.read64(0x8000), 0u);
  EXPECT_EQ(m.framesTouched(), 0u);
}

TEST(PhysMem, CrossFrameAccess) {
  PhysMem m(1 << 20);
  const PAddr addr = PhysMem::kFrameSize - 4;
  m.write64(addr, 0x1122334455667788ULL);
  EXPECT_EQ(m.read64(addr), 0x1122334455667788ULL);
  EXPECT_EQ(m.framesTouched(), 2u);
}

TEST(PhysMem, OutOfRangeThrows) {
  PhysMem m(4096);
  EXPECT_THROW(m.write64(4094, 1), std::out_of_range);
}

TEST(PhysMem, SelfRefreshBlocksAccessButPreservesContents) {
  PhysMem m(1 << 20);
  m.write64(64, 42);
  m.enterSelfRefresh();
  EXPECT_THROW(m.read64(64), std::runtime_error);
  m.exitSelfRefresh();
  EXPECT_EQ(m.read64(64), 42u);
}

TEST(PhysMem, HashMatchesForEqualContents) {
  PhysMem a(1 << 20), b(1 << 20);
  a.write64(128, 7);
  b.write64(128, 7);
  EXPECT_EQ(a.hashRange(0, 4096), b.hashRange(0, 4096));
  b.write64(200, 9);
  EXPECT_NE(a.hashRange(0, 4096), b.hashRange(0, 4096));
}

TEST(PhysMem, HashOfUntouchedEqualsHashOfZeroed) {
  PhysMem a(1 << 20), b(1 << 20);
  b.write64(64, 1);
  b.zero(64, 8);
  EXPECT_EQ(a.hashRange(0, 1024), b.hashRange(0, 1024));
}

TEST(PhysMem, ZeroClearsRange) {
  PhysMem m(1 << 20);
  m.write64(0, ~0ULL);
  m.zero(0, 8);
  EXPECT_EQ(m.read64(0), 0u);
}

TEST(PhysMem, ZeroLeavesAbsentFramesAbsent) {
  PhysMem m(1 << 20);
  m.write64(PhysMem::kFrameSize + 8, ~0ULL);
  m.zero(0, 4 * PhysMem::kFrameSize);
  EXPECT_EQ(m.read64(PhysMem::kFrameSize + 8), 0u);
  EXPECT_EQ(m.framesTouched(), 1u);
}

// Property: over seeded random layouts (frames holding data, frames
// materialized but all zero, absent frames) and random unaligned
// ranges, the present-frame visitor reports exactly the present frames
// in the range, in ascending order, one piece per frame, and the
// pieces plus zeros for the gaps rebuild what read() returns. It never
// materializes a frame.
TEST(PhysMem, PresentFrameVisitorMatchesReadOverRandomLayouts) {
  constexpr std::uint64_t kF = PhysMem::kFrameSize;
  constexpr std::uint64_t kFrames = 16;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    sim::Rng rng(seed, "visitor");
    PhysMem m(kFrames * kF);
    std::set<std::uint64_t> present;
    for (int i = 0; i < 6; ++i) {
      const PAddr at = rng.nextBelow(kFrames * kF - 8);
      const std::uint64_t v = rng.nextBelow(3) == 0 ? 0 : rng.next() | 1;
      m.write64(at, v);
      present.insert(at / kF);
      present.insert((at + 7) / kF);
    }
    ASSERT_EQ(m.framesTouched(), present.size());
    for (int q = 0; q < 12; ++q) {
      const PAddr addr = rng.nextBelow(kFrames * kF);
      const std::uint64_t len = rng.nextBelow(kFrames * kF - addr + 1);
      std::vector<std::byte> rebuilt(len), direct(len);
      std::vector<std::uint64_t> visited;
      PAddr prevEnd = addr;
      m.forEachPresentFrame(
          addr, len, [&](PAddr at, std::span<const std::byte> bytes) {
            ASSERT_FALSE(bytes.empty());
            EXPECT_GE(at, prevEnd) << "pieces out of order or overlapping";
            EXPECT_LE(at + bytes.size(), addr + len);
            EXPECT_EQ(at / kF, (at + bytes.size() - 1) / kF)
                << "a piece crosses a frame boundary";
            std::memcpy(rebuilt.data() + (at - addr), bytes.data(),
                        bytes.size());
            visited.push_back(at / kF);
            prevEnd = at + bytes.size();
          });
      std::vector<std::uint64_t> expected;
      if (len > 0) {
        for (std::uint64_t f : present) {
          if (f >= addr / kF && f <= (addr + len - 1) / kF) {
            expected.push_back(f);
          }
        }
      }
      EXPECT_EQ(visited, expected) << "seed " << seed << " query " << q;
      m.read(addr, direct);
      EXPECT_TRUE(rebuilt == direct) << "seed " << seed << " query " << q;
      EXPECT_EQ(m.framesTouched(), present.size());
    }
  }
}

// ---------------- Mmu / TLB / DAC ----------------

TlbEntry entry(std::uint32_t pid, VAddr va, PAddr pa, std::uint64_t size,
               std::uint8_t perms) {
  TlbEntry e;
  e.pid = pid;
  e.vaddr = va;
  e.paddr = pa;
  e.size = size;
  e.perms = perms;
  e.valid = true;
  return e;
}

TEST(Mmu, MissWithoutEntries) {
  Mmu mmu(4);
  Translation t;
  EXPECT_EQ(mmu.translate(1, 0x1000, Access::kRead, &t), TlbResult::kMiss);
  EXPECT_EQ(mmu.missCount(), 1u);
}

TEST(Mmu, HitTranslatesWithOffset) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRW));
  Translation t;
  ASSERT_EQ(mmu.translate(1, 0x100040, Access::kRead, &t),
            TlbResult::kHit);
  EXPECT_EQ(t.paddr, 0x500040u);
}

TEST(Mmu, PidMismatchMisses) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRW));
  Translation t;
  EXPECT_EQ(mmu.translate(2, 0x100000, Access::kRead, &t),
            TlbResult::kMiss);
}

TEST(Mmu, PermFaultOnWriteToReadOnly) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRX));
  Translation t;
  EXPECT_EQ(mmu.translate(1, 0x100000, Access::kWrite, &t),
            TlbResult::kPermFault);
  EXPECT_EQ(mmu.translate(1, 0x100000, Access::kExec, &t),
            TlbResult::kHit);
}

TEST(Mmu, ReinstallSamePageReplaces) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x500000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x100000, 0x700000, kPage1M, kPermRW));
  EXPECT_EQ(mmu.validCount(), 1);
  Translation t;
  mmu.translate(1, 0x100000, Access::kRead, &t);
  EXPECT_EQ(t.paddr, 0x700000u);
}

TEST(Mmu, EvictsRoundRobinWhenFull) {
  Mmu mmu(2);
  mmu.install(entry(1, 0x100000, 0x100000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x200000, 0x200000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x300000, 0x300000, kPage1M, kPermRW));
  EXPECT_EQ(mmu.validCount(), 2);
  // First entry was the round-robin victim.
  EXPECT_FALSE(mmu.probe(1, 0x100000).has_value());
  EXPECT_TRUE(mmu.probe(1, 0x300000).has_value());
}

TEST(Mmu, InvalidateByPid) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x100000, 0x100000, kPage1M, kPermRW));
  mmu.install(entry(2, 0x100000, 0x200000, kPage1M, kPermRW));
  mmu.invalidate(1);
  EXPECT_FALSE(mmu.probe(1, 0x100000).has_value());
  EXPECT_TRUE(mmu.probe(2, 0x100000).has_value());
  mmu.invalidate();
  EXPECT_EQ(mmu.validCount(), 0);
}

TEST(Mmu, VariablePageSizesCoexist) {
  Mmu mmu(4);
  mmu.install(entry(1, 0x00100000, 0x00100000, kPage1M, kPermRW));
  mmu.install(entry(1, 0x10000000, 0x10000000, kPage256M, kPermRW));
  EXPECT_TRUE(mmu.probe(1, 0x1FFFFFFF).has_value());
  EXPECT_TRUE(mmu.probe(1, 0x001FFFFF).has_value());
  EXPECT_FALSE(mmu.probe(1, 0x00200000).has_value());
}

TEST(Dac, MatchesOnlyEnabledRangesAndAccessKinds) {
  Mmu mmu(4);
  DacRange& d = mmu.dac(0);
  d.enabled = true;
  d.lo = 0x1000;
  d.hi = 0x2000;
  d.onRead = false;
  EXPECT_TRUE(mmu.dacMatches(0x1800, 8, Access::kWrite));
  EXPECT_FALSE(mmu.dacMatches(0x1800, 8, Access::kRead));
  EXPECT_FALSE(mmu.dacMatches(0x2000, 8, Access::kWrite));
  // Straddling the low edge still matches.
  EXPECT_TRUE(mmu.dacMatches(0x0FFC, 8, Access::kWrite));
}

// ---------------- Caches ----------------

TEST(CacheArray, MissesThenHits) {
  CacheArray c(1024, 32, 2);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(16));  // same line
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(CacheArray, LruEvictsOldest) {
  // 2-way, line 32, 1024 bytes -> 16 sets. Addresses 0, 16*32=512... use
  // same-set addresses: stride = sets*line = 512.
  CacheArray c(1024, 32, 2);
  c.access(0);
  c.access(512);
  c.access(0);      // refresh 0
  c.access(1024);   // evicts 512 (LRU)
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(512));
}

TEST(CacheArray, FlushInvalidatesEverything) {
  CacheArray c(1024, 32, 2);
  c.access(0);
  c.flushAll();
  EXPECT_FALSE(c.access(0));
}

TEST(CacheArray, RefillAfterFlushUsesFreeWaysThenLru) {
  // Same-set addresses (stride 512): after a flush both ways are free,
  // so two fills coexist and the third evicts the least recent.
  CacheArray c(1024, 32, 2);
  c.access(0);
  c.access(512);
  c.flushAll();
  EXPECT_FALSE(c.access(512));
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(512));
  EXPECT_FALSE(c.access(1024));  // evicts 0
  EXPECT_TRUE(c.access(512));
  EXPECT_FALSE(c.access(0));
}

// Property: the 32-bit-stamped LRU makes every hit/miss decision a
// 64-bit timestamp LRU (the reference below: first free way, else the
// way used longest ago) makes, over seeded address streams with reuse,
// conflicts and flushes, on several geometries; also when the stamps
// run out mid-stream and every set is renumbered.
TEST(CacheArray, MatchesTimestampLruReference) {
  struct Ref {
    std::uint32_t lineBytes, ways, sets;
    std::vector<std::uint64_t> tag, last;  // last == 0: invalid
    std::uint64_t clock = 0;
    bool access(PAddr pa) {
      const std::uint64_t lineAddr = pa / lineBytes;
      const std::size_t base = (lineAddr % sets) * ways;
      const std::uint64_t t = lineAddr / sets;
      ++clock;
      for (std::size_t w = base; w < base + ways; ++w) {
        if (last[w] != 0 && tag[w] == t) {
          last[w] = clock;
          return true;
        }
      }
      std::size_t victim = base;
      for (std::size_t w = base; w < base + ways; ++w) {
        if (last[w] == 0) {
          victim = w;
          break;
        }
        if (last[w] < last[victim]) victim = w;
      }
      tag[victim] = t;
      last[victim] = clock;
      return false;
    }
  };
  const std::uint32_t geometries[][3] = {
      {1024, 32, 1}, {1024, 32, 2}, {4096, 64, 8}, {8192, 32, 64}};
  for (const std::uint32_t startClock : {0u, UINT32_MAX - 10'000}) {
    for (const auto& g : geometries) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        CacheArray c(g[0], g[1], g[2]);
        CacheArrayPeek::setClock(c, startClock);
        const std::uint32_t sets = g[0] / g[1] / g[2];
        Ref ref{g[1], g[2], sets, std::vector<std::uint64_t>(sets * g[2]),
                std::vector<std::uint64_t>(sets * g[2])};
        sim::Rng rng(seed, "lru");
        PAddr pa = 0;
        for (int i = 0; i < 20'000; ++i) {
          if (rng.nextBelow(5'000) == 0) {
            c.flushAll();
            std::fill(ref.last.begin(), ref.last.end(), 0);
          }
          // Repeats take the last-line fast path; fresh addresses span
          // about three cache sizes, so sets overflow.
          if (rng.nextBelow(4) != 0) pa = rng.nextBelow(3 * g[0]);
          ASSERT_EQ(c.access(pa), ref.access(pa))
              << "geometry " << g[0] << "/" << g[1] << "/" << g[2]
              << " seed " << seed << " clock " << startClock << " access "
              << i;
        }
        if (startClock != 0) {
          EXPECT_LT(CacheArrayPeek::clock(c), 20'000u) << "never renumbered";
        }
      }
    }
  }
}

TEST(SharedCache, BankMappingPoliciesDiffer) {
  SharedCacheConfig cfg;
  cfg.banks = 4;
  cfg.bankMap = BankMap::kHighBits;
  SharedCache high(cfg);
  // Sequential traffic within 4MB lands in one bank under kHighBits.
  std::uint32_t firstBank = high.bankOf(0);
  for (PAddr a = 0; a < (1 << 20); a += 128) {
    EXPECT_EQ(high.bankOf(a), firstBank);
  }
  cfg.bankMap = BankMap::kDirect;
  SharedCache direct(cfg);
  EXPECT_NE(direct.bankOf(0), direct.bankOf(128));
}

TEST(SharedCache, ConflictStallsWhenBankBusy) {
  SharedCacheConfig cfg;
  cfg.banks = 1;
  cfg.bankBusy = 10;
  SharedCache c(cfg);
  auto r1 = c.access(0, 100);
  EXPECT_EQ(r1.extraStall, 0u);
  auto r2 = c.access(4096, 105);  // bank busy until 110
  EXPECT_EQ(r2.extraStall, 5u);
  EXPECT_EQ(c.bankConflicts(), 1u);
}

TEST(SharedCache, XorFoldSpreadsPowerOfTwoStrides) {
  SharedCacheConfig cfg;
  cfg.banks = 4;
  cfg.bankMap = BankMap::kXorFold;
  SharedCache c(cfg);
  for (PAddr a = 0; a < (4 << 20); a += 4096) c.access(a, 0);
  const auto& loads = c.bankAccesses();
  const std::uint64_t total = loads[0] + loads[1] + loads[2] + loads[3];
  for (std::uint64_t l : loads) {
    EXPECT_GT(l, total / 8);  // no bank starved
  }
}

// ---------------- DDR ----------------

TEST(Ddr, RefreshAddsDeterministicStall) {
  Ddr d;
  const auto& cfg = d.config();
  // At the start of a refresh window the full duration stalls.
  EXPECT_EQ(d.accessLatency(0), cfg.accessLatency + cfg.refreshDuration);
  // Past the window, no stall.
  EXPECT_EQ(d.accessLatency(cfg.refreshDuration), cfg.accessLatency);
  // Phase repeats every interval.
  EXPECT_EQ(d.accessLatency(cfg.refreshInterval),
            d.accessLatency(0));
}

}  // namespace
}  // namespace bg::hw
