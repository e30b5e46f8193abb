// Stress and property tests: determinism under randomized event
// storms, parameterized cache sweeps, futex stress with many threads,
// and scheduler affinity behaviour under migration.
#include <gtest/gtest.h>

#include "cluster_test_util.hpp"
#include "hw/cache.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "sim/rng.hpp"

namespace bg {
namespace {

using test::emitExit;
using test::runProgram;

std::int64_t sys(kernel::Sys s) { return static_cast<std::int64_t>(s); }
std::int64_t rtc(rt::Rt r) { return static_cast<std::int64_t>(r); }

// ---------------- DES determinism under random storms ----------------

TEST(Stress, EngineDeterministicUnderRandomEventStorm) {
  auto storm = [](std::uint64_t seed) {
    sim::Engine eng;
    sim::Rng rng(seed);
    sim::Fnv1a trace;
    // Self-replicating random events: each event may schedule more.
    std::function<void(int)> spawn = [&](int depth) {
      trace.mix(eng.now()).mix(static_cast<std::uint64_t>(depth));
      if (depth <= 0) return;
      const int kids = static_cast<int>(rng.nextBelow(3));
      for (int i = 0; i < kids; ++i) {
        eng.schedule(rng.nextBelow(1000) + 1,
                     [&spawn, depth] { spawn(depth - 1); });
      }
    };
    for (int i = 0; i < 200; ++i) {
      eng.schedule(rng.nextBelow(5000), [&spawn] { spawn(4); });
    }
    eng.run();
    return std::make_pair(trace.digest(), eng.eventsProcessed());
  };
  const auto a = storm(42);
  const auto b = storm(42);
  EXPECT_EQ(a, b);
  const auto c = storm(43);
  EXPECT_NE(a.first, c.first);
}

// ---------------- parameterized cache sweep ----------------

struct CacheParam {
  std::uint32_t ways;
  std::uint32_t banks;
  hw::BankMap map;
  /// Whether a half-cache sequential working set must fully hit on the
  /// second pass. Not true for every geometry: the high-bits mapping
  /// funnels everything into one bank (capacity), and very low
  /// associativity conflict-misses under the fold.
  bool steadyStateHits;
  /// Explicit padding, zeroed, so the parameter bytes gtest prints
  /// into each test name are all defined.
  std::uint16_t pad = 0;
};

class CacheSweep : public ::testing::TestWithParam<CacheParam> {};

TEST_P(CacheSweep, SteadyStateHitsAndStatsConsistency) {
  const CacheParam p = GetParam();
  hw::SharedCacheConfig cfg;
  cfg.sizeBytes = 1 << 20;
  cfg.ways = p.ways;
  cfg.banks = p.banks;
  cfg.bankMap = p.map;
  hw::SharedCache c(cfg);
  // Working set half the cache: second pass must hit everywhere.
  const std::uint64_t setBytes = cfg.sizeBytes / 2;
  sim::Cycle now = 0;
  for (hw::PAddr a = 0; a < setBytes; a += cfg.lineBytes) {
    c.access(a, now += 10);
  }
  const std::uint64_t missesAfterFill = c.stats().misses;
  for (hw::PAddr a = 0; a < setBytes; a += cfg.lineBytes) {
    c.access(a, now += 10);
  }
  if (p.steadyStateHits) {
    EXPECT_EQ(c.stats().misses, missesAfterFill);
  } else {
    // Capacity/conflict geometries: misses continue, but never exceed
    // the access count (sanity) and the first pass missed everything.
    EXPECT_GE(c.stats().misses, missesAfterFill);
    EXPECT_EQ(missesAfterFill, setBytes / cfg.lineBytes);
  }
  EXPECT_EQ(c.stats().accesses, c.stats().hits + c.stats().misses);
  // Every access landed in a valid bank.
  std::uint64_t total = 0;
  for (const auto v : c.bankAccesses()) total += v;
  EXPECT_EQ(total, c.stats().accesses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(CacheParam{4, 1, hw::BankMap::kDirect, true},
                      CacheParam{8, 2, hw::BankMap::kDirect, true},
                      CacheParam{8, 2, hw::BankMap::kXorFold, true},
                      CacheParam{8, 4, hw::BankMap::kXorFold, true},
                      CacheParam{16, 4, hw::BankMap::kHighBits, false},
                      CacheParam{2, 8, hw::BankMap::kXorFold, false}));

// ---------------- futex stress ----------------

TEST(Stress, ManyThreadsContendOneMutexWithoutLostUpdates) {
  // 8 threads x 120 critical sections on a 4-core CNK node (2 threads
  // per core besides main on core 0): heavy futex traffic, core
  // sharing, handover unlocks.
  constexpr int kThreads = 8;
  constexpr int kRounds = 120;
  vm::ProgramBuilder b("t");
  constexpr vm::Reg rMutex = 16;
  constexpr vm::Reg rCount = 17;
  constexpr vm::Reg rTids = 18;
  b.mov(rMutex, 10);
  b.addi(rMutex, rMutex, 64);
  b.mov(rCount, 10);
  b.addi(rCount, rCount, 128);
  b.mov(rTids, 10);
  b.addi(rTids, rTids, 256);
  std::vector<std::size_t> fixes;
  for (int i = 0; i < kThreads; ++i) {
    fixes.push_back(b.size());
    b.li(1, -1);
    b.li(2, 0);
    b.rtcall(rtc(rt::Rt::kPthreadCreate));
    b.sample(0);
    b.store(rTids, 0, i * 8);
  }
  for (int i = 0; i < kThreads; ++i) {
    b.load(1, rTids, i * 8);
    b.rtcall(rtc(rt::Rt::kPthreadJoin));
  }
  b.load(20, rCount, 0);
  b.sample(20);
  emitExit(b);
  const auto worker = b.label();
  b.mov(rMutex, 10);
  b.addi(rMutex, rMutex, 64);
  b.mov(rCount, 10);
  b.addi(rCount, rCount, 128);
  const auto top = b.loopBegin(21, kRounds);
  b.mov(1, rMutex);
  b.rtcall(rtc(rt::Rt::kMutexLock));
  b.load(22, rCount, 0);
  b.addi(22, 22, 1);
  b.store(rCount, 22, 0);
  b.mov(1, rMutex);
  b.rtcall(rtc(rt::Rt::kMutexUnlock));
  b.loopEnd(21, top);
  b.halt();
  for (auto f : fixes) b.patchTarget(f, worker);

  auto r = runProgram({}, std::move(b).build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.samples.size(), static_cast<std::size_t>(kThreads) + 1);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_GT(static_cast<std::int64_t>(r.samples[i]), 0)
        << "create " << i;
  }
  EXPECT_EQ(r.samples.back(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
}

// ---------------- affinity ----------------

TEST(Affinity, FwkAllowsMigrationCnkDoesNot) {
  // sched_setaffinity(self, core): Linux migrates; CNK's strict
  // affinity has no such call (-ENOSYS... the paper's "strict affinity
  // enforced by the scheduler").
  auto run = [&](rt::KernelKind kind) {
    rt::ClusterConfig cfg;
    cfg.kernel = kind;
    std::unique_ptr<rt::Cluster> cluster;
    vm::ProgramBuilder b("t");
    b.li(1, 0);  // self
    b.li(2, 2);  // core 2
    b.syscall(sys(kernel::Sys::kSchedSetaffinity));
    b.sample(0);
    b.compute(50'000);
    emitExit(b);
    auto r = runProgram(cfg, std::move(b).build(), &cluster);
    EXPECT_TRUE(r.completed);
    int finalCore = -1;
    if (kernel::Process* p = cluster->processOfRank(0)) {
      finalCore = p->mainThread()->ctx.coreAffinity;
    }
    return std::make_pair(
        r.samples.empty() ? std::int64_t{-999}
                          : static_cast<std::int64_t>(r.samples[0]),
        finalCore);
  };
  const auto fwk = run(rt::KernelKind::kFwk);
  EXPECT_EQ(fwk.first, 0);
  EXPECT_EQ(fwk.second, 2);  // really moved
  const auto cnk = run(rt::KernelKind::kCnk);
  EXPECT_EQ(cnk.first, -kernel::kENOSYS);
  EXPECT_EQ(cnk.second, 0);  // pinned where the job loader put it
}

TEST(Affinity, FwkMigratedThreadKeepsRunningCorrectly) {
  rt::ClusterConfig cfg;
  cfg.kernel = rt::KernelKind::kFwk;
  vm::ProgramBuilder b("t");
  b.li(20, 0);
  for (int core = 0; core < 4; ++core) {
    b.li(1, 0);
    b.li(2, core);
    b.syscall(sys(kernel::Sys::kSchedSetaffinity));
    b.addi(20, 20, 1);
  }
  b.sample(20);  // survived 4 migrations
  emitExit(b);
  auto r = runProgram(cfg, std::move(b).build());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.samples[0], 4u);
}

// ---------------- shared-cache/TLB interaction under churn ----------

TEST(Stress, TlbChurnFromManyRegionsStillResolves) {
  // FWK: touch 200 distinct pages repeatedly — far beyond the 64-entry
  // TLB — and verify data integrity end to end despite constant
  // refills.
  rt::ClusterConfig cfg;
  cfg.kernel = rt::KernelKind::kFwk;
  vm::ProgramBuilder b("t");
  b.mov(16, 10);
  // Write a distinct value to each page...
  for (int i = 0; i < 200; ++i) {
    b.li(17, i + 1000);
    b.store(16, 17, i * 4096);
  }
  // ...then read them all back and sum.
  b.li(20, 0);
  for (int i = 0; i < 200; ++i) {
    b.load(17, 16, i * 4096);
    b.add(20, 20, 17);
  }
  b.sample(20);
  emitExit(b);
  std::unique_ptr<rt::Cluster> cluster;
  auto r = runProgram(cfg, std::move(b).build(), &cluster);
  ASSERT_TRUE(r.completed);
  std::uint64_t expect = 0;
  for (int i = 0; i < 200; ++i) expect += i + 1000;
  EXPECT_EQ(r.samples[0], expect);
  EXPECT_GT(cluster->fwkOn(0)->tlbRefillCount(), 200u);
}

}  // namespace
}  // namespace bg
