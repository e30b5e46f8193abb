// Paper Table I re-measured: small-message latency for the seven
// programming-model rows between two adjacent torus nodes, each row on
// a fresh 2-node CNK machine, timed from simulated timebase stamps
// (one-way ops sender -> receiver, one-sided ops at the initiator).
// The method and the paper column match bench/bench_latency.cpp.
#include <cmath>
#include <vector>

#include "bench.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "vm/builder.hpp"

namespace repobench {

namespace {

using bg::vm::Reg;
constexpr Reg rIter = 16, rBuf = 17, rT = 18;
constexpr int kIters = 32;

enum class Proto { kDcmfEager, kMpiEager, kMpiRndv, kDcmfPut, kDcmfGet, kArmciPut, kArmciGet };

struct Row {
  Proto proto;
  double paperUs;
};

// Paper Table I (us).
constexpr Row kRows[] = {
    {Proto::kDcmfEager, 1.6}, {Proto::kMpiEager, 2.4}, {Proto::kMpiRndv, 5.6},
    {Proto::kDcmfPut, 0.9},   {Proto::kDcmfGet, 1.6},  {Proto::kArmciPut, 2.0},
    {Proto::kArmciGet, 3.3},
};

bool oneSided(Proto p) {
  return p == Proto::kDcmfPut || p == Proto::kDcmfGet || p == Proto::kArmciPut ||
         p == Proto::kArmciGet;
}

std::int64_t rtc(bg::rt::Rt r) { return static_cast<std::int64_t>(r); }

bg::vm::Program pingProgram(Proto p) {
  bg::vm::ProgramBuilder b("table1");
  const std::int64_t bytes = p == Proto::kMpiRndv ? 512 : 8;
  b.mov(rBuf, 10);
  const std::size_t toTarget = b.emitForwardBranch(bg::vm::Op::kBnez, 1);
  {  // rank 0: initiator
    const auto top = b.loopBegin(rIter, kIters);
    b.rtcall(rtc(bg::rt::Rt::kMpiBarrier));
    b.readTb(rT);
    b.sample(rT);
    b.li(1, 1);
    switch (p) {
      case Proto::kDcmfEager:
      case Proto::kMpiEager:
      case Proto::kMpiRndv:
        b.mov(2, rBuf);
        b.li(3, bytes);
        b.li(4, 7);
        b.rtcall(rtc(p == Proto::kDcmfEager ? bg::rt::Rt::kDcmfSend : bg::rt::Rt::kMpiSend));
        break;
      case Proto::kDcmfPut:
      case Proto::kArmciPut:
        b.mov(2, rBuf);
        b.mov(3, rBuf);
        b.addi(3, 3, 512);
        b.li(4, bytes);
        if (p == Proto::kDcmfPut) {
          b.li(5, 1);  // wait for remote visibility
          b.rtcall(rtc(bg::rt::Rt::kDcmfPut));
        } else {
          b.rtcall(rtc(bg::rt::Rt::kArmciPut));
        }
        break;
      case Proto::kDcmfGet:
      case Proto::kArmciGet:
        b.mov(2, rBuf);
        b.addi(2, 2, 512);
        b.mov(3, rBuf);
        b.li(4, bytes);
        b.rtcall(rtc(p == Proto::kDcmfGet ? bg::rt::Rt::kDcmfGet : bg::rt::Rt::kArmciGet));
        break;
    }
    if (oneSided(p)) {
      b.readTb(rT);
      b.sample(rT);
    }
    b.loopEnd(rIter, top);
    b.li(bg::vm::kArg0, 0);
    b.syscall(static_cast<std::int64_t>(bg::kernel::Sys::kExit));
  }
  b.patchHere(toTarget);
  {  // rank 1: target
    const auto top = b.loopBegin(rIter, kIters);
    b.rtcall(rtc(bg::rt::Rt::kMpiBarrier));
    if (!oneSided(p)) {
      b.li(1, 0);
      b.mov(2, rBuf);
      b.addi(2, 2, 1024);
      b.li(3, bytes);
      b.li(4, 7);
      b.rtcall(rtc(p == Proto::kDcmfEager ? bg::rt::Rt::kDcmfRecv : bg::rt::Rt::kMpiRecv));
      b.readTb(rT);
      b.sample(rT);
    }
    b.loopEnd(rIter, top);
    b.li(bg::vm::kArg0, 0);
    b.syscall(static_cast<std::int64_t>(bg::kernel::Sys::kExit));
  }
  return std::move(b).build();
}

/// Mean latency in cycles over the iterations after two warm-up ones;
/// negative on failure.
double measure(Proto p) {
  bg::rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  // The rendezvous row uses a payload just over a lowered threshold so
  // the handshake, not serialization, dominates (as bench_latency).
  if (p == Proto::kMpiRndv) cfg.mpi.eagerThreshold = 256;
  bg::rt::Cluster cluster(cfg);
  if (!cluster.bootAll(200'000'000)) return -1;
  bg::kernel::JobSpec job;
  job.exe = bg::kernel::ElfImage::makeExecutable("table1", pingProgram(p));
  std::vector<std::uint64_t> s0, s1;
  cluster.attachSamples(0, 0, &s0);
  cluster.attachSamples(1, 0, &s1);
  if (!cluster.loadJob(job) || !cluster.run(1'000'000'000ULL)) return -1;
  std::vector<std::uint64_t> lat;
  if (oneSided(p)) {
    for (std::size_t i = 0; i + 1 < s0.size(); i += 2) lat.push_back(s0[i + 1] - s0[i]);
  } else {
    for (std::size_t i = 0; i < std::min(s0.size(), s1.size()); ++i) {
      if (s1[i] > s0[i]) lat.push_back(s1[i] - s0[i]);
    }
  }
  if (lat.size() != static_cast<std::size_t>(kIters)) return -1;
  double sum = 0;
  for (std::size_t i = 2; i < lat.size(); ++i) sum += static_cast<double>(lat[i]);
  return sum / static_cast<double>(lat.size() - 2);
}

}  // namespace

Table1Result measureTable1() {
  Table1Result r;
  r.ok = true;
  bg::sim::Fnv1a h;
  double errSum = 0;
  for (const Row& row : kRows) {
    const double cycles = measure(row.proto);
    if (cycles < 0) {
      r.ok = false;
      continue;
    }
    const double us = cycles * 1e6 / static_cast<double>(bg::sim::kCoreHz);
    errSum += std::abs(us - row.paperUs) / row.paperUs;
    h.mix(static_cast<std::uint64_t>(std::llround(cycles * 1000)));
  }
  r.errPct = 100.0 * errSum / static_cast<double>(std::size(kRows));
  r.digest = h.digest();
  return r;
}

}  // namespace repobench
