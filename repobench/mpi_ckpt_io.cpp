// mpi_ckpt_io: one 4-node CNK machine runs three phases in sequence.
//
//  1. msg:  an MPI job — allreduce over the collective network, eager
//           and rendezvous ring exchange over torus DMA, barriers.
//  2. io:   per-rank function-shipped file writes, then a separate
//           read-back job that checksums what it reads.
//  3. ckpt: K ckpt_save rounds over a growing dirty heap, then the job
//           is reloaded in restore mode and finishes from the image.
//
// It is the only workload with torus and cross-node traffic, and the
// only one with writes beside reads on the fship/CIOD/VFS and the
// checkpoint-image paths. Its host time is set by the number of
// checkpoint images (each image build scans the node's memory), not by
// the number of simulated cycles. The seed sets the allreduce operands,
// the ring message stamps and the file contents. Set-up constructs and
// boots the machine and builds the five programs.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cnk/cnk_kernel.hpp"
#include "kernel/syscalls.hpp"
#include "runtime/rt_ids.hpp"
#include "sim/rng.hpp"
#include "vm/builder.hpp"

namespace repobench {

namespace {

using bg::vm::ProgramBuilder;
using bg::vm::Reg;

constexpr int kNodes = 4;
constexpr int kAllreduces = 16;
constexpr int kRingRounds = 4;
constexpr std::uint64_t kEagerBytes = 256;
constexpr std::uint64_t kRndvBytes = 4096;  // above the default threshold
constexpr int kChunks = 4;
constexpr std::uint32_t kChunkBytes = 16 << 10;
constexpr std::int64_t kGranule = 64 << 10;  // checkpoint image chunk
constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;

// Heap layout (offsets from the heap base in r10; the CNK heap starts
// with a 1 MB arena).
constexpr std::int64_t kPathOff = 256;
constexpr std::int64_t kOperandOff = 512;  // per-rank allreduce operands
constexpr std::int64_t kArSrcOff = 1024;
constexpr std::int64_t kArDstOff = 1088;
constexpr std::int64_t kSendOff = 8192;
constexpr std::int64_t kRecvOff = 16384;
constexpr std::int64_t kDataOff = 65536;  // file data, kChunks*kChunkBytes

constexpr Reg rBuf = 16, rRank = 17, rN = 18, rDst = 19, rSrc = 20;
constexpr Reg rI = 21, rT0 = 22, rT1 = 23, rTmp = 24, rFd = 25, rAcc = 26,
              rPtr = 27, rVal = 28, rMul = 29, rLoop2 = 30;

std::int64_t sys(bg::kernel::Sys s) { return static_cast<std::int64_t>(s); }
std::int64_t rtc(bg::rt::Rt r) { return static_cast<std::int64_t>(r); }

std::uint64_t doubleBits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// Seed-derived inputs, shared by the programs and the host oracles.
struct Inputs {
  std::vector<std::int64_t> operand;  // allreduce operand per rank
  std::uint64_t stampBase = 0;        // ring message stamp base
  std::uint64_t dataSeed = 0;         // file-content LCG seed
  std::int64_t ckptStep = 0;          // accumulator step per ckpt round
};

Inputs makeInputs(std::uint64_t seed) {
  bg::sim::Rng rng(seed, "repobench.mpi_ckpt_io");
  Inputs in;
  for (int r = 0; r < kNodes; ++r) {
    in.operand.push_back(1 + static_cast<std::int64_t>(rng.nextBelow(1'000'000)));
  }
  in.stampBase = 1 + rng.nextBelow(1'000'000);
  in.dataSeed = rng.next() | 1;
  in.ckptStep = 1 + static_cast<std::int64_t>(rng.nextBelow(1000));
  return in;
}

std::uint64_t lcgStep(std::uint64_t v, std::uint64_t rank) {
  return v * kLcgMul + (2 * rank + 1);
}

void prologue(ProgramBuilder& b) {
  b.mov(rBuf, 10);
  b.mov(rRank, 1);
  b.mov(rN, 2);
}

void emitExit(ProgramBuilder& b) {
  b.li(bg::vm::kArg0, 0);
  b.syscall(sys(bg::kernel::Sys::kExit));
}

/// r<dst> = rBuf + off + 8 * rank
void emitRankSlot(ProgramBuilder& b, Reg dst, std::int64_t off) {
  b.shl(dst, rRank, 3);
  b.add(dst, dst, rBuf);
  b.addi(dst, dst, off);
}

/// rank: even ranks send then receive, odd ranks receive then send, so
/// blocking rendezvous sends around the ring cannot deadlock.
void emitRingRound(ProgramBuilder& b, std::uint64_t bytes, std::uint64_t stamp,
                   std::int64_t tag) {
  // Stamp the outgoing message: stamp + 1000 * rank.
  b.li(rTmp, 1000);
  b.mul(rTmp, rTmp, rRank);
  b.addi(rTmp, rTmp, static_cast<std::int64_t>(stamp));
  b.store(rBuf, rTmp, kSendOff);
  auto send = [&] {
    b.mov(1, rDst);
    b.mov(2, rBuf);
    b.addi(2, 2, kSendOff);
    b.li(3, static_cast<std::int64_t>(bytes));
    b.li(4, tag);
    b.rtcall(rtc(bg::rt::Rt::kMpiSend));
  };
  auto recv = [&] {
    b.mov(1, rSrc);
    b.mov(2, rBuf);
    b.addi(2, 2, kRecvOff);
    b.li(3, static_cast<std::int64_t>(bytes));
    b.li(4, tag);
    b.rtcall(rtc(bg::rt::Rt::kMpiRecv));
  };
  b.li(rTmp, 1);
  b.andr(rTmp, rRank, rTmp);
  const std::size_t odd = b.emitForwardBranch(bg::vm::Op::kBnez, rTmp);
  send();
  recv();
  const std::size_t done = b.emitForwardBranch(bg::vm::Op::kJump);
  b.patchHere(odd);
  recv();
  send();
  b.patchHere(done);
  b.load(rTmp, rBuf, kRecvOff);
  b.sample(rTmp);
}

bg::vm::Program msgProgram(const Inputs& in) {
  ProgramBuilder b("repobench-msg");
  prologue(b);
  // dst = (rank + 1) mod n, src = (rank - 1) mod n.
  b.addi(rDst, rRank, 1);
  const std::size_t noWrap = b.emitForwardBranch(bg::vm::Op::kBlt, rDst, rN);
  b.li(rDst, 0);
  b.patchHere(noWrap);
  const std::size_t rank0 = b.emitForwardBranch(bg::vm::Op::kBeqz, rRank);
  b.addi(rSrc, rRank, -1);
  const std::size_t srcDone = b.emitForwardBranch(bg::vm::Op::kJump);
  b.patchHere(rank0);
  b.addi(rSrc, rN, -1);
  b.patchHere(srcDone);

  // Operand table (as doubles), then this rank's operand into the
  // allreduce source slot.
  for (int r = 0; r < kNodes; ++r) {
    b.li(rTmp, static_cast<std::int64_t>(
                   doubleBits(static_cast<double>(in.operand[static_cast<std::size_t>(r)]))));
    b.store(rBuf, rTmp, kOperandOff + 8 * r);
  }
  emitRankSlot(b, rPtr, kOperandOff);
  b.load(rTmp, rPtr, 0);
  b.store(rBuf, rTmp, kArSrcOff);

  const auto arTop = b.loopBegin(rI, kAllreduces);
  b.rtcall(rtc(bg::rt::Rt::kMpiBarrier));
  b.readTb(rT0);
  b.mov(1, rBuf);
  b.addi(1, 1, kArSrcOff);
  b.li(2, 1);
  b.mov(3, rBuf);
  b.addi(3, 3, kArDstOff);
  b.rtcall(rtc(bg::rt::Rt::kMpiAllreduce));
  b.readTb(rT1);
  b.sub(rT1, rT1, rT0);
  b.sample(rT1);
  b.load(rTmp, rBuf, kArDstOff);
  b.sample(rTmp);
  b.loopEnd(rI, arTop);

  for (int round = 0; round < kRingRounds; ++round) {
    b.rtcall(rtc(bg::rt::Rt::kMpiBarrier));
    emitRingRound(b, kEagerBytes, in.stampBase + 10 * round, 100 + round);
    emitRingRound(b, kRndvBytes, in.stampBase + 10 * round + 5, 200 + round);
  }
  b.rtcall(rtc(bg::rt::Rt::kMpiBarrier));
  emitExit(b);
  return std::move(b).build();
}

/// Store "/tmp/rb<digit>" (digit = '0' + rank, ranks < 10) at kPathOff.
void emitPath(ProgramBuilder& b) {
  const char prefix[] = "/tmp/rb";
  std::uint64_t w = 0;
  for (int i = 0; i < 7; ++i) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(prefix[i])) << (8 * i);
  }
  b.li(rTmp, static_cast<std::int64_t>(w));
  b.addi(rVal, rRank, '0');
  b.shl(rVal, rVal, 56);
  b.orr(rTmp, rTmp, rVal);
  b.store(rBuf, rTmp, kPathOff);
  b.li(rTmp, 0);
  b.store(rBuf, rTmp, kPathOff + 8);
}

std::string pathOf(int rank) {
  return std::string("/tmp/rb") + static_cast<char>('0' + rank);
}

constexpr std::int64_t kDataWords = kChunks * kChunkBytes / 8;

bg::vm::Program writeProgram(const Inputs& in) {
  ProgramBuilder b("repobench-write");
  prologue(b);
  emitPath(b);
  // Fill the data region: v = v * kLcgMul + (2 * rank + 1).
  b.li(rMul, static_cast<std::int64_t>(kLcgMul));
  b.li(rVal, static_cast<std::int64_t>(in.dataSeed));
  b.shl(rAcc, rRank, 1);
  b.addi(rAcc, rAcc, 1);
  b.mov(rPtr, rBuf);
  b.addi(rPtr, rPtr, kDataOff);
  const auto fill = b.loopBegin(rI, kDataWords);
  b.mul(rVal, rVal, rMul);
  b.add(rVal, rVal, rAcc);
  b.store(rPtr, rVal, 0);
  b.addi(rPtr, rPtr, 8);
  b.loopEnd(rI, fill);

  b.mov(1, rBuf);
  b.addi(1, 1, kPathOff);
  b.li(2, static_cast<std::int64_t>(bg::kernel::kOCreat | bg::kernel::kOWronly |
                                    bg::kernel::kOTrunc));
  b.syscall(sys(bg::kernel::Sys::kOpen));
  b.mov(rFd, bg::vm::kRetReg);
  b.sample(rFd);
  b.li(rAcc, 0);
  b.mov(rPtr, rBuf);
  b.addi(rPtr, rPtr, kDataOff);
  const auto top = b.loopBegin(rI, kChunks);
  b.mov(1, rFd);
  b.mov(2, rPtr);
  b.li(3, kChunkBytes);
  b.syscall(sys(bg::kernel::Sys::kWrite));
  b.add(rAcc, rAcc, bg::vm::kRetReg);
  b.addi(rPtr, rPtr, kChunkBytes);
  b.loopEnd(rI, top);
  b.sample(rAcc);  // bytes written
  b.mov(1, rFd);
  b.syscall(sys(bg::kernel::Sys::kClose));
  b.sample(bg::vm::kRetReg);
  emitExit(b);
  return std::move(b).build();
}

bg::vm::Program readProgram() {
  ProgramBuilder b("repobench-read");
  prologue(b);
  emitPath(b);
  b.mov(1, rBuf);
  b.addi(1, 1, kPathOff);
  b.li(2, static_cast<std::int64_t>(bg::kernel::kORdonly));
  b.syscall(sys(bg::kernel::Sys::kOpen));
  b.mov(rFd, bg::vm::kRetReg);
  b.sample(rFd);
  b.li(rAcc, 0);
  b.mov(rPtr, rBuf);
  b.addi(rPtr, rPtr, kDataOff);
  const auto top = b.loopBegin(rI, kChunks);
  b.mov(1, rFd);
  b.mov(2, rPtr);
  b.li(3, kChunkBytes);
  b.syscall(sys(bg::kernel::Sys::kRead));
  b.add(rAcc, rAcc, bg::vm::kRetReg);
  b.addi(rPtr, rPtr, kChunkBytes);
  b.loopEnd(rI, top);
  b.sample(rAcc);  // bytes read
  b.mov(1, rFd);
  b.syscall(sys(bg::kernel::Sys::kClose));
  // Checksum what was read: sum = sum * kLcgMul + word.
  b.li(rMul, static_cast<std::int64_t>(kLcgMul));
  b.li(rAcc, 0);
  b.mov(rPtr, rBuf);
  b.addi(rPtr, rPtr, kDataOff);
  const auto sum = b.loopBegin(rI, kDataWords);
  b.load(rVal, rPtr, 0);
  b.mul(rAcc, rAcc, rMul);
  b.add(rAcc, rAcc, rVal);
  b.addi(rPtr, rPtr, 8);
  b.loopEnd(rI, sum);
  b.sample(rAcc);
  emitExit(b);
  return std::move(b).build();
}

/// K rounds of (compute, dirty one more heap granule, accumulate,
/// ckpt_save), then a tail phase. Samples: each ckpt_save result
/// (0 saved, 1 resumed), then the accumulator.
bg::vm::Program ckptProgram(const Inputs& in, int rounds) {
  ProgramBuilder b("repobench-ckpt");
  prologue(b);
  // Grow brk past the granules so every stamp stays inside the heap.
  b.li(1, 0);
  b.syscall(sys(bg::kernel::Sys::kBrk));
  b.mov(rPtr, 0);
  b.mov(1, 0);
  b.addi(1, 1, (rounds + 1) * kGranule);
  b.syscall(sys(bg::kernel::Sys::kBrk));
  b.li(rVal, static_cast<std::int64_t>(in.dataSeed | 1));
  b.li(rAcc, 0);
  const auto top = b.loopBegin(rLoop2, rounds);
  b.compute(20'000);
  b.store(rPtr, rVal, 0);
  b.addi(rPtr, rPtr, kGranule);
  b.addi(rAcc, rAcc, in.ckptStep);
  b.syscall(sys(bg::kernel::Sys::kCkptSave));
  b.sample(bg::vm::kRetReg);
  b.loopEnd(rLoop2, top);
  const auto tail = b.loopBegin(rI, 8);
  b.compute(20'000);
  b.addi(rAcc, rAcc, 3);
  b.loopEnd(rI, tail);
  b.add(rAcc, rAcc, rRank);
  b.sample(rAcc);
  emitExit(b);
  return std::move(b).build();
}

using Samples = std::vector<std::vector<std::uint64_t>>;

}  // namespace

Iteration runMpiCkptIo(const Params& p, Tracer* tr) {
  // Table I is seed-independent and outside the measured run: measure
  // it once per process.
  static const Table1Result table1 = measureTable1();
  Iteration it;
  const int rounds = 2;
  const Clock::time_point t0 = Clock::now();
  const Inputs in = makeInputs(p.seed);

  bg::rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = p.seed;
  std::unique_ptr<bg::rt::Cluster> cluster;
  {
    Span s(tr, "runtime.construct");
    cluster = std::make_unique<bg::rt::Cluster>(cfg);
  }
  bool booted = false;
  {
    Span s(tr, "runtime.boot");
    booted = cluster->bootAll(200'000'000);
  }
  auto image = [](const char* name, bg::vm::Program prog) {
    return bg::kernel::ElfImage::makeExecutable(name, std::move(prog));
  };
  const auto msgExe = image("repobench-msg", msgProgram(in));
  const auto writeExe = image("repobench-write", writeProgram(in));
  const auto readExe = image("repobench-read", readProgram());
  const auto ckptExe = image("repobench-ckpt", ckptProgram(in, rounds));
  it.setupS = secondsSince(t0);
  it.check(booted, "machine boots");

  bg::sim::Engine& eng = cluster->engine();
  const bg::sim::Cycle c0 = eng.now();
  const std::uint64_t e0 = eng.eventsProcessed();

  // One job on every node; returns its per-rank samples.
  auto runJob = [&](const std::shared_ptr<bg::kernel::ElfImage>& exe,
                    bool restore, const char* what) {
    Samples s(kNodes);
    for (int n = 0; n < kNodes; ++n) {
      cluster->cnkOn(n)->unloadJob();
      cluster->attachSamples(n, 0, &s[static_cast<std::size_t>(n)]);
    }
    bg::kernel::JobSpec job;
    job.exe = exe;
    job.restore = restore;
    bool loaded = false;
    {
      Span sc(tr, "runtime.load");
      loaded = cluster->loadJob(job);
    }
    it.check(loaded && cluster->run(2'000'000'000ULL), std::string(what) + " job completes");
    return s;
  };

  const Clock::time_point t1 = Clock::now();
  // Sized up front so the checks below see empty samples, not missing
  // ranks, when the machine fails to boot.
  Samples msg(kNodes), wr(kNodes), rd(kNodes), save(kNodes), restore(kNodes);
  if (booted) {
    {
      Span s(tr, "msg.phase");
      msg = runJob(msgExe, false, "mpi");
    }
    {
      Span s(tr, "io.write_phase");
      wr = runJob(writeExe, false, "write");
    }
    {
      Span s(tr, "io.read_phase");
      rd = runJob(readExe, false, "read-back");
    }
    {
      Span s(tr, "ckpt.save_phase");
      save = runJob(ckptExe, false, "checkpoint");
    }
    {
      Span s(tr, "ckpt.restore_phase");
      restore = runJob(ckptExe, true, "restore");
    }
  }
  it.runS = secondsSince(t1);
  it.runCycles = eng.now() - c0;
  it.events = eng.eventsProcessed() - e0;

  if (p.capture != nullptr) {
    // The write and read-back programs walk the file data word by word;
    // every rank seals its checkpoint image.
    p.capture->touches = {{static_cast<std::uint32_t>(kDataWords * 8), 8}};
    p.capture->l3 = cluster->machine().node(0).l3().config();
    p.capture->captureTlbs(*cluster);
    for (int r = 0; r < kNodes; ++r) {
      p.capture->sealedBytes.push_back(cluster->cnkOn(r)->lastCkptBytes());
    }
  }

  // --- oracles -----------------------------------------------------
  double sum = 0;
  for (std::int64_t v : in.operand) sum += static_cast<double>(v);
  std::vector<std::uint64_t> arCycles;
  std::uint64_t badSums = 0, badRing = 0;
  for (int r = 0; r < kNodes; ++r) {
    const auto& s = msg[static_cast<std::size_t>(r)];
    const std::size_t want = 2 * kAllreduces + 2 * kRingRounds;
    if (s.size() != want) {
      badSums += kAllreduces;
      badRing += 2 * kRingRounds;
      continue;
    }
    for (int i = 0; i < kAllreduces; ++i) {
      arCycles.push_back(s[static_cast<std::size_t>(2 * i)]);
      if (s[static_cast<std::size_t>(2 * i + 1)] != doubleBits(sum)) ++badSums;
    }
    const int src = (r + kNodes - 1) % kNodes;
    for (int round = 0; round < kRingRounds; ++round) {
      const std::uint64_t base = in.stampBase + 10 * static_cast<std::uint64_t>(round) +
                                 1000 * static_cast<std::uint64_t>(src);
      const std::size_t at = 2 * kAllreduces + 2 * static_cast<std::size_t>(round);
      if (s[at] != base) ++badRing;
      if (s[at + 1] != base + 5) ++badRing;
    }
  }
  it.ops(kNodes * kAllreduces, badSums, "allreduce sums match closed form");
  it.ops(kNodes * 2 * kRingRounds, badRing, "ring messages carry the sender's stamp");

  std::uint64_t badIo = 0;
  for (int r = 0; r < kNodes; ++r) {
    std::vector<std::byte> expect(static_cast<std::size_t>(kDataWords) * 8);
    std::uint64_t v = in.dataSeed, check = 0;
    for (std::int64_t w = 0; w < kDataWords; ++w) {
      v = lcgStep(v, static_cast<std::uint64_t>(r));
      std::memcpy(expect.data() + w * 8, &v, 8);  // little-endian host
      check = check * kLcgMul + v;
    }
    const auto& ws = wr[static_cast<std::size_t>(r)];
    const auto& rs = rd[static_cast<std::size_t>(r)];
    const bool wrote = ws.size() == 3 && static_cast<std::int64_t>(ws[0]) >= 0 &&
                       ws[1] == expect.size() && ws[2] == 0;
    const bool stored = cluster->ioRootFs(0).exists(pathOf(r)) &&
                        cluster->ioRootFs(0).fileContents(pathOf(r)) == expect;
    const bool readBack = rs.size() == 3 && static_cast<std::int64_t>(rs[0]) >= 0 &&
                          rs[1] == expect.size() && rs[2] == check;
    badIo += (wrote ? 0 : 1) + (stored ? 0 : 1) + (readBack ? 0 : 1);
  }
  it.ops(3 * kNodes, badIo, "file writes land and read back byte-exact");

  std::uint64_t badCkpt = 0;
  std::vector<std::uint64_t> commitCycles;
  double commits = 0, failures = 0, restores = 0, imageBytes = 0;
  for (int r = 0; r < kNodes; ++r) {
    const auto& ss = save[static_cast<std::size_t>(r)];
    const auto& rs = restore[static_cast<std::size_t>(r)];
    const std::uint64_t answer =
        static_cast<std::uint64_t>(rounds * in.ckptStep + 8 * 3 + r);
    bool ok = ss.size() == static_cast<std::size_t>(rounds) + 1 && ss.back() == answer;
    for (int k = 0; ok && k < rounds; ++k) ok = ss[static_cast<std::size_t>(k)] == 0;
    // The restored run resumes after the last save and must reach the
    // uninterrupted run's answer.
    const bool resumed = rs.size() == 2 && rs[0] == 1 && !ss.empty() && rs[1] == ss.back();
    badCkpt += (ok ? 0 : 1) + (resumed ? 0 : 1);
    const bg::cnk::CnkKernel* k = cluster->cnkOn(r);
    commits += static_cast<double>(k->ckptCommits());
    failures += static_cast<double>(k->ckptFailures());
    restores += static_cast<double>(k->ckptRestores());
    imageBytes += static_cast<double>(k->lastCkptBytes());
    bg::sim::Cycle begin = 0;
    bool open = false;
    for (const auto& e : k->rasLog()) {
      if (e.code == bg::kernel::RasEvent::Code::kCkptBegin) {
        begin = e.cycle;
        open = true;
      } else if (e.code == bg::kernel::RasEvent::Code::kCkptCommit && open) {
        commitCycles.push_back(e.cycle - begin);
        open = false;
      }
    }
  }
  it.ops(2 * kNodes, badCkpt, "checkpoint saves and restore-and-finish");
  it.ops(static_cast<std::uint64_t>(kNodes * rounds),
         static_cast<std::uint64_t>(kNodes * rounds) -
             std::min<std::uint64_t>(kNodes * rounds, commitCycles.size()),
         "checkpoint commits");

  const bg::cnk::FshipStats fs = cluster->fshipTotals();
  const bg::io::CiodStats cs = cluster->ciodTotals();
  it.ops(fs.requests, fs.eioReturns, "fship ops");
  it.check(table1.ok, "Table I measurement");

  const bg::msg::MpiStats& ms = cluster->mpi().stats();
  it.sim["sim_makespan_cycles"] = static_cast<double>(eng.now());
  it.sim["sim_allreduce_p50_cycles"] = static_cast<double>(percentile(arCycles, 50));
  it.sim["sim_ckpt_commit_p50_cycles"] = static_cast<double>(percentile(commitCycles, 50));
  it.sim["paper_err_pct"] = table1.errPct;
  it.sim["sim.events"] = static_cast<double>(it.events);
  it.sim["mpi.sends"] = static_cast<double>(ms.sends);
  it.sim["mpi.rendezvous"] = static_cast<double>(ms.rendezvous);
  it.sim["mpi.allreduces"] = static_cast<double>(ms.allreduces);
  it.sim["dcmf.bytes"] = static_cast<double>(cluster->dcmf().stats().bytesSent);
  it.sim["fship.requests"] = static_cast<double>(fs.requests);
  it.sim["fship.retransmits"] = static_cast<double>(fs.retransmits);
  it.sim["fship.eio"] = static_cast<double>(fs.eioReturns);
  it.sim["ciod.requests"] = static_cast<double>(cs.requests);
  it.sim["ciod.bytes_in"] = static_cast<double>(cs.bytesIn);
  it.sim["ciod.bytes_out"] = static_cast<double>(cs.bytesOut);
  it.sim["ciod.errors"] = static_cast<double>(cs.errors);
  it.sim["ckpt.commits"] = commits;
  it.sim["ckpt.failures"] = failures;
  it.sim["ckpt.restores"] = restores;
  it.sim["ckpt.image_bytes"] = imageBytes;
  collectHwCounters(*cluster, it);

  bg::sim::Fnv1a w;
  w.mix(rasDigest(*cluster));
  w.mix(table1.digest);
  for (const Samples* ph : {&msg, &wr, &rd, &save, &restore}) {
    for (const auto& v : *ph) {
      for (std::uint64_t x : v) w.mix(x);
    }
  }
  it.seal(w.digest());
  return it;
}

}  // namespace repobench
