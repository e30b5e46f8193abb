// Crash-safe control plane: checkpoint/restart of the service node
// through a PersistRegistry-backed store, predictive drain on warn
// storms, and the determinism witness across injected control-plane
// crashes — the restarted scheduler must continue the *same* schedule
// (hash-identical to an uninterrupted run) when the outage covers no
// decision, and must replay identically from the same seed always.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault_schedule.hpp"
#include "runtime/app.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace bg {
namespace {

std::shared_ptr<kernel::ElfImage> workImage(const std::string& name,
                                            std::uint64_t reps,
                                            std::uint64_t cyclesPerRep) {
  vm::ProgramBuilder b(name);
  const auto top = b.loopBegin(16, static_cast<std::int64_t>(reps));
  b.compute(cyclesPerRep);
  b.loopEnd(16, top);
  b.halt(0);
  return kernel::ElfImage::makeExecutable(name, std::move(b).build());
}

struct RunResult {
  std::uint64_t hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t predictiveDrains = 0;
  std::uint64_t rasFatal = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t coldStarts = 0;
  std::uint64_t checkpointSaves = 0;
  bool drained = false;
  std::vector<std::string> timeline;
};

RunResult runStream(std::uint64_t seed, int jobs,
                    const testing::FaultSchedule& faults,
                    svc::ServiceNodeConfig snCfg = {},
                    std::uint64_t repScale = 1) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 4;
  cfg.seed = seed;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster, snCfg);

  sim::Rng rng(seed, "svc-restart-test");
  for (int i = 0; i < jobs; ++i) {
    svc::JobDesc jd;
    jd.name = "job" + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes = 1 + static_cast<int>(rng.nextBelow(2));
    const std::uint64_t reps = (10 + rng.nextBelow(10)) * repScale;
    jd.exe = workImage(jd.name, reps, 10'000);
    jd.estCycles = reps * 10'000 + 50'000;
    host.submit(jd);
  }
  faults.arm(cluster, host);

  RunResult out;
  out.drained = host.runUntilDrained(100'000'000);
  svc::SvcMetrics m = host.metrics();
  out.hash = m.scheduleHash;
  out.completed = m.jobsCompleted;
  out.failed = m.jobsFailed;
  out.retries = m.jobRetries;
  out.predictiveDrains = m.predictiveDrains;
  out.rasFatal = m.rasFatal;
  out.crashes = m.serviceCrashes;
  out.restarts = m.serviceRestarts;
  out.coldStarts = host.coldStarts();
  out.checkpointSaves = m.checkpointSaves;
  if (host.alive()) out.timeline = host.node().timeline();
  return out;
}

/// Cycle of each hash-mixed decision, parsed from the timeline lines
/// ("[       12345] launch ...").
std::vector<sim::Cycle> decisionCycles(const RunResult& r) {
  std::vector<sim::Cycle> cycles;
  for (const std::string& line : r.timeline) {
    cycles.push_back(std::strtoull(line.c_str() + 1, nullptr, 10));
  }
  return cycles;
}

// --- Tentpole witness: restart is schedule-invisible --------------------

TEST(SvcRestart, TwoCrashesHashEqualToUninterruptedRun) {
  const std::uint64_t seed = 42;
  const int jobs = 10;
  // 10x-long jobs open wide decision-free windows to crash inside.
  const RunResult base = runStream(seed, jobs, {}, {}, 10);
  ASSERT_TRUE(base.drained);
  ASSERT_EQ(base.completed, static_cast<std::uint64_t>(jobs));
  ASSERT_GE(base.checkpointSaves, 1u);

  // Pick the two widest decision-free windows and crash inside them:
  // with no decision in the outage, a write-through checkpoint restart
  // must continue the identical schedule.
  const std::vector<sim::Cycle> cycles = decisionCycles(base);
  ASSERT_GE(cycles.size(), 2u);
  struct Gap {
    sim::Cycle start = 0, len = 0;
  };
  Gap g1, g2;
  for (std::size_t i = 1; i < cycles.size(); ++i) {
    const Gap g{cycles[i - 1], cycles[i] - cycles[i - 1]};
    if (g.len > g1.len) {
      g2 = g1;
      g1 = g;
    } else if (g.len > g2.len) {
      g2 = g;
    }
  }
  const sim::Cycle interval = svc::ServiceNodeConfig{}.pollIntervalCycles;
  ASSERT_GT(g1.len, 6 * interval) << "stream has no quiet window";
  ASSERT_GT(g2.len, 6 * interval) << "stream has no second quiet window";

  testing::FaultSchedule fs;
  for (const Gap& g : {g1, g2}) {
    // Crash one interval into the gap; restart with two intervals of
    // margin before the next decision.
    fs.svcCrash(g.start + interval + 1, g.len - 4 * interval);
  }
  const RunResult crashed = runStream(seed, jobs, fs, {}, 10);
  EXPECT_TRUE(crashed.drained);
  EXPECT_EQ(crashed.crashes, 2u);
  EXPECT_EQ(crashed.restarts, 2u);
  EXPECT_EQ(crashed.coldStarts, 0u) << "restart fell back to cold start";
  EXPECT_EQ(crashed.completed, static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(crashed.hash, base.hash)
      << "restart from checkpoint changed the schedule";
}

TEST(SvcRestart, SameSeedSameCrashScheduleReplaysIdentically) {
  // Crash cycles chosen without regard to quiet windows: replay
  // determinism must hold even when the restart *does* perturb the
  // schedule (e.g. a decision lands inside the outage).
  const auto mkFaults = [] {
    testing::FaultSchedule fs;
    fs.svcCrash(250'000, 120'000);
    fs.svcCrash(700'000, 300'000);
    return fs;
  };
  const RunResult a = runStream(9, 8, mkFaults());
  const RunResult b = runStream(9, 8, mkFaults());
  ASSERT_TRUE(a.drained);
  ASSERT_TRUE(b.drained);
  EXPECT_EQ(a.crashes, 2u);
  EXPECT_EQ(a.completed + a.failed, 8u);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.timeline, b.timeline);
}

TEST(SvcRestart, SubmissionsDuringOutageAreBufferedAndDelivered) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);

  svc::JobDesc early;
  early.name = "early";
  early.kernel = rt::KernelKind::kCnk;
  early.nodes = 1;
  early.exe = workImage(early.name, 50, 10'000);
  early.estCycles = 600'000;
  host.submit(early);

  host.scheduleCrashRestart(100'000, 200'000);
  // Client retries during the outage: the host buffers the submission
  // and delivers it (in order) to the restarted service node.
  cluster.engine().scheduleAt(150'000, [&] {
    EXPECT_FALSE(host.alive());
    svc::JobDesc late;
    late.name = "late";
    late.kernel = rt::KernelKind::kCnk;
    late.nodes = 1;
    late.exe = workImage(late.name, 10, 10'000);
    late.estCycles = 200'000;
    EXPECT_EQ(host.submit(late), 0u);  // id assigned after restart
  });

  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  EXPECT_EQ(host.restarts(), 1u);
  EXPECT_EQ(host.coldStarts(), 0u);
  const auto& jobs = host.node().jobs();
  ASSERT_EQ(jobs.size(), 2u);
  for (const auto& jr : jobs) {
    EXPECT_EQ(jr.state, svc::JobState::kCompleted) << jr.desc.name;
  }
  EXPECT_EQ(jobs[1].desc.name, "late");
}

TEST(SvcRestart, CoarseCheckpointCadenceStillFinishesEveryJob) {
  // Checkpoint only every 4th pump: a crash can now lose decisions
  // made since the last save. Restart reconciliation must verify the
  // stale running-job leases against the kernels and requeue what no
  // longer checks out — no job may be lost or duplicated.
  svc::ServiceNodeConfig snCfg;
  snCfg.checkpointEveryPumps = 4;
  testing::FaultSchedule fs;
  fs.svcCrash(300'000, 150'000);
  fs.svcCrash(900'000, 150'000);
  const RunResult out = runStream(17, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.crashes, 2u);
  EXPECT_EQ(out.coldStarts, 0u);
  EXPECT_EQ(out.completed + out.failed, 8u);
  // Determinism still holds under the coarse cadence.
  const RunResult again = runStream(17, 8, fs, snCfg);
  EXPECT_EQ(again.hash, out.hash);
}

TEST(SvcRestart, NodeDeathDuringOutageIsHandledAfterRestart) {
  // A node dies while the control plane is down. The fatal RAS event
  // sits in the kernel ring until the restarted instance's persisted
  // seq cursor sweeps it up — exactly once.
  testing::FaultSchedule fs;
  fs.svcCrash(200'000, 300'000);
  fs.nodeDeath(1, 350'000);  // inside the outage
  const RunResult out = runStream(23, 8, fs);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.crashes, 1u);
  EXPECT_EQ(out.coldStarts, 0u);
  EXPECT_EQ(out.rasFatal, 1u);
  EXPECT_EQ(out.completed + out.failed, 8u);
  const RunResult again = runStream(23, 8, fs);
  EXPECT_EQ(again.hash, out.hash);
}

// --- Predictive drain ---------------------------------------------------

TEST(SvcRestart, WarnStormDrainsNodePredictivelyBeforeFatal) {
  svc::ServiceNodeConfig snCfg;
  snCfg.ras.warnDrainThreshold = 5;
  snCfg.ras.warnWindowCycles = 2'000'000;
  testing::FaultSchedule fs;
  fs.warnStorm(0, 300'000, 8);  // 8 kWarn machine-checks in one burst
  const RunResult out = runStream(31, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_GE(out.predictiveDrains, 1u);
  EXPECT_EQ(out.rasFatal, 0u) << "node went fatal before the drain";
  EXPECT_EQ(out.completed, 8u);  // drained node's job retried fine
  EXPECT_GE(out.retries, 1u);
}

TEST(SvcRestart, WarnStormBelowThresholdDoesNothing) {
  svc::ServiceNodeConfig snCfg;
  snCfg.ras.warnDrainThreshold = 5;
  testing::FaultSchedule fs;
  fs.warnStorm(0, 300'000, 4);  // under the threshold
  const RunResult out = runStream(31, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.predictiveDrains, 0u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.completed, 8u);
}

TEST(SvcRestart, WarnWindowForgetsOldWarns) {
  // Same total warns, but spread wider than the sliding window: the
  // per-node rate never crosses the threshold, so no drain.
  svc::ServiceNodeConfig snCfg;
  snCfg.ras.warnDrainThreshold = 5;
  snCfg.ras.warnWindowCycles = 100'000;
  testing::FaultSchedule fs;
  for (int i = 0; i < 8; ++i) {
    fs.warnStorm(0, 200'000 + static_cast<sim::Cycle>(i) * 150'000, 1);
  }
  const RunResult out = runStream(31, 8, fs, snCfg);
  ASSERT_TRUE(out.drained);
  EXPECT_EQ(out.predictiveDrains, 0u);
}

// --- Checkpoint store robustness ----------------------------------------

TEST(SvcRestart, CorruptedCheckpointFallsBackToColdStart) {
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::ServiceHost host(cluster);

  svc::JobDesc jd;
  jd.name = "one";
  jd.kernel = rt::KernelKind::kCnk;
  jd.nodes = 1;
  jd.exe = workImage(jd.name, 10, 10'000);
  host.submit(jd);
  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  ASSERT_TRUE(host.store().hasCheckpoint());

  // Flip bits in the persisted payload: the checksum must reject it.
  const cnk::PersistRegion* r =
      host.store().registry().find("svc.jobqueue");
  ASSERT_NE(r, nullptr);
  host.store().mem().write64(r->pbase + 32,
                             ~host.store().mem().read64(r->pbase + 32));
  host.crash();
  EXPECT_FALSE(host.restart()) << "corrupted checkpoint restored warm";
  EXPECT_EQ(host.coldStarts(), 1u);
  EXPECT_TRUE(host.alive());
}

TEST(SvcRestart, CheckpointSurvivesRegionReopenAtStableAddress) {
  // Every save reopens the region by name; the address must never
  // move (CNK persistent-memory contract) and the saved image must
  // round-trip bit-exactly.
  svc::CheckpointStore store;
  const cnk::PersistRegion* r0 = store.registry().find("svc.jobqueue");
  ASSERT_NE(r0, nullptr);
  const auto base = r0->vbase;
  std::vector<std::byte> img(1024);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::byte>(i * 7);
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.save(img, 100 + i));
    const cnk::PersistRegion* r = store.registry().find("svc.jobqueue");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->vbase, base);
  }
  const auto back = store.load();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
  EXPECT_EQ(store.saves(), 5u);
}

TEST(SvcRestart, OversizedImageIsRejectedNotTorn) {
  svc::CheckpointStore::Config cfg;
  cfg.poolBytes = 4ULL << 20;
  cfg.regionBytes = 1ULL << 20;
  svc::CheckpointStore store(cfg);
  std::vector<std::byte> small(64, std::byte{0x5A});
  ASSERT_TRUE(store.save(small, 1));
  std::vector<std::byte> huge((1ULL << 20) + 1);
  EXPECT_FALSE(store.save(huge, 2));
  // The previous checkpoint is still intact.
  const auto back = store.load();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, small);
}

TEST(SvcRestart, ImageOutgrowingTheRegionCountsFailedSaves) {
  // The write-through image grows with every submitted job; a region
  // too small for it must report each save it could not make instead
  // of dropping crash safety silently. Regions are carved in 1 MiB
  // pages, so 48 KiB job names make the image outgrow the smallest
  // region within two dozen jobs.
  rt::ClusterConfig cfg;
  cfg.computeNodes = 2;
  rt::Cluster cluster(cfg);
  svc::CheckpointStore::Config storeCfg;
  storeCfg.poolBytes = 1ULL << 20;
  storeCfg.regionBytes = 1ULL << 20;
  svc::ServiceHost host(cluster, {}, storeCfg);
  for (int i = 0; i < 24; ++i) {
    svc::JobDesc jd;
    jd.name = std::string(48ULL << 10, 'j') + std::to_string(i);
    jd.kernel = rt::KernelKind::kCnk;
    jd.nodes = 1;
    jd.exe = workImage(jd.name, 2, 1'000);
    host.submit(jd);
  }
  ASSERT_TRUE(host.runUntilDrained(50'000'000));
  EXPECT_GE(host.store().saves(), 1u) << "the first small images fit";
  EXPECT_GE(host.store().failedSaves(), 1u);
  const svc::SvcMetrics m = host.metrics();
  EXPECT_EQ(m.checkpointSaveFailures, host.store().failedSaves());
  EXPECT_EQ(m.jobsCompleted, 24u) << "a failed save must not stop work";
  // The last image that fit is still a valid checkpoint.
  const auto back = host.store().load();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), host.store().lastImageBytes());
}

}  // namespace
}  // namespace bg
