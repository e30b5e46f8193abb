// fwq_boot: a 32-node machine (24 CNK + 8 FWK nodes) boots and runs
// FWQ on all four cores of every node (paper §V-A).
//
// Set-up constructs and boots the machine and builds the FWQ image;
// the measured run is the job load + FWQ to completion. The engine, cores, caches, MMU,
// DDR and the FWK tick/daemon paths do the host work; the service
// node, I/O, messaging and front door do none. The seed picks which
// eight nodes run the FWK and seeds the machine.
#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/fwq.hpp"
#include "bench.hpp"
#include "sim/rng.hpp"

namespace repobench {

namespace {
constexpr int kNodes = 32;
constexpr int kFwkNodes = 8;
constexpr int kThreads = 4;
/// The paper's clean FWQ sample (§V-A), also apps::FwqParams' target.
constexpr double kPaperFwqCycles = 658'958;
}  // namespace

Iteration runFwqBoot(const Params& p, Tracer* tr) {
  Iteration it;
  const Clock::time_point t0 = Clock::now();

  bg::rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = p.seed;
  cfg.nodeKernels.assign(kNodes, bg::rt::KernelKind::kCnk);
  {
    bg::sim::Rng rng(p.seed, "repobench.fwq_boot");
    std::vector<int> order(kNodes);
    for (int i = 0; i < kNodes; ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = kNodes - 1; i > 0; --i) {
      const auto j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(i) + 1));
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(j)]);
    }
    for (int i = 0; i < kFwkNodes; ++i) {
      cfg.nodeKernels[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
          bg::rt::KernelKind::kFwk;
    }
  }
  bg::apps::FwqParams fp;
  fp.samples = p.quick ? 8 : 60;
  bg::kernel::JobSpec job;
  job.exe = bg::apps::fwqImage(fp);

  std::vector<std::vector<std::uint64_t>> samples(kNodes * kThreads);
  std::unique_ptr<bg::rt::Cluster> cluster;
  {
    Span s(tr, "runtime.construct");
    cluster = std::make_unique<bg::rt::Cluster>(cfg);
  }
  for (int r = 0; r < kNodes; ++r) {
    for (int t = 0; t < kThreads; ++t) {
      cluster->attachSamples(r, t, &samples[static_cast<std::size_t>(r * kThreads + t)]);
    }
  }
  bool booted = false;
  {
    Span s(tr, "runtime.boot");
    booted = cluster->bootAll(400'000'000);
  }
  it.setupS = secondsSince(t0);

  bg::sim::Engine& eng = cluster->engine();
  const bg::sim::Cycle c0 = eng.now();
  const std::uint64_t e0 = eng.eventsProcessed();
  const Clock::time_point t1 = Clock::now();
  bool loaded = false, ran = false;
  {
    Span s(tr, "runtime.load");
    loaded = booted && cluster->loadJob(job);
  }
  {
    Span s(tr, "fwq.run");
    ran = loaded && cluster->run(4'000'000'000ULL);
  }
  it.runS = secondsSince(t1);
  it.runCycles = eng.now() - c0;
  it.events = eng.eventsProcessed() - e0;

  if (p.capture != nullptr) {
    // Each FWQ sample walks the DAXPY vectors, then the L3-visible stream.
    p.capture->touches = {{fp.vecBytes, 0}, {fp.streamBytes, fp.streamStride}};
    p.capture->l3 = cluster->machine().node(0).l3().config();
    p.capture->captureTlbs(*cluster);
  }

  // Oracles: every node boots, every rank's job completes, every core
  // delivers exactly `samples` FWQ samples.
  int bootedNodes = 0, doneNodes = 0;
  for (int n = 0; n < kNodes; ++n) {
    if (cluster->kernelOn(n).booted()) ++bootedNodes;
    if (cluster->kernelOn(n).jobDone()) ++doneNodes;
  }
  it.ops(kNodes, static_cast<std::uint64_t>(kNodes - bootedNodes), "node boots");
  it.ops(kNodes, static_cast<std::uint64_t>(kNodes - doneNodes), "fwq jobs");
  it.check(ran, "fwq run completes");
  std::uint64_t shortSinks = 0;
  std::vector<std::uint64_t> cnk;
  for (int r = 0; r < kNodes; ++r) {
    for (int t = 0; t < kThreads; ++t) {
      const auto& v = samples[static_cast<std::size_t>(r * kThreads + t)];
      if (v.size() != static_cast<std::size_t>(fp.samples)) ++shortSinks;
      if (cfg.nodeKernels[static_cast<std::size_t>(r)] == bg::rt::KernelKind::kCnk) {
        cnk.insert(cnk.end(), v.begin(), v.end());
      }
    }
  }
  it.ops(kNodes * kThreads, shortSinks, "fwq sample counts");

  const auto [lo, hi] = std::minmax_element(cnk.begin(), cnk.end());
  const double cnkMin = cnk.empty() ? 0 : static_cast<double>(*lo);
  const double cnkMax = cnk.empty() ? 0 : static_cast<double>(*hi);
  it.sim["sim_makespan_cycles"] = static_cast<double>(eng.now());
  it.sim["sim_fwq_noise_cnk_pct"] =
      cnkMin > 0 ? 100.0 * (cnkMax - cnkMin) / cnkMin : 0;
  it.sim["paper_err_pct"] =
      100.0 * std::abs(cnkMin - kPaperFwqCycles) / kPaperFwqCycles;
  it.sim["sim.events"] = static_cast<double>(eng.eventsProcessed());
  collectHwCounters(*cluster, it);

  bg::sim::Fnv1a w;
  w.mix(rasDigest(*cluster));
  for (const auto& v : samples) {
    for (std::uint64_t x : v) w.mix(x);
  }
  it.seal(w.digest());
  return it;
}

}  // namespace repobench
