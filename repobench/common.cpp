#include <algorithm>
#include <cstring>

#include "bench.hpp"

namespace repobench {

void Iteration::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    oracleFailures.push_back(what);
  }
}

void Iteration::ops(std::uint64_t n, std::uint64_t bad,
                    const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad != 0) {
    oracleFailures.push_back(what + ": " + std::to_string(bad) + " of " +
                             std::to_string(n) + " failed");
  }
}

void Iteration::seal(std::uint64_t witness) {
  bg::sim::Fnv1a h;
  for (const auto& [name, value] : sim) {
    h.mixString(name);
    // Simulated values are integers or ratios of integers, so their
    // doubles are bit-exact run to run; hash the representation.
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    h.mix(bits);
  }
  h.mix(witness);
  h.mix(attempted);
  h.mix(failed);
  digest = h.digest();
}

std::uint64_t percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size());
  std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.5) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

void collectHwCounters(bg::rt::Cluster& cluster, Iteration& it) {
  double slices = 0, busy = 0, l1Acc = 0, l1Miss = 0, l3Acc = 0, l3Miss = 0,
         conflicts = 0, tlbHits = 0, tlbMisses = 0;
  bg::hw::Machine& m = cluster.machine();
  for (int n = 0; n < m.numComputeNodes(); ++n) {
    bg::hw::Node& node = m.node(n);
    for (int c = 0; c < node.numCores(); ++c) {
      bg::hw::Core& core = node.core(c);
      slices += static_cast<double>(core.slicesRun());
      busy += static_cast<double>(core.cyclesBusy());
      l1Acc += static_cast<double>(core.l1().stats().accesses);
      l1Miss += static_cast<double>(core.l1().stats().misses);
      tlbHits += static_cast<double>(core.mmu().hitCount());
      tlbMisses += static_cast<double>(core.mmu().missCount());
    }
    l3Acc += static_cast<double>(node.l3().stats().accesses);
    l3Miss += static_cast<double>(node.l3().stats().misses);
    conflicts += static_cast<double>(node.l3().bankConflicts());
  }
  it.sim["core.slices"] = slices;
  it.sim["core.busy_mcycles"] = busy / 1e6;
  it.sim["l1.accesses"] = l1Acc;
  it.sim["l1.miss_ratio"] = l1Acc > 0 ? l1Miss / l1Acc : 0;
  it.sim["l3.accesses"] = l3Acc;
  it.sim["l3.miss_ratio"] = l3Acc > 0 ? l3Miss / l3Acc : 0;
  it.sim["l3.bank_conflicts"] = conflicts;
  it.sim["mmu.tlb_hits"] = tlbHits;
  it.sim["mmu.tlb_misses"] = tlbMisses;
  it.sim["collective.packets"] =
      static_cast<double>(m.collective().packetsDelivered());
  it.sim["collective.bytes"] =
      static_cast<double>(m.collective().bytesDelivered());
  it.sim["torus.bytes"] = static_cast<double>(m.torus().bytesMoved());
  it.sim["barrier.completed"] =
      static_cast<double>(m.barrier().barriersCompleted());
  const bg::sim::Engine::LaneStats lanes = cluster.engine().laneStats();
  it.sim["sim.lane_windows"] = static_cast<double>(lanes.windows);
  it.sim["sim.lane_shared_ops"] = static_cast<double>(lanes.sharedOps);
}

void ProbeInputs::captureTlbs(bg::rt::Cluster& cluster) {
  bg::hw::Machine& m = cluster.machine();
  for (int n = 0; n < m.numComputeNodes(); ++n) {
    bg::hw::Node& node = m.node(n);
    for (int c = 0; c < node.numCores(); ++c) {
      std::vector<bg::hw::TlbEntry> valid;
      for (const bg::hw::TlbEntry& e : node.core(c).mmu().entries()) {
        if (e.valid) valid.push_back(e);
      }
      if (!valid.empty()) tlbs.push_back(std::move(valid));
    }
  }
}

std::uint64_t rasDigest(bg::rt::Cluster& cluster) {
  bg::sim::Fnv1a h;
  for (int n = 0; n < cluster.config().computeNodes; ++n) {
    for (const bg::kernel::RasEvent& e : cluster.kernelOn(n).rasLog()) {
      h.mix(static_cast<std::uint64_t>(n));
      h.mix(e.cycle);
      h.mix(static_cast<std::uint64_t>(e.code));
      h.mix(static_cast<std::uint64_t>(e.severity));
      h.mix(e.detail);
    }
  }
  return h.digest();
}

}  // namespace repobench
