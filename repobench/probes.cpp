// Layer probes: isolated timing harnesses that call one layer's public
// functions in a tight loop, so a change to that layer shows as ns/call
// without the rest of the machine around it. Each probe replays what
// one extra run of the workload captured (ProbeInputs); the seed draws
// addresses and buffer contents. A probe with nothing captured reports
// 0 calls and 0 ns. Each probe reports the median of five repetitions.
//
// The engine probe is the exception: the library exposes no record of
// a run's event delays, so it uses one plain delay mix for every
// workload (uniform in 1..4096 cycles) — an assumption, not a
// measurement.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/bytes.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "svc/checkpoint.hpp"

namespace repobench {

namespace {

constexpr int kReps = 5;

/// Median host nanoseconds per call of `body`, which makes `calls` calls.
template <class F>
double nsPerCall(std::uint64_t calls, F&& body) {
  if (calls == 0) return 0;
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    v.push_back(secondsSince(t0) * 1e9 / static_cast<double>(calls));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Chain final : bg::sim::Task {
  bg::sim::Engine* e = nullptr;
  const std::vector<bg::sim::Cycle>* delays = nullptr;
  std::size_t i = 0;
  std::uint64_t left = 0;
  void run() override {
    if (--left == 0) return;
    e->scheduleTask((*delays)[i++ % delays->size()], this);
  }
};

double engineProbe(std::uint64_t seed, std::uint64_t* calls) {
  bg::sim::Rng rng(seed, "repobench.probe.engine");
  std::vector<bg::sim::Cycle> delays(4096);
  for (auto& d : delays) d = 1 + rng.nextBelow(4096);
  constexpr int kChains = 128;
  constexpr std::uint64_t kPerChain = 4'000;
  *calls = kChains * kPerChain;
  return nsPerCall(*calls, [&] {
    bg::sim::Engine e;
    std::vector<Chain> chains(kChains);
    for (int c = 0; c < kChains; ++c) {
      Chain& ch = chains[static_cast<std::size_t>(c)];
      ch.e = &e;
      ch.delays = &delays;
      ch.i = static_cast<std::size_t>(c) * 31;
      ch.left = kPerChain;
      // Half the chains start through closures, as one-shot events do.
      if (c % 2 == 0) {
        e.schedule(static_cast<bg::sim::Cycle>(c), [&ch] { ch.run(); });
      } else {
        e.scheduleTask(static_cast<bg::sim::Cycle>(c), &ch);
      }
    }
    e.run();
  });
}

/// The workload's memory walks, laid out back to back and repeated,
/// through one core's L1 (hw::Core's geometry) and the workload's L3.
double cacheProbe(const ProbeInputs& in, std::uint64_t seed, std::uint64_t* calls) {
  constexpr std::uint32_t kLine = 32;
  std::vector<bg::hw::PAddr> pass;
  bg::hw::PAddr base = 0x100000;
  for (const ProbeInputs::Touch& t : in.touches) {
    const std::uint32_t step = t.stride == 0 ? kLine : t.stride;
    for (std::uint32_t off = 0; off < t.bytes; off += step) pass.push_back(base + off);
    base += (t.bytes + 4095) & ~std::uint64_t{4095};
  }
  *calls = 0;
  if (pass.empty()) return 0;
  // The seed picks where the walk starts within the page.
  bg::sim::Rng rng(seed, "repobench.probe.cache");
  const bg::hw::PAddr shift = rng.nextBelow(4096 / 8) * 8;
  std::vector<bg::hw::PAddr> addrs;
  while (addrs.size() < (1u << 19)) {
    for (bg::hw::PAddr a : pass) addrs.push_back(a + shift);
  }
  *calls = addrs.size();
  return nsPerCall(*calls, [&] {
    bg::hw::CacheArray l1(32ULL << 10, kLine, 8);
    bg::hw::SharedCache l3(in.l3);
    bg::sim::Cycle now = 0;
    for (bg::hw::PAddr a : addrs) {
      now += 1;
      if (!l1.access(a)) now += l3.access(a, now).extraStall;
    }
    if (now == 0) std::abort();
  });
}

/// Each core's captured mappings reinstalled in its own MMU, then
/// translated core after core: runs of 16 addresses within one mapping
/// (a locality assumed alike for every workload), four runs per core.
double translateProbe(const ProbeInputs& in, std::uint64_t seed, std::uint64_t* calls) {
  *calls = 0;
  if (in.tlbs.empty()) return 0;
  std::vector<bg::hw::Mmu> mmus;
  for (const auto& entries : in.tlbs) {
    bg::hw::Mmu& mmu = mmus.emplace_back(64);
    for (const bg::hw::TlbEntry& e : entries) mmu.install(e);
  }
  struct Query {
    std::uint32_t mmu;
    std::uint32_t pid;
    bg::hw::VAddr va;
  };
  bg::sim::Rng rng(seed, "repobench.probe.mmu");
  std::vector<Query> queries;
  while (queries.size() < (1u << 19)) {
    for (std::size_t m = 0; m < in.tlbs.size(); ++m) {
      const auto& entries = in.tlbs[m];
      for (int run = 0; run < 4; ++run) {
        const bg::hw::TlbEntry& e = entries[rng.nextBelow(entries.size())];
        for (int k = 0; k < 16; ++k) {
          queries.push_back({static_cast<std::uint32_t>(m), e.pid,
                             e.vaddr + (rng.nextBelow(e.size) & ~std::uint64_t{7})});
        }
      }
    }
  }
  *calls = queries.size();
  return nsPerCall(*calls, [&] {
    std::uint64_t sum = 0;
    bg::hw::Translation t{};
    for (const Query& q : queries) {
      if (mmus[q.mmu].translate(q.pid, q.va, bg::hw::Access::kRead, &t) ==
          bg::hw::TlbResult::kHit) {
        sum += t.paddr;
      }
    }
    if (sum == 1) std::abort();
  });
}

/// Each core's captured entries installed into an emptied MMU, core
/// after core, until about 128K installs.
double installProbe(const ProbeInputs& in, std::uint64_t* calls) {
  std::uint64_t perPass = 0;
  for (const auto& entries : in.tlbs) perPass += entries.size();
  *calls = 0;
  if (perPass == 0) return 0;
  const std::uint64_t passes = std::max<std::uint64_t>(1, (1u << 17) / perPass);
  *calls = passes * perPass;
  return nsPerCall(*calls, [&] {
    bg::hw::Mmu mmu(64);
    int slots = 0;
    for (std::uint64_t p = 0; p < passes; ++p) {
      for (const auto& entries : in.tlbs) {
        mmu.invalidate();
        for (const bg::hw::TlbEntry& e : entries) slots += mmu.install(e);
      }
    }
    if (slots < 0) std::abort();
  });
}

/// Re-encode and seal the service node's captured checkpoint.
double svcCheckpointProbe(const ProbeInputs& in, std::uint64_t* calls) {
  *calls = 0;
  bg::svc::SvcCheckpoint ck;
  bg::sim::ByteReader r(in.svcImage);
  if (in.svcImage.empty() || !ck.decode(r)) return 0;
  *calls = std::max<std::uint64_t>(20, (24u << 20) / in.svcImage.size());
  return nsPerCall(*calls, [&] {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < *calls; ++i) {
      bg::sim::ByteWriter w;
      ck.encode(w);
      sum += bg::sim::hashBytes(std::move(w).take());
    }
    if (sum == 1) std::abort();
  });
}

/// Encode (msg::wire framing and seal) and decode (unseal and parse)
/// the workload's submit requests, about 32K frames.
double frameProbe(const ProbeInputs& in, std::uint64_t* calls) {
  *calls = 0;
  if (in.requests.empty()) return 0;
  const std::size_t n = in.requests.size();
  *calls = std::max<std::uint64_t>(n, ((1u << 15) / n) * n);
  return nsPerCall(*calls, [&] {
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < *calls; ++i) {
      const std::vector<std::byte> frame = in.requests[i % n].encode();
      if (bg::fd::Request::decode(frame).has_value()) ++ok;
    }
    if (ok != *calls) std::abort();
  });
}

/// sim::hashBytes over buffers of the sizes the workload seals, about
/// 16 MiB in all; reported per KiB.
double hashProbe(const ProbeInputs& in, std::uint64_t seed, std::uint64_t* kib) {
  *kib = 0;
  std::uint64_t perPass = 0;
  for (std::uint64_t b : in.sealedBytes) perPass += b;
  if (perPass == 0) return 0;
  bg::sim::Rng rng(seed, "repobench.probe.hash");
  std::vector<std::vector<std::byte>> bufs;
  for (std::uint64_t b : in.sealedBytes) {
    auto& buf = bufs.emplace_back(b);
    for (auto& x : buf) x = static_cast<std::byte>(rng.next());
  }
  const std::uint64_t passes = std::max<std::uint64_t>(1, (16u << 20) / perPass);
  *kib = passes * perPass / 1024;
  return nsPerCall(*kib, [&] {
    std::uint64_t sum = 0;
    for (std::uint64_t p = 0; p < passes; ++p) {
      for (const auto& buf : bufs) sum += bg::sim::hashBytes(buf);
    }
    if (sum == 1) std::abort();
  });
}

}  // namespace

std::map<std::string, double> runProbes(const ProbeInputs& in, std::uint64_t seed) {
  std::map<std::string, double> out;
  std::uint64_t n = 0;
  out["sim.probe_ns_per_event"] = engineProbe(seed, &n);
  out["sim.probe_events"] = static_cast<double>(n);
  out["cache.probe_ns_per_access"] = cacheProbe(in, seed, &n);
  out["cache.probe_accesses"] = static_cast<double>(n);
  out["mmu.probe_ns_per_translate"] = translateProbe(in, seed, &n);
  out["mmu.probe_translates"] = static_cast<double>(n);
  out["mmu.probe_ns_per_install"] = installProbe(in, &n);
  out["mmu.probe_installs"] = static_cast<double>(n);
  out["svc.probe_ns_per_checkpoint"] = svcCheckpointProbe(in, &n);
  out["svc.probe_checkpoints"] = static_cast<double>(n);
  out["svc.probe_queued"] = static_cast<double>(in.svcQueued);
  out["fd.probe_ns_per_frame"] = frameProbe(in, &n);
  out["fd.probe_frames"] = static_cast<double>(n);
  out["hash.probe_ns_per_kib"] = hashProbe(in, seed, &n);
  out["hash.probe_kib"] = static_cast<double>(n);
  return out;
}

}  // namespace repobench
