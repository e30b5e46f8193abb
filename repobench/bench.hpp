// Shared types for the repository benchmark (see run.py for the
// command line and the metric contract).
//
// One workload iteration = set-up (construct the machine, the service
// host and the generated inputs) + a measured run to completion +
// output checks. main.cpp repeats iterations for the
// requested number of seconds and reports medians. Everything a
// workload reports besides host time is simulated and deterministic:
// it must repeat exactly for a seed, and it is folded into the
// iteration's digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "frontdoor/protocol.hpp"
#include "hw/cache.hpp"
#include "hw/mmu.hpp"
#include "runtime/app.hpp"
#include "sim/hash.hpp"

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds per span name, summed over the spans the benchmark
/// records around its own calls into the library.
using Tracer = std::map<std::string, double>;

/// Adds its lifetime to (*tracer)[name]. A null tracer (untraced
/// iterations) records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), name_(name), t0_(tracer ? Clock::now() : Clock::time_point{}) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) (*tracer_)[name_] += secondsSince(t0_);
  }

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point t0_;
};

/// What the layer probes (probes.cpp) replay, captured from one extra
/// run of the workload. A probe whose input is empty reads 0: the
/// workload does not use that layer.
struct ProbeInputs {
  /// Memory walks of one pass of the workload's program: bytes and
  /// stride (0 = one L1 line), as its memTouch/load/store loops make them.
  struct Touch {
    std::uint32_t bytes = 0;
    std::uint32_t stride = 0;
  };
  std::vector<Touch> touches;
  bg::hw::SharedCacheConfig l3;  // the workload's shared-cache configuration
  /// Valid TLB entries of every core that had any, one list per core.
  std::vector<std::vector<bg::hw::TlbEntry>> tlbs;
  /// The service node's stored checkpoint when its queue was deepest,
  /// and that depth.
  std::vector<std::byte> svcImage;
  std::uint64_t svcQueued = 0;
  /// The front-door submit requests the workload's clients send.
  std::vector<bg::fd::Request> requests;
  /// Sizes of the buffers the workload seals with sim::hashBytes.
  std::vector<std::uint64_t> sealedBytes;

  /// Record the valid TLB entries of every core of the machine.
  void captureTlbs(bg::rt::Cluster& cluster);
};

/// Workload size and seed. `quick` shrinks every workload for the
/// self-test; it is never used for measured runs.
struct Params {
  std::uint64_t seed = 42;
  bool quick = false;
  /// When set, the workload fills it for the layer probes. Capturing
  /// reads state during the run, so capture iterations are never timed.
  ProbeInputs* capture = nullptr;
};

/// Outcome of one iteration.
struct Iteration {
  double setupS = 0;          // host seconds before the measured run
  double runS = 0;            // host seconds of the measured run
  /// Host speed around this iteration relative to the reference host
  /// (main.cpp: calibrationMops); 1 = reference speed.
  double hostSpeed = 1;
  std::uint64_t runCycles = 0;  // simulated cycles the measured run advanced
  std::uint64_t events = 0;     // engine events in the measured run
  std::uint64_t attempted = 0;  // operations attempted
  std::uint64_t failed = 0;     // operations failed or abandoned
  std::vector<std::string> oracleFailures;
  /// Simulated, deterministic values: workload metrics (sim_*,
  /// paper_err_pct) and per-layer counters. All are folded into digest.
  std::map<std::string, double> sim;
  std::uint64_t digest = 0;

  /// Count one checked operation.
  void check(bool ok, const std::string& what);
  /// Count `n` operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad, const std::string& what);
  /// Fold every simulated value (in name order) plus `witness` into
  /// the digest.
  void seal(std::uint64_t witness);
};

using WorkloadFn = Iteration (*)(const Params&, Tracer*);

Iteration runFwqBoot(const Params& p, Tracer* tr);
Iteration runFrontdoorFairshare(const Params& p, Tracer* tr);
Iteration runMpiCkptIo(const Params& p, Tracer* tr);

/// Paper Table I (§V-C) re-measured on 2-node machines: mean relative
/// error in percent over its seven rows, and a digest of the measured
/// latencies. Seed-independent.
struct Table1Result {
  double errPct = 0;
  std::uint64_t digest = 0;
  bool ok = false;
};
Table1Result measureTable1();

/// Isolated per-layer timing harnesses (traced runs only), replaying
/// `in`; the seed draws the addresses and buffer contents. Results are
/// "<layer>.probe_ns_per_<op>" plus "<layer>.probe_<op>s" call counts.
std::map<std::string, double> runProbes(const ProbeInputs& in, std::uint64_t seed);

// --- helpers shared by the workloads -----------------------------------

/// Nearest-rank percentile (q in [0, 100]); 0 for an empty sample.
std::uint64_t percentile(std::vector<std::uint64_t> v, double q);

/// Sum the machine-level hardware counters of every compute node into
/// the per-layer names (core.*, l1.*, l3.*, mmu.*, collective.*,
/// torus.*, barrier.*, sim.lane_*).
void collectHwCounters(bg::rt::Cluster& cluster, Iteration& it);

/// FNV digest of every compute-node kernel's RAS log.
std::uint64_t rasDigest(bg::rt::Cluster& cluster);

}  // namespace repobench
