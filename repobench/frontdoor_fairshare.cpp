// frontdoor_fairshare: a seeded fd::Swarm submits thousands of short
// CNK/FWK jobs through the service node's front door to the
// fair-share scheduler.
//
// Four accounts over three QOS tiers (a high-QOS tenant preempts the
// low tier when the machine is full). Arrivals are bursty and
// open-loop in simulated time; each client is closed-loop over its own
// submits and retries after a SERVER_BUSY bounce. The service node
// keeps its default write-through checkpoint after every state change.
// Compute is trivial, so the front-door protocol, msg::wire, the
// collective channels, the svc scheduler/accounting/checkpoint/RAS
// paths and per-job loadJobOnNode do the host work. The repo holds no
// paper reference for this workload, so it reports no accuracy figure.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "frontdoor/frontdoor.hpp"
#include "frontdoor/swarm.hpp"
#include "sim/rng.hpp"
#include "svc/failover.hpp"
#include "vm/builder.hpp"

namespace repobench {

namespace {
constexpr int kNodes = 8;
constexpr int kFwkNodes = 2;

bg::svc::FairShareConfig accounts() {
  bg::svc::FairShareConfig fs;
  bg::svc::AccountSpec alpha, beta, gamma, urgent;
  alpha.name = "alpha";
  alpha.shares = 4;
  beta.name = "beta";
  beta.shares = 2;
  gamma.name = "gamma";
  gamma.shares = 1;
  gamma.qos = bg::svc::Qos::kLow;
  gamma.maxRunning = 3;
  urgent.name = "urgent";
  urgent.shares = 1;
  urgent.qos = bg::svc::Qos::kHigh;
  urgent.preemptable = false;
  fs.accounts = {alpha, beta, gamma, urgent};
  return fs;
}

std::shared_ptr<bg::kernel::ElfImage> workImage() {
  bg::vm::ProgramBuilder b("fdwork");
  const auto top = b.loopBegin(16, 12);
  b.compute(12'000);
  b.loopEnd(16, top);
  b.halt(0);
  return bg::kernel::ElfImage::makeExecutable("fdwork", std::move(b).build());
}
}  // namespace

Iteration runFrontdoorFairshare(const Params& p, Tracer* tr) {
  Iteration it;
  const Clock::time_point t0 = Clock::now();
  const std::uint32_t clients = p.quick ? 120 : 600;
  const std::uint32_t submitsPerClient = 2;

  bg::rt::ClusterConfig cfg;
  cfg.computeNodes = kNodes;
  cfg.seed = p.seed;
  cfg.nodeKernels.assign(kNodes, bg::rt::KernelKind::kCnk);
  for (int n = kNodes - kFwkNodes; n < kNodes; ++n) {
    cfg.nodeKernels[static_cast<std::size_t>(n)] = bg::rt::KernelKind::kFwk;
  }
  std::unique_ptr<bg::rt::Cluster> cluster;
  {
    Span s(tr, "runtime.construct");
    cluster = std::make_unique<bg::rt::Cluster>(cfg);
  }
  bg::svc::ServiceNodeConfig scfg;
  scfg.policy = bg::svc::SchedPolicyKind::kFairShare;
  scfg.fairshare = accounts();
  bg::svc::ServiceHost host(*cluster, scfg);
  host.store().registerImage(workImage());

  // Client -> account: bulk tenants dominate, the high-QOS tenant is a
  // trickle (7:5:3:1 of 16).
  std::vector<bg::svc::AccountId> accountOf(clients);
  {
    bg::sim::Rng rng(p.seed, "repobench.accounts");
    for (std::uint32_t c = 0; c < clients; ++c) {
      const std::uint64_t d = rng.nextBelow(16);
      accountOf[c] = d < 7 ? 1 : d < 12 ? 2 : d < 15 ? 3 : 4;
    }
  }
  bg::hw::CollectiveNet fdnet(cluster->engine(), bg::hw::CollectiveConfig{});
  bg::fd::FrontDoorConfig fcfg;
  fcfg.accountOf = [&accountOf](std::uint32_t cid) {
    return cid < accountOf.size() ? accountOf[cid] : bg::svc::AccountId{0};
  };
  bg::fd::FrontDoor door(cluster->engine(), host, fdnet, fcfg);
  door.attach();

  bg::fd::SwarmParams sp;
  sp.clients = clients;
  sp.submitsPerClient = submitsPerClient;
  sp.seed = p.seed;
  sp.estCycles = 200'000;
  // Enough busy-retry budget to ride a burst's backlog out: the
  // workload measures backpressure, not abandonment.
  sp.client.maxBusyRetries = 40;
  bg::fd::Swarm swarm(cluster->engine(), fdnet, sp);
  host.start();
  swarm.start();
  it.setupS = secondsSince(t0);

  bg::sim::Engine& eng = cluster->engine();
  auto done = [&] {
    return swarm.quiescent() && door.batchedCount() == 0 && host.drained();
  };
  // Capture runs keep the stored checkpoint (and the TLBs) from the
  // save made when the most jobs were queued.
  ProbeInputs* cap = p.capture;
  std::uint64_t seenSaves = 0;
  auto captureDeepest = [&] {
    if (host.store().saves() == seenSaves) return;
    seenSaves = host.store().saves();
    std::uint64_t queued = 0;
    for (const bg::svc::JobRecord& jr : host.node().jobs()) {
      if (jr.state == bg::svc::JobState::kQueued) ++queued;
    }
    if (queued <= cap->svcQueued) return;
    cap->svcQueued = queued;
    cap->svcImage = host.store().load().value_or(std::vector<std::byte>{});
    cap->tlbs.clear();
    cap->captureTlbs(*cluster);
  };

  const Clock::time_point t1 = Clock::now();
  bool drained = false;
  {
    Span s(tr, "svc.drain");
    drained = cap == nullptr ? eng.runWhile(done, 4'000'000'000ULL)
                             : eng.runWhile(
                                   [&] {
                                     captureDeepest();
                                     return done();
                                   },
                                   4'000'000'000ULL);
  }
  it.runS = secondsSince(t1);
  it.runCycles = eng.now();
  it.events = eng.eventsProcessed();

  if (cap != nullptr) {
    for (std::uint32_t c = 0; c < clients; ++c) {
      for (std::uint32_t k = 0; k < submitsPerClient; ++k) {
        bg::fd::Request q;
        q.clientId = c;
        q.seq = k + 1;
        q.jobName = "c" + std::to_string(c) + "s" + std::to_string(k);
        q.nodes = sp.jobNodes;
        q.estCycles = sp.estCycles;
        q.maxRetries = sp.jobMaxRetries;
        q.exeName = sp.exeName;
        cap->requests.push_back(std::move(q));
      }
    }
    if (!cap->svcImage.empty()) cap->sealedBytes = {cap->svcImage.size()};
  }

  const bg::fd::Swarm::Totals t = swarm.totals();
  const bg::fd::FrontDoorStats& d = door.stats();
  const bg::svc::SvcMetrics m = host.metrics();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(clients) * submitsPerClient;

  // Oracles: every submit is acknowledged exactly once, every accepted
  // job is handed to the scheduler and completes.
  it.check(drained, "swarm drains");
  it.ops(expected, expected - std::min(expected, t.acked) + t.rejectedOther,
         "submits acknowledged");
  std::vector<std::uint64_t> tickets = t.tickets;
  std::sort(tickets.begin(), tickets.end());
  it.check(std::adjacent_find(tickets.begin(), tickets.end()) == tickets.end(),
           "tickets unique");
  it.check(d.accepted == d.flushedJobs + d.cancelsBatched,
           "accepted == flushed + cancelled-in-batch");
  it.check(m.jobsSubmitted == d.flushedJobs, "svc submitted == flushed");
  it.ops(m.jobsSubmitted,
         m.jobsSubmitted - std::min(m.jobsSubmitted, m.jobsCompleted),
         "jobs completed");

  std::vector<std::uint64_t> waits;
  for (const bg::svc::JobRecord& jr : host.node().jobs()) {
    if (jr.firstStartCycle != 0) waits.push_back(jr.firstStartCycle - jr.submitCycle);
  }
  std::vector<std::uint64_t> acks(t.latencies.begin(), t.latencies.end());
  it.sim["sim_makespan_cycles"] = static_cast<double>(eng.now());
  it.sim["sim_submit_ack_p50_cycles"] = static_cast<double>(percentile(acks, 50));
  it.sim["sim_submit_ack_p99_cycles"] = static_cast<double>(percentile(acks, 99));
  it.sim["sim_job_wait_p99_cycles"] = static_cast<double>(percentile(waits, 99));
  it.sim["paper_err_pct"] = -1;  // no reference in the repo: unvalidated
  it.sim["sim.events"] = static_cast<double>(it.events);
  it.sim["svc.jobs_completed"] = static_cast<double>(m.jobsCompleted);
  it.sim["svc.jobs_failed"] = static_cast<double>(m.jobsFailed);
  it.sim["svc.preemptions"] = static_cast<double>(m.preemptions);
  it.sim["svc.checkpoint_saves"] = static_cast<double>(m.checkpointSaves);
  it.sim["svc.checkpoint_bytes"] = static_cast<double>(m.checkpointBytes);
  it.sim["svc.ras_events"] =
      static_cast<double>(m.rasInfo + m.rasWarn + m.rasError + m.rasFatal);
  it.sim["fd.requests"] = static_cast<double>(d.requests);
  it.sim["fd.accepted"] = static_cast<double>(d.accepted);
  it.sim["fd.busy_rejects"] = static_cast<double>(d.rejected);
  it.sim["fd.accept_ratio"] =
      d.requests > 0 ? static_cast<double>(d.accepted) / static_cast<double>(d.requests) : 0;
  it.sim["fd.flushes"] = static_cast<double>(d.flushes);
  collectHwCounters(*cluster, it);

  bg::sim::Fnv1a w;
  w.mix(m.scheduleHash);
  w.mix(door.digest());
  w.mix(host.node().accounting().stateDigest());
  for (std::uint64_t x : acks) w.mix(x);
  it.seal(w.digest());
  return it;
}

}  // namespace repobench
