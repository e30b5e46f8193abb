#include "svc/failover.hpp"

#include "sim/hash.hpp"

namespace bg::svc {

namespace {
constexpr std::uint64_t kStoreMagic = 0x42474356'434B5054ULL;  // "BGCVCKPT"
constexpr std::uint64_t kHeaderBytes = 24;
constexpr hw::VAddr kSvcPersistVBase = 0x5000'0000ULL;
}  // namespace

CheckpointStore::CheckpointStore(Config cfg)
    : cfg_(std::move(cfg)), mem_(cfg_.poolBytes) {
  reg_.configurePool(0, cfg_.poolBytes, kSvcPersistVBase);
  reg_.openOrCreate(cfg_.regionName, cfg_.regionBytes, cfg_.uid);
}

bool CheckpointStore::save(const std::vector<std::byte>& image,
                           sim::Cycle now) {
  // Reopen by name on every save — the same path a restarted daemon
  // takes — so uid and size checks are exercised continuously and the
  // region address provably never moves.
  const auto r = reg_.openOrCreate(cfg_.regionName, cfg_.regionBytes,
                                   cfg_.uid);
  if (!r || kHeaderBytes + image.size() > r->size) {
    ++failedSaves_;
    return false;
  }
  mem_.write64(r->pbase, kStoreMagic);
  mem_.write64(r->pbase + 8, image.size());
  mem_.write64(r->pbase + 16, sim::hashBytes(image));
  if (!image.empty()) mem_.write(r->pbase + kHeaderBytes, image);
  ++saves_;
  lastImageBytes_ = image.size();
  lastSaveCycle_ = now;
  return true;
}

std::optional<std::vector<std::byte>> CheckpointStore::load() const {
  const cnk::PersistRegion* r = reg_.find(cfg_.regionName);
  if (r == nullptr) return std::nullopt;
  if (mem_.read64(r->pbase) != kStoreMagic) return std::nullopt;
  const std::uint64_t len = mem_.read64(r->pbase + 8);
  if (kHeaderBytes + len > r->size) return std::nullopt;
  const std::uint64_t checksum = mem_.read64(r->pbase + 16);
  std::vector<std::byte> image(len);
  if (len != 0) mem_.read(r->pbase + kHeaderBytes, image);
  if (sim::hashBytes(image) != checksum) return std::nullopt;
  return image;
}

void CheckpointStore::registerImage(
    const std::shared_ptr<kernel::ElfImage>& img) {
  if (img) images_[img->name()] = img;
}

std::shared_ptr<kernel::ElfImage> CheckpointStore::image(
    const std::string& name) const {
  const auto it = images_.find(name);
  return it == images_.end() ? nullptr : it->second;
}

ServiceHost::ServiceHost(rt::Cluster& cluster, ServiceNodeConfig cfg,
                         CheckpointStore::Config storeCfg)
    : cluster_(cluster), cfg_(cfg), store_(std::move(storeCfg)) {
  sn_ = std::make_unique<ServiceNode>(cluster_, cfg_, &store_);
}

JobId ServiceHost::submit(JobDesc desc) {
  store_.registerImage(desc.exe);
  for (const auto& lib : desc.libs) store_.registerImage(lib);
  if (alive()) return sn_->submit(std::move(desc));
  pending_.push_back(std::move(desc));
  return 0;
}

std::vector<JobId> ServiceHost::submitBatch(std::vector<JobDesc> descs) {
  for (const JobDesc& d : descs) {
    store_.registerImage(d.exe);
    for (const auto& lib : d.libs) store_.registerImage(lib);
  }
  if (alive()) return sn_->submitBatch(std::move(descs));
  for (JobDesc& d : descs) pending_.push_back(std::move(d));
  return {};
}

void ServiceHost::start() {
  started_ = true;
  if (alive()) sn_->start();
}

void ServiceHost::crash() {
  if (!alive()) return;
  ++crashes_;
  sn_.reset();  // epoch guard kills every pending control-loop event
}

bool ServiceHost::restart() {
  if (alive()) return false;
  ++restarts_;
  sn_ = ServiceNode::restartFrom(cluster_, cfg_, store_);
  const bool warm = sn_ != nullptr;
  if (!warm) {
    ++coldStarts_;
    sn_ = std::make_unique<ServiceNode>(cluster_, cfg_, &store_);
    if (started_) sn_->start();
  }
  for (JobDesc& d : pending_) sn_->submit(std::move(d));
  pending_.clear();
  if (restartHook_) restartHook_();
  return warm;
}

void ServiceHost::scheduleCrashRestart(sim::Cycle atCycle,
                                       sim::Cycle downCycles) {
  sim::Engine& eng = cluster_.engine();
  eng.scheduleAt(atCycle, [this, &eng, downCycles] {
    crash();
    eng.schedule(downCycles, [this] { restart(); });
  });
}

bool ServiceHost::runUntilDrained(std::uint64_t maxEvents) {
  start();
  return cluster_.engine().runWhile([this] { return drained(); }, maxEvents);
}

SvcMetrics ServiceHost::metrics() {
  SvcMetrics m = alive() ? sn_->metrics() : SvcMetrics{};
  m.serviceCrashes = crashes_;
  m.serviceRestarts = restarts_;
  m.checkpointSaves = store_.saves();
  m.checkpointSaveFailures = store_.failedSaves();
  m.checkpointBytes = store_.lastImageBytes();
  return m;
}

}  // namespace bg::svc
