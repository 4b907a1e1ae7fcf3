#include "serve/snapshot.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/failpoint.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace kge {
namespace {

// Every ckpt_<epoch>.kge2 under `dir`, newest epoch first; empty when
// the directory cannot be read.
std::vector<std::string> CheckpointsNewestFirst(const std::string& dir) {
  std::vector<int> epochs;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name.rfind("ckpt_", 0) != 0) continue;
      const size_t suffix = name.find(".kge2");
      if (suffix == std::string::npos || suffix + 5 != name.size()) continue;
      const std::string digits = name.substr(5, suffix - 5);
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      epochs.push_back(std::atoi(digits.c_str()));
    }
    ::closedir(handle);
  }
  std::sort(epochs.begin(), epochs.end(), std::greater<int>());
  std::vector<std::string> paths;
  paths.reserve(epochs.size());
  for (int epoch : epochs) {
    paths.push_back(dir + "/ckpt_" + std::to_string(epoch) + ".kge2");
  }
  return paths;
}

}  // namespace

Result<std::shared_ptr<ModelSnapshot>> LoadServingSnapshot(
    const std::string& path, const ModelFactory& factory,
    const std::vector<ScorePrecision>& prepare_tiers, bool prepare_bounds,
    ThreadPool* pool) {
  Result<std::unique_ptr<MappedCheckpoint>> mapping =
      MappedCheckpoint::Open(path);
  if (!mapping.ok()) return mapping.status();
  Result<std::unique_ptr<KgeModel>> model = factory();
  if (!model.ok()) return model.status();
  KGE_RETURN_IF_ERROR((*mapping)->LoadInto(model->get(), pool));
  for (ScorePrecision tier : prepare_tiers) {
    if ((*model)->SupportsScorePrecision(tier)) {
      if (prepare_bounds) {
        (*model)->PrepareForPrunedScoring(tier, pool);
      } else {
        (*model)->PrepareForScoring(tier, pool);
      }
    }
  }
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->mapping = std::move(*mapping);
  snapshot->model = std::move(*model);
  snapshot->source_path = path;
  return snapshot;
}

std::shared_ptr<const ModelSnapshot> SnapshotRegistry::Acquire() const {
  MutexLock lock(mutex_);
  return current_;
}

void SnapshotRegistry::Publish(std::shared_ptr<ModelSnapshot> snapshot) {
  MutexLock lock(mutex_);
  snapshot->version = ++publish_counter_;
  current_ = std::move(snapshot);
}

uint64_t SnapshotRegistry::current_version() const {
  MutexLock lock(mutex_);
  return current_ != nullptr ? current_->version : 0;
}

CheckpointWatcher::CheckpointWatcher(SnapshotRegistry* registry,
                                     ModelFactory factory, Options options)
    : registry_(registry),
      factory_(std::move(factory)),
      options_(std::move(options)) {}

CheckpointWatcher::~CheckpointWatcher() { Stop(); }

std::string CheckpointWatcher::ResolveLatestTarget() const {
  const std::string pointer = options_.dir + "/LATEST";
  if (!FileExists(pointer)) return "";
  Result<std::string> name = ReadFileToString(pointer);
  if (!name.ok()) return "";
  const std::string trimmed(TrimString(*name));
  if (trimmed.empty()) return "";
  return options_.dir + "/" + trimmed;
}

Status CheckpointWatcher::TryAdopt(const std::string& path) {
  // One checksum per adoption: LoadServingSnapshot CRC-checks the exact
  // mapped bytes before it trusts any field of them, so a torn file is
  // rejected there, and a file that changes after its check is never
  // read again.
  Result<std::shared_ptr<ModelSnapshot>> snapshot =
      LoadServingSnapshot(path, factory_, options_.prepare_tiers,
                          options_.prepare_bounds, options_.pool);
  if (!snapshot.ok()) return snapshot.status();
  KGE_RETURN_IF_ERROR(KGE_FAILPOINT("serve.swap.publish"));
  registry_->Publish(std::move(*snapshot));
  active_path_ = path;
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

bool CheckpointWatcher::QuarantineFile(const std::string& path) {
  const std::string quarantined = path + ".quarantine";
  if (std::rename(path.c_str(), quarantined.c_str()) == 0) {
    KGE_LOG(Warning) << "quarantined bad checkpoint " << path << " -> "
                     << quarantined;
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  KGE_LOG(Warning) << "failed to quarantine " << path;
  return false;
}

Status CheckpointWatcher::LoadInitial() {
  const std::string target = ResolveLatestTarget();
  if (!target.empty() && FileExists(target)) {
    const Status adopted = TryAdopt(target);
    if (adopted.ok()) return adopted;
    failed_loads_.fetch_add(1, std::memory_order_relaxed);
    KGE_LOG(Warning) << "LATEST target unusable (" << adopted.ToString()
                     << "); falling back to the newest loadable checkpoint";
    QuarantineFile(target);
  }
  // Each candidate is checksummed once, by its own mapped load; one that
  // fails is skipped but left in place.
  for (const std::string& path : CheckpointsNewestFirst(options_.dir)) {
    if (path == target) continue;
    const Status adopted = TryAdopt(path);
    if (adopted.ok()) return adopted;
    failed_loads_.fetch_add(1, std::memory_order_relaxed);
    KGE_LOG(Warning) << "skipping checkpoint " << path << ": "
                     << adopted.ToString();
  }
  return Status::NotFound("no loadable checkpoint in " + options_.dir);
}

Status CheckpointWatcher::AdoptPath(const std::string& path) {
  const Status adopted = TryAdopt(path);
  if (!adopted.ok()) failed_loads_.fetch_add(1, std::memory_order_relaxed);
  return adopted;
}

void CheckpointWatcher::PollOnce() {
  polls_.fetch_add(1, std::memory_order_relaxed);
  const std::string target = ResolveLatestTarget();
  if (target.empty() || !FileExists(target)) return;
  if (target == active_path_ || target == last_failed_path_) return;
  const Status adopted = TryAdopt(target);
  if (adopted.ok()) {
    last_failed_path_.clear();
    KGE_LOG(Info) << "hot-swapped to " << target;
    return;
  }
  failed_loads_.fetch_add(1, std::memory_order_relaxed);
  KGE_LOG(Warning) << "rejecting checkpoint " << target << ": "
                   << adopted.ToString();
  // A successful quarantine takes the file out of rotation — a future
  // file of the same name is genuinely new and must be retried. Only
  // when the rename fails (e.g. permissions) must the next poll avoid
  // spinning on the same bad file.
  if (QuarantineFile(target)) {
    last_failed_path_.clear();
  } else {
    last_failed_path_ = target;
  }
}

void CheckpointWatcher::Start() {
  {
    MutexLock lock(mutex_);
    stop_ = false;
  }
  thread_ = std::thread([this] {
    while (true) {
      {
        MutexLock lock(mutex_);
        if (stop_) return;
        cv_.WaitFor(mutex_, std::chrono::milliseconds(options_.poll_ms));
        if (stop_) return;
      }
      PollOnce();
    }
  });
}

void CheckpointWatcher::Stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

CheckpointWatcher::StatsView CheckpointWatcher::stats() const {
  StatsView view;
  view.polls = polls_.load(std::memory_order_relaxed);
  view.swaps = swaps_.load(std::memory_order_relaxed);
  view.quarantines = quarantines_.load(std::memory_order_relaxed);
  view.failed_loads = failed_loads_.load(std::memory_order_relaxed);
  return view;
}

}  // namespace kge
