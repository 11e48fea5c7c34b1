#include "serve/session_pool.hpp"

#include "finder/finder_json.hpp"
#include "serve/design_registry.hpp"

namespace gtl::serve {

std::string config_fingerprint(const FinderConfig& cfg) {
  return to_json(cfg).dump();
}

SessionLease& SessionLease::operator=(SessionLease&& other) noexcept {
  if (this != &other) {
    release();
    entry_ = std::move(other.entry_);
    finder_ = std::move(other.finder_);
    fingerprint_ = std::move(other.fingerprint_);
  }
  return *this;
}

void SessionLease::release() {
  if (finder_ != nullptr) {
    finder_->set_observer(nullptr);
    finder_->set_cancel_token(nullptr);
    entry_->sessions.put_back(std::move(finder_), std::move(fingerprint_));
  }
  entry_.reset();
}

Status SessionPool::acquire(std::shared_ptr<const DesignEntry> entry,
                            const FinderConfig& cfg, SessionLease* out,
                            bool* reused) {
  std::string fp = config_fingerprint(cfg);
  std::unique_ptr<Finder> finder = entry->sessions.take(fp);
  *reused = finder != nullptr;
  if (finder == nullptr) {
    GTL_RETURN_IF_ERROR(Finder::create(entry->design.netlist, cfg, &finder));
  }
  *out = SessionLease(std::move(entry), std::move(finder), std::move(fp));
  return Status::ok();
}

std::unique_ptr<Finder> SessionPool::take(const std::string& fingerprint) {
  MutexLock lk(mu_);
  const auto it = idle_.find(fingerprint);
  if (it == idle_.end()) return nullptr;
  std::unique_ptr<Finder> finder = std::move(it->second);
  idle_.erase(it);
  return finder;
}

void SessionPool::put_back(std::unique_ptr<Finder> finder,
                           std::string fingerprint) {
  MutexLock lk(mu_);
  if (idle_.size() >= max_idle_) return;  // destroys the session
  idle_.emplace(std::move(fingerprint), std::move(finder));
}

}  // namespace gtl::serve
