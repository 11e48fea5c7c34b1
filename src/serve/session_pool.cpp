#include "serve/session_pool.hpp"

#include <iterator>

#include "finder/finder_json.hpp"
#include "serve/design_registry.hpp"

namespace gtl::serve {

std::string config_fingerprint(const FinderConfig& cfg) {
  FinderConfig key = cfg;
  key.rng_seed = 0;
  return to_json(key).dump();
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
  if (finder != nullptr) {
    finder->set_rng_seed(cfg.rng_seed);
  } else {
    GTL_RETURN_IF_ERROR(Finder::create(entry->design.netlist, cfg, &finder));
  }
  *out = SessionLease(std::move(entry), std::move(finder), std::move(fp));
  return Status::ok();
}

std::unique_ptr<Finder> SessionPool::take(const std::string& fingerprint) {
  MutexLock lk(mu_);
  for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
    if (it->fingerprint != fingerprint) continue;
    std::unique_ptr<Finder> finder = std::move(it->finder);
    idle_.erase(std::next(it).base());
    return finder;
  }
  return nullptr;
}

void SessionPool::put_back(std::unique_ptr<Finder> finder,
                           std::string fingerprint) {
  if (max_idle_ == 0) return;  // destroys the session
  // Declared before the lock, so an evicted session is destroyed (joining
  // its worker threads) after the lock is released.
  std::unique_ptr<Finder> evicted;
  MutexLock lk(mu_);
  if (idle_.size() >= max_idle_) {
    evicted = std::move(idle_.front().finder);
    idle_.erase(idle_.begin());
  }
  idle_.push_back({std::move(fingerprint), std::move(finder)});
}

}  // namespace gtl::serve
