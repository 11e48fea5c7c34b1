#include "serve/design_registry.hpp"

#include "netlist/netlist_io.hpp"
#include "util/require.hpp"

namespace gtl::serve {

std::size_t design_resident_bytes(const BookshelfDesign& design) {
  std::size_t total = design.netlist.resident_bytes();
  total += design.x.capacity() * sizeof(double);
  total += design.y.capacity() * sizeof(double);
  for (const std::string& w : design.warnings) {
    total += sizeof(std::string) + w.capacity();
  }
  return total;
}

DesignRegistry::DesignRegistry(std::size_t max_resident_bytes,
                               std::size_t max_idle_sessions)
    : max_bytes_(max_resident_bytes), max_idle_sessions_(max_idle_sessions) {
  GTL_REQUIRE(max_resident_bytes > 0, "residency cap must be positive");
}

Status DesignRegistry::load(const std::string& name,
                            const std::filesystem::path& aux,
                            const std::filesystem::path& snapshot,
                            LoadInfo* info) {
  if (name.empty()) {
    return Status::invalid_argument("design name must not be empty");
  }
  {
    MutexLock lk(mu_);
    if (entries_.count(name) != 0) {
      return Status::invalid_argument("design \"" + name +
                                      "\" is already loaded");
    }
  }

  // The parse/load runs outside the lock: a multi-second Bookshelf parse
  // must not block queries against already-loaded designs.  A racing
  // load of the same name is re-checked by insert() below.
  auto entry = std::make_shared<DesignEntry>(max_idle_sessions_);
  entry->name = name;
  SnapshotCacheResult cache;
  const Status load_st = load_with_snapshot_cache(
      snapshot,
      [&](BookshelfDesign* out) -> Status {
        if (aux.empty()) {
          return Status::not_found(
              "snapshot " + snapshot.string() +
              " does not exist and no \"aux\" source was given");
        }
        return try_read_bookshelf(aux, out);
      },
      &entry->design, &cache);
  GTL_RETURN_IF_ERROR(load_st);
  entry->resident_bytes = design_resident_bytes(entry->design);
  entry->source_aux = aux.string();
  entry->source_snapshot = snapshot.string();

  MutexLock lk(mu_);
  if (entries_.count(name) != 0) {
    return Status::invalid_argument("design \"" + name +
                                    "\" is already loaded");
  }
  info->entry = entry;
  info->snapshot_hit = cache.hit;
  info->fill_failed = cache.fill_failed;
  info->notes = std::move(cache.notes);
  info->evicted = insert_locked(std::move(entry));
  return Status::ok();
}

Status DesignRegistry::insert(const std::string& name, BookshelfDesign design,
                              LoadInfo* info) {
  if (name.empty()) {
    return Status::invalid_argument("design name must not be empty");
  }
  auto entry = std::make_shared<DesignEntry>(max_idle_sessions_);
  entry->name = name;
  entry->design = std::move(design);
  entry->resident_bytes = design_resident_bytes(entry->design);

  MutexLock lk(mu_);
  if (entries_.count(name) != 0) {
    return Status::invalid_argument("design \"" + name +
                                    "\" is already loaded");
  }
  info->entry = entry;
  info->evicted = insert_locked(std::move(entry));
  return Status::ok();
}

std::vector<std::string> DesignRegistry::insert_locked(EntryPtr entry) {
  std::vector<std::string> evicted;
  // Evict LRU entries until the new total fits (or nothing is left to
  // evict — the single-oversized-design case documented in the header).
  while (!lru_.empty() && total_bytes_ + entry->resident_bytes > max_bytes_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    total_bytes_ -= it->second.entry->resident_bytes;
    entries_.erase(it);
    evicted.push_back(victim);
  }
  total_bytes_ += entry->resident_bytes;
  lru_.push_front(entry->name);
  const std::string key = entry->name;
  entries_.emplace(key, Slot{std::move(entry), lru_.begin()});
  return evicted;
}

DesignRegistry::EntryPtr DesignRegistry::find(const std::string& name) {
  MutexLock lk(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.entry;
}

bool DesignRegistry::erase(const std::string& name) {
  MutexLock lk(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  total_bytes_ -= it->second.entry->resident_bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  return true;
}

std::vector<DesignRegistry::DesignInfo> DesignRegistry::list() const {
  MutexLock lk(mu_);
  std::vector<DesignInfo> out;
  out.reserve(entries_.size());
  for (const std::string& name : lru_) {
    const DesignEntry& e = *entries_.at(name).entry;
    DesignInfo info;
    info.name = e.name;
    info.cells = e.design.netlist.num_cells();
    info.nets = e.design.netlist.num_nets();
    info.pins = e.design.netlist.num_pins();
    info.resident_bytes = e.resident_bytes;
    out.push_back(std::move(info));
  }
  return out;
}

std::size_t DesignRegistry::total_resident_bytes() const {
  MutexLock lk(mu_);
  return total_bytes_;
}

std::size_t DesignRegistry::size() const {
  MutexLock lk(mu_);
  return entries_.size();
}

}  // namespace gtl::serve
