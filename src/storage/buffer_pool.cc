#include "storage/buffer_pool.h"

#include <utility>

namespace radb::storage {

void BufferPool::Pin::Reset() {
  if (pool_ != nullptr && batch_ != nullptr) {
    pool_->Unpin(key_);
  }
  pool_ = nullptr;
  batch_.reset();
}

BufferPool::BufferPool(size_t budget_bytes, obs::MetricsRegistry* metrics)
    : tracker_("buffer_pool", budget_bytes, metrics) {
  if (metrics != nullptr) {
    hits_ = metrics->counter("bufferpool.hits");
    misses_ = metrics->counter("bufferpool.misses");
    evictions_ = metrics->counter("bufferpool.evictions");
    cached_gauge_ = metrics->gauge("bufferpool.cached_bytes");
  }
}

void BufferPool::EvictForLocked(size_t need) {
  // Evict from the LRU tail until `need` more bytes fit under budget.
  // Entries are clean by construction, so eviction is a pure drop.
  const size_t budget = tracker_.budget();
  if (budget == 0) return;  // unlimited
  while (!lru_.empty() &&
         cached_bytes_ + unevictable_bytes_ + need > budget) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it == entries_.end()) continue;
    cached_bytes_ -= it->second.charge;
    tracker_.Release(it->second.charge);
    entries_.erase(it);
    ++eviction_count_;
    if (evictions_ != nullptr) evictions_->Increment();
  }
  if (cached_gauge_ != nullptr) {
    cached_gauge_->Set(static_cast<double>(cached_bytes_));
  }
}

Result<BufferPool::Pin> BufferPool::GetOrLoad(
    const Key& key, const std::function<Result<LoadedSegment>()>& loader) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Entry& e = it->second;
      if (e.in_lru) {
        lru_.erase(e.lru_pos);
        e.in_lru = false;
      }
      ++e.pins;
      ++hit_count_;
      if (hits_ != nullptr) hits_->Increment();
      return Pin(this, key, e.batch);
    }
  }
  // Miss: load outside the mutex so concurrent misses overlap I/O.
  RADB_ASSIGN_OR_RETURN(LoadedSegment loaded, loader());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Lost a racing load: keep the resident copy, drop ours.
    Entry& e = it->second;
    if (e.in_lru) {
      lru_.erase(e.lru_pos);
      e.in_lru = false;
    }
    ++e.pins;
    ++hit_count_;
    if (hits_ != nullptr) hits_->Increment();
    return Pin(this, key, e.batch);
  }
  ++miss_count_;
  if (misses_ != nullptr) misses_->Increment();
  EvictForLocked(loaded.charge);
  // Soft cap: when eviction could not make room (everything resident
  // is pinned or unevictable) the load is admitted anyway — the
  // overshoot is bounded by the simultaneously pinned working set.
  tracker_.ForceReserve(loaded.charge);
  Entry e;
  e.batch = loaded.batch;
  e.charge = loaded.charge;
  e.pins = 1;
  e.in_lru = false;
  cached_bytes_ += loaded.charge;
  if (cached_gauge_ != nullptr) {
    cached_gauge_->Set(static_cast<double>(cached_bytes_));
  }
  entries_.emplace(key, std::move(e));
  return Pin(this, key, std::move(loaded.batch));
}

void BufferPool::Unpin(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // erased while pinned (drop/repart)
  Entry& e = it->second;
  if (e.pins > 0) --e.pins;
  if (e.pins == 0 && !e.in_lru) {
    lru_.push_front(key);
    e.lru_pos = lru_.begin();
    e.in_lru = true;
  }
}

void BufferPool::EraseTable(uint64_t table) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.table != table) {
      ++it;
      continue;
    }
    Entry& e = it->second;
    if (e.in_lru) lru_.erase(e.lru_pos);
    cached_bytes_ -= e.charge;
    tracker_.Release(e.charge);
    it = entries_.erase(it);
  }
  if (cached_gauge_ != nullptr) {
    cached_gauge_->Set(static_cast<double>(cached_bytes_));
  }
}

void BufferPool::Charge(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  EvictForLocked(bytes);
  tracker_.ForceReserve(bytes);
  unevictable_bytes_ += bytes;
}

void BufferPool::Discharge(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t delta = bytes < unevictable_bytes_ ? bytes : unevictable_bytes_;
  unevictable_bytes_ -= delta;
  tracker_.Release(delta);
}

BufferPool::Stats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.budget_bytes = tracker_.budget();
  s.cached_bytes = cached_bytes_;
  s.unevictable_bytes = unevictable_bytes_;
  s.entries = entries_.size();
  for (const auto& [k, e] : entries_) {
    if (e.pins > 0) ++s.pinned_entries;
  }
  s.hits = hit_count_;
  s.misses = miss_count_;
  s.evictions = eviction_count_;
  return s;
}

}  // namespace radb::storage
