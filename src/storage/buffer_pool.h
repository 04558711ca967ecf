#ifndef RADB_STORAGE_BUFFER_POOL_H_
#define RADB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "mem/memory_tracker.h"
#include "obs/metrics_registry.h"
#include "types/column.h"

namespace radb::storage {

/// LRU-with-pin-counts cache of decoded table segments, the residency
/// layer that admits tables larger than RAM.
///
/// Granularity is one sealed segment (a bounded run of rows serialized
/// as a single pager record), cached as its ColumnBatch — handed over
/// by the checkpoint that wrote the record, or decoded from it on a
/// miss — and shared between the cache and every pin currently
/// holding it: a scan pins the segment it is walking,
/// everything else is evictable. Entries are always CLEAN — only data
/// already durable in a page file is ever cached here — so eviction is
/// a pure drop and never does I/O. Dirty state (open tail runs, sealed
/// segments not yet checkpointed, mutated indexes) is charged through
/// Charge()/Discharge() as unevictable weight instead: it pushes clean
/// segments out but cannot be evicted itself; checkpointing converts
/// it back into evictable cached segments.
///
/// Memory is governed by an owned MemoryTracker root (label
/// "buffer_pool") so pool usage shows up in the same ledger as
/// query-execution memory. The budget is a soft cap: when every
/// resident byte is pinned or unevictable, a load overshoots rather
/// than failing — correctness never depends on the cap, and the
/// overshoot is bounded by what is simultaneously pinned.
///
/// Thread-safe; the loader callback runs outside the pool mutex so
/// concurrent misses on different segments overlap their I/O. Two
/// racing loads of the same key both run, and the loser's copy is
/// discarded on insert.
class BufferPool {
 public:
  struct Key {
    uint64_t table = 0;
    uint32_t partition = 0;
    uint32_t segment = 0;

    bool operator==(const Key& o) const {
      return table == o.table && partition == o.partition &&
             segment == o.segment;
    }
  };

  /// What a loader produces: the decoded segment plus the charge
  /// (serialized byte size — the stable, recomputable cost basis).
  struct LoadedSegment {
    std::shared_ptr<const ColumnBatch> batch;
    size_t charge = 0;
  };

  /// RAII pin: keeps the segment resident (and the batch pointer valid)
  /// until destroyed. Movable, not copyable.
  class Pin {
   public:
    Pin() = default;
    Pin(BufferPool* pool, Key key, std::shared_ptr<const ColumnBatch> batch)
        : pool_(pool), key_(key), batch_(std::move(batch)) {}
    ~Pin() { Reset(); }
    Pin(Pin&& o) noexcept
        : pool_(o.pool_), key_(o.key_), batch_(std::move(o.batch_)) {
      o.pool_ = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept {
      if (this != &o) {
        Reset();
        pool_ = o.pool_;
        key_ = o.key_;
        batch_ = std::move(o.batch_);
        o.pool_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    const ColumnBatch& batch() const { return *batch_; }
    explicit operator bool() const { return batch_ != nullptr; }
    void Reset();

   private:
    BufferPool* pool_ = nullptr;
    Key key_;
    std::shared_ptr<const ColumnBatch> batch_;
  };

  /// `budget_bytes` 0 = unlimited (pure bookkeeping). `metrics` may be
  /// null.
  explicit BufferPool(size_t budget_bytes,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Returns a pin on the cached segment, calling `loader` on a miss.
  Result<Pin> GetOrLoad(const Key& key,
                        const std::function<Result<LoadedSegment>()>& loader);

  /// Drops every (unpinned) cached segment of `table`. Used by DROP
  /// TABLE and repartitioning, both of which run under the exclusive
  /// catalog latch — nothing can hold pins concurrently.
  void EraseTable(uint64_t table);

  /// Unevictable-weight accounting for dirty state living outside the
  /// cache (see class comment). Charging may evict clean segments to
  /// make room but never fails.
  void Charge(size_t bytes);
  void Discharge(size_t bytes);

  struct Stats {
    size_t budget_bytes = 0;
    size_t cached_bytes = 0;       // clean segments resident
    size_t unevictable_bytes = 0;  // dirty weight via Charge()
    size_t entries = 0;
    size_t pinned_entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  Stats GetStats() const;

  mem::MemoryTracker* tracker() { return &tracker_; }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<uint64_t>()(k.table);
      h = h * 1315423911u ^ std::hash<uint64_t>()(
                                (static_cast<uint64_t>(k.partition) << 32) |
                                k.segment);
      return h;
    }
  };
  struct Entry {
    std::shared_ptr<const ColumnBatch> batch;
    size_t charge = 0;
    size_t pins = 0;
    /// Position in lru_ when pins == 0; lru_.end() while pinned.
    std::list<Key>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(const Key& key);
  /// Evicts unpinned entries (LRU first) until `need` bytes fit under
  /// budget or nothing evictable remains. Caller holds mu_.
  void EvictForLocked(size_t need);

  mem::MemoryTracker tracker_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* cached_gauge_ = nullptr;

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  /// Unpinned entries, most recently used at the front.
  std::list<Key> lru_;
  size_t cached_bytes_ = 0;
  size_t unevictable_bytes_ = 0;
  uint64_t hit_count_ = 0;
  uint64_t miss_count_ = 0;
  uint64_t eviction_count_ = 0;

  friend class Pin;
};

}  // namespace radb::storage

#endif  // RADB_STORAGE_BUFFER_POOL_H_
