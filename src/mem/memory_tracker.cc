#include "mem/memory_tracker.h"

#include "common/string_util.h"

namespace radb::mem {

MemoryTracker::MemoryTracker(std::string label, size_t budget_bytes,
                             obs::MetricsRegistry* metrics)
    : label_(std::move(label)), budget_(budget_bytes), metrics_(metrics) {
  if (metrics_ != nullptr) {
    in_use_gauge_ = metrics_->gauge("mem.bytes_in_use");
    spill_bytes_counter_ = metrics_->counter("mem.spill_bytes");
    spill_runs_counter_ = metrics_->counter("mem.spill_runs");
  }
}

MemoryTracker::MemoryTracker(std::string label, size_t budget_bytes,
                             MemoryTracker* global_parent,
                             obs::MetricsRegistry* metrics)
    : MemoryTracker(std::move(label), budget_bytes, metrics) {
  global_ = global_parent;
}

MemoryTracker::MemoryTracker(std::string label, MemoryTracker* parent,
                             bool unspillable)
    : label_(std::move(label)), unspillable_(unspillable), parent_(parent) {}

namespace {

// Clamped atomic decrement: never underflow on double-release bugs.
void ClampedSub(std::atomic<size_t>& counter, size_t bytes) {
  size_t cur = counter.load(std::memory_order_relaxed);
  while (true) {
    const size_t dec = cur < bytes ? cur : bytes;
    if (counter.compare_exchange_weak(cur, cur - dec,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

MemoryTracker::~MemoryTracker() {
  // A child releases whatever it still holds from the root, so an
  // aborted operator (early error return) cannot poison the next
  // statement's accounting.
  const size_t held = used_.load(std::memory_order_relaxed);
  if (parent_ != nullptr && held > 0) {
    MemoryTracker* root = Root();
    ClampedSub(root->used_, held);
    if (unspillable_) ClampedSub(root->pinned_used_, held);
    if (root->global_ != nullptr) {
      ClampedSub(root->global_->used_, held);
      root->global_->PublishGauge();
    }
    root->PublishGauge();
  } else if (parent_ == nullptr && global_ != nullptr && held > 0) {
    // A retiring query root returns whatever it still holds to the
    // service-level mirror, so an aborted (or cancelled) query cannot
    // leak bytes out of the global accounting.
    ClampedSub(global_->used_, held);
    global_->PublishGauge();
  }
}

MemoryTracker* MemoryTracker::Root() {
  MemoryTracker* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return t;
}

size_t MemoryTracker::budget() const {
  const MemoryTracker* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return t->budget_;
}

size_t MemoryTracker::remaining() const {
  const MemoryTracker* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  if (t->budget_ == 0) return std::numeric_limits<size_t>::max();
  // Spillable charges are gated against the total; unspillable ones
  // only against the unspillable pool (see the class comment).
  const auto& pool = unspillable_ ? t->pinned_used_ : t->used_;
  const size_t used = pool.load(std::memory_order_relaxed);
  return used >= t->budget_ ? 0 : t->budget_ - used;
}

size_t MemoryTracker::unspillable_bytes() const {
  const MemoryTracker* t = this;
  while (t->parent_ != nullptr) t = t->parent_;
  return t->pinned_used_.load(std::memory_order_relaxed);
}

void MemoryTracker::AddLocal(size_t bytes) {
  const size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::PublishGauge() {
  if (in_use_gauge_ != nullptr) {
    in_use_gauge_->Set(
        static_cast<double>(used_.load(std::memory_order_relaxed)));
  }
}

bool MemoryTracker::TryReserve(size_t bytes) {
  size_t pool_level = 0;
  return TryReserve(bytes, &pool_level);
}

bool MemoryTracker::TryReserve(size_t bytes, size_t* pool_level) {
  MemoryTracker* root = Root();
  if (unspillable_) {
    // Gate against the unspillable pool only: whether operator state
    // fits must not depend on spillable tails transiently resident in
    // other workers' buffers.
    const size_t now_pinned =
        root->pinned_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (root->budget_ > 0 && now_pinned > root->budget_) {
      root->pinned_used_.fetch_sub(bytes, std::memory_order_relaxed);
      *pool_level = now_pinned - bytes;
      return false;
    }
    // Admitted state still counts toward the total (gauge, peak, and
    // the pressure that makes spillable buffers flush).
    ForceReserveTotal(bytes);
    return true;
  }
  const size_t now =
      root->used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (root->budget_ > 0 && now > root->budget_) {
    root->used_.fetch_sub(bytes, std::memory_order_relaxed);
    *pool_level = now - bytes;
    return false;
  }
  size_t peak = root->peak_.load(std::memory_order_relaxed);
  while (now > peak && !root->peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (root != this) AddLocal(bytes);
  if (root->global_ != nullptr) root->global_->ForceReserveTotal(bytes);
  root->PublishGauge();
  return true;
}

Status MemoryTracker::Reserve(size_t bytes) {
  size_t pool_level = 0;
  if (TryReserve(bytes, &pool_level)) return Status::OK();
  // Report the level the refusal saw: by now other workers may have
  // released memory, and remaining() could show room for the request.
  const size_t budget_bytes = budget();
  const size_t left =
      pool_level >= budget_bytes ? 0 : budget_bytes - pool_level;
  return Status::ResourceExhausted(
      label_ + " needs " + FormatBytes(static_cast<double>(bytes)) +
      " of unspillable memory but only " +
      FormatBytes(static_cast<double>(left)) + " of the " +
      FormatBytes(static_cast<double>(budget_bytes)) +
      " query budget remains; raise QueryOptions::memory_budget_bytes");
}

void MemoryTracker::ForceReserveTotal(size_t bytes) {
  MemoryTracker* root = Root();
  const size_t now =
      root->used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = root->peak_.load(std::memory_order_relaxed);
  while (now > peak && !root->peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (root != this) AddLocal(bytes);
  if (root->global_ != nullptr) root->global_->ForceReserveTotal(bytes);
  root->PublishGauge();
}

void MemoryTracker::ForceReserve(size_t bytes) {
  if (unspillable_) {
    Root()->pinned_used_.fetch_add(bytes, std::memory_order_relaxed);
  }
  ForceReserveTotal(bytes);
}

void MemoryTracker::Release(size_t bytes) {
  MemoryTracker* root = Root();
  root->used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (unspillable_) {
    root->pinned_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  if (root != this) used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (root->global_ != nullptr) {
    ClampedSub(root->global_->used_, bytes);
    root->global_->PublishGauge();
  }
  root->PublishGauge();
}

void MemoryTracker::RecordSpill(size_t bytes, size_t runs) {
  MemoryTracker* root = Root();
  root->spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  root->spill_runs_.fetch_add(runs, std::memory_order_relaxed);
  if (root != this) {
    spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    spill_runs_.fetch_add(runs, std::memory_order_relaxed);
  }
  if (root->spill_bytes_counter_ != nullptr) {
    root->spill_bytes_counter_->Add(bytes);
    root->spill_runs_counter_->Add(runs);
  }
}

}  // namespace radb::mem
