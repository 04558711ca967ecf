#include "storage/spill.h"

#include <utility>

#include "storage/serialize.h"

namespace radb {

SpillableRowBuffer::SpillableRowBuffer(SpillableRowBuffer&& other) noexcept
    : ctx_(std::move(other.ctx_)),
      tail_(std::move(other.tail_)),
      run_row_counts_(std::move(other.run_row_counts_)),
      file_(std::move(other.file_)),
      tail_bytes_(std::exchange(other.tail_bytes_, 0)),
      total_bytes_(std::exchange(other.total_bytes_, 0)),
      rows_spilled_(std::exchange(other.rows_spilled_, 0)),
      spill_bytes_(std::exchange(other.spill_bytes_, 0)),
      spill_run_count_(std::exchange(other.spill_run_count_, 0)) {
  other.tail_.clear();
  other.run_row_counts_.clear();
}

SpillableRowBuffer& SpillableRowBuffer::operator=(
    SpillableRowBuffer&& other) noexcept {
  if (this != &other) {
    Clear();
    ctx_ = std::move(other.ctx_);
    tail_ = std::move(other.tail_);
    run_row_counts_ = std::move(other.run_row_counts_);
    file_ = std::move(other.file_);
    tail_bytes_ = std::exchange(other.tail_bytes_, 0);
    total_bytes_ = std::exchange(other.total_bytes_, 0);
    rows_spilled_ = std::exchange(other.rows_spilled_, 0);
    spill_bytes_ = std::exchange(other.spill_bytes_, 0);
    spill_run_count_ = std::exchange(other.spill_run_count_, 0);
    other.tail_.clear();
    other.run_row_counts_.clear();
  }
  return *this;
}

Status SpillableRowBuffer::Append(Row row) {
  const size_t bytes = RowByteSize(row);
  total_bytes_ += bytes;
  if (ctx_.tracker != nullptr) {
    if (!ctx_.tracker->TryReserve(bytes)) {
      RADB_RETURN_NOT_OK(FlushTail());
      if (!ctx_.tracker->TryReserve(bytes)) {
        // A single row larger than what's left of the whole budget:
        // it has to live somewhere before it can be flushed, so take
        // the bounded overshoot.
        ctx_.tracker->ForceReserve(bytes);
      }
    }
    tail_bytes_ += bytes;
  }
  tail_.push_back(std::move(row));
  return Status::OK();
}

Status SpillableRowBuffer::SpillToDisk() {
  // Without a tracker there is no charge to free — keep rows resident.
  if (ctx_.tracker == nullptr) return Status::OK();
  return FlushTail();
}

namespace {

/// Spill runs are capped so a Reader's replay window (one run held in
/// memory while its rows are decoded) stays small even when a large
/// tail is flushed at once. Keeping runs small is what makes the
/// replay window ignorable by the budget: N concurrent readers hold
/// at most N MiB between them.
constexpr size_t kMaxSpillRunBytes = 1u << 20;

}  // namespace

Status SpillableRowBuffer::FlushTail() {
  if (tail_.empty()) return Status::OK();
  if (file_ == nullptr) {
    file_ = std::make_unique<mem::SpillFile>();
    RADB_RETURN_NOT_OK(file_->Create(ctx_.spill_dir, ctx_.spill_tag()));
  }
  std::string run;
  size_t run_rows = 0;
  auto emit_run = [&]() -> Status {
    RADB_RETURN_NOT_OK(file_->WriteRun(run.data(), run.size()).status());
    run_row_counts_.push_back(run_rows);
    spill_bytes_ += run.size();
    ++spill_run_count_;
    if (ctx_.tracker != nullptr) ctx_.tracker->RecordSpill(run.size(), 1);
    run.clear();
    run_rows = 0;
    return Status::OK();
  };
  for (const Row& row : tail_) {
    AppendRowBinary(run, row);
    ++run_rows;
    if (run.size() >= kMaxSpillRunBytes) RADB_RETURN_NOT_OK(emit_run());
  }
  if (run_rows > 0) RADB_RETURN_NOT_OK(emit_run());
  rows_spilled_ += tail_.size();
  if (ctx_.tracker != nullptr) ctx_.tracker->Release(tail_bytes_);
  tail_bytes_ = 0;
  tail_.clear();
  return Status::OK();
}

void SpillableRowBuffer::Clear() {
  if (ctx_.tracker != nullptr && tail_bytes_ > 0) {
    ctx_.tracker->Release(tail_bytes_);
  }
  // Spill totals (spill_bytes_, spill_run_count_) survive on purpose:
  // operators read them after draining.
  tail_bytes_ = 0;
  total_bytes_ = 0;
  tail_.clear();
  run_row_counts_.clear();
  file_.reset();
  rows_spilled_ = 0;
}

Result<std::vector<Row>> SpillableRowBuffer::Drain() {
  std::vector<Row> out;
  out.reserve(num_rows());
  CancelPoll never(nullptr);
  RADB_RETURN_NOT_OK(ConsumeRows(&never, [&](Row row) {
    out.push_back(std::move(row));
    return Status::OK();
  }));
  return out;
}

SpillableRowBuffer::Reader::Reader(SpillableRowBuffer* buf) : buf_(buf) {}

SpillableRowBuffer::Reader::~Reader() { ReleaseRun(); }

void SpillableRowBuffer::Reader::ReleaseRun() {
  run_data_ = std::string();
  run_ = ByteReader(run_data_);
}

Status SpillableRowBuffer::Reader::LoadRun(size_t index) {
  ReleaseRun();
  RADB_ASSIGN_OR_RETURN(std::string data, buf_->file_->ReadRun(index));
  // The replay window is deliberately NOT charged against the budget:
  // runs are capped at kMaxSpillRunBytes, so concurrent readers hold
  // a small bounded overshoot, and charging it would re-pin the very
  // budget that spilling freed (deadlocking operators that spilled
  // their input to make room for unspillable state).
  run_rows_left_ = buf_->run_row_counts_[index];
  run_data_ = std::move(data);
  run_ = ByteReader(run_data_);
  return Status::OK();
}

Result<std::optional<Row>> SpillableRowBuffer::Reader::Next() {
  while (run_rows_left_ == 0 && buf_->file_ != nullptr &&
         run_index_ < buf_->file_->num_runs()) {
    RADB_RETURN_NOT_OK(LoadRun(run_index_));
    ++run_index_;
  }
  if (run_rows_left_ > 0) {
    RADB_ASSIGN_OR_RETURN(Row row, ReadRowBinary(run_));
    if (--run_rows_left_ == 0) ReleaseRun();
    return std::optional<Row>(std::move(row));
  }
  if (tail_index_ < buf_->tail_.size()) {
    // The tail is replayed by reference-copy (Values share payloads),
    // leaving the buffer intact for Drain/Clear accounting.
    return std::optional<Row>(buf_->tail_[tail_index_++]);
  }
  return std::optional<Row>();
}

}  // namespace radb
