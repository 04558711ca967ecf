#include "storage/table.h"

#include <utility>

#include "obs/metrics_registry.h"
#include "storage/serialize.h"

namespace radb {

namespace {
/// Process-wide table identity source (see Table::id).
std::atomic<uint64_t> g_next_table_id{1};
}  // namespace

Table::Table(std::string name, Schema schema, size_t num_partitions)
    : id_(g_next_table_id.fetch_add(1, std::memory_order_relaxed)),
      name_(std::move(name)),
      schema_(std::move(schema)),
      parts_(num_partitions == 0 ? 1 : num_partitions),
      kind_pure_(schema_.size(), 1) {
  for (PartitionData& p : parts_) ResetSegment(schema_, 0, &p.tail);
}

size_t Table::num_rows() const {
  size_t n = 0;
  for (const PartitionData& p : parts_) n += p.tail_base + p.tail.num_rows;
  return n;
}

size_t Table::byte_size() const {
  size_t n = 0;
  for (const PartitionData& p : parts_) {
    for (const Segment& s : p.sealed) n += s.payload_bytes;
    n += p.tail_bytes;
  }
  return n;
}

Status Table::ValidateRow(const Row& row) const {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table " +
        name_ + " with " + std::to_string(schema_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    const DataType declared = schema_.at(i).type;
    const DataType actual = row[i].RuntimeType();
    // INTEGER literals may populate DOUBLE columns and vice versa for
    // integral doubles; LA types must match kind and any known dims.
    if (declared.is_numeric() && actual.is_numeric()) continue;
    if (declared.kind() == actual.kind() && declared.CompatibleWith(actual)) {
      continue;
    }
    return Status::TypeError("value of type " + actual.ToString() +
                             " cannot be stored in column " +
                             schema_.at(i).name + " of type " +
                             declared.ToString());
  }
  return Status::OK();
}

Status Table::ValidateRows(const std::vector<Row>& rows) const {
  for (const Row& row : rows) RADB_RETURN_NOT_OK(ValidateRow(row));
  return Status::OK();
}

void Table::SealTail(size_t partition) {
  PartitionData& p = parts_[partition];
  if (p.tail.num_rows == 0) return;
  Segment s;
  s.num_rows = p.tail.num_rows;
  s.payload_bytes = p.tail_bytes;
  s.ordinal_base = p.tail_base;
  s.resident = std::make_shared<const ColumnBatch>(std::move(p.tail));
  // The next segment likely holds about as many rows.
  ResetSegment(schema_, s.num_rows, &p.tail);
  p.tail_base += s.num_rows;
  p.tail_bytes = 0;
  if (pool_ != nullptr && file_ != nullptr) {
    // Sealed-but-not-checkpointed rows are dirty weight in the pool:
    // unevictable until CheckpointSegments writes them out.
    pool_->Charge(s.payload_bytes);
  }
  p.sealed.push_back(std::move(s));
}

void Table::PlaceRow(const Row& row, size_t partition) {
  PartitionData& p = parts_[partition];
  p.tail_bytes += RowByteSize(row);
  AppendSegmentRow(row, &p.tail);
  if (p.tail_bytes >= segment_bytes_) SealTail(partition);
}

namespace {

/// What one key cell does to an index entry.
enum class KeyCell { kKey, kNull, kDegrades };

/// Reads key cell `v` into `*key`. NULL keys are absent from the tree:
/// every predicate the optimizer turns into an index probe is false on
/// NULL. A non-integer runtime value (numeric interchange allows one
/// into an INTEGER column) means the tree can no longer answer range
/// predicates faithfully, so it retires the index from planning while
/// the table itself stays correct.
KeyCell ReadKey(const Value& v, int64_t* key) {
  if (v.is_null()) return KeyCell::kNull;
  if (v.kind() != TypeKind::kInteger) return KeyCell::kDegrades;
  *key = v.int_value();
  return KeyCell::kKey;
}

/// Key cell `r` of a segment column: a typed INTEGER lane read in
/// place, any other lane through its Value.
KeyCell ReadKey(const ColumnVector& col, size_t r, int64_t* key) {
  if (col.values || col.kind != TypeKind::kInteger) {
    return ReadKey(col.GetValue(r), key);
  }
  if (col.null[r] != 0) return KeyCell::kNull;
  *key = col.i64[r];
  return KeyCell::kKey;
}

}  // namespace

void Table::IndexRow(const Row& row, storage::Rid rid) {
  for (auto& idx : indexes_) {
    if (idx->degraded) continue;
    int64_t key[storage::BTreeIndex::kMaxKeyColumns] = {0, 0};
    KeyCell cell = KeyCell::kKey;
    for (size_t i = 0; i < idx->columns.size() && cell == KeyCell::kKey; ++i) {
      cell = ReadKey(row[idx->columns[i]], &key[i]);
    }
    if (cell == KeyCell::kNull) continue;
    idx->dirty = true;
    if (cell == KeyCell::kDegrades) {
      idx->degraded = true;
      continue;
    }
    idx->tree->Insert(key, rid);
  }
}

Status Table::BuildIndex(IndexDef& idx) {
  using Entry = storage::BTreeIndex::Entry;
  const size_t key_len = idx.columns.size();
  idx.dirty = true;
  // One run per partition, in rid order. Seqs count the keyed rows in
  // that order (partitions in turn, NULL keys skipped), as inserting
  // them one by one would number them.
  std::vector<std::vector<Entry>> runs(parts_.size());
  uint64_t seq = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    std::vector<Entry>& run = runs[p];
    run.reserve(parts_[p].tail_base + parts_[p].tail.num_rows);
    const size_t nsegs = NumSegments(p);
    for (size_t s = 0; s < nsegs; ++s) {
      RADB_ASSIGN_OR_RETURN(SegmentPin pin, PinSegment(p, s));
      const ColumnBatch& batch = pin.batch();
      for (size_t r = 0; r < batch.num_rows; ++r) {
        Entry e;
        e.key.fill(0);
        KeyCell cell = KeyCell::kKey;
        for (size_t k = 0; k < key_len && cell == KeyCell::kKey; ++k) {
          cell = ReadKey(batch.columns[idx.columns[k]], r, &e.key[k]);
        }
        if (cell == KeyCell::kNull) continue;
        if (cell == KeyCell::kDegrades) {
          // The planner never probes a degraded index, so it keeps no
          // entries.
          idx.degraded = true;
          idx.tree = std::make_unique<storage::BTreeIndex>(key_len);
          return Status::OK();
        }
        e.seq = seq++;
        e.rid.partition = static_cast<uint32_t>(p);
        e.rid.ordinal = pin.ordinal_base() + r;
        run.push_back(e);
      }
    }
  }
  idx.tree = storage::BTreeIndex::Build(key_len, std::move(runs), seq);
  return Status::OK();
}

void Table::Append(const Row& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (kind_pure_[i] != 0 && !row[i].is_null() &&
        row[i].kind() != schema_.at(i).type.kind()) {
      kind_pure_[i] = 0;
    }
  }
  const size_t p = next_rr_ % parts_.size();
  storage::Rid rid;
  rid.partition = static_cast<uint32_t>(p);
  rid.ordinal = parts_[p].tail_base + parts_[p].tail.num_rows;
  IndexRow(row, rid);
  PlaceRow(row, p);
  ++next_rr_;
}

Status Table::Insert(Row row) {
  RADB_RETURN_NOT_OK(ValidateRow(row));
  Append(row);
  BumpVersion();
  return Status::OK();
}

Status Table::InsertAll(std::vector<Row> rows) {
  RADB_RETURN_NOT_OK(ValidateRows(rows));
  InsertValidated(std::move(rows));
  return Status::OK();
}

void Table::InsertValidated(std::vector<Row> rows) {
  for (const Row& row : rows) Append(row);
  if (!rows.empty()) BumpVersion();
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) {
    reg->Add("storage.rows_inserted", rows.size());
  }
}

Status Table::RepartitionByHash(size_t column) {
  if (column >= schema_.size()) {
    return Status::InvalidArgument("hash column out of range");
  }
  RADB_ASSIGN_OR_RETURN(RowSet all, Gather());
  // Every rid is about to change: drop cached segments, schedule the
  // old on-disk records for reclamation, and rebuild from scratch.
  if (pool_ != nullptr) pool_->EraseTable(id_);
  for (PartitionData& p : parts_) {
    for (Segment& s : p.sealed) {
      if (s.on_disk) dead_records_.push_back(s.record);
      if (!s.on_disk && pool_ != nullptr && file_ != nullptr) {
        pool_->Discharge(s.payload_bytes);
      }
    }
  }
  const size_t n_parts = parts_.size();
  parts_.assign(n_parts, PartitionData());
  for (PartitionData& p : parts_) ResetSegment(schema_, 0, &p.tail);
  for (const Row& r : all) PlaceRow(r, r[column].Hash() % n_parts);
  partitioning_.kind = Partitioning::Kind::kHash;
  partitioning_.hash_column = column;
  RADB_RETURN_NOT_OK(RebuildIndexes());
  BumpVersion();
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) {
    reg->Add("storage.rows_repartitioned", num_rows());
  }
  return Status::OK();
}

size_t Table::NumSegments(size_t partition) const {
  const PartitionData& p = parts_[partition];
  return p.sealed.size() + (p.tail.num_rows == 0 ? 0 : 1);
}

Result<Table::SegmentPin> Table::PinSegment(size_t partition,
                                            size_t segment) const {
  const PartitionData& p = parts_[partition];
  SegmentPin pin;
  if (segment < p.sealed.size()) {
    const Segment& s = p.sealed[segment];
    pin.base_ = s.ordinal_base;
    if (s.resident != nullptr) {
      pin.owned_ = s.resident;
      pin.batch_ = pin.owned_.get();
      return pin;
    }
    if (pool_ == nullptr || file_ == nullptr) {
      return Status::Internal("segment evicted without a store: " + name_);
    }
    storage::BufferPool::Key key;
    key.table = id_;
    key.partition = static_cast<uint32_t>(partition);
    key.segment = static_cast<uint32_t>(segment);
    const storage::RecordId record = s.record;
    storage::PageFile* file = file_;
    RADB_ASSIGN_OR_RETURN(
        storage::BufferPool::Pin pool_pin,
        pool_->GetOrLoad(
            key,
            [this, file, record]()
                -> Result<storage::BufferPool::LoadedSegment> {
              RADB_ASSIGN_OR_RETURN(std::string bytes,
                                    file->ReadRecord(record));
              return LoadSegment(bytes);
            }));
    pin.pool_pin_ = std::move(pool_pin);
    pin.batch_ = &pin.pool_pin_.batch();
    return pin;
  }
  if (segment == p.sealed.size() && p.tail.num_rows > 0) {
    pin.batch_ = &p.tail;
    pin.base_ = p.tail_base;
    return pin;
  }
  return Status::Internal("segment index out of range in " + name_);
}

Result<Table::RowLocation> Table::LocateRow(uint32_t partition,
                                            uint64_t ordinal) const {
  if (partition >= parts_.size()) {
    return Status::Internal("rid partition out of range in " + name_);
  }
  const PartitionData& p = parts_[partition];
  RowLocation loc;
  if (ordinal >= p.tail_base) {
    if (ordinal - p.tail_base >= p.tail.num_rows) {
      return Status::Internal("rid ordinal out of range in " + name_);
    }
    loc.segment = static_cast<uint32_t>(p.sealed.size());
    loc.offset = static_cast<size_t>(ordinal - p.tail_base);
    return loc;
  }
  // Binary search the sealed segments by ordinal_base.
  size_t lo = 0, hi = p.sealed.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (p.sealed[mid].ordinal_base <= ordinal) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const Segment& s = p.sealed[lo];
  if (ordinal < s.ordinal_base || ordinal - s.ordinal_base >= s.num_rows) {
    return Status::Internal("rid ordinal out of range in " + name_);
  }
  loc.segment = static_cast<uint32_t>(lo);
  loc.offset = static_cast<size_t>(ordinal - s.ordinal_base);
  return loc;
}

Row Table::SegmentPin::RowAt(size_t row) const {
  Row out;
  out.reserve(batch_->columns.size());
  for (const ColumnVector& col : batch_->columns) {
    out.push_back(col.GetValue(row));
  }
  return out;
}

Result<Row> Table::FetchRow(storage::Rid rid) const {
  RADB_ASSIGN_OR_RETURN(RowLocation loc, LocateRow(rid.partition,
                                                   rid.ordinal));
  RADB_ASSIGN_OR_RETURN(SegmentPin pin, PinSegment(rid.partition,
                                                   loc.segment));
  return pin.RowAt(loc.offset);
}

Result<RowSet> Table::GatherPartition(size_t partition) const {
  RowSet out;
  const size_t nsegs = NumSegments(partition);
  for (size_t s = 0; s < nsegs; ++s) {
    RADB_ASSIGN_OR_RETURN(SegmentPin pin, PinSegment(partition, s));
    for (size_t r = 0; r < pin.num_rows(); ++r) out.push_back(pin.RowAt(r));
  }
  return out;
}

Result<RowSet> Table::Gather() const {
  RowSet all;
  all.reserve(num_rows());
  for (size_t p = 0; p < parts_.size(); ++p) {
    RADB_ASSIGN_OR_RETURN(RowSet rows, GatherPartition(p));
    for (Row& r : rows) all.push_back(std::move(r));
  }
  return all;
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<size_t>& columns) {
  if (FindIndex(name) != nullptr) {
    return Status::CatalogError("index " + name + " already exists on " +
                                name_);
  }
  if (columns.empty() ||
      columns.size() > storage::BTreeIndex::kMaxKeyColumns) {
    return Status::InvalidArgument(
        "an index needs 1 to " +
        std::to_string(storage::BTreeIndex::kMaxKeyColumns) + " columns");
  }
  for (size_t c : columns) {
    if (c >= schema_.size()) {
      return Status::InvalidArgument("index column out of range");
    }
    if (schema_.at(c).type.kind() != TypeKind::kInteger) {
      return Status::InvalidArgument(
          "index column " + schema_.at(c).name +
          " must be INTEGER (tile coordinates); got " +
          schema_.at(c).type.ToString());
    }
  }
  auto idx = std::make_unique<IndexDef>();
  idx->name = name;
  idx->columns = columns;
  RADB_RETURN_NOT_OK(BuildIndex(*idx));
  indexes_.push_back(std::move(idx));
  BumpVersion();
  return Status::OK();
}

Status Table::DropIndex(const std::string& name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if ((*it)->name == name) {
      if ((*it)->on_disk) dead_records_.push_back((*it)->record);
      indexes_.erase(it);
      BumpVersion();
      return Status::OK();
    }
  }
  return Status::CatalogError("index " + name + " does not exist on " +
                              name_);
}

IndexDef* Table::FindIndex(const std::string& name) {
  for (auto& idx : indexes_) {
    if (idx->name == name) return idx.get();
  }
  return nullptr;
}

Status Table::RebuildIndexes() {
  for (auto& idx : indexes_) {
    idx->degraded = false;
    if (idx->on_disk) {
      dead_records_.push_back(idx->record);
      idx->on_disk = false;
    }
    RADB_RETURN_NOT_OK(BuildIndex(*idx));
  }
  return Status::OK();
}

// -- Persistence -----------------------------------------------------

void Table::AttachStore(storage::BufferPool* pool, storage::PageFile* file,
                        size_t segment_bytes) {
  pool_ = pool;
  file_ = file;
  if (segment_bytes > 0) segment_bytes_ = segment_bytes;
}

Result<storage::BufferPool::LoadedSegment> Table::LoadSegment(
    std::string_view record) const {
  storage::BufferPool::LoadedSegment loaded;
  RADB_ASSIGN_OR_RETURN(loaded.batch, DecodeSegment(record, schema_));
  loaded.charge = record.size();
  return loaded;
}

Result<std::vector<Table::PartitionManifest>> Table::CheckpointSegments() {
  if (file_ == nullptr) {
    return Status::Internal("CheckpointSegments on in-memory table " + name_);
  }
  // Reclaim records superseded since the last checkpoint (repartition,
  // dropped/rewritten indexes). The pager parks the pages in its
  // pending-free list until the snapshot commits.
  for (const storage::RecordId& rid : dead_records_) {
    RADB_RETURN_NOT_OK(file_->FreeRecord(rid));
  }
  dead_records_.clear();
  std::vector<PartitionManifest> out(parts_.size());
  for (size_t p = 0; p < parts_.size(); ++p) {
    // The tail must be durable too — the WAL resets after a
    // checkpoint — so seal it regardless of size.
    SealTail(p);
    PartitionManifest& pm = out[p];
    for (size_t si = 0; si < parts_[p].sealed.size(); ++si) {
      Segment& s = parts_[p].sealed[si];
      if (!s.on_disk) {
        const std::string bytes = EncodeSegment(*s.resident);
        RADB_ASSIGN_OR_RETURN(s.record, file_->AppendRecord(bytes));
        s.on_disk = true;
        if (pool_ != nullptr) {
          // The batch stops being dirty weight and becomes a clean,
          // evictable cache entry, charged at its record's size as a
          // later miss would load it, so the working set stays warm
          // across a checkpoint.
          pool_->Discharge(s.payload_bytes);
          storage::BufferPool::Key key;
          key.table = id_;
          key.partition = static_cast<uint32_t>(p);
          key.segment = static_cast<uint32_t>(si);
          storage::BufferPool::LoadedSegment loaded;
          loaded.batch = std::move(s.resident);
          loaded.charge = bytes.size();
          auto primed = pool_->GetOrLoad(
              key, [&loaded]() -> Result<storage::BufferPool::LoadedSegment> {
                return std::move(loaded);
              });
          if (!primed.ok()) return primed.status();
        }
      }
      SegmentManifest sm;
      sm.record = s.record;
      sm.num_rows = s.num_rows;
      sm.payload_bytes = s.payload_bytes;
      pm.segments.push_back(sm);
    }
  }
  return out;
}

Result<std::vector<Table::IndexManifest>> Table::CheckpointIndexes() {
  if (file_ == nullptr) {
    return Status::Internal("CheckpointIndexes on in-memory table " + name_);
  }
  std::vector<IndexManifest> out;
  for (auto& idx : indexes_) {
    if (idx->dirty) {
      if (idx->on_disk) {
        RADB_RETURN_NOT_OK(file_->FreeRecord(idx->record));
        idx->on_disk = false;
      }
      const std::string blob = idx->tree->Serialize();
      RADB_ASSIGN_OR_RETURN(idx->record, file_->AppendRecord(blob));
      idx->on_disk = true;
      idx->dirty = false;
    }
    IndexManifest m;
    m.name = idx->name;
    m.columns = idx->columns;
    m.degraded = idx->degraded;
    m.record = idx->record;
    out.push_back(std::move(m));
  }
  return out;
}

Status Table::RestorePartition(size_t partition,
                               const PartitionManifest& manifest) {
  if (partition >= parts_.size()) {
    return Status::Internal("restore partition out of range in " + name_);
  }
  PartitionData& p = parts_[partition];
  if (!p.sealed.empty() || p.tail.num_rows > 0) {
    return Status::Internal("restore into non-empty partition of " + name_);
  }
  uint64_t base = 0;
  for (const SegmentManifest& sm : manifest.segments) {
    Segment s;
    s.record = sm.record;
    s.on_disk = true;
    s.num_rows = sm.num_rows;
    s.payload_bytes = sm.payload_bytes;
    s.ordinal_base = base;
    base += sm.num_rows;
    p.sealed.push_back(std::move(s));
  }
  p.tail_base = base;
  return Status::OK();
}

Status Table::RestoreIndex(const IndexManifest& manifest) {
  if (file_ == nullptr) {
    return Status::Internal("RestoreIndex on in-memory table " + name_);
  }
  RADB_ASSIGN_OR_RETURN(std::string blob, file_->ReadRecord(manifest.record));
  RADB_ASSIGN_OR_RETURN(std::unique_ptr<storage::BTreeIndex> tree,
                        storage::BTreeIndex::Deserialize(blob));
  auto idx = std::make_unique<IndexDef>();
  idx->name = manifest.name;
  idx->columns = manifest.columns;
  idx->tree = std::move(tree);
  idx->degraded = manifest.degraded;
  idx->record = manifest.record;
  idx->on_disk = true;
  idx->dirty = false;
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

}  // namespace radb
