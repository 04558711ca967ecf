#ifndef RADB_STORAGE_TABLE_H_
#define RADB_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "types/column.h"
#include "types/schema.h"
#include "types/value.h"

namespace radb {

/// A batch of rows; the unit every physical operator consumes and
/// produces per partition.
using RowSet = std::vector<Row>;

/// How a table's rows are laid out across the simulated cluster. The
/// optimizer uses this to elide shuffles (paper §2.1: "R was already
/// partitioned on the join key").
struct Partitioning {
  enum class Kind { kRoundRobin, kHash, kSingleton };
  Kind kind = Kind::kRoundRobin;
  /// Column index the hash partitioning is on (kind == kHash only).
  size_t hash_column = 0;

  bool IsHashOn(size_t col) const {
    return kind == Kind::kHash && hash_column == col;
  }
};

/// A secondary B+ tree index over one or two INTEGER columns of a
/// table (the tile-coordinate pattern), mapping key -> Rid. `degraded`
/// flips when a non-NULL, non-INTEGER value lands in an indexed
/// column: the tree can no longer answer range predicates faithfully,
/// so the optimizer stops using it (the table stays fully correct —
/// scans never depended on it), and a build leaves its tree empty.
/// NULLs are simply absent from the tree, which is safe because every
/// predicate the optimizer rewrites into an index probe is false on
/// NULL.
struct IndexDef {
  std::string name;
  std::vector<size_t> columns;
  std::unique_ptr<storage::BTreeIndex> tree;
  bool degraded = false;
  /// Persistence state (persistent tables only): where the last
  /// checkpointed image lives, and whether the tree mutated since.
  storage::RecordId record;
  bool on_disk = false;
  bool dirty = true;

  bool usable() const { return !degraded; }
};

/// A stored base table: schema plus rows horizontally partitioned into
/// `num_partitions` shards (one per simulated worker).
///
/// Within a partition, rows live in insertion order as a sequence of
/// SEGMENTS — sealed, immutable runs bounded by `segment_bytes` — plus
/// one open TAIL receiving inserts. A row's stable address is its Rid
/// (partition, ordinal): ordinals never move once assigned, so B+ tree
/// entries stay valid across seals and checkpoints; only
/// RepartitionByHash reassigns them, and that rebuilds every index.
///
/// Every segment is a ColumnBatch from the insert on: the open tail
/// appends each row into its lanes (the segment lane rule of
/// AppendSegmentRow: typed while a column is kind-pure in the segment,
/// a Value lane from its first cell of another kind), and sealing
/// moves that batch into the segment list.
///
/// Residency: an in-memory table keeps every segment resident. A table
/// attached to a persistent store (AttachStore) keeps a sealed segment
/// resident until a checkpoint writes it, then hands its batch to the
/// BufferPool, which serves it from then on — PinSegment faults it back
/// in from the table's page file after an eviction — so the table can
/// be far larger than RAM. Readers hold SegmentPins for exactly the
/// segment they are walking. Mutation and reads are separated by the
/// service's catalog latch, as before.
class Table {
 public:
  static constexpr size_t kDefaultSegmentBytes = 64 * 1024;

  Table(std::string name, Schema schema, size_t num_partitions);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_partitions() const { return parts_.size(); }

  /// Process-unique table identity, assigned at construction. A
  /// DROP + re-CREATE under the same name yields a different id, so
  /// cached results keyed on (id, version) can never alias across
  /// table generations even if the data versions happen to coincide.
  uint64_t id() const { return id_; }
  /// Monotone data version, advanced by every mutation (Insert,
  /// InsertAll, RepartitionByHash). The result cache validates its
  /// source-table dependencies against this.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  const Partitioning& partitioning() const { return partitioning_; }

  size_t num_rows() const;
  /// Approximate payload bytes across all partitions (maintained as
  /// metadata so it never faults segments in).
  size_t byte_size() const;

  /// Appends a row, validating arity and (known) types/dims against
  /// the schema; placed round-robin.
  Status Insert(Row row);
  /// Bulk append with round-robin placement. Every row is validated
  /// before any is placed, so a failing call inserts nothing.
  Status InsertAll(std::vector<Row> rows);
  /// InsertAll's validation alone, for a caller that logs the rows
  /// between validating and placing them: the first row's refusal.
  Status ValidateRows(const std::vector<Row>& rows) const;
  /// InsertAll without its validation, for rows ValidateRows passed.
  void InsertValidated(std::vector<Row> rows);

  /// Re-shards all rows by hash of `column`; updates partitioning
  /// metadata and rebuilds every index (ordinals change). Used by
  /// tests and by the loader.
  Status RepartitionByHash(size_t column);

  // -- Segment access ------------------------------------------------

  /// A pinned, immutable view of one segment's batch, valid until
  /// destroyed: a sealed resident segment's (shared with the segment),
  /// a checkpointed segment's (held by a buffer-pool pin), or the open
  /// tail itself. The batch scan copies its lanes; whole-row readers
  /// (FetchRow, GatherPartition) copy rows out through RowAt.
  class SegmentPin {
   public:
    SegmentPin() = default;
    size_t num_rows() const { return batch_->num_rows; }
    /// A copy of one whole row.
    Row RowAt(size_t row) const;
    const ColumnBatch& batch() const { return *batch_; }
    /// Ordinal of the segment's first row within its partition.
    uint64_t ordinal_base() const { return base_; }
    explicit operator bool() const { return batch_ != nullptr; }

   private:
    friend class Table;
    const ColumnBatch* batch_ = nullptr;
    uint64_t base_ = 0;
    std::shared_ptr<const ColumnBatch> owned_;
    storage::BufferPool::Pin pool_pin_;
  };

  /// Sealed segments plus the open tail when non-empty: segment ids
  /// [0, NumSegments(p)) are pinnable, in partition insertion order.
  size_t NumSegments(size_t partition) const;
  Result<SegmentPin> PinSegment(size_t partition, size_t segment) const;

  /// Maps a row ordinal to (segment, offset within segment).
  struct RowLocation {
    uint32_t segment = 0;
    size_t offset = 0;
  };
  Result<RowLocation> LocateRow(uint32_t partition, uint64_t ordinal) const;
  /// Pins the containing segment and copies out one row.
  Result<Row> FetchRow(storage::Rid rid) const;

  /// All rows gathered into one RowSet, partitions in order
  /// (test/inspection helper; faults everything in).
  Result<RowSet> Gather() const;
  /// One partition's rows in insertion order.
  Result<RowSet> GatherPartition(size_t partition) const;

  // -- Indexes -------------------------------------------------------

  /// Builds a B+ tree over `columns` (1..2 INTEGER columns) from the
  /// current contents; subsequent inserts maintain it.
  Status CreateIndex(const std::string& name,
                     const std::vector<size_t>& columns);
  Status DropIndex(const std::string& name);
  const std::vector<std::unique_ptr<IndexDef>>& indexes() const {
    return indexes_;
  }
  IndexDef* FindIndex(const std::string& name);
  /// First usable index whose column list starts with a permutation-
  /// free prefix match of lookup needs is chosen by the optimizer; the
  /// table only exposes the definitions.

  /// True when every non-NULL value currently stored in `column` has
  /// the column's declared type kind. ValidateRow legally admits
  /// INTEGER values into DOUBLE columns (and integral DOUBLEs into
  /// INTEGER columns), and SQL semantics follow the *runtime* kind —
  /// so only a kind-pure column is scanned into a typed batch lane.
  /// Inserts maintain these flags incrementally.
  bool ColumnKindPure(size_t column) const {
    return kind_pure_[column] != 0;
  }


  // -- Persistence hooks (driven by storage::TableStore) -------------

  /// Attaches this table to a persistent store: checkpointed segments
  /// are served through `pool` from `file`. `segment_bytes` overrides
  /// the seal threshold.
  void AttachStore(storage::BufferPool* pool, storage::PageFile* file,
                   size_t segment_bytes);
  bool persistent() const { return file_ != nullptr; }

  /// Serialized form of one sealed segment's location, for the
  /// catalog snapshot.
  struct SegmentManifest {
    storage::RecordId record;
    uint64_t num_rows = 0;
    uint64_t payload_bytes = 0;
  };
  struct PartitionManifest {
    std::vector<SegmentManifest> segments;
  };
  struct IndexManifest {
    std::string name;
    std::vector<size_t> columns;
    bool degraded = false;
    storage::RecordId record;
  };

  /// Seals open tails, writes every not-yet-persisted segment and
  /// every dirty index image into the table's page file, frees
  /// records replaced since the last checkpoint, and returns the
  /// manifest describing the persisted state. Each freshly written
  /// segment's batch, encoded from its lanes, is handed to the buffer
  /// pool as a clean (evictable) entry: nothing is decoded.
  Result<std::vector<PartitionManifest>> CheckpointSegments();
  Result<std::vector<IndexManifest>> CheckpointIndexes();

  /// Restores a partition's sealed segments from a snapshot manifest
  /// (recovery path; table must be empty and attached).
  Status RestorePartition(size_t partition,
                          const PartitionManifest& manifest);
  /// Restores an index from its checkpoint image (recovery path).
  Status RestoreIndex(const IndexManifest& manifest);

  /// Round-robin cursor, persisted so replayed/recovered inserts land
  /// in the same partitions as the original run.
  uint64_t next_rr() const { return next_rr_; }
  void set_next_rr(uint64_t v) { next_rr_ = v; }
  const std::vector<uint8_t>& kind_pure_flags() const { return kind_pure_; }
  void set_kind_pure_flags(std::vector<uint8_t> flags) {
    if (flags.size() == kind_pure_.size()) kind_pure_ = std::move(flags);
  }
  void set_partitioning(const Partitioning& p) { partitioning_ = p; }

 private:
  /// One sealed, immutable run of rows. `resident` holds its batch
  /// while the segment has not been checkpointed (or the table is
  /// in-memory); checkpointed segments drop `resident` and are served
  /// through the buffer pool keyed (table id, partition, index).
  struct Segment {
    std::shared_ptr<const ColumnBatch> resident;
    storage::RecordId record;
    bool on_disk = false;
    uint64_t num_rows = 0;
    uint64_t payload_bytes = 0;
    uint64_t ordinal_base = 0;
  };
  struct PartitionData {
    std::vector<Segment> sealed;
    ColumnBatch tail;  // a segment batch (AppendSegmentRow)
    uint64_t tail_base = 0;   // ordinal of the first tail row
    size_t tail_bytes = 0;    // approx payload bytes in the tail
  };

  Status ValidateRow(const Row& row) const;
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }
  /// Places a validated row round-robin: kind flags, indexes, tail.
  void Append(const Row& row);
  void PlaceRow(const Row& row, size_t partition);
  void SealTail(size_t partition);
  /// Adds `rid` to every index under the row's key.
  void IndexRow(const Row& row, storage::Rid rid);
  /// Rebuilds `idx` bottom-up from the stored rows' key lanes.
  Status BuildIndex(IndexDef& idx);
  Status RebuildIndexes();
  /// A buffer-pool entry for segment record `record`: its decoded
  /// batch, charged at the record's size.
  Result<storage::BufferPool::LoadedSegment> LoadSegment(
      std::string_view record) const;

  uint64_t id_;
  std::atomic<uint64_t> version_{1};
  std::string name_;
  Schema schema_;
  std::vector<PartitionData> parts_;
  Partitioning partitioning_;
  uint64_t next_rr_ = 0;
  /// Per column: 1 while every stored non-NULL value matches the
  /// declared kind (see ColumnKindPure).
  std::vector<uint8_t> kind_pure_;

  std::vector<std::unique_ptr<IndexDef>> indexes_;

  // Persistence attachment (null for in-memory tables).
  storage::BufferPool* pool_ = nullptr;
  storage::PageFile* file_ = nullptr;
  size_t segment_bytes_ = kDefaultSegmentBytes;
  /// Records superseded since the last checkpoint (repartition, index
  /// rewrite); freed during the next checkpoint.
  std::vector<storage::RecordId> dead_records_;
};

}  // namespace radb

#endif  // RADB_STORAGE_TABLE_H_
