#ifndef RADB_STORAGE_TABLE_STORE_H_
#define RADB_STORAGE_TABLE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "obs/metrics_registry.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/table.h"

namespace radb::storage {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes:
/// the checksum framing each WAL record and trailing the catalog
/// snapshot.
uint32_t Crc32(const char* data, size_t len);

/// The durable half of a persistent Database: one data directory
/// holding a checkpointed catalog snapshot, a logical write-ahead log,
/// and one page file per table, plus the buffer pool that serves
/// checkpointed segments back to queries.
///
/// Layout of the data directory:
///   radb.lock     flock'd for the store's lifetime (single opener)
///   radb.cat      catalog snapshot (magic RADBCAT1, CRC-trailed)
///   radb.wal      logical redo log (magic RADBWAL1 + epoch header)
///   t<id>.radb    one PageFile per table (<id> is the persistent
///                 file id from the snapshot, not the process-unique
///                 Table::id)
///   radb-tmp-*    checkpoint temporaries, renamed into place or
///                 swept at next open (shared hygiene path with the
///                 spill sweeper)
///
/// Durability protocol. Between checkpoints only the WAL grows: every
/// mutating statement appends ONE CRC-framed logical record (CREATE/
/// DROP/INSERT/…) and — with WalSync::kCommit — fsyncs before the
/// statement returns, making each statement atomic and durable.
/// Checkpoint() is the only writer of page files: it seals open
/// tails, writes new segments and dirty index images, fsyncs the page
/// files, writes the snapshot to a temp name, fsyncs, renames over
/// radb.cat, then rotates the WAL to the next epoch. Pages freed
/// during a checkpoint only become reusable after the snapshot
/// renames (the pager's pending-free list), so a crash at ANY point
/// leaves either the old snapshot + old-epoch WAL or the new
/// snapshot, both self-consistent.
///
/// Recovery (Open on an existing directory): load the snapshot
/// (magic + CRC validated), recreate catalog tables/views/indexes and
/// each pager's free-space metadata (truncating page files back to
/// the snapshot's page counts), then replay the WAL if and only if
/// its epoch matches the snapshot's, stopping cleanly at the first
/// torn or corrupt record. A recovery that replayed anything
/// checkpoints immediately, so the WAL tail is never appended after
/// garbage.
class TableStore {
 public:
  enum class WalSync {
    kNone,    // OS decides; a crash may lose recent statements
    kCommit,  // fsync per mutating statement (default)
  };

  struct Options {
    std::string data_dir;
    uint32_t page_size = PageFile::kDefaultPageSize;
    size_t segment_bytes = Table::kDefaultSegmentBytes;
    size_t buffer_pool_bytes = 256ull << 20;
    WalSync wal_sync = WalSync::kCommit;
    /// WAL size that triggers an automatic checkpoint (bounds both
    /// recovery time and unevictable dirty weight in the pool).
    size_t wal_auto_checkpoint_bytes = 64ull << 20;
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Opens (or creates) the store and populates `catalog` with the
  /// recovered state. `catalog` must outlive the store and start
  /// empty of user relations.
  static Result<std::unique_ptr<TableStore>> Open(const Options& options,
                                                  Catalog* catalog);
  ~TableStore();

  TableStore(const TableStore&) = delete;
  TableStore& operator=(const TableStore&) = delete;

  /// Checkpoints and releases the directory lock. Idempotent; called
  /// by Database::Close.
  Status Close();

  /// Writes all dirty state to page files and rotates the WAL (see
  /// class comment).
  Status Checkpoint();
  /// Checkpoint when the WAL has outgrown the configured threshold.
  Status MaybeAutoCheckpoint();

  // -- WAL logging: one call per committed mutating statement -------

  Status LogCreateTable(const std::string& name, const Schema& schema);
  Status LogDropTable(const std::string& name);
  Status LogCreateView(const ViewEntry& view);
  Status LogDropView(const std::string& name);
  Status LogInsert(const std::string& table, const std::vector<Row>& rows);
  Status LogCreateIndex(const std::string& table, const std::string& index,
                        const std::vector<size_t>& columns);
  Status LogDropIndex(const std::string& index);
  Status LogRepartition(const std::string& table, size_t column);

  // -- Table lifecycle hooks (called by the Database after the
  //    corresponding catalog mutation succeeded) --------------------

  /// Creates the page file for a new table and attaches it to the
  /// buffer pool.
  Status AttachNewTable(const std::shared_ptr<Table>& table);
  /// Closes and deletes a dropped table's page file.
  Status DetachTable(const std::string& name);

  BufferPool* pool() { return pool_.get(); }

  struct Stats {
    uint64_t wal_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t replayed_statements = 0;
    bool recovered = false;
    uint64_t page_files = 0;
    uint64_t total_pages = 0;
    uint64_t free_pages = 0;
  };
  Stats GetStats() const;

  const std::string& data_dir() const { return dir_; }

 private:
  struct StoredTable {
    std::shared_ptr<Table> table;
    std::unique_ptr<PageFile> file;
    uint64_t file_id = 0;
  };

  TableStore() = default;

  std::string PageFilePath(uint64_t file_id) const;
  std::string TempPath(const std::string& kind) const;
  Status AcquireLock();
  Status SyncDir() const;

  /// Creates a fresh WAL for `epoch` via temp + rename.
  Status RotateWal(uint64_t epoch);
  Status AppendWalRecord(const std::string& payload);

  Status LoadSnapshot(const std::string& path);
  Status WriteSnapshot();
  /// Replays radb.wal if its epoch matches; returns statements applied.
  Result<uint64_t> ReplayWal();
  Status ApplyWalRecord(std::string_view payload);

  std::string dir_;
  Options options_;
  Catalog* catalog_ = nullptr;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::string, StoredTable> tables_;  // by lowercase name
  uint64_t next_file_id_ = 1;
  uint64_t epoch_ = 0;
  int lock_fd_ = -1;
  int wal_fd_ = -1;
  uint64_t wal_bytes_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t replayed_statements_ = 0;
  bool recovered_ = false;
  bool closed_ = false;

  obs::Counter* wal_records_metric_ = nullptr;
  obs::Counter* checkpoint_metric_ = nullptr;
  obs::Gauge* wal_bytes_gauge_ = nullptr;
};

}  // namespace radb::storage

#endif  // RADB_STORAGE_TABLE_STORE_H_
