#include "storage/table_store.h"

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "storage/serialize.h"

namespace radb::storage {

namespace {

constexpr char kSnapshotMagic[8] = {'R', 'A', 'D', 'B', 'C', 'A', 'T', '1'};
constexpr char kWalMagic[8] = {'R', 'A', 'D', 'B', 'W', 'A', 'L', '1'};
constexpr size_t kWalHeaderSize = 16;  // magic + u64 epoch

enum WalOp : uint8_t {
  kOpCreateTable = 1,
  kOpDropTable = 2,
  kOpCreateView = 3,
  kOpDropView = 4,
  kOpInsert = 5,
  kOpCreateIndex = 6,
  kOpDropIndex = 7,
  kOpRepartition = 8,
};

Status WriteFull(int fd, const char* data, size_t len,
                 const std::string& what) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::ExecutionError(what + ": " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Process-wide temp-name sequence (mirrors the spill-file scheme so
/// the shared orphan sweeper can reason about both).
std::atomic<uint64_t> g_tmp_seq{0};

void WriteSchema(std::ostream& os, const Schema& schema) {
  WriteU64(os, schema.size());
  for (const Column& c : schema.columns()) {
    WriteString(os, c.name);
    WriteType(os, c.type);
  }
}

template <class In>
Result<Schema> ReadSchema(In& is) {
  RADB_ASSIGN_OR_RETURN(uint64_t ncols, ReadU64(is));
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint64_t i = 0; i < ncols; ++i) {
    Column c;
    RADB_ASSIGN_OR_RETURN(c.name, ReadString(is));
    RADB_ASSIGN_OR_RETURN(c.type, ReadType(is));
    cols.push_back(std::move(c));
  }
  return Schema(std::move(cols));
}

}  // namespace

uint32_t Crc32(const char* data, size_t len) {
  // Slicing-by-8: table k advances a byte's contribution through k
  // further zero bytes, so eight table lookups fold eight input bytes
  // per step. The loads below assume a little-endian host, as the
  // on-disk formats do.
  static_assert(std::endian::native == std::endian::little);
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^
          tables[5][(lo >> 16) & 0xFF] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = tables[0][(crc ^ static_cast<uint8_t>(*data)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TableStore::~TableStore() {
  if (!closed_) {
    Close().ok();  // best effort; Database::Close reports errors
  }
}

std::string TableStore::PageFilePath(uint64_t file_id) const {
  return dir_ + "/t" + std::to_string(file_id) + ".radb";
}

std::string TableStore::TempPath(const std::string& kind) const {
  return dir_ + "/radb-tmp-" + kind + "-p" + std::to_string(::getpid()) +
         "-" + std::to_string(g_tmp_seq.fetch_add(1));
}

Status TableStore::AcquireLock() {
  const std::string path = dir_ + "/radb.lock";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::ExecutionError("cannot open lock file " + path + ": " +
                                  std::strerror(errno));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return Status::InvalidArgument(
        "data directory " + dir_ +
        " is already open in another process (radb.lock is held)");
  }
  lock_fd_ = fd;
  return Status::OK();
}

Status TableStore::SyncDir() const {
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::ExecutionError("cannot open data dir " + dir_ + ": " +
                                  std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::ExecutionError("fsync of data dir " + dir_ +
                                  " failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Result<std::unique_ptr<TableStore>> TableStore::Open(const Options& options,
                                                     Catalog* catalog) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("TableStore needs a data_dir");
  }
  if (::mkdir(options.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::ExecutionError("cannot create data dir " +
                                  options.data_dir + ": " +
                                  std::strerror(errno));
  }
  std::unique_ptr<TableStore> store(new TableStore());
  store->dir_ = options.data_dir;
  store->options_ = options;
  store->catalog_ = catalog;
  store->pool_ = std::make_unique<BufferPool>(options.buffer_pool_bytes,
                                              options.metrics);
  if (options.metrics != nullptr) {
    store->wal_records_metric_ = options.metrics->counter("storage.wal_records");
    store->checkpoint_metric_ = options.metrics->counter("storage.checkpoints");
    store->wal_bytes_gauge_ = options.metrics->gauge("storage.wal_bytes");
  }
  // A crashed process may have left checkpoint temporaries behind;
  // same hygiene predicate as the spill sweeper (pid probe, then age).
  SweepOrphanedStoreFiles(store->dir_, /*max_age_seconds=*/3600);
  RADB_RETURN_NOT_OK(store->AcquireLock());

  const std::string snap_path = store->dir_ + "/radb.cat";
  struct stat st;
  if (::stat(snap_path.c_str(), &st) == 0) {
    RADB_RETURN_NOT_OK(store->LoadSnapshot(snap_path));
    store->recovered_ = true;
  }
  RADB_ASSIGN_OR_RETURN(store->replayed_statements_, store->ReplayWal());
  if (store->recovered_ || store->replayed_statements_ > 0) {
    // Compact immediately: the replayed WAL tail may end in a torn
    // record, and appending after it would corrupt the log.
    RADB_RETURN_NOT_OK(store->Checkpoint());
  } else {
    RADB_RETURN_NOT_OK(store->RotateWal(store->epoch_));
  }
  return store;
}

Status TableStore::Close() {
  if (closed_) return Status::OK();
  Status s = Checkpoint();
  for (auto& [name, stored] : tables_) {
    stored.file->Close();
  }
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);  // releases the flock
    lock_fd_ = -1;
  }
  closed_ = true;
  return s;
}

// -- WAL -------------------------------------------------------------

Status TableStore::RotateWal(uint64_t epoch) {
  const std::string tmp = TempPath("wal");
  {
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::ExecutionError("cannot create WAL " + tmp + ": " +
                                    std::strerror(errno));
    }
    char header[kWalHeaderSize];
    std::memcpy(header, kWalMagic, sizeof(kWalMagic));
    std::memcpy(header + 8, &epoch, sizeof(epoch));
    Status s = WriteFull(fd, header, sizeof(header), "WAL header write");
    if (s.ok() && ::fsync(fd) != 0) {
      s = Status::ExecutionError(std::string("WAL fsync failed: ") +
                                 std::strerror(errno));
    }
    ::close(fd);
    if (!s.ok()) {
      ::unlink(tmp.c_str());
      return s;
    }
  }
  const std::string wal_path = dir_ + "/radb.wal";
  if (::rename(tmp.c_str(), wal_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::ExecutionError("cannot install WAL: " +
                                  std::string(std::strerror(errno)));
  }
  RADB_RETURN_NOT_OK(SyncDir());
  if (wal_fd_ >= 0) ::close(wal_fd_);
  wal_fd_ = ::open(wal_path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (wal_fd_ < 0) {
    return Status::ExecutionError("cannot reopen WAL: " +
                                  std::string(std::strerror(errno)));
  }
  wal_bytes_ = kWalHeaderSize;
  if (wal_bytes_gauge_ != nullptr) {
    wal_bytes_gauge_->Set(static_cast<double>(wal_bytes_));
  }
  return Status::OK();
}

Status TableStore::AppendWalRecord(const std::string& payload) {
  if (closed_ || wal_fd_ < 0) {
    return Status::Internal("WAL is not open (store closed?)");
  }
  std::string frame(8, '\0');
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::memcpy(frame.data(), &len, sizeof(len));
  std::memcpy(frame.data() + 4, &crc, sizeof(crc));
  frame += payload;
  RADB_RETURN_NOT_OK(WriteFull(wal_fd_, frame.data(), frame.size(),
                               "WAL append failed"));
  wal_bytes_ += frame.size();
  if (options_.wal_sync == WalSync::kCommit && ::fsync(wal_fd_) != 0) {
    return Status::ExecutionError(std::string("WAL fsync failed: ") +
                                  std::strerror(errno));
  }
  if (wal_records_metric_ != nullptr) wal_records_metric_->Increment();
  if (wal_bytes_gauge_ != nullptr) {
    wal_bytes_gauge_->Set(static_cast<double>(wal_bytes_));
  }
  return Status::OK();
}

Status TableStore::LogCreateTable(const std::string& name,
                                  const Schema& schema) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpCreateTable));
  WriteString(os, name);
  WriteSchema(os, schema);
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                        catalog_->GetTable(name));
  WriteU64(os, table->num_partitions());
  return AppendWalRecord(os.str());
}

Status TableStore::LogDropTable(const std::string& name) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpDropTable));
  WriteString(os, name);
  return AppendWalRecord(os.str());
}

Status TableStore::LogCreateView(const ViewEntry& view) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpCreateView));
  WriteString(os, view.name);
  WriteU64(os, view.column_aliases.size());
  for (const std::string& a : view.column_aliases) WriteString(os, a);
  WriteString(os, view.select_sql);
  return AppendWalRecord(os.str());
}

Status TableStore::LogDropView(const std::string& name) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpDropView));
  WriteString(os, name);
  return AppendWalRecord(os.str());
}

Status TableStore::LogInsert(const std::string& table,
                             const std::vector<Row>& rows) {
  // A table that was never attached (created behind the store's back,
  // e.g. via the raw catalog) would replay into nothing — fail the
  // insert now instead of silently losing it at recovery.
  if (tables_.find(table) == tables_.end()) {
    return Status::Internal("table " + table +
                            " is not attached to the persistent store");
  }
  size_t bytes = 1 + 8 + table.size() + 8;
  for (const Row& r : rows) bytes += 8 + RowByteSize(r);
  std::string payload;
  payload.reserve(bytes);
  payload.push_back(static_cast<char>(kOpInsert));
  AppendString(payload, table);
  AppendU64(payload, rows.size());
  for (const Row& r : rows) AppendRowBinary(payload, r);
  return AppendWalRecord(payload);
}

Status TableStore::LogCreateIndex(const std::string& table,
                                  const std::string& index,
                                  const std::vector<size_t>& columns) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpCreateIndex));
  WriteString(os, table);
  WriteString(os, index);
  WriteU64(os, columns.size());
  for (size_t c : columns) WriteU64(os, c);
  return AppendWalRecord(os.str());
}

Status TableStore::LogDropIndex(const std::string& index) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpDropIndex));
  WriteString(os, index);
  return AppendWalRecord(os.str());
}

Status TableStore::LogRepartition(const std::string& table, size_t column) {
  std::ostringstream os;
  os.put(static_cast<char>(kOpRepartition));
  WriteString(os, table);
  WriteU64(os, column);
  return AppendWalRecord(os.str());
}

// -- Table lifecycle -------------------------------------------------

Status TableStore::AttachNewTable(const std::shared_ptr<Table>& table) {
  const uint64_t file_id = next_file_id_++;
  auto file = std::make_unique<PageFile>();
  RADB_RETURN_NOT_OK(file->Open(PageFilePath(file_id), options_.page_size));
  table->AttachStore(pool_.get(), file.get(), options_.segment_bytes);
  StoredTable stored;
  stored.table = table;
  stored.file = std::move(file);
  stored.file_id = file_id;
  tables_[table->name()] = std::move(stored);
  return Status::OK();
}

Status TableStore::DetachTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::OK();  // never attached
  const std::string path = it->second.file->path();
  pool_->EraseTable(it->second.table->id());
  it->second.file->Close();
  ::unlink(path.c_str());
  tables_.erase(it);
  return Status::OK();
}

// -- Checkpoint ------------------------------------------------------

Status TableStore::Checkpoint() {
  if (closed_) return Status::Internal("store is closed");
  ++epoch_;
  RADB_RETURN_NOT_OK(WriteSnapshot());
  // Only now may pages freed since the last snapshot be reused: the
  // old snapshot (which referenced them) is gone.
  for (auto& [name, stored] : tables_) stored.file->CommitFrees();
  RADB_RETURN_NOT_OK(RotateWal(epoch_));
  ++checkpoints_;
  if (checkpoint_metric_ != nullptr) checkpoint_metric_->Increment();
  return Status::OK();
}

Status TableStore::MaybeAutoCheckpoint() {
  if (options_.wal_auto_checkpoint_bytes == 0 ||
      wal_bytes_ < options_.wal_auto_checkpoint_bytes) {
    return Status::OK();
  }
  return Checkpoint();
}

Status TableStore::WriteSnapshot() {
  std::ostringstream os;
  os.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  WriteU64(os, epoch_);
  WriteU64(os, next_file_id_);
  WriteU64(os, tables_.size());
  for (auto& [name, stored] : tables_) {
    Table& t = *stored.table;
    WriteString(os, name);
    WriteU64(os, stored.file_id);
    WriteSchema(os, t.schema());
    WriteU64(os, static_cast<uint64_t>(t.partitioning().kind));
    WriteU64(os, t.partitioning().hash_column);
    WriteU64(os, t.next_rr());
    const std::vector<uint8_t>& pure = t.kind_pure_flags();
    WriteString(os, std::string(pure.begin(), pure.end()));
    // Flush: seals tails, writes every unwritten segment and dirty
    // index image into the table's page file, and returns the
    // manifests describing the persisted state.
    RADB_ASSIGN_OR_RETURN(auto parts, t.CheckpointSegments());
    WriteU64(os, parts.size());
    for (const Table::PartitionManifest& pm : parts) {
      WriteU64(os, pm.segments.size());
      for (const Table::SegmentManifest& sm : pm.segments) {
        WriteU64(os, sm.record.page);
        WriteU64(os, sm.record.slot);
        WriteU64(os, sm.num_rows);
        WriteU64(os, sm.payload_bytes);
      }
    }
    RADB_ASSIGN_OR_RETURN(auto idxs, t.CheckpointIndexes());
    WriteU64(os, idxs.size());
    for (const Table::IndexManifest& im : idxs) {
      WriteString(os, im.name);
      WriteU64(os, im.columns.size());
      for (size_t c : im.columns) WriteU64(os, c);
      WriteU64(os, im.degraded ? 1 : 0);
      WriteU64(os, im.record.page);
      WriteU64(os, im.record.slot);
    }
    // Page contents must be durable before the snapshot that
    // references them renames into place.
    RADB_RETURN_NOT_OK(stored.file->Sync());
    const PageFile::Meta meta = stored.file->SnapshotMeta();
    WriteU64(os, meta.page_count);
    WriteU64(os, meta.free_pages.size());
    for (uint32_t p : meta.free_pages) WriteU64(os, p);
  }
  const auto view_names = catalog_->ViewNames();
  WriteU64(os, view_names.size());
  for (const std::string& vn : view_names) {
    RADB_ASSIGN_OR_RETURN(const ViewEntry* v, catalog_->GetView(vn));
    WriteString(os, v->name);
    WriteU64(os, v->column_aliases.size());
    for (const std::string& a : v->column_aliases) WriteString(os, a);
    WriteString(os, v->select_sql);
  }

  std::string payload = os.str();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  payload.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  const std::string tmp = TempPath("cat");
  {
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::ExecutionError("cannot create snapshot " + tmp + ": " +
                                    std::strerror(errno));
    }
    Status s =
        WriteFull(fd, payload.data(), payload.size(), "snapshot write");
    if (s.ok() && ::fsync(fd) != 0) {
      s = Status::ExecutionError(std::string("snapshot fsync failed: ") +
                                 std::strerror(errno));
    }
    ::close(fd);
    if (!s.ok()) {
      ::unlink(tmp.c_str());
      return s;
    }
  }
  const std::string snap_path = dir_ + "/radb.cat";
  if (::rename(tmp.c_str(), snap_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::ExecutionError("cannot install snapshot: " +
                                  std::string(std::strerror(errno)));
  }
  return SyncDir();
}

Status TableStore::LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::ExecutionError("cannot read snapshot " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  if (bytes.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::Internal("not a radb catalog snapshot: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::Internal("catalog snapshot failed its CRC check: " + path);
  }
  std::istringstream is(bytes.substr(sizeof(kSnapshotMagic),
                                     bytes.size() - sizeof(kSnapshotMagic) -
                                         4));
  RADB_ASSIGN_OR_RETURN(epoch_, ReadU64(is));
  RADB_ASSIGN_OR_RETURN(next_file_id_, ReadU64(is));
  RADB_ASSIGN_OR_RETURN(uint64_t ntables, ReadU64(is));
  for (uint64_t i = 0; i < ntables; ++i) {
    RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
    RADB_ASSIGN_OR_RETURN(uint64_t file_id, ReadU64(is));
    RADB_ASSIGN_OR_RETURN(Schema schema, ReadSchema(is));
    RADB_ASSIGN_OR_RETURN(uint64_t part_kind, ReadU64(is));
    RADB_ASSIGN_OR_RETURN(uint64_t hash_col, ReadU64(is));
    RADB_ASSIGN_OR_RETURN(uint64_t next_rr, ReadU64(is));
    RADB_ASSIGN_OR_RETURN(std::string pure, ReadString(is));
    RADB_ASSIGN_OR_RETURN(uint64_t nparts, ReadU64(is));

    RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                          catalog_->CreateTable(name, schema, nparts));
    Partitioning part;
    part.kind = static_cast<Partitioning::Kind>(part_kind);
    part.hash_column = hash_col;
    table->set_partitioning(part);
    table->set_next_rr(next_rr);
    table->set_kind_pure_flags(
        std::vector<uint8_t>(pure.begin(), pure.end()));

    auto file = std::make_unique<PageFile>();
    RADB_RETURN_NOT_OK(
        file->Open(PageFilePath(file_id), options_.page_size));
    table->AttachStore(pool_.get(), file.get(), options_.segment_bytes);

    for (uint64_t p = 0; p < nparts; ++p) {
      RADB_ASSIGN_OR_RETURN(uint64_t nsegs, ReadU64(is));
      Table::PartitionManifest pm;
      for (uint64_t s = 0; s < nsegs; ++s) {
        Table::SegmentManifest sm;
        RADB_ASSIGN_OR_RETURN(uint64_t page, ReadU64(is));
        RADB_ASSIGN_OR_RETURN(uint64_t slot, ReadU64(is));
        sm.record.page = static_cast<uint32_t>(page);
        sm.record.slot = static_cast<uint16_t>(slot);
        RADB_ASSIGN_OR_RETURN(sm.num_rows, ReadU64(is));
        RADB_ASSIGN_OR_RETURN(sm.payload_bytes, ReadU64(is));
        pm.segments.push_back(sm);
      }
      RADB_RETURN_NOT_OK(table->RestorePartition(p, pm));
    }

    RADB_ASSIGN_OR_RETURN(uint64_t nidx, ReadU64(is));
    std::vector<Table::IndexManifest> index_manifests;
    for (uint64_t x = 0; x < nidx; ++x) {
      Table::IndexManifest im;
      RADB_ASSIGN_OR_RETURN(im.name, ReadString(is));
      RADB_ASSIGN_OR_RETURN(uint64_t ncols, ReadU64(is));
      for (uint64_t c = 0; c < ncols; ++c) {
        RADB_ASSIGN_OR_RETURN(uint64_t col, ReadU64(is));
        im.columns.push_back(static_cast<size_t>(col));
      }
      RADB_ASSIGN_OR_RETURN(uint64_t degraded, ReadU64(is));
      im.degraded = degraded != 0;
      RADB_ASSIGN_OR_RETURN(uint64_t page, ReadU64(is));
      RADB_ASSIGN_OR_RETURN(uint64_t slot, ReadU64(is));
      im.record.page = static_cast<uint32_t>(page);
      im.record.slot = static_cast<uint16_t>(slot);
      index_manifests.push_back(std::move(im));
    }

    PageFile::Meta meta;
    RADB_ASSIGN_OR_RETURN(meta.page_count, ReadU64(is));
    RADB_ASSIGN_OR_RETURN(uint64_t nfree, ReadU64(is));
    for (uint64_t f = 0; f < nfree; ++f) {
      RADB_ASSIGN_OR_RETURN(uint64_t pg, ReadU64(is));
      meta.free_pages.push_back(static_cast<uint32_t>(pg));
    }
    RADB_RETURN_NOT_OK(file->RestoreMeta(meta));

    // Indexes load eagerly (charged to the pool as unevictable weight
    // through their trees' footprint being outside the cache).
    for (const Table::IndexManifest& im : index_manifests) {
      RADB_RETURN_NOT_OK(table->RestoreIndex(im));
      catalog_->RestoreIndexOwner(im.name, name);
    }

    StoredTable stored;
    stored.table = table;
    stored.file = std::move(file);
    stored.file_id = file_id;
    tables_[name] = std::move(stored);
  }

  RADB_ASSIGN_OR_RETURN(uint64_t nviews, ReadU64(is));
  for (uint64_t v = 0; v < nviews; ++v) {
    ViewEntry view;
    RADB_ASSIGN_OR_RETURN(view.name, ReadString(is));
    RADB_ASSIGN_OR_RETURN(uint64_t naliases, ReadU64(is));
    for (uint64_t a = 0; a < naliases; ++a) {
      RADB_ASSIGN_OR_RETURN(std::string alias, ReadString(is));
      view.column_aliases.push_back(std::move(alias));
    }
    RADB_ASSIGN_OR_RETURN(view.select_sql, ReadString(is));
    RADB_RETURN_NOT_OK(catalog_->CreateView(std::move(view)));
  }
  return Status::OK();
}

// -- WAL replay ------------------------------------------------------

Result<uint64_t> TableStore::ReplayWal() {
  const std::string wal_path = dir_ + "/radb.wal";
  std::ifstream in(wal_path, std::ios::binary);
  if (!in) return static_cast<uint64_t>(0);  // no WAL: nothing to replay
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  if (bytes.size() < kWalHeaderSize ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return static_cast<uint64_t>(0);  // torn header: discard whole log
  }
  uint64_t wal_epoch = 0;
  std::memcpy(&wal_epoch, bytes.data() + 8, sizeof(wal_epoch));
  if (wal_epoch != epoch_) {
    // A log from before (or after a crashed rotation of) the loaded
    // snapshot: its effects are already included. Ignore it.
    return static_cast<uint64_t>(0);
  }
  uint64_t applied = 0;
  size_t off = kWalHeaderSize;
  while (off + 8 <= bytes.size()) {
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, bytes.data() + off, 4);
    std::memcpy(&crc, bytes.data() + off + 4, 4);
    if (off + 8 + len > bytes.size()) break;  // torn tail record
    const char* payload = bytes.data() + off + 8;
    if (Crc32(payload, len) != crc) break;  // corrupt: stop replay here
    RADB_RETURN_NOT_OK(ApplyWalRecord(std::string_view(payload, len)));
    off += 8 + static_cast<size_t>(len);
    ++applied;
  }
  return applied;
}

Status TableStore::ApplyWalRecord(std::string_view payload) {
  if (payload.empty()) return Status::Internal("empty WAL record");
  ByteReader is(payload.substr(1));
  switch (static_cast<WalOp>(static_cast<uint8_t>(payload[0]))) {
    case kOpCreateTable: {
      RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
      RADB_ASSIGN_OR_RETURN(Schema schema, ReadSchema(is));
      RADB_ASSIGN_OR_RETURN(uint64_t nparts, ReadU64(is));
      RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            catalog_->CreateTable(name, std::move(schema),
                                                  nparts));
      return AttachNewTable(table);
    }
    case kOpDropTable: {
      RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
      RADB_RETURN_NOT_OK(catalog_->DropTable(name));
      return DetachTable(name);
    }
    case kOpCreateView: {
      ViewEntry view;
      RADB_ASSIGN_OR_RETURN(view.name, ReadString(is));
      RADB_ASSIGN_OR_RETURN(uint64_t naliases, ReadU64(is));
      for (uint64_t a = 0; a < naliases; ++a) {
        RADB_ASSIGN_OR_RETURN(std::string alias, ReadString(is));
        view.column_aliases.push_back(std::move(alias));
      }
      RADB_ASSIGN_OR_RETURN(view.select_sql, ReadString(is));
      return catalog_->CreateView(std::move(view));
    }
    case kOpDropView: {
      RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
      return catalog_->DropView(name);
    }
    case kOpInsert: {
      RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
      RADB_ASSIGN_OR_RETURN(uint64_t nrows, ReadU64(is));
      // Each row takes at least its 8-byte arity.
      if (nrows > is.remaining() / 8) {
        return Status::InvalidArgument("corrupt WAL insert (row count)");
      }
      std::vector<Row> rows;
      rows.reserve(nrows);
      for (uint64_t r = 0; r < nrows; ++r) {
        RADB_ASSIGN_OR_RETURN(Row row, ReadRowBinary(is));
        rows.push_back(std::move(row));
      }
      RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            catalog_->GetTable(name));
      RADB_RETURN_NOT_OK(table->InsertAll(std::move(rows)));
      catalog_->BumpDataVersion();
      return Status::OK();
    }
    case kOpCreateIndex: {
      RADB_ASSIGN_OR_RETURN(std::string table, ReadString(is));
      RADB_ASSIGN_OR_RETURN(std::string index, ReadString(is));
      RADB_ASSIGN_OR_RETURN(uint64_t ncols, ReadU64(is));
      std::vector<size_t> columns;
      for (uint64_t c = 0; c < ncols; ++c) {
        RADB_ASSIGN_OR_RETURN(uint64_t col, ReadU64(is));
        columns.push_back(static_cast<size_t>(col));
      }
      return catalog_->CreateIndex(table, index, columns);
    }
    case kOpDropIndex: {
      RADB_ASSIGN_OR_RETURN(std::string index, ReadString(is));
      return catalog_->DropIndex(index);
    }
    case kOpRepartition: {
      RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
      RADB_ASSIGN_OR_RETURN(uint64_t column, ReadU64(is));
      RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            catalog_->GetTable(name));
      RADB_RETURN_NOT_OK(
          table->RepartitionByHash(static_cast<size_t>(column)));
      catalog_->BumpDataVersion();
      return Status::OK();
    }
  }
  return Status::Internal("unknown WAL opcode");
}

TableStore::Stats TableStore::GetStats() const {
  Stats s;
  s.wal_bytes = wal_bytes_;
  s.checkpoints = checkpoints_;
  s.replayed_statements = replayed_statements_;
  s.recovered = recovered_;
  s.page_files = tables_.size();
  for (const auto& [name, stored] : tables_) {
    s.total_pages += stored.file->page_count();
    s.free_pages += stored.file->free_page_count();
  }
  return s;
}

}  // namespace radb::storage
