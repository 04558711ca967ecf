#ifndef RADB_STORAGE_BTREE_H_
#define RADB_STORAGE_BTREE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace radb::storage {

/// Logical row address inside a stored table: the partition plus the
/// row's stable ordinal within that partition (segments seal in
/// insertion order, so an ordinal never moves once assigned; only
/// RepartitionByHash invalidates rids, and that rebuilds every index).
struct Rid {
  uint32_t partition = 0;
  uint64_t ordinal = 0;

  bool operator==(const Rid& o) const {
    return partition == o.partition && ordinal == o.ordinal;
  }
};

/// B+ tree over composite INTEGER keys (up to two columns — the tile
/// coordinate pattern `(tileRow, tileCol)`), mapping keys to Rids.
/// Duplicate user keys are made unique by an insertion-sequence
/// tiebreaker, so equal-key matches replay in insertion order — the
/// same order a full scan would surface them within a partition walk.
///
/// A tree over stored rows is built bottom-up (Build): the entries are
/// sorted once and packed into full leaves, chained left to right, and
/// then into internal levels. Its checkpoint image is the ordered leaf
/// sequence (Serialize), which Deserialize feeds to the same packing
/// after checking its order. Insert adds the rows that arrive after a
/// build, root to leaf. There is no Delete: this engine has no SQL
/// DELETE, DROP TABLE drops whole indexes, and repartitioning rebuilds
/// them.
///
/// Concurrency: reads are lock-free against other reads; mutation
/// happens only under the service's exclusive catalog latch, matching
/// every other table structure.
class BTreeIndex {
 public:
  static constexpr size_t kMaxKeyColumns = 2;
  static constexpr size_t kFanout = 64;

  /// One index entry: the key (columns past key_len are 0), its
  /// insertion-sequence tiebreaker, and the row it addresses.
  struct Entry {
    std::array<int64_t, kMaxKeyColumns> key;
    uint64_t seq;
    Rid rid;
  };

  explicit BTreeIndex(size_t key_len);
  ~BTreeIndex();

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  size_t key_len() const { return key_len_; }
  size_t size() const { return size_; }
  /// Approximate resident bytes (keys + rids + node overhead), the
  /// buffer-pool charge for a loaded index.
  size_t byte_size() const;

  /// Inserts `key` (key_len ints) -> rid, assigning the next
  /// insertion-sequence tiebreaker.
  void Insert(const int64_t* key, Rid rid);

  /// Builds a tree bottom-up over `runs`. Each run lists its entries in
  /// increasing seq order; seqs are unique across runs and below
  /// `next_seq`, the tiebreaker the next Insert assigns. A run whose
  /// keys are out of order is sorted; runs already in key order (a
  /// table loaded in key order) are not. The runs are then merged in
  /// (key, seq) order straight into full leaves.
  static std::unique_ptr<BTreeIndex> Build(size_t key_len,
                                           std::vector<std::vector<Entry>> runs,
                                           uint64_t next_seq);

  /// Appends every rid whose key lies in [lo, hi] (inclusive, both
  /// full key_len arrays; use INT64_MIN/MAX to leave an end open) in
  /// (key, insertion-seq) order.
  void Range(const int64_t* lo, const int64_t* hi,
             std::vector<Rid>* out) const;

  /// Point lookup: Range with lo == hi.
  void Lookup(const int64_t* key, std::vector<Rid>* out) const {
    Range(key, key, out);
  }

  /// Checkpoint image: key_len, entry count and next_seq, then the
  /// ordered (key, seq, rid) tuples from the leaf chain.
  std::string Serialize() const;
  /// Builds a tree bottom-up from a Serialize image. A header the
  /// entries do not fill exactly, entries that are not strictly
  /// increasing in (key, seq), or a seq at or above the header's
  /// next_seq is InvalidArgument.
  static Result<std::unique_ptr<BTreeIndex>> Deserialize(
      const std::string& bytes);

 private:
  struct Node;
  class Packer;

  int Compare(const Entry& a, const Entry& b) const;
  /// Splits `node` (which just overflowed) and returns the new right
  /// sibling plus the separator entry to push into the parent.
  std::unique_ptr<Node> Split(Node* node, Entry* separator);
  void InsertRec(Node* node, const Entry& e, std::unique_ptr<Node>* new_child,
                 Entry* separator);
  const Node* LeftmostLeafAtLeast(const Entry& lo) const;

  size_t key_len_;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  size_t node_count_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace radb::storage

#endif  // RADB_STORAGE_BTREE_H_
