#include "storage/btree.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "storage/serialize.h"

namespace radb::storage {

/// One node: a leaf holds entries [0, count) and a next-leaf link; an
/// internal node holds count separator entries and count+1 children
/// (children[i] spans keys < entries[i]; children[count] the rest).
struct BTreeIndex::Node {
  bool leaf = true;
  size_t count = 0;
  std::array<Entry, kFanout> entries;
  std::array<std::unique_ptr<Node>, kFanout + 1> children;
  Node* next = nullptr;  // leaf chain (non-owning)
};

BTreeIndex::BTreeIndex(size_t key_len)
    : key_len_(std::min(key_len, kMaxKeyColumns)),
      root_(std::make_unique<Node>()) {
  node_count_ = 1;
}

BTreeIndex::~BTreeIndex() {
  // Deep unique_ptr chains recurse on destruction; trees stay shallow
  // (fanout 64), so the default teardown is fine.
}

size_t BTreeIndex::byte_size() const {
  return node_count_ * sizeof(Node) + sizeof(*this);
}

int BTreeIndex::Compare(const Entry& a, const Entry& b) const {
  for (size_t i = 0; i < key_len_; ++i) {
    if (a.key[i] != b.key[i]) return a.key[i] < b.key[i] ? -1 : 1;
  }
  if (a.seq != b.seq) return a.seq < b.seq ? -1 : 1;
  return 0;
}

void BTreeIndex::Insert(const int64_t* key, Rid rid) {
  Entry e;
  e.key.fill(0);
  std::memcpy(e.key.data(), key, key_len_ * sizeof(int64_t));
  e.seq = next_seq_++;
  e.rid = rid;
  std::unique_ptr<Node> new_child;
  Entry separator;
  InsertRec(root_.get(), e, &new_child, &separator);
  if (new_child != nullptr) {
    // Root split: grow the tree by one level.
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->count = 1;
    new_root->entries[0] = separator;
    new_root->children[0] = std::move(root_);
    new_root->children[1] = std::move(new_child);
    root_ = std::move(new_root);
    ++node_count_;
  }
  ++size_;
}

std::unique_ptr<BTreeIndex::Node> BTreeIndex::Split(Node* node,
                                                    Entry* separator) {
  auto right = std::make_unique<Node>();
  right->leaf = node->leaf;
  const size_t mid = node->count / 2;
  if (node->leaf) {
    // Leaves keep every entry; the separator is copied up.
    for (size_t i = mid; i < node->count; ++i) {
      right->entries[right->count++] = node->entries[i];
    }
    node->count = mid;
    right->next = node->next;
    node->next = right.get();
    *separator = right->entries[0];
  } else {
    // Internal: the middle separator moves up, children split around it.
    *separator = node->entries[mid];
    for (size_t i = mid + 1; i < node->count; ++i) {
      right->entries[right->count++] = node->entries[i];
    }
    for (size_t i = mid + 1; i <= node->count; ++i) {
      right->children[i - (mid + 1)] = std::move(node->children[i]);
    }
    node->count = mid;
  }
  ++node_count_;
  return right;
}

void BTreeIndex::InsertRec(Node* node, const Entry& e,
                           std::unique_ptr<Node>* new_child,
                           Entry* separator) {
  if (node->leaf) {
    // Find insertion point (entries are unique by seq tiebreaker).
    size_t pos = node->count;
    for (size_t i = 0; i < node->count; ++i) {
      if (Compare(e, node->entries[i]) < 0) {
        pos = i;
        break;
      }
    }
    for (size_t i = node->count; i > pos; --i) {
      node->entries[i] = node->entries[i - 1];
    }
    node->entries[pos] = e;
    ++node->count;
  } else {
    size_t child = node->count;
    for (size_t i = 0; i < node->count; ++i) {
      if (Compare(e, node->entries[i]) < 0) {
        child = i;
        break;
      }
    }
    std::unique_ptr<Node> grand_child;
    Entry grand_sep;
    InsertRec(node->children[child].get(), e, &grand_child, &grand_sep);
    if (grand_child != nullptr) {
      for (size_t i = node->count; i > child; --i) {
        node->entries[i] = node->entries[i - 1];
        node->children[i + 1] = std::move(node->children[i]);
      }
      node->entries[child] = grand_sep;
      node->children[child + 1] = std::move(grand_child);
      ++node->count;
    }
  }
  if (node->count >= kFanout) {
    *new_child = Split(node, separator);
  }
}

const BTreeIndex::Node* BTreeIndex::LeftmostLeafAtLeast(
    const Entry& lo) const {
  const Node* node = root_.get();
  while (!node->leaf) {
    size_t child = node->count;
    for (size_t i = 0; i < node->count; ++i) {
      if (Compare(lo, node->entries[i]) < 0) {
        child = i;
        break;
      }
    }
    node = node->children[child].get();
  }
  return node;
}

void BTreeIndex::Range(const int64_t* lo, const int64_t* hi,
                       std::vector<Rid>* out) const {
  Entry lo_e;
  lo_e.key.fill(0);
  std::memcpy(lo_e.key.data(), lo, key_len_ * sizeof(int64_t));
  lo_e.seq = 0;
  Entry hi_e;
  hi_e.key.fill(0);
  std::memcpy(hi_e.key.data(), hi, key_len_ * sizeof(int64_t));
  hi_e.seq = UINT64_MAX;
  const Node* leaf = LeftmostLeafAtLeast(lo_e);
  while (leaf != nullptr) {
    for (size_t i = 0; i < leaf->count; ++i) {
      const Entry& e = leaf->entries[i];
      if (Compare(e, lo_e) < 0) continue;
      if (Compare(e, hi_e) > 0) return;
      out->push_back(e.rid);
    }
    leaf = leaf->next;
  }
}

/// Packs entries that arrive in strictly increasing (key, seq) order
/// into the tree bottom-up. The n entries are spread evenly over the
/// fewest leaves of at most kFanout - 1 entries, chained left to right;
/// each level above spreads its children the same way over the fewest
/// nodes of at most kFanout children, until one node is left: the
/// root. Separator i of a node is the first entry of its child i + 1,
/// the invariant Insert keeps, so later inserts split these nodes as
/// they split their own.
class BTreeIndex::Packer {
 public:
  Packer(BTreeIndex* tree, size_t n)
      : tree_(tree), n_(n), leaves_((n + kFanout - 2) / (kFanout - 1)) {}

  void Add(const Entry& e) {
    if (level_.empty() || level_.back()->count == LeafSize()) {
      auto leaf = std::make_unique<Node>();
      if (!level_.empty()) level_.back()->next = leaf.get();
      firsts_.push_back(e);
      level_.push_back(std::move(leaf));
    }
    Node& leaf = *level_.back();
    leaf.entries[leaf.count++] = e;
  }

  void Finish(uint64_t next_seq) {
    size_t nodes = level_.size();
    while (level_.size() > 1) {
      const size_t m = level_.size();
      const size_t groups = (m + kFanout - 1) / kFanout;
      std::vector<std::unique_ptr<Node>> up;
      std::vector<Entry> up_firsts;
      size_t c = 0;
      for (size_t g = 0; g < groups; ++g) {
        auto node = std::make_unique<Node>();
        node->leaf = false;
        const size_t take = m / groups + (g < m % groups ? 1 : 0);
        up_firsts.push_back(firsts_[c]);
        for (size_t j = 0; j < take; ++j, ++c) {
          if (j > 0) node->entries[j - 1] = firsts_[c];
          node->children[j] = std::move(level_[c]);
        }
        node->count = take - 1;
        up.push_back(std::move(node));
      }
      nodes += up.size();
      level_ = std::move(up);
      firsts_ = std::move(up_firsts);
    }
    if (!level_.empty()) {
      tree_->root_ = std::move(level_[0]);
      tree_->node_count_ = nodes;
    }
    tree_->size_ = n_;
    tree_->next_seq_ = next_seq;
  }

 private:
  /// Entries of the leaf being filled: the first n % leaves leaves
  /// take one more than the rest.
  size_t LeafSize() const {
    const size_t i = level_.size() - 1;
    return n_ / leaves_ + (i < n_ % leaves_ ? 1 : 0);
  }

  BTreeIndex* tree_;
  size_t n_;
  size_t leaves_;
  std::vector<std::unique_ptr<Node>> level_;  // the level being built
  std::vector<Entry> firsts_;  // the first entry under each node of it
};

std::unique_ptr<BTreeIndex> BTreeIndex::Build(
    size_t key_len, std::vector<std::vector<Entry>> runs, uint64_t next_seq) {
  auto tree = std::make_unique<BTreeIndex>(key_len);
  const BTreeIndex& t = *tree;
  const auto less = [&t](const Entry& a, const Entry& b) {
    return t.Compare(a, b) < 0;
  };
  // A min-heap of the runs' cursors, on their next entries, merges the
  // runs in (key, seq) order; equal keys keep seq order, so duplicates
  // stay in insertion order.
  struct Cursor {
    const Entry* next;
    const Entry* end;
  };
  const auto later = [&t](const Cursor& a, const Cursor& b) {
    return t.Compare(*a.next, *b.next) > 0;
  };
  size_t n = 0;
  std::vector<Cursor> heap;
  for (std::vector<Entry>& run : runs) {
    if (!std::is_sorted(run.begin(), run.end(), less)) {
      std::sort(run.begin(), run.end(), less);
    }
    n += run.size();
    if (!run.empty()) heap.push_back({run.data(), run.data() + run.size()});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  Packer packer(tree.get(), n);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    packer.Add(*c.next);
    if (++c.next == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  packer.Finish(next_seq);
  return tree;
}

std::string BTreeIndex::Serialize() const {
  // The image's size is known up front, so it is written in one pass.
  std::string out((3 + size_ * (key_len_ + 3)) * sizeof(uint64_t), '\0');
  char* p = out.data();
  const auto put = [&p](uint64_t v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(key_len_);
  put(size_);
  put(next_seq_);
  // Walk the leaf chain from the global minimum.
  Entry lo;
  lo.key.fill(INT64_MIN);
  lo.seq = 0;
  for (const Node* leaf = LeftmostLeafAtLeast(lo); leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->count; ++i) {
      const Entry& e = leaf->entries[i];
      for (size_t k = 0; k < key_len_; ++k) {
        put(static_cast<uint64_t>(e.key[k]));
      }
      put(e.seq);
      put(e.rid.partition);
      put(e.rid.ordinal);
    }
  }
  return out;
}

Result<std::unique_ptr<BTreeIndex>> BTreeIndex::Deserialize(
    const std::string& bytes) {
  ByteReader in(bytes);
  uint64_t key_len = 0, count = 0, next_seq = 0;
  if (!in.Read(&key_len, sizeof(key_len)) || !in.Read(&count, sizeof(count)) ||
      !in.Read(&next_seq, sizeof(next_seq)) || key_len == 0 ||
      key_len > kMaxKeyColumns) {
    return Status::InvalidArgument("corrupt index image (header)");
  }
  const size_t entry_bytes = (key_len + 3) * sizeof(uint64_t);
  const size_t body = in.remaining();
  if (body % entry_bytes != 0) {
    return Status::InvalidArgument("corrupt index image (truncated entry)");
  }
  if (body / entry_bytes != count) {
    return Status::InvalidArgument(
        "corrupt index image (" + std::to_string(body / entry_bytes) +
        " entries for a header count of " + std::to_string(count) + ")");
  }
  auto tree = std::make_unique<BTreeIndex>(key_len);
  // The image is the leaf chain in (key, seq) order, so it packs
  // straight into leaves; the checks keep a corrupt image from building
  // a tree whose separators and ranges assume an order it lacks.
  Packer packer(tree.get(), count);
  Entry prev{};
  // The size checks above guarantee every entry's bytes are there.
  const auto next = [&in] {
    uint64_t v = 0;
    in.Read(&v, sizeof(v));
    return v;
  };
  for (uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.key.fill(0);
    for (uint64_t k = 0; k < key_len; ++k) {
      e.key[k] = static_cast<int64_t>(next());
    }
    e.seq = next();
    e.rid.partition = static_cast<uint32_t>(next());
    e.rid.ordinal = next();
    if (e.seq >= next_seq) {
      return Status::InvalidArgument(
          "corrupt index image (entry " + std::to_string(i) + " has seq " +
          std::to_string(e.seq) + ", next_seq is " + std::to_string(next_seq) +
          ")");
    }
    if (i > 0 && tree->Compare(prev, e) >= 0) {
      return Status::InvalidArgument("corrupt index image (entry " +
                                     std::to_string(i) + " out of order)");
    }
    packer.Add(e);
    prev = e;
  }
  packer.Finish(next_seq);
  return tree;
}

}  // namespace radb::storage
