#ifndef RADB_EXEC_CLUSTER_H_
#define RADB_EXEC_CLUSTER_H_

#include <cstddef>

namespace radb {

/// Configuration of the simulated shared-nothing cluster. The paper
/// evaluates on 10 EC2 machines x 8 cores; we model W workers, each
/// owning one horizontal partition of every table. Execution is
/// in-process: each worker's partition loop runs as one task on the
/// Database's thread pool (sequential when Config::num_threads is 1),
/// and the executor records per-worker time and cross-worker byte
/// movement so that simulated parallel runtimes and shuffle volumes
/// match what a real deployment would see.
class Cluster {
 public:
  explicit Cluster(size_t num_workers)
      : num_workers_(num_workers == 0 ? 1 : num_workers) {}

  size_t num_workers() const { return num_workers_; }

  /// Worker that owns a hash bucket.
  size_t WorkerForHash(size_t hash) const { return hash % num_workers_; }

 private:
  size_t num_workers_;
};

}  // namespace radb

#endif  // RADB_EXEC_CLUSTER_H_
