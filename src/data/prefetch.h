// Background shard prefetcher — the async layer of the data plane.
//
// A ShardPrefetcher owns one worker thread (util::Thread on the annotated
// util::Mutex/CondVar primitives) that services *hints*: batches of sample
// indices the consumer will read soon. The worker calls
// Dataset::prefetch(hint) off the consumer's thread, so shard loads overlap
// the consumer's compute instead of serializing in front of it — the
// synchronous prefetch inside materialize_batch then finds the shards
// already resident (or mid-load, which it skips and the eventual pin
// coalesces onto).
//
// The hint queue is depth-bounded: when full, the *oldest* hint is dropped
// (the consumer has moved past it; prefetching it would evict useful
// shards). Hints are advisory end to end — enqueue never blocks, a dropped
// or failed hint only costs the overlap, and correctness always comes from
// the consumer's own pinned read.
//
// Consumers: each serve::ServingFleet worker hints its admission cycle's
// samples, and perfbench's traced live pool hints its waiting tail.

#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/sync.h"
#include "util/thread.h"
#include "util/thread_annotations.h"

namespace dtsnn::data {

class ShardPrefetcher {
 public:
  /// Queue depth used when neither the caller nor DTSNN_PREFETCH_DEPTH says
  /// otherwise.
  static constexpr std::size_t kDefaultDepth = 2;

  /// `depth` bounds the hint queue. nullopt = auto: the DTSNN_PREFETCH_DEPTH
  /// environment variable when set (0 disables prefetching), else
  /// kDefaultDepth. The prefetcher deactivates itself — active() == false,
  /// enqueue() a no-op, no thread spawned — when depth resolves to 0 or the
  /// dataset has nothing to prefetch (fully-resident storage reports
  /// cache_slots == 0). `dataset` must outlive the prefetcher.
  explicit ShardPrefetcher(const Dataset& dataset,
                           std::optional<std::size_t> depth = std::nullopt);
  ~ShardPrefetcher();
  ShardPrefetcher(const ShardPrefetcher&) = delete;
  ShardPrefetcher& operator=(const ShardPrefetcher&) = delete;

  /// Hint that `samples` will be read soon. Copies the indices and returns
  /// immediately; drops the oldest queued hint when the queue is at depth.
  void enqueue(std::span<const std::size_t> samples) DTSNN_EXCLUDES(mu_);

  /// Block until the queue is drained and the worker is idle (test/bench
  /// barrier — production consumers never wait on the prefetcher).
  void wait_idle() DTSNN_EXCLUDES(mu_);

  [[nodiscard]] bool active() const { return active_; }
  /// Resolved queue depth (meaningful when active()).
  [[nodiscard]] std::size_t depth() const { return depth_; }

  struct Stats {
    std::size_t enqueued = 0;   ///< hints accepted
    std::size_t completed = 0;  ///< hints fully serviced by the worker
    std::size_t dropped = 0;    ///< stale hints displaced by newer ones
  };
  [[nodiscard]] Stats stats() const DTSNN_EXCLUDES(mu_);

 private:
  void worker_loop() DTSNN_EXCLUDES(mu_);

  const Dataset& dataset_;
  std::size_t depth_ = 0;
  bool active_ = false;

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<std::vector<std::size_t>> queue_ DTSNN_GUARDED_BY(mu_);
  bool stopping_ DTSNN_GUARDED_BY(mu_) = false;
  bool busy_ DTSNN_GUARDED_BY(mu_) = false;
  Stats stats_ DTSNN_GUARDED_BY(mu_);
  util::Thread worker_;  ///< initialized last, joined by destruction
};

}  // namespace dtsnn::data
