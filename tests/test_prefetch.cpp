// ShardPrefetcher unit tests. The prefetcher is strictly advisory, so the
// properties under test are: the activation rules (depth 0 / fully-resident
// storage spawn no worker), hints warming the shard cache asynchronously,
// the depth bound dropping stale hints instead of blocking, clean shutdown
// with hints still queued, and the DTSNN_PREFETCH_DEPTH knob.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/prefetch.h"
#include "data/shard.h"
#include "data/sharded_dataset.h"

namespace dtsnn::data {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("dtsnn_prefetch_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

ArrayDataset make_source(std::size_t samples) {
  ArrayDataset ds({1, 2, 2}, /*frames=*/2, /*classes=*/4);
  ds.set_noise_seed(0xabcdef01);
  const std::size_t numel = 4 * 2;
  for (std::size_t s = 0; s < samples; ++s) {
    std::vector<float> data(numel);
    for (std::size_t i = 0; i < numel; ++i) {
      data[i] = 0.5f * static_cast<float>(s) + 0.125f * static_cast<float>(i);
    }
    ds.add_sample(std::move(data), static_cast<int>(s % 4),
                  static_cast<double>(s) / samples, /*temporal_noise=*/0.02f * (s % 2));
  }
  return ds;
}

// ----------------------------------------------------------- activation

TEST(ShardPrefetcher, DepthZeroAndResidentStorageDeactivate) {
  const ArrayDataset resident = make_source(4);
  // Fully-resident storage has nothing to prefetch: no worker regardless of
  // depth.
  const ShardPrefetcher on_resident(resident, /*depth=*/4);
  EXPECT_FALSE(on_resident.active());

  TempDir dir("deactivate");
  export_shards(resident, dir.path(), 2);
  const ShardedDataset sharded(dir.path());
  ShardPrefetcher depth_zero(sharded, /*depth=*/0);
  EXPECT_FALSE(depth_zero.active());
  // enqueue on an inactive prefetcher is a harmless no-op.
  const std::vector<std::size_t> hint{0, 1};
  depth_zero.enqueue(hint);
  const ShardPrefetcher::Stats stats = depth_zero.stats();
  EXPECT_EQ(stats.enqueued, 0u);

  const ShardPrefetcher active(sharded, /*depth=*/1);
  EXPECT_TRUE(active.active());
  EXPECT_EQ(active.depth(), 1u);
}

TEST(ShardPrefetcher, HintsWarmTheCacheAsynchronously) {
  TempDir dir("warm");
  const ArrayDataset source = make_source(8);
  export_shards(source, dir.path(), 2);  // 4 shards
  ShardCacheConfig config;
  config.cache_slots = 2;
  const ShardedDataset sharded(dir.path(), config);

  ShardPrefetcher prefetcher(sharded, /*depth=*/2);
  ASSERT_TRUE(prefetcher.active());
  const std::vector<std::size_t> hint{0, 3};  // shards 0 and 1
  prefetcher.enqueue(hint);
  prefetcher.wait_idle();

  // The worker's loads count as misses; the consumer's reads then hit.
  const std::size_t misses_after_warm = sharded.storage_stats().cache_misses;
  EXPECT_EQ(misses_after_warm, 2u);
  std::vector<float> frame(snn::shape_numel(sharded.frame_shape()));
  sharded.write_frame(0, 0, frame);
  sharded.write_frame(3, 0, frame);
  const DatasetStorageStats stats = sharded.storage_stats();
  EXPECT_EQ(stats.cache_misses, misses_after_warm);
  EXPECT_EQ(stats.cache_hits, 2u);

  const ShardPrefetcher::Stats pf = prefetcher.stats();
  EXPECT_EQ(pf.enqueued, 1u);
  EXPECT_EQ(pf.completed, 1u);
  EXPECT_EQ(pf.dropped, 0u);
}

TEST(ShardPrefetcher, DepthBoundDropsOldestInsteadOfBlocking) {
  TempDir dir("depth");
  const ArrayDataset source = make_source(8);
  export_shards(source, dir.path(), 2);
  const ShardedDataset sharded(dir.path());

  ShardPrefetcher prefetcher(sharded, /*depth=*/1);
  // Burst-enqueue more hints than the queue can hold; enqueue must never
  // block, and accounting must balance: accepted = serviced + displaced.
  std::vector<std::size_t> hint(1);
  for (std::size_t s = 0; s < 8; ++s) {
    hint[0] = s;
    prefetcher.enqueue(hint);
  }
  prefetcher.wait_idle();
  const ShardPrefetcher::Stats stats = prefetcher.stats();
  EXPECT_EQ(stats.enqueued, 8u);
  EXPECT_EQ(stats.completed + stats.dropped, stats.enqueued);
  EXPECT_GT(stats.completed, 0u);
}

TEST(ShardPrefetcher, DestructionWithQueuedHintsIsClean) {
  TempDir dir("shutdown");
  const ArrayDataset source = make_source(8);
  export_shards(source, dir.path(), 2);
  const ShardedDataset sharded(dir.path());
  {
    ShardPrefetcher prefetcher(sharded, /*depth=*/8);
    std::vector<std::size_t> hint(1);
    for (std::size_t s = 0; s < 8; ++s) {
      hint[0] = s;
      prefetcher.enqueue(hint);
    }
    // Destructor must stop and join the worker without draining the queue.
  }
  SUCCEED();
}

// NOLINTBEGIN(concurrency-mt-unsafe): deliberate env mutation; gtest runs
// tests serially in one thread.
TEST(ShardPrefetcher, EnvVarControlsAutoDepth) {
  TempDir dir("env");
  const ArrayDataset source = make_source(4);
  export_shards(source, dir.path(), 2);
  const ShardedDataset sharded(dir.path());

  const char* ambient = std::getenv("DTSNN_PREFETCH_DEPTH");
  const std::string saved = ambient ? ambient : "";

  ASSERT_EQ(setenv("DTSNN_PREFETCH_DEPTH", "5", 1), 0);
  EXPECT_EQ(ShardPrefetcher(sharded).depth(), 5u);
  ASSERT_EQ(setenv("DTSNN_PREFETCH_DEPTH", "0", 1), 0);
  EXPECT_FALSE(ShardPrefetcher(sharded).active());
  ASSERT_EQ(setenv("DTSNN_PREFETCH_DEPTH", "fast", 1), 0);
  EXPECT_THROW(ShardPrefetcher{sharded}, std::invalid_argument);
  ASSERT_EQ(unsetenv("DTSNN_PREFETCH_DEPTH"), 0);
  EXPECT_EQ(ShardPrefetcher(sharded).depth(), ShardPrefetcher::kDefaultDepth);

  // An explicit depth wins over the environment.
  ASSERT_EQ(setenv("DTSNN_PREFETCH_DEPTH", "7", 1), 0);
  EXPECT_EQ(ShardPrefetcher(sharded, /*depth=*/1).depth(), 1u);

  if (ambient) {
    ASSERT_EQ(setenv("DTSNN_PREFETCH_DEPTH", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("DTSNN_PREFETCH_DEPTH"), 0);
  }
}
// NOLINTEND(concurrency-mt-unsafe)

}  // namespace
}  // namespace dtsnn::data
