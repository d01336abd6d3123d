// End-to-end identity of the sharded data layer: the recorder
// (collect_outputs, chunked reads), every engine (batch-1 Sequential,
// BatchedSequential) and the serving layer must produce bitwise-identical
// logits, predictions, entropies, and exit timesteps whether the samples
// come from the in-memory ArrayDataset or from a ShardedDataset paging
// shards through a bounded cache — on all four dataset presets, including a
// 1-slot cache under constant eviction.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/shard.h"
#include "data/sharded_dataset.h"
#include "serve/fleet.h"
#include "test_helpers.h"

namespace dtsnn::core {
namespace {

namespace fs = std::filesystem;
using test::OmpThreads;

Experiment micro_experiment(const std::string& dataset, std::size_t timesteps,
                            std::uint64_t seed = 1) {
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = dataset;
  spec.epochs = 1;
  spec.timesteps = timesteps;
  spec.data_scale = 0.05;
  spec.seed = seed;
  return run_experiment(spec);
}

/// Export `source` into a scratch shard directory (removed at destruction)
/// sized so the dataset spans several shards.
class ShardedCopy {
 public:
  ShardedCopy(const data::ArrayDataset& source, const std::string& tag,
              std::size_t samples_per_shard, std::size_t cache_slots)
      : dir_(fs::temp_directory_path() /
             ("dtsnn_sharded_inference_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    data::export_shards(source, dir_, samples_per_shard);
    data::ShardCacheConfig config;
    config.cache_slots = cache_slots;
    dataset_ = std::make_unique<data::ShardedDataset>(dir_, config);
  }
  ~ShardedCopy() {
    dataset_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const data::ShardedDataset& dataset() const { return *dataset_; }
  /// The shard files, in the dataset's (filename) order.
  [[nodiscard]] std::vector<fs::path> shard_paths() const {
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(dir_)) paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    return paths;
  }

 private:
  fs::path dir_;
  std::unique_ptr<data::ShardedDataset> dataset_;
};

void expect_identical(const std::vector<InferenceResult>& a,
                      const std::vector<InferenceResult>& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sample, b[i].sample) << context << " sample " << i;
    EXPECT_EQ(a[i].predicted_class, b[i].predicted_class) << context << " sample " << i;
    EXPECT_EQ(a[i].exit_timestep, b[i].exit_timestep) << context << " sample " << i;
    EXPECT_EQ(a[i].final_entropy, b[i].final_entropy) << context << " sample " << i;
    ASSERT_EQ(a[i].timestep_logits.shape(), b[i].timestep_logits.shape())
        << context << " sample " << i;
    for (std::size_t j = 0; j < a[i].timestep_logits.numel(); ++j) {
      ASSERT_EQ(a[i].timestep_logits[j], b[i].timestep_logits[j])
          << context << " sample " << i << " logit " << j;
    }
  }
}

/// The acceptance property: for each preset, every engine and the recorder
/// produce bitwise identical results from ArrayDataset and from
/// ShardedDataset — with both a comfortable cache and a 1-slot cache
/// thrashing on every chunk.
TEST(ShardedInference, EnginesBitwiseIdenticalAcrossStorageBackends) {
  for (const std::string preset : {"sync10", "sync100", "syntin", "syndvs"}) {
    const std::size_t timesteps = preset == "syndvs" ? 5 : 3;
    Experiment e = micro_experiment(preset, timesteps);
    const data::ArrayDataset& array = *e.bundle.test;
    const std::size_t n = std::min<std::size_t>(24, array.size());

    InferenceRequest request = InferenceRequest::first_n(n);
    request.record_logits = true;
    const EntropyExitPolicy policy(0.35);

    for (const std::size_t cache_slots : {std::size_t{1}, std::size_t{3}}) {
      // 7 samples per shard: several shards, ragged tail, chunk boundaries
      // (5 samples) that do not line up with shard boundaries.
      const ShardedCopy copy(array, preset + "_c" + std::to_string(cache_slots), 7,
                             cache_slots);
      const data::ShardedDataset& sharded = copy.dataset();
      ASSERT_GT(sharded.num_shards(), cache_slots);
      const std::string context = preset + "/slots" + std::to_string(cache_slots);

      SequentialEngine seq(e.net, policy, timesteps);
      expect_identical(seq.run(array, request), seq.run(sharded, request),
                       context + "/sequential");

      BatchedSequentialEngine batched(e.net, policy, timesteps, /*batch_size=*/5);
      expect_identical(batched.run(array, request), batched.run(sharded, request),
                       context + "/batched");

      // 24 samples in chunks of 5 leave a ragged 4-sample tail chunk that
      // straddles the 7-sample shards.
      const TimestepOutputs recorded_array =
          collect_outputs(e.net, array, timesteps, /*batch_size=*/5, n);
      const TimestepOutputs recorded_sharded =
          collect_outputs(e.net, sharded, timesteps, /*batch_size=*/5, n);
      ASSERT_EQ(recorded_array.labels, recorded_sharded.labels) << context;
      ASSERT_EQ(recorded_array.cum_logits.numel(), recorded_sharded.cum_logits.numel());
      for (std::size_t j = 0; j < recorded_array.cum_logits.numel(); ++j) {
        ASSERT_EQ(recorded_array.cum_logits[j], recorded_sharded.cum_logits[j])
            << context << "/collect value " << j;
      }

      // The sharded runs actually exercised the cache.
      const data::DatasetStorageStats stats = sharded.storage_stats();
      EXPECT_GT(stats.cache_misses, 0u) << context;
      if (cache_slots == 1) {
        EXPECT_GT(stats.cache_evictions, 0u) << context;
      }
    }
  }
}

/// Recorded outputs (the recorded-replay evaluation path) are bitwise
/// identical between backends: collect_outputs streams chunks either way.
TEST(ShardedInference, CollectedOutputsBitwiseIdentical) {
  Experiment e = micro_experiment("sync10", 3);
  const data::ArrayDataset& array = *e.bundle.test;
  const ShardedCopy copy(array, "collect", 5, /*cache_slots=*/1);

  const TimestepOutputs a = collect_outputs(e.net, array, 3, /*batch_size=*/8);
  const TimestepOutputs b = collect_outputs(e.net, copy.dataset(), 3, /*batch_size=*/8);
  ASSERT_EQ(a.samples, b.samples);
  ASSERT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.cum_logits.numel(); ++i) {
    ASSERT_EQ(a.cum_logits[i], b.cum_logits[i]) << "row " << i;
  }
}

/// Serving from shards: requests whose samples live in not-yet-resident
/// shards are admitted, prefetched, and served bitwise identical to the
/// offline batch-1 oracle reading the in-memory dataset.
TEST(ShardedInference, ServerServesFromShardsBitwiseIdenticalToOracle) {
  Experiment e = micro_experiment("sync10", 3);
  const data::ArrayDataset& array = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(20, array.size());
  const EntropyExitPolicy policy(0.35);

  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  SequentialEngine batch1(e.net, policy, 3);
  const std::vector<InferenceResult> oracle = batch1.run(array, all);

  for (const std::size_t cache_slots : {std::size_t{1}, std::size_t{2}}) {
    const ShardedCopy copy(array, "serve_c" + std::to_string(cache_slots), 6,
                           cache_slots);
    serve::FleetModel model;
    model.network = &e.net;
    model.dataset = &copy.dataset();
    model.default_policy = &policy;
    model.max_timesteps = 3;
    model.max_pool = 4;  // smaller than n: constant admission churn
    std::vector<std::future<std::vector<InferenceResult>>> futures;
    {
      serve::ServingFleet fleet({model});
      for (std::size_t s = 0; s < n; ++s) {
        serve::FleetRequest req;
        req.request.samples.push_back(s);
        req.request.record_logits = true;
        futures.push_back(fleet.submit(std::move(req)).results);
      }
      fleet.drain();
    }
    for (std::size_t s = 0; s < n; ++s) {
      const std::vector<InferenceResult> got = futures[s].get();
      ASSERT_EQ(got.size(), 1u);
      expect_identical({got[0]}, {oracle[s]},
                       "slots" + std::to_string(cache_slots) + " sample " +
                           std::to_string(s));
    }
    // Admission prefetch touched the cache (hits from the pool's reads).
    const data::DatasetStorageStats stats = copy.dataset().storage_stats();
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
  }
}

/// evaluate_engine aggregates identically over either backend.
TEST(ShardedInference, EvaluateEngineIdenticalAcrossBackends) {
  Experiment e = micro_experiment("sync10", 3);
  const data::ArrayDataset& array = *e.bundle.test;
  const ShardedCopy copy(array, "evaluate", 9, /*cache_slots=*/1);
  const EntropyExitPolicy policy(0.3);

  BatchedSequentialEngine engine(e.net, policy, 3, /*batch_size=*/6);
  const DtsnnResult a = evaluate_engine(engine, array);
  const DtsnnResult b = evaluate_engine(engine, copy.dataset());
  EXPECT_EQ(a.exit_timestep, b.exit_timestep);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.avg_timesteps, b.avg_timesteps);
}

/// At 1 thread the engine steps one pool whose ops each run parallel over
/// images; at 4 it steps four row windows of the network, one thread each,
/// every window encoding its own rows' frames. Neither may let the thread
/// count reach the results. Exits and recorded logits are bitwise identical
/// at 1 and 4 threads, from memory and from a 1-slot shard cache that four
/// concurrent encodes contend for.
TEST(ShardedInference, BatchedEngineIdenticalAtOneAndFourThreads) {
  Experiment e = micro_experiment("sync10", 3);
  const data::ArrayDataset& array = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(24, array.size());
  InferenceRequest request = InferenceRequest::first_n(n);
  request.record_logits = true;
  const EntropyExitPolicy policy(0.35);
  const ShardedCopy copy(array, "threads", 7, /*cache_slots=*/1);
  BatchedSequentialEngine engine(e.net, policy, 3, /*batch_size=*/8);

  const std::vector<const data::Dataset*> datasets{&array, &copy.dataset()};
  for (const data::Dataset* dataset : datasets) {
    const std::string context = dataset == &array ? "array" : "sharded";
    std::vector<InferenceResult> one;
    std::vector<InferenceResult> four;
    {
      const OmpThreads threads(1);
      one = engine.run(*dataset, request);
    }
    {
      const OmpThreads threads(4);
      four = engine.run(*dataset, request);
    }
    expect_identical(one, four, context);
  }
}

/// Exits every second row it is asked about, in call order. The engine's
/// pools then never drain between steps: half of a pool is refilled while
/// the other half keeps stepping, so the refills encode in a step that
/// continues an inference sequence.
class AlternatingExitPolicy final : public ExitPolicy {
 public:
  [[nodiscard]] bool should_exit(std::span<const float> /*cum_logits*/) const override {
    return calls_.fetch_add(1) % 2 == 1;
  }
  [[nodiscard]] std::string name() const override { return "alternating"; }

 private:
  mutable std::atomic<std::size_t> calls_{0};
};

/// After a failed run the same engine serves a clean request bitwise
/// identical to the in-memory dataset at 4 threads.
void expect_clean_run_after_failure(BatchedSequentialEngine& engine,
                                    const data::Dataset& stored,
                                    const data::ArrayDataset& array) {
  const EntropyExitPolicy entropy(0.35);
  InferenceRequest clean;
  clean.policy = &entropy;
  clean.record_logits = true;
  for (std::size_t s = 0; s < 24; ++s) {
    if (s < 8 || s >= 16) clean.samples.push_back(s);
  }
  const OmpThreads threads(4);
  expect_identical(engine.run(stored, clean), engine.run(array, clean),
                   "clean after failure");
}

/// A shard truncated after the dataset opened it fails the frame encode of
/// every row reading it: that row fails, its neighbours step on, and no new
/// request position is admitted. run() then surfaces the typed ShardError of
/// the lowest failing request position — never std::terminate from an
/// exception leaving the OpenMP region. Positions are admitted in order, so
/// that position is the same at 1 thread and at 4, whichever windows its
/// rows land in: positions 8 (sample 13, shard 3) and 9 (sample 9, shard 2)
/// fail, and shard 3 names the error.
TEST(ShardedInference, TruncatedShardFailsTheRunWithTheLowestPositionsTypedError) {
  Experiment e = micro_experiment("sync10", 3);
  const data::ArrayDataset& array = *e.bundle.test;
  ASSERT_GE(array.size(), 24u);
  const ShardedCopy copy(array, "truncated", 4, /*cache_slots=*/1);
  const std::vector<fs::path> shards = copy.shard_paths();
  ASSERT_GE(shards.size(), 6u);
  for (const std::size_t shard : {2, 3}) {  // samples 8-11 and 12-15
    fs::resize_file(shards[shard], fs::file_size(shards[shard]) - 4);
  }

  const AlternatingExitPolicy alternating;
  BatchedSequentialEngine engine(e.net, alternating, 3, /*batch_size=*/8);
  InferenceRequest failing;
  failing.samples = {0, 1, 2, 3, 4, 5, 6, 7, 13, 9};
  for (const int thread_count : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(thread_count));
    try {
      const OmpThreads threads(thread_count);
      (void)engine.run(copy.dataset(), failing);
      ADD_FAILURE() << "expected a ShardError";
    } catch (const data::ShardError& err) {
      EXPECT_EQ(err.kind(), data::ShardError::Kind::kTruncated) << err.what();
      const std::string what = err.what();
      EXPECT_NE(what.find(shards[3].filename().string()), std::string::npos) << what;
      EXPECT_EQ(what.find(shards[2].filename().string()), std::string::npos) << what;
    }
  }
  expect_clean_run_after_failure(engine, copy.dataset(), array);
}

/// Throws at the first decision of the listed samples, which it knows by
/// their first-timestep cumulative logits, bitwise; never exits otherwise.
class PoisonedSamplesPolicy final : public ExitPolicy {
 public:
  explicit PoisonedSamplesPolicy(std::vector<InferenceResult> first_steps)
      : first_steps_(std::move(first_steps)) {}
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override {
    for (const InferenceResult& r : first_steps_) {
      const auto logits = r.timestep_logits.span();
      if (std::equal(cum_logits.begin(), cum_logits.end(), logits.begin(), logits.end())) {
        throw std::runtime_error("poisoned sample " + std::to_string(r.sample));
      }
    }
    return false;
  }
  [[nodiscard]] std::string name() const override { return "poisoned"; }

 private:
  std::vector<InferenceResult> first_steps_;
};

/// The same rule for exit policies that throw: samples 21 (position 1) and
/// 17 (position 6) fail at their first decision. Both are admitted before
/// either fails; at 4 threads and batch 8 the pool is four windows of two
/// rows, so the two usually fail in different windows. Position 1's error
/// surfaces either way, and at 1 thread too.
TEST(ShardedInference, ThrowingPolicyFailsTheRunWithTheLowestPositionsError) {
  Experiment e = micro_experiment("sync10", 3);
  const data::ArrayDataset& array = *e.bundle.test;
  ASSERT_GE(array.size(), 24u);
  const ShardedCopy copy(array, "poisoned", 4, /*cache_slots=*/2);

  const NeverExitPolicy never;
  SequentialEngine first_step(e.net, never, 1);
  InferenceRequest poisoned;
  poisoned.samples = {17, 21};
  poisoned.record_logits = true;
  const PoisonedSamplesPolicy policy(first_step.run(array, poisoned));

  BatchedSequentialEngine engine(e.net, policy, 3, /*batch_size=*/8);
  InferenceRequest failing;
  failing.samples = {0, 21, 2, 3, 4, 5, 17, 7, 8, 9, 10, 11};
  for (const int thread_count : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(thread_count));
    try {
      const OmpThreads threads(thread_count);
      (void)engine.run(copy.dataset(), failing);
      ADD_FAILURE() << "expected the policy's error";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "poisoned sample 21");
    }
  }
  expect_clean_run_after_failure(engine, copy.dataset(), array);
}

}  // namespace
}  // namespace dtsnn::core
