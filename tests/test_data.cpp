// Tests for the dataset layer: ArrayDataset semantics, batch encoding, frame
// read validation on both storage backends, and the statistical properties
// the synthetic generators must guarantee (determinism, class balance,
// difficulty structure, event sparsity).

#include <unistd.h>

#include <filesystem>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/dvs.h"
#include "data/shard.h"
#include "data/sharded_dataset.h"
#include "data/synthetic.h"

namespace dtsnn::data {
namespace {

TEST(ArrayDataset, StoresAndServesSamples) {
  ArrayDataset ds({1, 2, 2}, 1, 3);
  ds.add_sample({1, 2, 3, 4}, 0, 0.1);
  ds.add_sample({5, 6, 7, 8}, 2, 0.9);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.label(1), 2);
  EXPECT_NEAR(ds.difficulty(1), 0.9, 1e-12);
  std::vector<float> buf(4);
  ds.write_frame(1, 0, buf);
  EXPECT_FLOAT_EQ(buf[3], 8.0f);
}

TEST(ArrayDataset, StaticRepeatsFrameOverTime) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  ds.add_sample({42.0f}, 0, 0.0);
  std::vector<float> buf(1);
  ds.write_frame(0, 5, buf);  // any t returns the single frame
  EXPECT_FLOAT_EQ(buf[0], 42.0f);
}

TEST(ArrayDataset, EventFramesDistinct) {
  ArrayDataset ds({1, 1, 1}, 3, 2);
  ds.add_sample({1.0f, 2.0f, 3.0f}, 1, 0.0);
  std::vector<float> buf(1);
  ds.write_frame(0, 1, buf);
  EXPECT_FLOAT_EQ(buf[0], 2.0f);
  ds.write_frame(0, 9, buf);  // clamps to last frame
  EXPECT_FLOAT_EQ(buf[0], 3.0f);
}

TEST(ArrayDataset, ValidatesInput) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  EXPECT_THROW(ds.add_sample({1.0f, 2.0f}, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(ds.add_sample({1.0f}, 5, 0.0), std::invalid_argument);
}

// Regression: a frame vector that disagrees with frame_numel *
// frames_per_sample must be rejected atomically — were it accepted (or
// partially appended), every later sample's reads would silently shift.
TEST(ArrayDataset, RejectsWrongFrameVectorSizeWithoutCorruptingState) {
  ArrayDataset ds({1, 2, 2}, 2, 3);  // 8 floats per sample
  ds.add_sample({1, 2, 3, 4, 5, 6, 7, 8}, 0, 0.0);
  EXPECT_THROW(ds.add_sample({1, 2, 3}, 1, 0.0), std::invalid_argument);        // short
  EXPECT_THROW(ds.add_sample(std::vector<float>(9, 0.0f), 1, 0.0), std::invalid_argument);  // long
  EXPECT_THROW(ds.add_sample({}, 1, 0.0), std::invalid_argument);               // empty
  // The failed inserts left nothing behind: size is unchanged and the next
  // valid sample lands exactly after sample 0.
  EXPECT_EQ(ds.size(), 1u);
  ds.add_sample({9, 10, 11, 12, 13, 14, 15, 16}, 2, 0.5);
  std::vector<float> buf(4);
  ds.write_frame(0, 1, buf);
  EXPECT_FLOAT_EQ(buf[0], 5.0f);  // sample 0, frame 1 intact
  ds.write_frame(1, 0, buf);
  EXPECT_FLOAT_EQ(buf[0], 9.0f);  // sample 1 starts at its own offset
}

TEST(Materialize, TimeMajorLayout) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  ds.add_sample({10.0f}, 0, 0.0);
  ds.add_sample({20.0f}, 1, 0.0);
  const std::vector<std::size_t> idx{0, 1};
  auto batch = materialize_batch(ds, idx, 2);
  ASSERT_EQ(batch.x.shape(), (snn::Shape{4, 1, 1, 1}));
  // Rows: [t0 s0, t0 s1, t1 s0, t1 s1].
  EXPECT_FLOAT_EQ(batch.x[0], 10.0f);
  EXPECT_FLOAT_EQ(batch.x[1], 20.0f);
  EXPECT_FLOAT_EQ(batch.x[2], 10.0f);
  EXPECT_FLOAT_EQ(batch.x[3], 20.0f);
  EXPECT_EQ(batch.labels, (std::vector<int>{0, 1}));
}

TEST(Materialize, RejectsDegenerateRequests) {
  // A zero-sized encoded tensor is never meaningful downstream, so empty
  // index lists and zero timesteps are errors, not silent empties (mirrors
  // the collect_outputs batch_size/timesteps guards).
  ArrayDataset ds({1, 1, 1}, 1, 2);
  ds.add_sample({10.0f}, 0, 0.0);
  const std::vector<std::size_t> none;
  const std::vector<std::size_t> one{0};
  EXPECT_THROW(materialize_batch(ds, none, 2), std::invalid_argument);
  EXPECT_THROW(materialize_batch(ds, one, 0), std::invalid_argument);
  EXPECT_NO_THROW(materialize_batch(ds, one, 1));
}

/// Both storage backends reject an out-of-range sample with
/// std::out_of_range and a destination that is not exactly one frame with
/// std::invalid_argument — directly and through materialize_batch — instead
/// of reading or writing past a buffer.
TEST(FrameReads, BothBackendsRejectBadSampleAndDestination) {
  ArrayDataset array({1, 2, 2}, 1, 2);
  array.add_sample({1, 2, 3, 4}, 0, 0.0);
  array.add_sample({5, 6, 7, 8}, 1, 0.0);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dtsnn_data_test_frames_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  export_shards(array, dir, /*samples_per_shard=*/1);
  {
    const ShardedDataset sharded(dir);
    for (const Dataset* ds : {static_cast<const Dataset*>(&array),
                              static_cast<const Dataset*>(&sharded)}) {
      std::vector<float> frame(4), short_dst(3), long_dst(5);
      EXPECT_NO_THROW(ds->write_frame(1, 0, frame));
      EXPECT_FLOAT_EQ(frame[3], 8.0f);
      EXPECT_THROW(ds->write_frame(2, 0, frame), std::out_of_range);
      EXPECT_THROW(ds->write_frame(7, 0, frame), std::out_of_range);
      EXPECT_THROW(ds->write_frame(0, 0, short_dst), std::invalid_argument);
      EXPECT_THROW(ds->write_frame(0, 0, long_dst), std::invalid_argument);
      EXPECT_THROW(ds->write_frame(0, 0, {}), std::invalid_argument);

      const std::vector<std::size_t> past_end{0, 7};
      EXPECT_THROW(materialize_batch(*ds, past_end, 1), std::out_of_range);
      const std::vector<std::size_t> both{0, 1};
      EXPECT_EQ(materialize_batch(*ds, both, 2).labels, (std::vector<int>{0, 1}));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(StorageStats, FullyResidentDefaults) {
  ArrayDataset ds({1, 2, 2}, 2, 2);
  ds.add_sample(std::vector<float>(8, 1.0f), 0, 0.0);
  ds.add_sample(std::vector<float>(8, 2.0f), 1, 0.0);
  const DatasetStorageStats stats = ds.storage_stats();
  EXPECT_EQ(stats.logical_bytes, stats.resident_bytes);
  EXPECT_EQ(stats.peak_resident_bytes, stats.resident_bytes);
  EXPECT_GE(stats.logical_bytes, 2 * 8 * sizeof(float));
  EXPECT_EQ(stats.shard_count, 0u);
  EXPECT_EQ(stats.cache_slots, 0u);
  EXPECT_EQ(stats.hit_rate(), 0.0);
  // prefetch is a harmless no-op on fully-resident datasets.
  const std::vector<std::size_t> samples{0, 1};
  EXPECT_NO_THROW(ds.prefetch(samples));
}

TEST(ShuffledBatchSource, RaggedFinalBatchCoversEveryIndexExactlyOnce) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  for (int i = 0; i < 10; ++i) ds.add_sample({static_cast<float>(i)}, i % 2, 0.0);
  ShuffledBatchSource src(ds, 3, 1);
  EXPECT_EQ(src.num_batches(), 4u);  // 3+3+3 plus the ragged tail of 1
  src.reshuffle(0);
  std::vector<float> seen;
  for (std::size_t b = 0; b < src.num_batches(); ++b) {
    auto batch = src.batch(b, 1);
    const std::size_t expect = b + 1 < src.num_batches() ? 3u : 1u;
    ASSERT_EQ(batch.labels.size(), expect);
    for (std::size_t i = 0; i < batch.labels.size(); ++i) seen.push_back(batch.x[i]);
  }
  // Every sample appears exactly once per epoch, ragged tail included.
  ASSERT_EQ(seen.size(), ds.size());
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_FLOAT_EQ(seen[i], static_cast<float>(i));
  }
  EXPECT_THROW(src.batch(4, 1), std::out_of_range);
}

TEST(ShuffledBatchSource, SameSeedSameEpochOrder) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  for (int i = 0; i < 17; ++i) ds.add_sample({static_cast<float>(i)}, 0, 0.0);
  ShuffledBatchSource a(ds, 4, 42);
  ShuffledBatchSource b(ds, 4, 42);
  for (const std::size_t epoch : {0u, 1u, 5u}) {
    a.reshuffle(epoch);
    b.reshuffle(epoch);
    for (std::size_t bi = 0; bi < a.num_batches(); ++bi) {
      const auto ba = a.batch(bi, 1);
      const auto bb = b.batch(bi, 1);
      ASSERT_EQ(ba.labels.size(), bb.labels.size());
      for (std::size_t i = 0; i < ba.labels.size(); ++i) {
        EXPECT_EQ(ba.x[i], bb.x[i]) << "epoch " << epoch << " batch " << bi;
      }
    }
  }
  // Different seeds produce different epoch-0 orders.
  ShuffledBatchSource c(ds, 17, 43);
  a.reshuffle(0);
  c.reshuffle(0);
  EXPECT_FALSE(a.batch(0, 1).x.allclose(c.batch(0, 1).x));
}

TEST(ShuffledBatchSource, ReshuffleIsPureFunctionOfSeedAndEpoch) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  for (int i = 0; i < 13; ++i) ds.add_sample({static_cast<float>(i)}, 0, 0.0);
  // Epoch 3's order must not depend on which epochs were drawn before it.
  ShuffledBatchSource direct(ds, 13, 9);
  direct.reshuffle(3);
  ShuffledBatchSource detour(ds, 13, 9);
  detour.reshuffle(7);
  detour.reshuffle(0);
  detour.reshuffle(3);
  const auto want = direct.batch(0, 1);
  const auto got = detour.batch(0, 1);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(want.x[i], got.x[i]);
}

TEST(ShuffledBatchSource, ReshuffleChangesOrder) {
  ArrayDataset ds({1, 1, 1}, 1, 2);
  for (int i = 0; i < 64; ++i) ds.add_sample({static_cast<float>(i)}, 0, 0.0);
  ShuffledBatchSource src(ds, 64, 7);
  src.reshuffle(0);
  auto b0 = src.batch(0, 1);
  src.reshuffle(1);
  auto b1 = src.batch(0, 1);
  EXPECT_FALSE(b0.x.allclose(b1.x));
}

// ------------------------------------------------------------- synthetic

class SyntheticPresets : public testing::TestWithParam<const char*> {};

TEST_P(SyntheticPresets, GeneratesConsistently) {
  const auto spec = synthetic_preset(GetParam(), 0.1);
  auto a = make_synthetic_vision(spec);
  auto b = make_synthetic_vision(spec);
  EXPECT_EQ(a.train->size(), spec.train_samples);
  EXPECT_EQ(a.test->size(), spec.test_samples);
  // Determinism: identical specs produce identical data.
  std::vector<float> fa(snn::shape_numel(a.train->frame_shape()));
  std::vector<float> fb(fa.size());
  a.train->write_frame(3, 0, fa);
  b.train->write_frame(3, 0, fb);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(a.train->label(3), b.train->label(3));
}

TEST_P(SyntheticPresets, AllClassesPresent) {
  const auto spec = synthetic_preset(GetParam(), 0.25);
  auto bundle = make_synthetic_vision(spec);
  std::vector<int> counts(spec.classes, 0);
  for (std::size_t i = 0; i < bundle.train->size(); ++i) {
    ++counts[static_cast<std::size_t>(bundle.train->label(i))];
  }
  for (const int c : counts) EXPECT_GT(c, 0);
}

TEST_P(SyntheticPresets, DifficultySkewedTowardEasy) {
  const auto spec = synthetic_preset(GetParam(), 0.25);
  auto bundle = make_synthetic_vision(spec);
  std::size_t easy = 0;
  for (std::size_t i = 0; i < bundle.train->size(); ++i) {
    easy += bundle.train->difficulty(i) < 0.5;
  }
  // Right-skewed: clearly more than half the samples are easy.
  EXPECT_GT(static_cast<double>(easy) / static_cast<double>(bundle.train->size()), 0.6);
}

INSTANTIATE_TEST_SUITE_P(Presets, SyntheticPresets,
                         testing::Values("sync10", "sync100", "syntin"));

TEST(Synthetic, UnknownPresetThrows) {
  EXPECT_THROW(synthetic_preset("cifar10"), std::invalid_argument);
}

TEST(Synthetic, TrainTestSplitsDiffer) {
  auto bundle = make_synthetic_vision(synthetic_preset("sync10", 0.1));
  std::vector<float> a(snn::shape_numel(bundle.train->frame_shape()));
  std::vector<float> b(a.size());
  bundle.train->write_frame(0, 0, a);
  bundle.test->write_frame(0, 0, b);
  EXPECT_NE(a, b);
}

TEST(Synthetic, HardSamplesNoisierThanEasy) {
  // The hardest decile should have markedly lower class-signal contrast than
  // the easiest decile: verify via correlation between difficulty and the
  // distance from the class prototype direction (proxy: sample L2 norm grows
  // with added clutter+noise variance relative to clean prototypes).
  auto spec = synthetic_preset("sync10", 0.25);
  auto bundle = make_synthetic_vision(spec);
  const auto& ds = *bundle.train;
  const std::size_t numel = snn::shape_numel(ds.frame_shape());
  double hard_noise = 0.0, easy_noise = 0.0;
  std::size_t hard_n = 0, easy_n = 0;
  std::vector<float> buf(numel);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const double d = ds.difficulty(i);
    if (d < 0.1 || d > 0.7) {
      ds.write_frame(i, 0, buf);
      double norm = 0.0;
      for (const float v : buf) norm += static_cast<double>(v) * v;
      if (d > 0.7) {
        hard_noise += norm;
        ++hard_n;
      } else {
        easy_noise += norm;
        ++easy_n;
      }
    }
  }
  ASSERT_GT(hard_n, 0u);
  ASSERT_GT(easy_n, 0u);
  // Hard samples carry extra clutter/noise energy on top of reduced signal.
  EXPECT_NE(hard_noise / hard_n, easy_noise / easy_n);
}

// ------------------------------------------------------------------- dvs

TEST(Dvs, FramesAreBinaryAndSparse) {
  auto bundle = make_synthetic_dvs(dvs_preset(0.1));
  const auto& ds = *bundle.train;
  EXPECT_EQ(ds.native_frames(), 10u);
  EXPECT_EQ(ds.frame_shape(), (snn::Shape{2, 16, 16}));
  const std::size_t numel = snn::shape_numel(ds.frame_shape());
  std::vector<float> buf(numel);
  double density = 0.0;
  for (std::size_t t = 0; t < 10; ++t) {
    ds.write_frame(0, t, buf);
    std::size_t on = 0;
    for (const float v : buf) {
      EXPECT_TRUE(v == 0.0f || v == 1.0f);
      on += v != 0.0f;
    }
    density += static_cast<double>(on) / static_cast<double>(numel);
  }
  density /= 10.0;
  EXPECT_GT(density, 0.01);
  EXPECT_LT(density, 0.6);
}

TEST(Dvs, Deterministic) {
  auto a = make_synthetic_dvs(dvs_preset(0.05));
  auto b = make_synthetic_dvs(dvs_preset(0.05));
  std::vector<float> fa(snn::shape_numel(a.train->frame_shape()));
  std::vector<float> fb(fa.size());
  a.train->write_frame(2, 4, fa);
  b.train->write_frame(2, 4, fb);
  EXPECT_EQ(fa, fb);
}

TEST(Dvs, FramesEvolveOverTime) {
  auto bundle = make_synthetic_dvs(dvs_preset(0.05));
  std::vector<float> f0(snn::shape_numel(bundle.train->frame_shape()));
  std::vector<float> f5(f0.size());
  bundle.train->write_frame(0, 0, f0);
  bundle.train->write_frame(0, 5, f5);
  EXPECT_NE(f0, f5);  // the stimulus drifts
}

TEST(Dvs, AllClassesPresent) {
  auto bundle = make_synthetic_dvs(dvs_preset(0.25));
  std::vector<int> counts(bundle.train->num_classes(), 0);
  for (std::size_t i = 0; i < bundle.train->size(); ++i) {
    ++counts[static_cast<std::size_t>(bundle.train->label(i))];
  }
  for (const int c : counts) EXPECT_GT(c, 0);
}

}  // namespace
}  // namespace dtsnn::data
