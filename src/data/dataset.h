// Dataset abstractions.
//
// A Dataset yields per-sample frames. Static image datasets expose a single
// frame which the encoder repeats at every timestep (the paper's direct
// encoding, where the first conv+LIF block g_1 learns the spike code); event
// (DVS-like) datasets expose a distinct frame per timestep.
//
// Storage is decoupled from the logical sample space: ArrayDataset holds
// everything in one contiguous array, ShardedDataset (data/sharded_dataset.h)
// pages frame blocks through a bounded cache. Consumers encode one chunk at
// a time with materialize_batch (or one frame at a time with write_frame)
// and never need the whole split encoded at once, so datasets larger than
// RAM evaluate and serve out of the box.
//
// Every synthetic sample also carries a scalar difficulty in [0,1] used by
// the Fig. 8 visualization and by dataset-quality tests — it is *not*
// visible to the models.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "snn/tensor.h"
#include "snn/trainer.h"
#include "util/rng.h"

namespace dtsnn::data {

namespace detail {

/// The one definition of the deterministic per-(sample, timestep) sensor
/// noise stream: keyed by (seed, *global* sample index, timestep), so any
/// storage backend serving the same sample produces bitwise-identical
/// frames. This models per-timestep analog encoding noise: temporal
/// integration over more timesteps averages it away, which is what makes
/// extra timesteps informative for direct-encoded images.
inline void apply_temporal_noise(std::span<float> frame, float sigma,
                                 std::uint64_t seed, std::size_t sample,
                                 std::size_t t) {
  if (sigma <= 0.0f) return;
  util::Rng rng(seed ^ (sample * 0x9e3779b97f4a7c15ull) ^
                (t * 0xc2b2ae3d27d4eb4full));
  for (auto& v : frame) v += sigma * static_cast<float>(rng.gaussian());
}

}  // namespace detail

/// Storage footprint and cache behavior of a dataset (storage_stats()).
/// Fully-resident datasets report logical == resident and zero cache
/// counters; storage-backed datasets report their live cache state.
struct DatasetStorageStats {
  std::size_t logical_bytes = 0;        ///< full payload (all frames + metadata)
  std::size_t resident_bytes = 0;       ///< currently held in memory
  std::size_t peak_resident_bytes = 0;  ///< high-water mark of resident_bytes
  std::size_t shard_count = 0;          ///< 0 for unsharded storage
  std::size_t cache_slots = 0;          ///< 0 when storage is fully resident
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;

  [[nodiscard]] double hit_rate() const {
    const std::size_t touches = cache_hits + cache_misses;
    return touches ? static_cast<double>(cache_hits) / static_cast<double>(touches)
                   : 0.0;
  }
};

class Dataset {
 public:
  virtual ~Dataset() = default;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::size_t num_classes() const = 0;
  /// Per-frame shape [C, H, W].
  [[nodiscard]] virtual snn::Shape frame_shape() const = 0;
  [[nodiscard]] virtual int label(std::size_t sample) const = 0;
  [[nodiscard]] virtual double difficulty(std::size_t sample) const = 0;
  /// Number of native frames (1 for static images, T for event streams).
  [[nodiscard]] virtual std::size_t native_frames() const = 0;

  /// Write frame `t` of `sample` into `dst` (size = numel of frame_shape).
  /// Static datasets ignore `t`; event datasets clamp t to native_frames-1.
  /// Throws std::out_of_range for sample >= size() and std::invalid_argument
  /// when `dst` is not exactly one frame, on every implementation.
  /// Const access is thread-safe on every implementation (the evaluation
  /// workers and the serving worker share one dataset).
  virtual void write_frame(std::size_t sample, std::size_t t,
                           std::span<float> dst) const = 0;

  /// Hint that `samples` are about to be read: storage-backed datasets warm
  /// their caches so the subsequent write_frame calls hit. Default no-op.
  virtual void prefetch(std::span<const std::size_t> samples) const {
    (void)samples;
  }

  /// Footprint + cache counters; the default assumes fully-resident storage.
  [[nodiscard]] virtual DatasetStorageStats storage_stats() const;
};

/// Concrete in-memory dataset; produced by the synthetic generators.
class ArrayDataset final : public Dataset {
 public:
  ArrayDataset(snn::Shape frame_shape, std::size_t frames_per_sample,
               std::size_t num_classes);

  /// Append one sample (frames laid out frame-major). Returns its index.
  /// The frame vector must hold exactly frames_per_sample * frame_numel
  /// floats (anything else throws — a short vector would silently corrupt
  /// every later sample's reads). `temporal_noise` adds i.i.d. Gaussian
  /// sensor noise of that stddev to every (timestep, pixel) when frames are
  /// read back — deterministic per (sample, timestep), see
  /// detail::apply_temporal_noise.
  std::size_t add_sample(std::vector<float> frames, int label, double difficulty,
                         double temporal_noise = 0.0);

  /// Seed of the deterministic per-timestep noise stream.
  void set_noise_seed(std::uint64_t seed) { noise_seed_ = seed; }
  [[nodiscard]] std::uint64_t noise_seed() const { return noise_seed_; }
  /// Per-sample sensor-noise stddev (exported into shard files).
  [[nodiscard]] float temporal_noise(std::size_t sample) const {
    return temporal_noise_.at(sample);
  }

  [[nodiscard]] std::size_t size() const override { return labels_.size(); }
  [[nodiscard]] std::size_t num_classes() const override { return num_classes_; }
  [[nodiscard]] snn::Shape frame_shape() const override { return frame_shape_; }
  [[nodiscard]] int label(std::size_t sample) const override { return labels_.at(sample); }
  [[nodiscard]] double difficulty(std::size_t sample) const override {
    return difficulty_.at(sample);
  }
  [[nodiscard]] std::size_t native_frames() const override { return frames_per_sample_; }
  void write_frame(std::size_t sample, std::size_t t, std::span<float> dst) const override;

  /// Direct read access to a stored frame (raw, pre-noise; for visualization
  /// and shard export).
  [[nodiscard]] std::span<const float> frame_data(std::size_t sample, std::size_t t) const;

 private:
  snn::Shape frame_shape_;
  std::size_t frame_numel_;
  std::size_t frames_per_sample_;
  std::size_t num_classes_;
  std::uint64_t noise_seed_ = 0x5e15e15e1ull;
  std::vector<float> data_;
  std::vector<int> labels_;
  std::vector<double> difficulty_;
  std::vector<float> temporal_noise_;
};

/// Encode samples `indices` into a time-major batch [T*B, C, H, W]. Prefetches
/// the indices first, so storage-backed datasets page each chunk in once.
/// Throws std::invalid_argument for empty `indices` or timesteps == 0 (a
/// zero-sized encoded tensor is never meaningful downstream).
snn::EncodedBatch materialize_batch(const Dataset& dataset,
                                    std::span<const std::size_t> indices,
                                    std::size_t timesteps);

/// BatchSource over a Dataset with per-epoch reshuffling. The final batch may
/// be ragged (smaller than batch_size): every epoch covers every sample
/// exactly once.
class ShuffledBatchSource final : public snn::BatchSource {
 public:
  ShuffledBatchSource(const Dataset& dataset, std::size_t batch_size, std::uint64_t seed);

  [[nodiscard]] std::size_t num_batches() const override;
  [[nodiscard]] snn::EncodedBatch batch(std::size_t index,
                                        std::size_t timesteps) const override;
  void reshuffle(std::size_t epoch) override;

 private:
  const Dataset& dataset_;
  std::size_t batch_size_;
  std::uint64_t seed_;
  std::vector<std::size_t> order_;
};

}  // namespace dtsnn::data
