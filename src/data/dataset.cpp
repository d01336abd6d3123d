#include "data/dataset.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace dtsnn::data {

DatasetStorageStats Dataset::storage_stats() const {
  DatasetStorageStats stats;
  // Frames plus per-sample metadata (label, difficulty, noise stddev) — the
  // same accounting ShardedDataset uses, so both backends report identical
  // logical bytes for identical data.
  stats.logical_bytes =
      size() * (native_frames() * snn::shape_numel(frame_shape()) * sizeof(float) +
                sizeof(int) + sizeof(double) + sizeof(float));
  stats.resident_bytes = stats.logical_bytes;
  stats.peak_resident_bytes = stats.logical_bytes;
  return stats;
}

ArrayDataset::ArrayDataset(snn::Shape frame_shape, std::size_t frames_per_sample,
                           std::size_t num_classes)
    : frame_shape_(std::move(frame_shape)),
      frame_numel_(snn::shape_numel(frame_shape_)),
      frames_per_sample_(frames_per_sample),
      num_classes_(num_classes) {
  if (frames_per_sample_ == 0 || num_classes_ == 0 || frame_numel_ == 0) {
    throw std::invalid_argument("ArrayDataset: degenerate configuration");
  }
}

std::size_t ArrayDataset::add_sample(std::vector<float> frames, int label,
                                     double difficulty, double temporal_noise) {
  if (frames.size() != frame_numel_ * frames_per_sample_) {
    throw std::invalid_argument(
        "ArrayDataset::add_sample: frame data has " + std::to_string(frames.size()) +
        " floats, expected " + std::to_string(frame_numel_ * frames_per_sample_) +
        " (frame_numel * frames_per_sample)");
  }
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
    throw std::invalid_argument("ArrayDataset::add_sample: label out of range");
  }
  data_.insert(data_.end(), frames.begin(), frames.end());
  labels_.push_back(label);
  difficulty_.push_back(difficulty);
  temporal_noise_.push_back(static_cast<float>(temporal_noise));
  return labels_.size() - 1;
}

void ArrayDataset::write_frame(std::size_t sample, std::size_t t,
                               std::span<float> dst) const {
  if (sample >= size()) {
    throw std::out_of_range("ArrayDataset::write_frame: sample " + std::to_string(sample) +
                            " out of range (size " + std::to_string(size()) + ")");
  }
  if (dst.size() != frame_numel_) {
    throw std::invalid_argument("ArrayDataset::write_frame: destination holds " +
                                std::to_string(dst.size()) + " floats, expected " +
                                std::to_string(frame_numel_));
  }
  const std::size_t frame = std::min(t, frames_per_sample_ - 1);
  const float* src = data_.data() + (sample * frames_per_sample_ + frame) * frame_numel_;
  std::memcpy(dst.data(), src, frame_numel_ * sizeof(float));
  detail::apply_temporal_noise(dst, temporal_noise_[sample], noise_seed_, sample, t);
}

std::span<const float> ArrayDataset::frame_data(std::size_t sample, std::size_t t) const {
  const std::size_t frame = std::min(t, frames_per_sample_ - 1);
  return {data_.data() + (sample * frames_per_sample_ + frame) * frame_numel_,
          frame_numel_};
}

snn::EncodedBatch materialize_batch(const Dataset& dataset,
                                    std::span<const std::size_t> indices,
                                    std::size_t timesteps) {
  if (indices.empty()) {
    throw std::invalid_argument("materialize_batch: empty indices");
  }
  if (timesteps == 0) {
    throw std::invalid_argument("materialize_batch: timesteps == 0");
  }
  dataset.prefetch(indices);
  const snn::Shape fs = dataset.frame_shape();
  const std::size_t b = indices.size();
  const std::size_t frame_numel = snn::shape_numel(fs);

  snn::EncodedBatch batch;
  batch.x = snn::Tensor({timesteps * b, fs[0], fs[1], fs[2]});
  batch.labels.resize(b);
  // Sample-major fill: all of a sample's timesteps are read consecutively,
  // so a storage-backed dataset pages each shard at most once per chunk even
  // when the chunk spans more shards than the cache holds (t-major order
  // would re-page every shard `timesteps` times). The writes are
  // independent, so the encoded tensor is identical either way.
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t t = 0; t < timesteps; ++t) {
      float* dst = batch.x.data() + (t * b + i) * frame_numel;
      dataset.write_frame(indices[i], t, {dst, frame_numel});
    }
  }
  for (std::size_t i = 0; i < b; ++i) batch.labels[i] = dataset.label(indices[i]);
  return batch;
}

// ------------------------------------------------------ ShuffledBatchSource

ShuffledBatchSource::ShuffledBatchSource(const Dataset& dataset, std::size_t batch_size,
                                         std::uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), seed_(seed), order_(dataset.size()) {
  if (batch_size_ == 0) throw std::invalid_argument("ShuffledBatchSource: batch_size 0");
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
}

std::size_t ShuffledBatchSource::num_batches() const {
  return (order_.size() + batch_size_ - 1) / batch_size_;  // final batch may be ragged
}

snn::EncodedBatch ShuffledBatchSource::batch(std::size_t index,
                                             std::size_t timesteps) const {
  if (index >= num_batches()) {
    throw std::out_of_range("ShuffledBatchSource::batch index out of range");
  }
  const std::size_t begin = index * batch_size_;
  const std::size_t b = std::min(batch_size_, order_.size() - begin);
  const std::span<const std::size_t> slice(order_.data() + begin, b);
  return materialize_batch(dataset_, slice, timesteps);
}

void ShuffledBatchSource::reshuffle(std::size_t epoch) {
  // A pure function of (seed, epoch): the order never depends on how many
  // epochs were drawn before, so replicas and resumed runs agree.
  std::vector<std::size_t> order(order_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ull * (epoch + 1)));
  rng.shuffle(order);
  order_ = std::move(order);
}

}  // namespace dtsnn::data
