#include "data/sharded_dataset.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/env.h"
#include "util/mapped_file.h"

namespace dtsnn::data {

namespace {

std::size_t resolve_cache_slots(std::size_t configured) {
  if (configured != 0) return configured;
  // Construction-time read; datasets are built before worker threads start.
  // env_u64 rejects junk, "-1" (no sign accepted), overflow, and — via
  // min_value — zero, so a bad value can never void the bounded-working-set
  // guarantee quietly.
  if (const auto env = util::env_u64("DTSNN_SHARD_CACHE_SLOTS", /*min_value=*/1)) {
    return static_cast<std::size_t>(*env);
  }
  return ShardCacheConfig::kDefaultCacheSlots;
}

ShardIo resolve_io(ShardIo configured) {
  if (configured == ShardIo::kBuffered) return configured;
  if (configured == ShardIo::kMapped) {
    if (!util::MappedFile::mmap_supported()) {
      throw std::invalid_argument(
          "ShardCacheConfig: ShardIo::kMapped requested but mmap is unsupported on "
          "this platform");
    }
    return configured;
  }
  // kAuto: DTSNN_SHARD_MMAP=0 forces the portable buffered path (useful for
  // A/B-ing the zero-copy plane); otherwise map whenever the platform can.
  const auto flag = util::env_flag("DTSNN_SHARD_MMAP");
  if (flag.has_value() && !*flag) return ShardIo::kBuffered;
  return util::MappedFile::mmap_supported() ? ShardIo::kMapped : ShardIo::kBuffered;
}

void check_sibling(const ShardHeader& first, const std::filesystem::path& first_path,
                   const ShardHeader& header, const std::filesystem::path& path) {
  const bool mismatch = header.frame_shape != first.frame_shape ||
                        header.frames_per_sample != first.frames_per_sample ||
                        header.num_classes != first.num_classes ||
                        header.noise_seed != first.noise_seed ||
                        header.shard_count != first.shard_count;
  if (mismatch) {
    throw ShardError(ShardError::Kind::kShapeMismatch,
                     "shard " + path.string() +
                         ": header disagrees with sibling shard " + first_path.string() +
                         " (frame shape / frames per sample / classes / noise seed / "
                         "shard count must match across a dataset's shards)");
  }
}

}  // namespace

ShardedDataset::ShardedDataset(const std::filesystem::path& dir, ShardCacheConfig config)
    : cache_slots_(resolve_cache_slots(config.cache_slots)), io_(resolve_io(config.io)) {
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == kShardExtension) paths.push_back(entry.path());
  }
  if (ec) {
    throw ShardError(ShardError::Kind::kIo,
                     "ShardedDataset: cannot read " + dir.string() + ": " + ec.message());
  }
  if (paths.empty()) {
    throw ShardError(ShardError::Kind::kIo, "ShardedDataset: no " +
                                                std::string(kShardExtension) +
                                                " files in " + dir.string());
  }
  std::sort(paths.begin(), paths.end());

  ShardHeader first;
  std::vector<int> labels;
  std::vector<double> difficulty;
  std::vector<float> temporal_noise;
  for (const auto& path : paths) {
    const ShardReader reader(path);
    const ShardHeader& header = reader.header();
    if (info_.empty()) {
      first = header;
      frame_shape_ = header.frame_shape;
      frame_numel_ = header.frame_numel();
      frames_per_sample_ = header.frames_per_sample;
      num_classes_ = header.num_classes;
      noise_seed_ = header.noise_seed;
    } else {
      check_sibling(first, info_.front().path, header, path);
    }
    // Ordinal i must sit at sorted position i: the noise stream and labels
    // are addressed by global sample index, so a missing or duplicated
    // middle shard would silently shift every later sample's identity.
    if (header.shard_index != info_.size()) {
      throw ShardError(ShardError::Kind::kIncompleteSet,
                       "shard " + path.string() + ": holds ordinal " +
                           std::to_string(header.shard_index) +
                           " but is shard file #" + std::to_string(info_.size()) +
                           " of " + dir.string() +
                           " — the directory is missing or duplicating shards");
    }
    ShardInfo info;
    info.path = path;
    info.first_sample = labels_.size();
    info.samples = header.num_samples;
    reader.read_metadata(labels, difficulty, temporal_noise);
    labels_.insert(labels_.end(), labels.begin(), labels.end());
    difficulty_.insert(difficulty_.end(), difficulty.begin(), difficulty.end());
    temporal_noise_.insert(temporal_noise_.end(), temporal_noise.begin(),
                           temporal_noise.end());
    frame_bytes_total_ += header.frames_floats() * sizeof(float);
    max_shard_frame_bytes_ =
        std::max(max_shard_frame_bytes_, header.frames_floats() * sizeof(float));
    info_.push_back(std::move(info));
  }
  if (info_.size() != first.shard_count) {
    throw ShardError(ShardError::Kind::kIncompleteSet,
                     "ShardedDataset: " + dir.string() + " holds " +
                         std::to_string(info_.size()) + " shard files but the set "
                         "declares " + std::to_string(first.shard_count) +
                         " — trailing shards are missing");
  }
  metadata_bytes_ = labels_.size() * (sizeof(int) + sizeof(double) + sizeof(float));
  {
    util::MutexLock lk(mu_);
    slots_.resize(info_.size());
  }
}

std::size_t ShardedDataset::locate(std::size_t sample) const {
  // First shard whose range starts past `sample`, minus one. info_ is
  // immutable after construction, so no lock.
  const auto it = std::upper_bound(
      info_.begin(), info_.end(), sample,
      [](std::size_t s, const ShardInfo& info) { return s < info.first_sample; });
  return static_cast<std::size_t>(it - info_.begin()) - 1;
}

ShardFrames ShardedDataset::load_block(std::size_t shard) const {
  return ShardReader(info_[shard].path).map_frames(io_);
}

bool ShardedDataset::reserve_slot() const {
  if (resident_.size() + loading_ < cache_slots_) {
    ++loading_;
    return true;
  }
  // Evict the least-recently-used *unpinned* resident shard. Pinned shards
  // have a reader copying from their block right now; in-flight loads are
  // not in resident_ and are never victims.
  std::size_t victim_pos = resident_.size();
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    const Slot& cand = slots_[resident_[i]];
    if (cand.pins != 0) continue;
    if (victim_pos == resident_.size() ||
        cand.last_used < slots_[resident_[victim_pos]].last_used) {
      victim_pos = i;
    }
  }
  if (victim_pos == resident_.size()) return false;  // every slot pinned/claimed
  Slot& victim = slots_[resident_[victim_pos]];
  resident_bytes_ -= victim.block.bytes();
  victim.block = ShardFrames();
  victim.state = SlotState::kEvicted;
  resident_.erase(resident_.begin() + static_cast<std::ptrdiff_t>(victim_pos));
  ++cache_evictions_;
  ++loading_;
  return true;
}

void ShardedDataset::publish_loaded(std::size_t shard, ShardFrames&& block,
                                    std::size_t pins) const {
  Slot& slot = slots_[shard];
  slot.block = std::move(block);
  slot.state = SlotState::kResident;
  slot.pins = pins;
  --loading_;
  resident_.push_back(shard);
  resident_bytes_ += slot.block.bytes();
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  cv_.notify_all();
}

void ShardedDataset::abort_load(std::size_t shard) const {
  util::MutexLock lk(mu_);
  slots_[shard].state = SlotState::kEvicted;
  --loading_;
  cv_.notify_all();
}

std::span<const float> ShardedDataset::pin_shard(std::size_t shard) const {
  {
    util::MutexLock lk(mu_);
    for (;;) {
      Slot& slot = slots_[shard];
      if (slot.state == SlotState::kResident) {
        slot.last_used = ++lru_tick_;
        ++slot.pins;
        ++cache_hits_;
        return slot.block.frames();
      }
      if (slot.state == SlotState::kLoading) {
        // Another thread is filling this very shard — coalesce onto its load
        // instead of issuing a duplicate read (counts as a hit once it
        // lands: this thread caused no I/O).
        cv_.wait(lk);
        continue;
      }
      // kEvicted: claim capacity, or wait for an unpin/publish to free some.
      if (!reserve_slot()) {
        cv_.wait(lk);
        continue;
      }
      slot.state = SlotState::kLoading;
      slot.last_used = ++lru_tick_;
      ++cache_misses_;
      break;
    }
  }
  // Disk I/O with mu_ released: concurrent readers keep hitting other
  // resident shards while this load is in flight.
  ShardFrames block;
  try {
    block = load_block(shard);
  } catch (...) {
    abort_load(shard);
    throw;
  }
  util::MutexLock lk(mu_);
  publish_loaded(shard, std::move(block), /*pins=*/1);
  return slots_[shard].block.frames();
}

void ShardedDataset::unpin_shard(std::size_t shard) const {
  util::MutexLock lk(mu_);
  Slot& slot = slots_[shard];
  if (--slot.pins == 0) {
    // The shard just became evictable — wake reserve_slot waiters.
    cv_.notify_all();
  }
}

void ShardedDataset::warm_shard(std::size_t shard) const {
  {
    util::MutexLock lk(mu_);
    Slot& slot = slots_[shard];
    if (slot.state == SlotState::kResident) {
      slot.last_used = ++lru_tick_;
      ++cache_hits_;
      return;
    }
    if (slot.state == SlotState::kLoading) return;  // load already in flight
    if (!reserve_slot()) return;  // prefetch is a hint: never wait, never harm
    slot.state = SlotState::kLoading;
    slot.last_used = ++lru_tick_;
    ++cache_misses_;
  }
  ShardFrames block;
  try {
    block = load_block(shard);
  } catch (...) {
    abort_load(shard);
    throw;
  }
  util::MutexLock lk(mu_);
  // pins = 0: prefetch warms, the consumer pins later.
  publish_loaded(shard, std::move(block), /*pins=*/0);
}

void ShardedDataset::write_frame(std::size_t sample, std::size_t t,
                                 std::span<float> dst) const {
  if (sample >= labels_.size()) {
    throw std::out_of_range("ShardedDataset::write_frame: sample " +
                            std::to_string(sample) + " out of range (size " +
                            std::to_string(labels_.size()) + ")");
  }
  if (dst.size() != frame_numel_) {
    throw std::invalid_argument("ShardedDataset::write_frame: destination holds " +
                                std::to_string(dst.size()) + " floats, expected " +
                                std::to_string(frame_numel_));
  }
  const std::size_t frame = std::min(t, frames_per_sample_ - 1);
  const std::size_t shard = locate(sample);
  const std::size_t local = sample - info_[shard].first_sample;

  const std::span<const float> frames = pin_shard(shard);
  // Only the (noexcept) copy sits between pin and unpin, so no unwind guard
  // is needed; the pin keeps eviction away from the block while we read it.
  const float* src = frames.data() + (local * frames_per_sample_ + frame) * frame_numel_;
  std::memcpy(dst.data(), src, frame_numel_ * sizeof(float));
  unpin_shard(shard);

  // Same stream, keyed by the *global* sample index, as every other storage
  // backend — bitwise identity does not depend on shard layout.
  detail::apply_temporal_noise(dst, temporal_noise_[sample], noise_seed_, sample, t);
}

void ShardedDataset::prefetch(std::span<const std::size_t> samples) const {
  // Dedup to shards lock-free (locate reads the immutable table), then warm
  // each best-effort.
  std::vector<std::size_t> wanted;
  for (const std::size_t sample : samples) {
    if (sample >= labels_.size()) continue;  // materialize_batch validates later
    const std::size_t shard = locate(sample);
    if (std::find(wanted.begin(), wanted.end(), shard) == wanted.end()) {
      wanted.push_back(shard);
      if (wanted.size() == cache_slots_) break;
    }
  }
  for (const std::size_t shard : wanted) warm_shard(shard);
}

DatasetStorageStats ShardedDataset::storage_stats() const {
  util::MutexLock lk(mu_);
  DatasetStorageStats stats;
  stats.logical_bytes = frame_bytes_total_ + metadata_bytes_;
  stats.resident_bytes = resident_bytes_ + metadata_bytes_;
  stats.peak_resident_bytes = peak_resident_bytes_ + metadata_bytes_;
  stats.shard_count = info_.size();
  stats.cache_slots = cache_slots_;
  stats.cache_hits = cache_hits_;
  stats.cache_misses = cache_misses_;
  stats.cache_evictions = cache_evictions_;
  return stats;
}

}  // namespace dtsnn::data
