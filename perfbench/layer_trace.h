// Per-layer tracing for the benchmark, recorded from outside the program.
//
// trace_live_pool drives the batched engine's live-pool loop (encode each
// slot's frame -> step -> cumulative mean + exit decision -> compact and
// refill) from public calls only, with a steady_clock span around each
// phase and around every leaf layer's step(). Its decisions must equal
// core::BatchedSequentialEngine's; the caller checks that. Nothing here
// feeds back into a decision.

#pragma once

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "snn/network.h"

namespace dtsnn::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Dataset decorator that times every write_frame call (the data layer's
/// span) and forwards everything else unchanged. Single-threaded use only.
class TimedDataset final : public data::Dataset {
 public:
  explicit TimedDataset(const data::Dataset& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }
  [[nodiscard]] snn::Shape frame_shape() const override { return inner_.frame_shape(); }
  [[nodiscard]] int label(std::size_t sample) const override { return inner_.label(sample); }
  [[nodiscard]] double difficulty(std::size_t sample) const override {
    return inner_.difficulty(sample);
  }
  [[nodiscard]] std::size_t native_frames() const override {
    return inner_.native_frames();
  }
  void write_frame(std::size_t sample, std::size_t t,
                   std::span<float> dst) const override;
  void prefetch(std::span<const std::size_t> samples) const override {
    inner_.prefetch(samples);
  }
  [[nodiscard]] data::DatasetStorageStats storage_stats() const override {
    return inner_.storage_stats();
  }

  [[nodiscard]] std::size_t calls() const { return calls_; }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  const data::Dataset& inner_;
  mutable std::size_t calls_ = 0;
  mutable double seconds_ = 0.0;
};

/// One leaf of net.body(), stepped and timed on its own.
struct LeafTrace {
  std::string name;          ///< "<index>_<Layer::name()>"
  bool weighted = false;     ///< Conv2d or Linear
  double self_s = 0.0;       ///< summed step() wall time
  std::size_t calls = 0;
  /// Calls whose whole-input density was below snn::kSparseDensityThreshold
  /// (the calls Conv2d routes to its scatter kernel).
  std::size_t sparse_calls = 0;
  double dense_macs_per_row = 0.0;  ///< one sample at one timestep
  double dense_macs = 0.0;     ///< sum over rows of the layer's dense MACs
  double executed_macs = 0.0;  ///< the same, weighted by each row's input density
  /// Per sample timestep t (0-based): summed row input density and rows.
  std::vector<double> density_sum;
  std::vector<double> density_rows;
};

/// Everything one or more trace_live_pool passes measured.
struct LivePoolTrace {
  std::size_t samples = 0;
  std::size_t steps = 0;
  double live_rows = 0.0;  ///< summed pool occupancy over steps
  double wall_s = 0.0;     ///< whole loop, instrumentation included
  double encode_s = 0.0;
  double step_s = 0.0;     ///< span around the leaf-by-leaf step
  double decide_s = 0.0;
  double compact_s = 0.0;
  double instrument_s = 0.0;  ///< per-row density counting (detail mode)
  std::vector<std::size_t> exit_counts;  ///< [budget], samples exiting at t+1
  std::vector<LeafTrace> leaves;
  std::vector<core::InferenceResult> results;  ///< completion order
};

/// Run `samples` through the live pool of `batch` slots, accumulating into
/// `trace`. With `detail` on, every Conv2d/Linear input is also counted per
/// row (density by timestep, executed MACs, sparse-call share); that work
/// is timed as instrument_s, outside the step span.
void trace_live_pool(snn::SpikingNetwork& net, const data::Dataset& dataset,
                     const core::ExitPolicy& policy, std::size_t budget,
                     std::size_t batch, std::span<const std::size_t> samples,
                     bool detail, LivePoolTrace& trace);

}  // namespace dtsnn::perfbench
