#include "core/live_pool.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "snn/layer.h"
#include "snn/loss.h"

namespace dtsnn::core::detail {

LivePoolRows::LivePoolRows(snn::SpikingNetwork& net, std::size_t offset,
                           std::size_t capacity)
    : net_(net),
      classes_(net.num_classes()),
      offset_(offset),
      capacity_(capacity),
      frame_numel_(snn::shape_numel(net.sample_shape())),
      cum_(classes_) {
  rows_.reserve(capacity);
  acc_.reserve(capacity * classes_);
  keep_.reserve(capacity);
  encode_errors_.reserve(capacity);
  leaving_.reserve(capacity);
  frames_.resize(capacity * frame_numel_);
}

void LivePoolRows::push_row(const PoolAdmission& admission) {
  if (admission.policy == nullptr) {
    throw std::invalid_argument("LivePool::admit: null exit policy");
  }
  if (admission.budget == 0) {
    throw std::invalid_argument("LivePool::admit: zero timestep budget");
  }
  if (windowed() && rows_.size() == capacity_) {
    throw std::invalid_argument("LivePool::admit: the window is full");
  }
  rows_.push_back({admission, 0, {}});
  acc_.resize(rows_.size() * classes_, 0.0);
  keep_.push_back(snn::Layer::kFreshRow);
  reconciled_ = false;
}

const float* LivePoolRows::forward(const data::Dataset& dataset) {
  if (dataset.frame_shape() != net_.sample_shape()) {
    throw std::invalid_argument("LivePool: dataset frames " +
                                snn::shape_to_string(dataset.frame_shape()) +
                                " do not match the network's samples " +
                                snn::shape_to_string(net_.sample_shape()));
  }
  // Survivors keep their rows (in order) and admissions become fresh
  // zero-state rows, so admission is an in-place move that never perturbs a
  // resident's trajectory. A drained whole-network pool starts a new
  // inference sequence; a window's admissions into a drained pool are all
  // fresh rows.
  const std::size_t rows = rows_.size();
  [[maybe_unused]] const bool resumed = active_;
  if (windowed()) {
    if (!reconciled_) net_.compact_window({offset_, held_}, keep_);
  } else if (!active_) {
    net_.begin_inference(rows);
  } else if (!reconciled_) {
    net_.compact_inference_state(keep_);
  }
  active_ = true;
  held_ = rows;
  std::iota(keep_.begin(), keep_.end(), std::size_t{0});
  reconciled_ = true;

  // The step that begins an inference sequence encodes serially, so a pool
  // that is its process's first OpenMP user enters that first region in the
  // network step. The first region allocates the OpenMP runtime's lasting
  // thread-pool bookkeeping; entered ahead of the step's first buffers, it
  // was placed mid-heap and split memory freed later (perfbench
  // static_sharded peak RSS 66.5 -> 73.2 MB on a 4-core Xeon). A sequence
  // runs many steps (about a hundred per perfbench job), so that one serial
  // encode is rare.
  if (frames_.size() < rows * frame_numel_) frames_.resize(rows * frame_numel_);
  encode_errors_.assign(rows, nullptr);
#pragma omp parallel for schedule(static) if (resumed)
  for (std::size_t j = 0; j < rows; ++j) {
    float* frame = frames_.data() + j * frame_numel_;
    try {
      dataset.write_frame(rows_[j].rule.sample, rows_[j].t, {frame, frame_numel_});
    } catch (...) {
      // The row fails at decide(); the step runs it on a zero frame.
      encode_errors_[j] = std::current_exception();
      std::fill(frame, frame + frame_numel_, 0.0f);
    }
  }
  return net_.step_window({offset_, rows}, frames_.data());
}

std::optional<ExitReason> LivePoolRows::decide(std::size_t j, const float* logits,
                                               std::exception_ptr& error) {
  Row& row = rows_[j];
  if (encode_errors_[j]) {
    error = std::move(encode_errors_[j]);
    return ExitReason::kFailed;
  }
  snn::cumulative_mean_step(logits, acc_.data() + j * classes_, cum_.data(), classes_,
                            row.t);
  if (row.rule.record_logits) row.history.insert(row.history.end(), cum_.begin(), cum_.end());
  if (row.t + 1 == row.rule.budget) return ExitReason::kBudget;
  try {
    if (row.rule.policy->should_exit(cum_)) return ExitReason::kPolicy;
  } catch (...) {
    error = std::current_exception();
    return ExitReason::kFailed;
  }
  return std::nullopt;
}

InferenceResult LivePoolRows::exit_result(std::size_t j, ExitReason reason) {
  Row& row = rows_[j];
  InferenceResult r;
  if (reason == ExitReason::kFailed) {
    r.exit_timestep = row.t + 1;
    row.history.clear();
  } else {
    r = make_exit_result(cum_, row.t, row.rule.record_logits, row.history);
  }
  r.sample = row.rule.sample;
  return r;
}

void LivePoolRows::retire(bool stepped) {
  std::size_t dst = 0;
  for (std::size_t j = 0; j < rows_.size(); ++j) {
    if (leaving_[j]) continue;
    if (dst != j) {
      rows_[dst] = std::move(rows_[j]);
      std::copy(acc_.begin() + static_cast<std::ptrdiff_t>(j * classes_),
                acc_.begin() + static_cast<std::ptrdiff_t>((j + 1) * classes_),
                acc_.begin() + static_cast<std::ptrdiff_t>(dst * classes_));
      keep_[dst] = keep_[j];
    }
    if (stepped) ++rows_[dst].t;
    ++dst;
  }
  if (dst == rows_.size()) return;
  rows_.resize(dst);
  acc_.resize(dst * classes_);
  keep_.resize(dst);
  reconciled_ = false;
  if (rows_.empty()) active_ = false;  // the next admission begins afresh
}

void LivePoolRows::clear_rows() {
  rows_.clear();
  acc_.clear();
  keep_.clear();
  active_ = false;
  reconciled_ = false;
}

}  // namespace dtsnn::core::detail
