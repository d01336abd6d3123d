// Layer interface for the spiking network library.
//
// Time-major convention: during multi-step processing, activations carry all
// T timesteps stacked on the leading axis, shape [T*B, C, H, W] (or [T*B, F]
// after flattening), with timestep t occupying rows [t*B, (t+1)*B). Stateless
// layers (conv, linear, pooling, norm) simply see a batch of T*B samples;
// temporal layers (LIF) slice time internally. set_time(T, B) announces the
// temporal structure before each forward pass.
//
// Each layer also supports a *stateful single-step* path used by the
// stepping DT-SNN engines for true early termination: begin_steps() opens a
// sequence, reserve_steps() sizes the step state for a number of rows and
// computes every weight-derived cache, and step_window() runs one timestep
// of a StepWindow, a range of those rows, with temporal layers keeping
// their membrane state across calls. A window step writes only its own rows
// of the state and no layer member, so several threads can step disjoint
// windows of one network at once. step(x) is the window at offset 0 over
// every row of x. Sequential runs each Conv2d -> BatchNorm2d -> Lif run
// fused (snn/network.h), bitwise equal to stepping the three leaves in
// turn.

#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "snn/tensor.h"
#include "util/gemm.h"

namespace dtsnn::snn {

/// Below this input spike density the A-stationary zero-skip NN form wins
/// over the dense dot-product (B^T) form. It keys Conv2d's training forward
/// and Linear's eval forward; Conv2d's float eval forward runs the
/// registry's conv_scatter op at every density. This is the one
/// sparse-vs-dense decision in the stack; the GEMM registry picks only the
/// ISA. Choices keyed on it are speed-only — both forms are
/// bitwise identical for finite weights (see Conv2d::forward).
inline constexpr double kSparseDensityThreshold = 0.35;

/// Rows [offset, offset + rows) of the single-step state reserve_steps()
/// sized: the part of a batch one thread steps. The whole batch is the
/// window at offset 0. Each op of a window step is one OpenMP loop over the
/// window's rows; a thread already inside a parallel region (one of the
/// engine's window threads) runs it as a nested region of one thread.
struct StepWindow {
  std::size_t offset = 0;
  std::size_t rows = 0;  ///< rows the window holds
};

/// A learnable parameter with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Excluded from L2 weight decay (biases, norm affine parameters).
  bool no_decay = false;

  Param(std::string n, Tensor v, bool nd = false)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()), no_decay(nd) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Announce temporal structure of the upcoming forward: T timesteps of
  /// batch B (leading axis = T*B). Stateless layers may ignore it.
  virtual void set_time(std::size_t timesteps, std::size_t /*batch*/) {
    timesteps_ = timesteps;
  }

  /// Multi-step forward over [T*B, ...]. `train` enables stat updates and
  /// caching for backward.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward for the most recent training forward; returns grad wrt input.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Reset any temporal state and prepare for a sequence of single steps.
  virtual void begin_steps() {}

  /// Size the single-step state for `rows` rows of inputs of `sample_shape`
  /// (one sample) and compute every cache derived from the weights or the
  /// statistics, so that step_window() and compact_window() write no
  /// member. Keeps the state of the rows already held; grows, never
  /// shrinks, not even across sequences. A temporal layer starts each row
  /// at zero the first time its sequence reserves it. Returns the output
  /// sample shape. Throws std::invalid_argument for an input shape the
  /// layer does not take, or, for a temporal layer, one that differs from
  /// its open sequence's.
  virtual Shape reserve_steps(std::size_t rows, const Shape& sample_shape) = 0;

  /// One eval timestep of window `w`: x holds its w.rows input rows and y
  /// has room for as many output rows, both packed from the window's first
  /// row in the shapes reserve_steps() saw. Touches only the window's rows
  /// of the layer's state. Returns where the output rows are: y, or a
  /// buffer of the layer's (x itself for Flatten), valid until the window's
  /// next step.
  virtual const float* step_window(const StepWindow& w, const float* x, float* y) = 0;

  /// Single-timestep inference step (eval semantics) of the whole batch x
  /// [B, ...]: reserve_steps() for B rows, then the window at offset 0 over
  /// them.
  Tensor step(const Tensor& x);

  /// Entry in a compact_window() keep meaning "fresh sample": the row is
  /// reset to the begin_steps() state (zero membrane) instead of kept. Lets
  /// a live pool admit new samples into rows freed by exits (continuous
  /// batching).
  static constexpr std::size_t kFreshRow = static_cast<std::size_t>(-1);

  /// Re-shape window `w` (w.rows: the rows it held) in place, between
  /// steps: row j of the window becomes its row keep[j], or a fresh row for
  /// kFreshRow. Every other entry must satisfy j <= keep[j] < w.rows —
  /// survivors in order, then admissions, the order core::LivePool
  /// produces — and keep.size() must fit the rows reserve_steps() sized
  /// from w.offset. A live pool calls this to drop samples that exited and
  /// admit waiting ones, so compute follows the live rows. Temporal layers
  /// (LIF) move their state rows and throw, before any row moves,
  /// std::out_of_range for a keep entry past w.rows and
  /// std::invalid_argument for any other keep that breaks the rule above.
  /// Writes no member. Default: nothing (stateless layers).
  virtual void compact_window(const StepWindow& /*w*/,
                              std::span<const std::size_t> /*keep*/) {}

  /// Point this layer's GEMM calls at an explicit dispatch context (backend
  /// selection + per-op stats); nullptr reverts to the process-wide
  /// util::GemmContext::global(). SpikingNetwork::set_gemm_context fans this
  /// out over all leaf layers.
  void set_gemm_context(util::GemmContext* context) { gemm_context_ = context; }

  /// The context this layer's GEMMs run through.
  [[nodiscard]] util::GemmContext& gemm_context() const {
    return gemm_context_ != nullptr ? *gemm_context_ : util::GemmContext::global();
  }

  /// Learnable parameters (empty for parameter-free layers).
  virtual std::vector<Param*> params() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Output shape for a single sample given the input sample shape; used by
  /// model builders for shape inference and by the IMC mapper.
  [[nodiscard]] virtual Shape infer_shape(const Shape& sample_shape) const = 0;

 protected:
  std::size_t timesteps_ = 1;
  util::GemmContext* gemm_context_ = nullptr;  ///< nullptr = global context
};

inline Tensor Layer::step(const Tensor& x) {
  if (x.rank() == 0) throw std::invalid_argument(name() + "::step: rank-0 input");
  const Shape sample(x.shape().begin() + 1, x.shape().end());
  Shape shape = reserve_steps(x.dim(0), sample);
  shape.insert(shape.begin(), x.dim(0));
  Tensor y(shape);
  const float* out = step_window({0, x.dim(0)}, x.data(), y.data());
  if (out != y.data()) std::copy(out, out + y.numel(), y.data());
  return y;
}

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace dtsnn::snn
