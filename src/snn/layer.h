// Layer interface for the spiking network library.
//
// Time-major convention: during multi-step processing, activations carry all
// T timesteps stacked on the leading axis, shape [T*B, C, H, W] (or [T*B, F]
// after flattening), with timestep t occupying rows [t*B, (t+1)*B). Stateless
// layers (conv, linear, pooling, norm) simply see a batch of T*B samples;
// temporal layers (LIF) slice time internally. set_time(T, B) announces the
// temporal structure before each forward pass.
//
// Each layer also supports a *stateful single-step* path (`begin_steps` /
// `step`) used by the sequential DT-SNN engine for true early termination:
// `step` processes a batch of one timestep, with temporal layers keeping
// their membrane state across calls. Sequential::step runs each Conv2d ->
// BatchNorm2d -> Lif run fused (snn/network.h), bitwise equal to calling
// the three leaves' step() in turn.

#pragma once

#include <memory>
#include <span>
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
  virtual void set_time(std::size_t timesteps, std::size_t batch) {
    timesteps_ = timesteps;
    batch_ = batch;
  }

  /// Multi-step forward over [T*B, ...]. `train` enables stat updates and
  /// caching for backward.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward for the most recent training forward; returns grad wrt input.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Reset any temporal state and prepare for a sequence of single steps.
  virtual void begin_steps(std::size_t batch) { batch_ = batch; }

  /// Single-timestep inference step (eval semantics). Default: stateless
  /// layers reuse forward(x, /*train=*/false) with T=1.
  virtual Tensor step(const Tensor& x) {
    const std::size_t saved_t = timesteps_;
    timesteps_ = 1;
    Tensor out = forward(x, /*train=*/false);
    timesteps_ = saved_t;
    return out;
  }

  /// Entry in a compact_state() gather meaning "fresh sample": the row is
  /// reset to the begin_steps() state (zero membrane) instead of copied
  /// from an existing row. Lets the batched engine admit new samples into
  /// slots freed by exits (continuous batching).
  static constexpr std::size_t kFreshRow = static_cast<std::size_t>(-1);

  /// Re-shape the single-step batch to rows `keep[j]` of the current batch,
  /// in the given order (a general gather; entries may repeat, and
  /// kFreshRow entries become fresh zero-state rows). The batched
  /// early-exit engine calls this between step()s to drop samples that
  /// exited and admit waiting ones, so compute follows the live batch.
  /// Stateless layers only adjust their announced batch; temporal layers
  /// (LIF) gather their persistent state rows. Only meaningful between
  /// begin_steps() and the next step().
  virtual void compact_state(std::span<const std::size_t> keep) {
    batch_ = keep.size();
  }

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
  std::size_t batch_ = 1;
  util::GemmContext* gemm_context_ = nullptr;  ///< nullptr = global context
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace dtsnn::snn
