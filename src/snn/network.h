// Network containers: Sequential composition, spiking residual blocks, and
// the top-level SpikingNetwork that manages the time dimension.
//
// SpikingNetwork::forward consumes a time-major input [T*B, C, H, W] (for
// static images every timestep carries the same frame — direct encoding,
// Eq. 1; for event data each timestep carries its own frame) and returns
// per-timestep classifier outputs [T*B, K]. The first Conv+LIF block acts as
// the learned spike encoder g_1(x), as in the paper.

#pragma once

#include <functional>

#include "snn/layer.h"
#include "snn/lif.h"

namespace dtsnn::snn {

/// Ordered composition of layers; also usable as a sub-module.
///
/// step() is the one place eval stepping composes leaves (ResidualBlock main
/// paths and shortcuts step through it too). It runs each Conv2d ->
/// BatchNorm2d -> Lif run as one fused step: the conv's pixels part
/// (Conv2d::step_pixels) and then the GEMM registry's spike_epilogue op,
/// which applies the BN affine and the LIF update in one pass and writes
/// NCHW spikes. The float ops are the unfused layers' own, in their order,
/// so logits are bitwise those of stepping each leaf alone, and the GEMM
/// accounting is the same (the epilogue records nothing).
class Sequential : public Layer {
 public:
  Sequential() = default;

  void append(LayerPtr layer) { layers_.push_back(std::move(layer)); }
  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  void set_time(std::size_t timesteps, std::size_t batch) override;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void begin_steps(std::size_t batch) override;
  Tensor step(const Tensor& x) override;
  void compact_state(std::span<const std::size_t> keep) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;

  /// Depth-first visit of every non-container layer (this one included if
  /// it has no children).
  void visit(const std::function<void(Layer&)>& fn);

 private:
  std::vector<LayerPtr> layers_;
};

/// Spiking residual block: out = LIF(main(x) + shortcut(x)).
/// The main path is conv-bn-lif-conv-bn; the shortcut is identity or a
/// projection conv-bn when shape changes (ResNet-19 style, tdBN variant where
/// the residual sum happens on membrane inputs before the output LIF).
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(Sequential main_path, Sequential shortcut, LifConfig out_lif);

  void set_time(std::size_t timesteps, std::size_t batch) override;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void begin_steps(std::size_t batch) override;
  Tensor step(const Tensor& x) override;
  void compact_state(std::span<const std::size_t> keep) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "ResidualBlock"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;

  Sequential& main_path() { return main_; }
  Sequential& shortcut() { return shortcut_; }
  Lif& output_lif() { return out_lif_; }
  [[nodiscard]] bool has_projection() const { return shortcut_.size() > 0; }

  void visit(const std::function<void(Layer&)>& fn);

 private:
  Sequential main_;
  Sequential shortcut_;
  Lif out_lif_;
};

/// Top-level spiking classifier.
class SpikingNetwork {
 public:
  SpikingNetwork(Sequential body, std::size_t num_classes, Shape sample_shape)
      : body_(std::move(body)),
        num_classes_(num_classes),
        sample_shape_(std::move(sample_shape)) {}

  /// Multi-step forward: x is [T*B, C, H, W]; returns logits [T*B, K].
  Tensor forward(const Tensor& x, std::size_t timesteps, bool train);
  /// Backward for the last training forward; grad is [T*B, K].
  void backward(const Tensor& grad_logits);

  /// Sequential inference: reset temporal state for a batch, then feed one
  /// timestep at a time. Returns this timestep's raw classifier output y_t.
  void begin_inference(std::size_t batch);
  Tensor step(const Tensor& x_t);

  /// Shrink the sequential-inference batch to rows `keep[j]` of the current
  /// batch (a general gather, in the given order): every layer's temporal
  /// state (LIF membranes) is gathered accordingly. The batched early-exit
  /// engine calls this as samples exit so the remaining step()s run on the
  /// live samples only.
  void compact_inference_state(std::span<const std::size_t> keep);

  std::vector<Param*> params();
  Sequential& body() { return body_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] const Shape& sample_shape() const { return sample_shape_; }

  /// Depth-first visit of all leaf layers (convs, norms, LIFs, ...).
  void visit(const std::function<void(Layer&)>& fn) { body_.visit(fn); }

  /// Route every conv/linear GEMM of this network through `context`
  /// (backend selection + per-op stats); nullptr reverts to the process-wide
  /// util::GemmContext::global(). Backends are bitwise identical, so this
  /// never changes logits or exit decisions — only how fast they happen and
  /// where the FLOPs are accounted.
  void set_gemm_context(util::GemmContext* context);

  /// The context this network's GEMMs run through.
  [[nodiscard]] util::GemmContext& gemm_context() const {
    return gemm_context_ != nullptr ? *gemm_context_ : util::GemmContext::global();
  }

  /// Mean spike rate per LIF layer from the most recent multi-step forward.
  [[nodiscard]] std::vector<double> lif_spike_rates();

  /// Total learnable parameter count.
  [[nodiscard]] std::size_t parameter_count();

 private:
  Sequential body_;
  std::size_t num_classes_;
  Shape sample_shape_;
  util::GemmContext* gemm_context_ = nullptr;  ///< nullptr = global context
};

}  // namespace dtsnn::snn
