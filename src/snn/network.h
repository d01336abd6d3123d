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
/// step_window() is the one place eval stepping composes leaves
/// (ResidualBlock main paths and shortcuts step through it too). Its stages
/// are planned once, at reserve_steps(): each Conv2d -> BatchNorm2d -> Lif
/// run is one fused stage, the conv's pixels part (Conv2d::step_pixels) and
/// then the GEMM registry's spike_epilogue op, which applies the BN affine
/// and the LIF update in one pass and writes NCHW spikes; every other layer
/// is a stage of its own. The float ops are the unfused layers' own, in
/// their order, so logits are bitwise those of stepping each leaf alone,
/// and the GEMM accounting is the same (the epilogue records nothing).
/// Stage outputs alternate between two buffers sized at reserve_steps(),
/// a window using its own rows of them, so a step allocates nothing.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void append(LayerPtr layer) {
    layers_.push_back(std::move(layer));
    stages_.clear();
  }
  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  void set_time(std::size_t timesteps, std::size_t batch) override;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void begin_steps() override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  void compact_window(const StepWindow& w, std::span<const std::size_t> keep) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;

  /// Depth-first visit of every non-container layer (this one included if
  /// it has no children).
  void visit(const std::function<void(Layer&)>& fn);

 private:
  /// A stepped stage: layer `first`, or the fused Conv2d -> BatchNorm2d ->
  /// Lif run it starts.
  struct Stage {
    std::size_t first = 0;
    bool fused = false;
  };

  std::vector<LayerPtr> layers_;
  std::vector<Stage> stages_;  ///< planned by reserve_steps()
  std::size_t widest_ = 0;     ///< floats per row of the widest inner stage output
  std::vector<float> ping_, pong_;  ///< inner stage outputs, widest_ per row
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
  void begin_steps() override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  void compact_window(const StepWindow& w, std::span<const std::size_t> keep) override;
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
  std::size_t step_numel_ = 0;         ///< floats per step output row
  std::vector<float> shortcut_out_;  ///< projection outputs, step_numel_ per row
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

  /// Sequential inference: reset temporal state for a batch and size every
  /// layer's step state for it (Layer::reserve_steps: LIF membranes, conv
  /// scratch, stage buffers, W^T and BN constants), then feed one timestep
  /// at a time. step() returns this timestep's raw classifier output y_t.
  void begin_inference(std::size_t batch);
  /// The window at offset 0 over every row of x_t; it then holds x_t's rows.
  Tensor step(const Tensor& x_t);

  /// The whole-batch compact_window(), for callers that step the batch with
  /// step() (perfbench's traced loop; live pools compact their window):
  /// sizes the step state for keep.size() rows, then compacts the rows
  /// begin_inference(), step() or the last compaction left at offset 0 in
  /// place. keep must be survivors in order, then kFreshRow admissions
  /// (Layer::compact_window throws on any other). The rows held become
  /// keep.size().
  void compact_inference_state(std::span<const std::size_t> keep);

  /// One timestep of window `w` of the rows begin_inference() sized: x holds
  /// its w.rows frames. Returns its [w.rows, K] outputs, valid until the
  /// window's next step. Writes no member, so threads can step disjoint
  /// windows concurrently.
  const float* step_window(const snn::StepWindow& w, const float* x);
  /// Layer::compact_window over window `w` of the rows begin_inference()
  /// sized; a kFreshRow-only keep starts every row afresh.
  void compact_window(const snn::StepWindow& w, std::span<const std::size_t> keep) {
    body_.compact_window(w, keep);
  }

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
  /// Size every layer's step state for `rows` rows of sample_shape_.
  void reserve_inference(std::size_t rows);

  Sequential body_;
  std::size_t num_classes_;
  Shape sample_shape_;
  util::GemmContext* gemm_context_ = nullptr;  ///< nullptr = global context
  std::size_t step_out_numel_ = 0;  ///< floats per row of step_window()'s output
  std::vector<float> step_out_;     ///< step_window() outputs, per reserved row
  std::size_t held_rows_ = 0;       ///< rows the open sequence holds at offset 0
};

}  // namespace dtsnn::snn
