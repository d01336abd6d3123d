// 2-D convolution layer with full backward pass. Float eval forwards run the
// GEMM registry's zero-skipping spike scatter (util::GemmBackend::
// conv_scatter) at every input density, at the selected backend's ISA;
// training and the quantized tier run im2col + GEMM.

#pragma once

#include "snn/im2col.h"
#include "snn/layer.h"
#include "snn/quantize.h"
#include "util/rng.h"

namespace dtsnn::snn {

class Conv2d final : public Layer, public QuantizedWeightHolder {
 public:
  /// Kaiming-uniform initialized convolution. `bias` adds a per-output-channel
  /// offset (disabled when a norm layer follows, matching common practice).
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, bool bias, util::Rng& rng);

  void set_time(std::size_t timesteps, std::size_t batch) override;
  void begin_steps(std::size_t batch) override;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "Conv2d"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;

  [[nodiscard]] std::size_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::size_t out_channels() const { return out_channels_; }
  [[nodiscard]] std::size_t kernel() const { return kernel_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t padding() const { return padding_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }

  /// Weight tensor, shape [Cout, Cin*K*K].
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

  // QuantizedWeightHolder: optional post-training quantized weight copy,
  // consumed by eval forwards when a quantized backend is selected.
  [[nodiscard]] const Tensor& quantizable_weight() const override {
    return weight_.value;
  }
  [[nodiscard]] const util::QuantizedMatrix& quantized_weights() const override {
    return qweight_;
  }
  void set_quantized_weights(util::QuantizedMatrix q) override;
  void clear_quantized_weights() override { qweight_ = util::QuantizedMatrix(); }

 private:
  /// Materialize (or reuse) the W^T [Cin*K*K, Cout] scratch for the eval
  /// scatter and the sparse training GEMM.
  const float* ensure_weight_transpose();

  std::size_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  util::QuantizedMatrix qweight_;

  // Training-time caches.
  ConvGeometry geom_;
  Tensor col_cache_;   // [N*OH*OW, Cin*K*K]
  bool have_cache_ = false;

  // W^T [Cin*K*K, Cout] scratch for the zero-skipping A-stationary forms
  // (eval scatter and sparse training forwards). Weights can only change
  // between sequences/forward passes, both of which are preceded by set_time
  // or begin_steps, so those mark it dirty and the transpose is reused
  // across the steps of one inference sequence.
  Tensor wt_scratch_;
  bool wt_dirty_ = true;
};

}  // namespace dtsnn::snn
