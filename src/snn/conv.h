// 2-D convolution layer with full backward pass. Float eval forwards run the
// GEMM registry's zero-skipping spike scatter (util::GemmBackend::
// conv_scatter) at every input density, at the selected backend's ISA;
// training and the quantized tier run im2col + GEMM.
//
// An eval forward is two parts: the "pixels" part (the scatter, or qgemm
// under a quantized backend, plus bias) writes the pixel-major output
// [N*OH*OW, Cout], and a transpose turns it into NCHW. Sequential::step
// (snn/network.h) runs a Conv2d -> BatchNorm2d -> Lif run as the pixels part
// into the layer's retained step scratch (step_pixels) followed by the GEMM
// registry's spike_epilogue op, which replaces the transpose, BN and LIF
// passes with one and leaves the scratch zeroed for the next step.

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

  /// The pixels part of an eval step: conv(x) plus bias, [N*OH*OW, Cout]
  /// one row per output pixel, written into a scratch the layer keeps
  /// across steps and returns. The scratch must be all zero on entry: the
  /// caller, the fused spiking epilogue, zeroes every element it reads.
  /// Throws before writing anything on a bad input shape or missing
  /// quantized weights.
  float* step_pixels(const Tensor& x);
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
  /// Validate an NCHW input and record its geometry in geom_.
  void set_geometry(const Tensor& x);
  /// The eval pixels part into pix [N*OH*OW, Cout], zero on entry, for the
  /// input whose geometry set_geometry recorded.
  void eval_pixels(const Tensor& x, float* pix);
  /// pix[r, c] += bias[c] over `rows` pixel rows (no-op without a bias).
  void add_bias(float* pix, std::size_t rows) const;

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

  // step_pixels' output, sized for the largest step batch seen and all zero
  // between steps. The multi-step forward keeps its own local buffer, so
  // this stays step-sized.
  std::vector<float> step_pix_;
};

}  // namespace dtsnn::snn
