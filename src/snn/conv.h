// 2-D convolution layer with full backward pass. Eval forwards run the GEMM
// registry's zero-skipping spike scatter (util::GemmBackend::conv_scatter) at
// every input density, at the selected backend's ISA, on the eval weights
// (the dequantized copy when quantized weights are installed, see
// snn/quantize.h); training runs im2col + GEMM on the float weights.
//
// An eval forward is two parts: the "pixels" part (the scatter plus bias)
// writes the pixel-major output [N*OH*OW, Cout], and a transpose turns it
// into NCHW. A step runs the pixels part into the window's rows of the
// layer's step scratch (step_pixels), sized by reserve_steps(); a stepped
// Conv2d -> BatchNorm2d -> Lif run (snn/network.h) follows it with the GEMM
// registry's spike_epilogue op, which replaces the transpose, BN and LIF
// passes with one. Either way the scratch is left zeroed for the next step.

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
  void begin_steps() override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  Tensor forward(const Tensor& x, bool train) override;

  /// The pixels part of window w's eval step: conv(x) plus bias,
  /// [w.rows*OH*OW, Cout] one row per output pixel, written into the
  /// window's rows of the step scratch, which it returns. The scratch is all
  /// zero on entry; the caller zeroes every element it reads (the fused
  /// spiking epilogue does).
  float* step_pixels(const StepWindow& w, const float* x);
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
  /// OH*OW of the step input reserve_steps() saw.
  [[nodiscard]] std::size_t step_output_pixels() const {
    return step_geom_.out_h() * step_geom_.out_w();
  }

  /// Weight tensor, shape [Cout, Cin*K*K].
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

  // QuantizedWeightHolder: optional post-training quantized weights, run
  // dequantized by eval forwards.
  [[nodiscard]] const Tensor& quantizable_weight() const override {
    return weight_.value;
  }

 private:
  void eval_weight_changed() override { wt_.invalidate(); }
  /// Validate an NCHW input and record its geometry in geom_.
  void set_geometry(const Tensor& x);
  /// The eval pixels part into pix [N*OH*OW, Cout], zero on entry, for the
  /// input whose geometry set_geometry recorded.
  void eval_pixels(const Tensor& x, float* pix);
  /// pix[r, c] += bias[c] over `rows` pixel rows (no-op without a bias).
  void add_bias(float* pix, std::size_t rows) const;
  /// Floats of one step row's pixels part, OH*OW*Cout.
  [[nodiscard]] std::size_t step_row_numel() const {
    return step_output_pixels() * out_channels_;
  }

  std::size_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Param weight_;
  Param bias_;

  // Training-time caches.
  ConvGeometry geom_;
  Tensor col_cache_;   // [N*OH*OW, Cin*K*K]
  bool have_cache_ = false;

  // W^T [Cin*K*K, Cout] for the eval scatter (of the eval weights) and the
  // sparse training forward (of the float weights).
  WeightTranspose wt_;

  // The step input's geometry and step_pixels' output, sized by
  // reserve_steps() and all zero between steps. The multi-step forward keeps
  // its own local buffer, so this stays step-sized.
  ConvGeometry step_geom_;
  std::vector<float> step_pix_;
};

}  // namespace dtsnn::snn
