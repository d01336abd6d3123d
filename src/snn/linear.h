// Fully connected layer and the Flatten adapter that precedes it. Eval
// forwards run the eval weights (the dequantized copy when quantized weights
// are installed, see snn/quantize.h) in one of two bitwise-equal product
// forms picked by input density, eval steps in the NN form; training runs
// the float weights.

#pragma once

#include "snn/layer.h"
#include "snn/quantize.h"
#include "util/rng.h"

namespace dtsnn::snn {

class Linear final : public Layer, public QuantizedWeightHolder {
 public:
  Linear(std::size_t in_features, std::size_t out_features, bool bias, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void set_time(std::size_t timesteps, std::size_t batch) override;
  void begin_steps() override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  /// Runs the NN form against W^T at every density: the B^T form packs B
  /// into a fresh buffer per call.
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "Linear"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;

  [[nodiscard]] std::size_t in_features() const { return in_features_; }
  [[nodiscard]] std::size_t out_features() const { return out_features_; }
  /// Weight tensor, shape [out_features, in_features].
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }

  // QuantizedWeightHolder: optional post-training quantized weights, run
  // dequantized by eval forwards.
  [[nodiscard]] const Tensor& quantizable_weight() const override {
    return weight_.value;
  }

 private:
  void eval_weight_changed() override { wt_.invalidate(); }
  /// out[r, c] += bias[c] over `rows` rows (no-op without a bias).
  void add_bias(float* out, std::size_t rows) const;

  std::size_t in_features_, out_features_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor input_cache_;
  bool have_cache_ = false;
  // W^T [in, out] of the eval weights, for the sparse eval form.
  WeightTranspose wt_;
};

/// Collapses [N, C, H, W] to [N, C*H*W]; identity on already-flat input.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool /*train*/) override {
    in_shape_ = x.shape();
    return x.reshaped({x.dim(0), x.row_size()});
  }
  Tensor backward(const Tensor& grad_out) override { return grad_out.reshaped(in_shape_); }
  Shape reserve_steps(std::size_t /*rows*/, const Shape& sample_shape) override {
    return infer_shape(sample_shape);
  }
  /// The output rows are the input rows: returns x.
  const float* step_window(const StepWindow& /*w*/, const float* x,
                           float* /*y*/) override {
    return x;
  }
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override {
    return {shape_numel(sample_shape)};
  }

 private:
  Shape in_shape_;
};

}  // namespace dtsnn::snn
