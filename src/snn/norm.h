// Batch normalization for spiking networks.
//
// In the time-major layout (leading axis T*B), normalizing per channel over
// the leading and spatial axes computes statistics jointly over timesteps
// and batch — exactly the "threshold-dependent batch normalization" (tdBN)
// of Zheng et al. 2021 when the normalized activation is additionally scaled
// to the firing threshold alpha*Vth. `BatchNorm2d` implements both: with
// `vth_scale = 1` it is plain BN; model builders pass `vth_scale = Vth` for
// tdBN-style initialization (the scale folds into gamma's initial value).

#pragma once

#include "snn/layer.h"

namespace dtsnn::snn {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float vth_scale = 1.0f, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Also computes the eval constants the steps read (step_constants()).
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override {
    return sample_shape;
  }

  [[nodiscard]] std::size_t channels() const { return channels_; }
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  /// The per-channel constants of the eval forward: the running mean,
  /// 1 / sqrt(running_var + eps), gamma and beta. The eval forward computes
  /// them here, and so does reserve_steps() for the steps and the fused
  /// spiking epilogue (snn/network.h), so the eval affine is computed in one
  /// place. The statistics and parameters are mutable through the accessors
  /// above, so inv_std is recomputed on every call, into a buffer the layer
  /// keeps; the pointers stay valid until the next call or a change of
  /// those tensors.
  util::BatchNormEval eval_constants();
  /// The eval constants as the latest eval_constants() or reserve_steps()
  /// computed them: what steps read, without writing the layer.
  [[nodiscard]] util::BatchNormEval step_constants() const {
    return {running_mean_.data(), eval_inv_std_.data(), gamma_.value.data(),
            beta_.value.data()};
  }

 private:
  std::size_t channels_;
  float momentum_;
  float eps_;
  Param gamma_;
  Param beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Training caches.
  Tensor xhat_cache_;        // normalized input
  std::vector<float> inv_std_cache_;
  bool have_cache_ = false;

  std::vector<float> eval_inv_std_;  // eval_constants() inv_std, [channels]
  std::size_t step_pixels_ = 0;      // H*W of the step input (reserve_steps)
};

}  // namespace dtsnn::snn
