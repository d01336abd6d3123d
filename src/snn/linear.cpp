#include "snn/linear.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/gemm.h"

namespace dtsnn::snn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool bias, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_("linear.weight", Tensor({out_features, in_features})),
      bias_("linear.bias", Tensor({out_features}), /*no_decay=*/true) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  for (auto& w : weight_.value.span()) w = static_cast<float>(rng.uniform(-bound, bound));
  if (has_bias_) {
    const float bbound = 1.0f / std::sqrt(static_cast<float>(in_features));
    for (auto& b : bias_.value.span()) b = static_cast<float>(rng.uniform(-bbound, bbound));
  }
}

void Linear::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  wt_.invalidate();
}

void Linear::begin_steps() { wt_.invalidate(); }

Tensor Linear::forward(const Tensor& x, bool train) {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Linear: bad input shape " + shape_to_string(x.shape()));
  }
  const std::size_t n = x.dim(0);
  Tensor out({n, out_features_});
  util::GemmContext& gemm = gemm_context();
  // Training reads the float weights, eval the eval weights.
  const Tensor& w = train ? weight_.value : eval_weight();
  if (!train && x.density() < kSparseDensityThreshold) {
    // out = x * W^T in the A-stationary zero-skip NN form against the cached
    // W^T: bitwise identical to the dense dot-product form below for finite
    // weights (same ascending-k accumulation from a zero start; skipped
    // zero-spike terms only ever contribute ±0, and the final add into the
    // zeroed output restores +0 in both forms), so — exactly as in
    // Conv2d::forward's training forms — this is purely a speed decision.
    gemm.gemm(x.data(), wt_.get(w), out.data(), n, in_features_, out_features_);
  } else {
    // out = x * W^T
    gemm.gemm_bt(x.data(), w.data(), out.data(), n, in_features_, out_features_);
  }
  add_bias(out.data(), n);
  if (train) {
    input_cache_ = x;
    have_cache_ = true;
  } else {
    input_cache_ = Tensor();
    have_cache_ = false;
  }
  return out;
}

void Linear::add_bias(float* out, std::size_t rows) const {
  if (!has_bias_) return;
  const float* b = bias_.value.data();
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = out + r * out_features_;
    for (std::size_t c = 0; c < out_features_; ++c) row[c] += b[c];
  }
}

Shape Linear::reserve_steps(std::size_t /*rows*/, const Shape& sample_shape) {
  if (shape_numel(sample_shape) != in_features_) {
    throw std::invalid_argument("Linear: bad input shape " + shape_to_string(sample_shape));
  }
  wt_.get(eval_weight());
  return {out_features_};
}

const float* Linear::step_window(const StepWindow& w, const float* x, float* y) {
  // Bitwise the eval forward's either form (see forward()).
  gemm_context().gemm(x, wt_.cached(), y, w.rows, in_features_, out_features_);
  add_bias(y, w.rows);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  assert(have_cache_ && "Linear::backward requires a prior training forward");
  const std::size_t n = grad_out.dim(0);
  assert(grad_out.dim(1) == out_features_);

  // dW[out, in] += g^T[out, n] * x[n, in]
  gemm_context().gemm_at(grad_out.data(), input_cache_.data(), weight_.grad.data(),
                         out_features_, n, in_features_, /*accumulate=*/true);
  if (has_bias_) {
    float* db = bias_.grad.data();
    for (std::size_t r = 0; r < n; ++r) {
      const float* row = grad_out.data() + r * out_features_;
      for (std::size_t c = 0; c < out_features_; ++c) db[c] += row[c];
    }
  }
  // dx[n, in] = g[n, out] * W[out, in]
  Tensor dx({n, in_features_});
  gemm_context().gemm(grad_out.data(), weight_.value.data(), dx.data(), n, out_features_,
                      in_features_);
  return dx;
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

Shape Linear::infer_shape(const Shape& sample_shape) const {
  if (shape_numel(sample_shape) != in_features_) {
    throw std::invalid_argument("Linear::infer_shape: expected " +
                                std::to_string(in_features_) + " features, got " +
                                shape_to_string(sample_shape));
  }
  return {out_features_};
}

}  // namespace dtsnn::snn
