#include "snn/norm.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dtsnn::snn {

namespace {

/// The one 1 / sqrt(var + eps): of the batch statistics in a training
/// forward, of the running statistics in eval_constants.
float inverse_std(float var, float eps) { return 1.0f / std::sqrt(var + eps); }

/// y = gamma * ((x - mean) * inv_std) + beta over x [n, c, hw] with the
/// per-channel constants `k`, image by image as one OpenMP loop; with
/// `xhat`, also the normalized values.
void normalize(const float* x, float* y, float* xhat, std::size_t n, std::size_t c,
               std::size_t hw, const util::BatchNormEval& k) {
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t at = (img * c + ch) * hw;
      const float m = k.mean[ch], is = k.inv_std[ch];
      const float g = k.gamma[ch], b = k.beta[ch];
      for (std::size_t p = 0; p < hw; ++p) {
        const float h = (x[at + p] - m) * is;
        if (xhat != nullptr) xhat[at + p] = h;
        y[at + p] = g * h + b;
      }
    }
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::size_t channels, float vth_scale, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor({channels}, vth_scale), /*no_decay=*/true),
      beta_("bn.beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_({channels}, 1.0f) {
  beta_.no_decay = true;
}

util::BatchNormEval BatchNorm2d::eval_constants() {
  eval_inv_std_.resize(channels_);
  for (std::size_t ch = 0; ch < channels_; ++ch) {
    eval_inv_std_[ch] = inverse_std(running_var_[ch], eps_);
  }
  return {running_mean_.data(), eval_inv_std_.data(), gamma_.value.data(),
          beta_.value.data()};
}

Shape BatchNorm2d::reserve_steps(std::size_t /*rows*/, const Shape& sample_shape) {
  if (sample_shape.size() != 3 || sample_shape[0] != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " +
                                shape_to_string(sample_shape));
  }
  step_pixels_ = sample_shape[1] * sample_shape[2];
  eval_constants();
  return sample_shape;
}

const float* BatchNorm2d::step_window(const StepWindow& w, const float* x, float* y) {
  normalize(x, y, nullptr, w.rows, channels_, step_pixels_, step_constants());
  return y;
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  if (x.rank() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " + shape_to_string(x.shape()));
  }
  const std::size_t n = x.dim(0), c = channels_, hw = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * hw);
  Tensor out(x.shape());

  util::BatchNormEval k;
  std::vector<float> mean, inv_std;  // training: this batch's statistics
  if (train) {
    mean.assign(c, 0.0f);
    std::vector<float> var(c, 0.0f);
#pragma omp parallel for schedule(static)
    for (std::size_t ch = 0; ch < c; ++ch) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t img = 0; img < n; ++img) {
        const float* src = x.data() + (img * c + ch) * hw;
        for (std::size_t p = 0; p < hw; ++p) {
          sum += src[p];
          sq += static_cast<double>(src[p]) * src[p];
        }
      }
      const double m = sum / count;
      mean[ch] = static_cast<float>(m);
      var[ch] = static_cast<float>(std::max(0.0, sq / count - m * m));
    }
    inv_std.resize(c);
    for (std::size_t ch = 0; ch < c; ++ch) {
      running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] + momentum_ * mean[ch];
      running_var_[ch] = (1.0f - momentum_) * running_var_[ch] + momentum_ * var[ch];
      inv_std[ch] = inverse_std(var[ch], eps_);
    }
    k = {mean.data(), inv_std.data(), gamma_.value.data(), beta_.value.data()};
  } else {
    k = eval_constants();
  }

  Tensor xhat;
  if (train) xhat = Tensor(x.shape());
  normalize(x.data(), out.data(), train ? xhat.data() : nullptr, n, c, hw, k);

  if (train) {
    xhat_cache_ = std::move(xhat);
    inv_std_cache_ = std::move(inv_std);
    have_cache_ = true;
  } else {
    have_cache_ = false;
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  assert(have_cache_ && "BatchNorm2d::backward requires a prior training forward");
  const std::size_t n = grad_out.dim(0), c = channels_,
                    hw = grad_out.dim(2) * grad_out.dim(3);
  const double count = static_cast<double>(n * hw);
  Tensor dx(grad_out.shape());

#pragma omp parallel for schedule(static)
  for (std::size_t ch = 0; ch < c; ++ch) {
    // Per-channel reductions: sum(g), sum(g * xhat).
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::size_t img = 0; img < n; ++img) {
      const float* g = grad_out.data() + (img * c + ch) * hw;
      const float* xh = xhat_cache_.data() + (img * c + ch) * hw;
      for (std::size_t p = 0; p < hw; ++p) {
        sum_g += g[p];
        sum_gx += static_cast<double>(g[p]) * xh[p];
      }
    }
    gamma_.grad[ch] += static_cast<float>(sum_gx);
    beta_.grad[ch] += static_cast<float>(sum_g);

    const float gval = gamma_.value[ch];
    const float is = inv_std_cache_[ch];
    const float mean_g = static_cast<float>(sum_g / count);
    const float mean_gx = static_cast<float>(sum_gx / count);
    for (std::size_t img = 0; img < n; ++img) {
      const float* g = grad_out.data() + (img * c + ch) * hw;
      const float* xh = xhat_cache_.data() + (img * c + ch) * hw;
      float* d = dx.data() + (img * c + ch) * hw;
      for (std::size_t p = 0; p < hw; ++p) {
        d[p] = gval * is * (g[p] - mean_g - xh[p] * mean_gx);
      }
    }
  }
  return dx;
}

std::vector<Param*> BatchNorm2d::params() { return {&gamma_, &beta_}; }

}  // namespace dtsnn::snn
