#include "snn/pool.h"

#include <cassert>
#include <stdexcept>

namespace dtsnn::snn {

namespace {
void check_divisible(const Tensor& x, std::size_t k, const char* who) {
  if (x.rank() != 4 || x.dim(2) % k != 0 || x.dim(3) % k != 0) {
    throw std::invalid_argument(std::string(who) + ": input " + shape_to_string(x.shape()) +
                                " not divisible by kernel " + std::to_string(k));
  }
}

/// Average pooling of the n*c planes of x [n, c, h, w] into y, as one
/// OpenMP loop over planes.
void avg_pool(const float* x, float* y, std::size_t planes, std::size_t h, std::size_t w,
              std::size_t kernel) {
  const std::size_t oh = h / kernel, ow = w / kernel;
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
#pragma omp parallel for schedule(static)
  for (std::size_t nc = 0; nc < planes; ++nc) {
    const float* src = x + nc * h * w;
    float* dst = y + nc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (std::size_t ky = 0; ky < kernel; ++ky) {
          const float* row = src + (oy * kernel + ky) * w + ox * kernel;
          for (std::size_t kx = 0; kx < kernel; ++kx) acc += row[kx];
        }
        dst[oy * ow + ox] = acc * inv;
      }
    }
  }
}

/// Max pooling of the planes of x into y; with `argmax`, also each pooled
/// maximum's flat input index.
void max_pool(const float* x, float* y, std::size_t planes, std::size_t h, std::size_t w,
              std::size_t kernel, std::size_t* argmax) {
  const std::size_t oh = h / kernel, ow = w / kernel;
#pragma omp parallel for schedule(static)
  for (std::size_t nc = 0; nc < planes; ++nc) {
    const float* src = x + nc * h * w;
    float* dst = y + nc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = src[(oy * kernel) * w + ox * kernel];
        std::size_t best_idx = (oy * kernel) * w + ox * kernel;
        for (std::size_t ky = 0; ky < kernel; ++ky) {
          for (std::size_t kx = 0; kx < kernel; ++kx) {
            const std::size_t idx = (oy * kernel + ky) * w + ox * kernel + kx;
            if (src[idx] > best) {
              best = src[idx];
              best_idx = idx;
            }
          }
        }
        dst[oy * ow + ox] = best;
        if (argmax != nullptr) argmax[nc * oh * ow + oy * ow + ox] = nc * h * w + best_idx;
      }
    }
  }
}

/// The sample shape of a pool's step input, checked like check_divisible.
Shape check_step_shape(const Shape& s, std::size_t k, const char* who) {
  if (s.size() != 3 || s[1] % k != 0 || s[2] % k != 0) {
    throw std::invalid_argument(std::string(who) + ": input " + shape_to_string(s) +
                                " not divisible by kernel " + std::to_string(k));
  }
  return s;
}
}  // namespace

Tensor AvgPool2d::forward(const Tensor& x, bool /*train*/) {
  check_divisible(x, kernel_, "AvgPool2d");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out({n, c, h / kernel_, w / kernel_});
  avg_pool(x.data(), out.data(), n * c, h, w, kernel_);
  return out;
}

Shape AvgPool2d::reserve_steps(std::size_t /*rows*/, const Shape& sample_shape) {
  step_in_ = check_step_shape(sample_shape, kernel_, "AvgPool2d");
  return infer_shape(sample_shape);
}

const float* AvgPool2d::step_window(const StepWindow& w, const float* x, float* y) {
  avg_pool(x, y, w.rows * step_in_[0], step_in_[1], step_in_[2], kernel_);
  return y;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  const std::size_t n = in_shape_[0], c = in_shape_[1], h = in_shape_[2], w = in_shape_[3];
  const std::size_t oh = h / kernel_, ow = w / kernel_;
  assert(grad_out.dim(2) == oh && grad_out.dim(3) == ow);
  Tensor dx(in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
#pragma omp parallel for schedule(static)
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* g = grad_out.data() + nc * oh * ow;
    float* dst = dx.data() + nc * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float v = g[oy * ow + ox] * inv;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          float* row = dst + (oy * kernel_ + ky) * w + ox * kernel_;
          for (std::size_t kx = 0; kx < kernel_; ++kx) row[kx] += v;
        }
      }
    }
  }
  return dx;
}

Shape AvgPool2d::infer_shape(const Shape& s) const {
  if (s.size() != 3 || s[1] % kernel_ != 0 || s[2] % kernel_ != 0) {
    throw std::invalid_argument("AvgPool2d::infer_shape: bad sample shape " +
                                shape_to_string(s));
  }
  return {s[0], s[1] / kernel_, s[2] / kernel_};
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  check_divisible(x, kernel_, "MaxPool2d");
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out({n, c, h / kernel_, w / kernel_});
  if (train) argmax_.assign(out.numel(), 0);
  max_pool(x.data(), out.data(), n * c, h, w, kernel_, train ? argmax_.data() : nullptr);
  return out;
}

Shape MaxPool2d::reserve_steps(std::size_t /*rows*/, const Shape& sample_shape) {
  step_in_ = check_step_shape(sample_shape, kernel_, "MaxPool2d");
  return infer_shape(sample_shape);
}

const float* MaxPool2d::step_window(const StepWindow& w, const float* x, float* y) {
  max_pool(x, y, w.rows * step_in_[0], step_in_[1], step_in_[2], kernel_, nullptr);
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  assert(!argmax_.empty() && "MaxPool2d::backward requires a prior training forward");
  Tensor dx(in_shape_);
  for (std::size_t i = 0; i < grad_out.numel(); ++i) dx[argmax_[i]] += grad_out[i];
  return dx;
}

Shape MaxPool2d::infer_shape(const Shape& s) const {
  if (s.size() != 3 || s[1] % kernel_ != 0 || s[2] % kernel_ != 0) {
    throw std::invalid_argument("MaxPool2d::infer_shape: bad sample shape " +
                                shape_to_string(s));
  }
  return {s[0], s[1] / kernel_, s[2] / kernel_};
}

}  // namespace dtsnn::snn
