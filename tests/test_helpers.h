// Shared test utilities: numerical gradient checking, tensor generators, and
// a scoped OpenMP thread count.

#pragma once

#include <cmath>
#include <functional>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <gtest/gtest.h>

#include "snn/layer.h"
#include "snn/tensor.h"
#include "util/rng.h"

namespace dtsnn::test {

/// Scalar loss used for gradient checks: weighted sum of outputs with fixed
/// pseudo-random weights (exposes every output element's gradient path).
inline double weighted_sum(const snn::Tensor& y, const snn::Tensor& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    acc += static_cast<double>(y[i]) * static_cast<double>(w[i]);
  }
  return acc;
}

struct GradCheckResult {
  double max_abs_err = 0.0;
  double max_rel_err = 0.0;
};

/// Checks d(weighted_sum(layer(x)))/dx against central differences.
/// `timesteps` configures the layer's temporal structure (leading dim of x
/// must be timesteps * batch).
inline GradCheckResult grad_check_input(snn::Layer& layer, snn::Tensor x,
                                        std::size_t timesteps, double eps = 1e-3) {
  const std::size_t batch = x.dim(0) / timesteps;
  util::Rng rng(99);

  layer.set_time(timesteps, batch);
  snn::Tensor y = layer.forward(x, /*train=*/true);
  snn::Tensor w = snn::Tensor::randn(y.shape(), rng);
  // Analytic gradient: dL/dy = w.
  snn::Tensor dx = layer.backward(w);

  GradCheckResult result;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    layer.set_time(timesteps, batch);
    const double up = weighted_sum(layer.forward(x, true), w);
    x[i] = orig - static_cast<float>(eps);
    layer.set_time(timesteps, batch);
    const double down = weighted_sum(layer.forward(x, true), w);
    x[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    const double analytic = dx[i];
    const double abs_err = std::abs(numeric - analytic);
    const double rel_err = abs_err / std::max(1.0, std::abs(numeric));
    result.max_abs_err = std::max(result.max_abs_err, abs_err);
    result.max_rel_err = std::max(result.max_rel_err, rel_err);
  }
  // Restore caches for any follow-up use.
  layer.set_time(timesteps, batch);
  layer.forward(x, true);
  return result;
}

/// Checks dL/dparam for every parameter of the layer.
inline GradCheckResult grad_check_params(snn::Layer& layer, const snn::Tensor& x,
                                         std::size_t timesteps, double eps = 1e-3) {
  const std::size_t batch = x.dim(0) / timesteps;
  util::Rng rng(98);

  layer.set_time(timesteps, batch);
  snn::Tensor y = layer.forward(x, true);
  snn::Tensor w = snn::Tensor::randn(y.shape(), rng);
  for (snn::Param* p : layer.params()) p->grad.zero();
  layer.backward(w);

  GradCheckResult result;
  for (snn::Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      const float orig = p->value[i];
      p->value[i] = orig + static_cast<float>(eps);
      layer.set_time(timesteps, batch);
      const double up = weighted_sum(layer.forward(x, true), w);
      p->value[i] = orig - static_cast<float>(eps);
      layer.set_time(timesteps, batch);
      const double down = weighted_sum(layer.forward(x, true), w);
      p->value[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p->grad[i];
      const double abs_err = std::abs(numeric - analytic);
      const double rel_err = abs_err / std::max(1.0, std::abs(numeric));
      result.max_abs_err = std::max(result.max_abs_err, abs_err);
      result.max_rel_err = std::max(result.max_rel_err, rel_err);
    }
  }
  return result;
}

/// Runs its scope at `threads` OpenMP threads (a no-op without OpenMP),
/// then restores the previous team size.
class OmpThreads {
 public:
  explicit OmpThreads([[maybe_unused]] int threads) {
#ifdef _OPENMP
    previous_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#endif
  }
  ~OmpThreads() {
#ifdef _OPENMP
    omp_set_num_threads(previous_);
#endif
  }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int previous_ = 1;
};

}  // namespace dtsnn::test
