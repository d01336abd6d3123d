#include "snn/conv.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/logging.h"

namespace dtsnn::snn {

namespace {

// The training forward's sparse/dense op form below keys on
// snn::kSparseDensityThreshold (snn/layer.h), shared with Linear: the layers
// pick the op form, the GEMM registry only the ISA.

/// [N*HW, C] row-per-pixel layout -> NCHW [N, C, HW], image by image (one
/// OpenMP loop).
void pixels_to_nchw(const float* pix, float* out, std::size_t n, std::size_t c,
                    std::size_t hw) {
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < n; ++img) {
    const float* src = pix + img * hw * c;
    float* dst = out + img * c * hw;
    for (std::size_t p = 0; p < hw; ++p) {
      for (std::size_t ch = 0; ch < c; ++ch) dst[ch * hw + p] = src[p * c + ch];
    }
  }
}

/// The output extent (in + 2*pad - kernel) / stride + 1 underflows when the
/// kernel does not fit the padded input, so reject such geometries (and a zero
/// kernel or stride) before anything computes it.
ConvGeometry require_valid(const ConvGeometry& g, const char* where) {
  if (!g.valid()) {
    throw std::invalid_argument(util::format(
        "%s: kernel %zu, stride %zu, padding %zu do not fit a %zux%zu input", where,
        g.kernel, g.stride, g.padding, g.in_h, g.in_w));
  }
  return g;
}

/// NCHW [N, C, OH, OW] -> [N*OHW, C] row-per-pixel layout.
void nchw_to_pixels(const Tensor& x, Tensor& pix) {
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  pix = Tensor({n * hw, c});
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < n; ++img) {
    const float* src = x.data() + img * c * hw;
    float* dst = pix.data() + img * hw * c;
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t p = 0; p < hw; ++p) dst[p * c + ch] = src[ch * hw + p];
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, bool bias, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_("conv.weight", Tensor({out_channels, in_channels * kernel * kernel})),
      bias_("conv.bias", Tensor({out_channels}), /*no_decay=*/true) {
  // Kaiming-uniform for ReLU-like nonlinearities; LIF firing behaves similarly.
  const std::size_t fan_in = in_channels * kernel * kernel;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (auto& w : weight_.value.span()) w = static_cast<float>(rng.uniform(-bound, bound));
  if (has_bias_) {
    const float bbound = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (auto& b : bias_.value.span()) b = static_cast<float>(rng.uniform(-bbound, bbound));
  }
}

void Conv2d::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  wt_.invalidate();
}

void Conv2d::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  wt_.invalidate();
}

void Conv2d::set_geometry(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input shape " + shape_to_string(x.shape()));
  }
  geom_ = require_valid(
      ConvGeometry{in_channels_, x.dim(2), x.dim(3), kernel_, stride_, padding_}, "Conv2d");
}

void Conv2d::eval_pixels(const Tensor& x, float* pix) {
  const std::size_t n = x.dim(0);
  const std::size_t rows = n * geom_.out_h() * geom_.out_w();
  // One op at every input density, dispatched to the selected backend's
  // ISA. The direct scatter skips zero inputs and accumulates every output
  // element in ascending (c, ky, kx) order — bitwise identical to the im2col
  // NN GEMM and independent of the batch size — without materializing the
  // im2col matrix. Its W^T is of the eval weights, cached across the steps
  // of one sequence. The context records it as that NN product, from the
  // kernel's own nonzero count.
  gemm_context().conv_scatter(x.data(), wt_.get(eval_weight()), pix, n, geom_,
                              out_channels_);
  add_bias(pix, rows);
}

void Conv2d::add_bias(float* pix, std::size_t rows) const {
  if (!has_bias_) return;
  const float* b = bias_.value.data();
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = pix + r * out_channels_;
    for (std::size_t c = 0; c < out_channels_; ++c) row[c] += b[c];
  }
}

Shape Conv2d::reserve_steps(std::size_t rows, const Shape& sample_shape) {
  if (sample_shape.size() != 3 || sample_shape[0] != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input shape " + shape_to_string(sample_shape));
  }
  step_geom_ = require_valid(ConvGeometry{in_channels_, sample_shape[1], sample_shape[2],
                                          kernel_, stride_, padding_},
                             "Conv2d");
  // Grows with zeros and never shrinks: fewer rows use a prefix, and every
  // element a step read is zero again.
  const std::size_t numel = rows * step_row_numel();
  if (step_pix_.size() < numel) step_pix_.resize(numel, 0.0f);
  wt_.get(eval_weight());
  return {out_channels_, step_geom_.out_h(), step_geom_.out_w()};
}

float* Conv2d::step_pixels(const StepWindow& w, const float* x) {
  // One op at every input density, as in eval_pixels, on the W^T that
  // reserve_steps() built.
  float* pix = step_pix_.data() + w.offset * step_row_numel();
  gemm_context().conv_scatter(x, wt_.cached(), pix, w.rows, step_geom_, out_channels_);
  add_bias(pix, w.rows * step_geom_.out_h() * step_geom_.out_w());
  return pix;
}

const float* Conv2d::step_window(const StepWindow& w, const float* x, float* y) {
  float* pix = step_pixels(w, x);
  pixels_to_nchw(pix, y, w.rows, out_channels_, step_output_pixels());
  // The scratch goes back to zero, image by image as the transpose read it.
  const std::size_t image = step_row_numel();
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < w.rows; ++img) {
    std::fill(pix + img * image, pix + (img + 1) * image, 0.0f);
  }
  return y;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  set_geometry(x);
  const std::size_t n = x.dim(0);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();

  // pix[N*OHW, Cout] = col[N*OHW, CKK] * W^T[CKK, Cout]
  Tensor pix({n * oh * ow, out_channels_});
  Tensor col;
  if (train) {
    // Training path: the im2col matrix is needed for backward either way.
    // Hidden-layer inputs are LIF spikes, so for sparse inputs the product
    // runs in the A-stationary form (zero-skip NN GEMM against W^T) instead
    // of the dense dot-product form — for the same accumulation order and
    // finite weights the two are bitwise identical (both sum each output's
    // contributions in ascending patch order from a zero start), so this is
    // purely a speed decision.
    const std::size_t patch = geom_.patch_size();
    util::GemmContext& gemm = gemm_context();
    im2col(x, geom_, col);
    if (x.density() < kSparseDensityThreshold) {
      gemm.gemm(col.data(), wt_.get(weight_.value), pix.data(), n * oh * ow, patch,
                out_channels_);
    } else {
      gemm.gemm_bt(col.data(), weight_.value.data(), pix.data(), n * oh * ow, patch,
                   out_channels_);
    }
    add_bias(pix.data(), n * oh * ow);
  } else {
    eval_pixels(x, pix.data());
  }

  Tensor out({n, out_channels_, oh, ow});
  pixels_to_nchw(pix.data(), out.data(), n, out_channels_, oh * ow);

  if (train) {
    col_cache_ = std::move(col);
    have_cache_ = true;
  } else {
    have_cache_ = false;
    col_cache_ = Tensor();
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  assert(have_cache_ && "Conv2d::backward requires a prior training forward");
  const std::size_t n = grad_out.dim(0);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t rows = n * oh * ow;
  const std::size_t patch = geom_.patch_size();

  Tensor gpix;  // [N*OHW, Cout]
  nchw_to_pixels(grad_out, gpix);

  // dW[Cout, CKK] += gpix^T[Cout, rows] * col[rows, CKK]
  util::GemmContext& gemm = gemm_context();
  gemm.gemm_at(gpix.data(), col_cache_.data(), weight_.grad.data(), out_channels_, rows,
               patch, /*accumulate=*/true);

  if (has_bias_) {
    float* db = bias_.grad.data();
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = gpix.data() + r * out_channels_;
      for (std::size_t c = 0; c < out_channels_; ++c) db[c] += row[c];
    }
  }

  // dcol[rows, CKK] = gpix[rows, Cout] * W[Cout, CKK]
  Tensor dcol({rows, patch});
  gemm.gemm(gpix.data(), weight_.value.data(), dcol.data(), rows, out_channels_, patch);

  Tensor dx;
  col2im(dcol, geom_, dx);
  return dx;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

Shape Conv2d::infer_shape(const Shape& sample_shape) const {
  if (sample_shape.size() != 3 || sample_shape[0] != in_channels_) {
    throw std::invalid_argument("Conv2d::infer_shape: bad sample shape " +
                                shape_to_string(sample_shape));
  }
  const ConvGeometry g = require_valid(
      ConvGeometry{in_channels_, sample_shape[1], sample_shape[2], kernel_, stride_, padding_},
      "Conv2d::infer_shape");
  return {out_channels_, g.out_h(), g.out_w()};
}

}  // namespace dtsnn::snn
