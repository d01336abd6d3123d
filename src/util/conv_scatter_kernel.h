// The conv_scatter kernel (GemmBackend::conv_scatter, util/gemm.h), shared
// by the bitwise backends. Internal: included only by the backend TUs
// gemm.cpp, gemm_avx2.cpp and gemm_avx512.cpp, each of which compiles it at
// its own ISA flags. Everything here sits in an anonymous namespace, so each
// of those TUs keeps its own copy: a plain inline or template definition
// would be one ODR entity, and the linker could keep the -mavx512f copy for
// every caller (enforced by scripts/check_invariants.py, rule
// scatter-kernel-isolation).

#pragma once

#include <algorithm>
#include <cstddef>

#include "util/gemm.h"

namespace dtsnn::util {
namespace {

/// Direct sparse convolution of one image into its [OHW, Cout] row-per-pixel
/// block: iterate nonzero input pixels (c, y, x ascending) and
/// scatter-accumulate the matching weight columns into the touched output
/// pixels. For every output element this applies contributions in ascending
/// (c, ky, kx) order with zero inputs skipped — exactly the order and skip
/// rule of the A-stationary im2col GEMM — so the result is bitwise identical
/// to the NN op on the im2col matrix, while the im2col materialization is
/// skipped entirely. `wt` is W^T, [Cin*K*K, Cout]. Returns the number of
/// nonzero inputs, which the zero test yields for free.
///
/// Templated on the compile-time stride (0 = generic runtime stride) so the
/// hot loops carry no divisibility checks for stride-1 convs and
/// strength-reduced ones for stride-2, and on the compile-time output width
/// kCout (0 = generic runtime `cout`): with the width known, each tap's row
/// add is straight-line vector code instead of a loop with peel and
/// remainder iterations. Neither parameter touches the per-element order.
///
/// Out of line and 64-byte aligned: the speed of the short inner loops
/// depends on where they fall relative to 64-byte boundaries, and pinning
/// the function start keeps that placement — and the step time — from
/// shifting with unrelated code linked ahead of it (swings of ~30% in
/// per-step time were measured on an AVX-512 Xeon).
template <std::size_t kStride, std::size_t kCout>
[[gnu::noinline, gnu::aligned(64)]] std::size_t scatter_image(const float* xp,
                                                              const float* wt,
                                                              const ConvGeometry& g,
                                                              std::size_t runtime_cout,
                                                              float* pp) {
  const std::size_t cout = kCout ? kCout : runtime_cout;
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const auto stride = static_cast<std::ptrdiff_t>(kStride ? kStride : g.stride);
  const auto pad = static_cast<std::ptrdiff_t>(g.padding);
  const auto kk = static_cast<std::ptrdiff_t>(g.kernel);
  std::size_t nonzeros = 0;
  // The (ky, kx) loops only enumerate which outputs an input touches; the
  // per-output accumulation order is fixed by the (c, y, x) input visit
  // order alone, so the stride-specialized bounds below don't affect the
  // bitwise result.
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* wc = wt + c * static_cast<std::size_t>(kk * kk) * cout;
    for (std::size_t y = 0; y < g.in_h; ++y) {
      const auto ypad = static_cast<std::ptrdiff_t>(y) + pad;
      // oy = (y + pad - ky) / stride with exact division and 0 <= oy < oh.
      const std::ptrdiff_t ky_lo =
          std::max<std::ptrdiff_t>(0, ypad - stride * (static_cast<std::ptrdiff_t>(oh) - 1));
      const std::ptrdiff_t ky_hi = std::min<std::ptrdiff_t>(kk - 1, ypad);
      for (std::size_t xx = 0; xx < g.in_w; ++xx) {
        const float v = xp[(c * g.in_h + y) * g.in_w + xx];
        if (v == 0.0f) continue;
        ++nonzeros;
        const auto xpad = static_cast<std::ptrdiff_t>(xx) + pad;
        const std::ptrdiff_t kx_lo = std::max<std::ptrdiff_t>(
            0, xpad - stride * (static_cast<std::ptrdiff_t>(ow) - 1));
        const std::ptrdiff_t kx_hi = std::min<std::ptrdiff_t>(kk - 1, xpad);
        for (std::ptrdiff_t ky = ky_lo; ky <= ky_hi; ++ky) {
          if (kStride != 1 && (ypad - ky) % stride != 0) continue;
          const auto oy = static_cast<std::size_t>((ypad - ky) / stride);
          float* prow = pp + oy * ow * cout;
          const float* wky = wc + static_cast<std::size_t>(ky * kk) * cout;
          for (std::ptrdiff_t kx = kx_lo; kx <= kx_hi; ++kx) {
            if (kStride != 1 && (xpad - kx) % stride != 0) continue;
            const auto ox = static_cast<std::size_t>((xpad - kx) / stride);
            float* dst = prow + ox * cout;
            const float* wrow = wky + static_cast<std::size_t>(kx) * cout;
#pragma omp simd
            for (std::size_t j = 0; j < cout; ++j) dst[j] += v * wrow[j];
          }
        }
      }
    }
  }
  return nonzeros;
}

using ScatterImageFn = std::size_t (*)(const float*, const float*, const ConvGeometry&,
                                       std::size_t, float*);

/// The scatter_image instantiation for output width `cout` at stride
/// kStride: the widths the model presets build (snn/models.cpp: 8, 16, 32,
/// 64, 128) are compiled at that width, any other runs the generic one.
template <std::size_t kStride>
ScatterImageFn scatter_image_at_width(std::size_t cout) {
  switch (cout) {
    case 8: return &scatter_image<kStride, 8>;
    case 16: return &scatter_image<kStride, 16>;
    case 32: return &scatter_image<kStride, 32>;
    case 64: return &scatter_image<kStride, 64>;
    case 128: return &scatter_image<kStride, 128>;
    default: return &scatter_image<kStride, 0>;
  }
}

/// The scatter over a batch x [N, Cin, H, W] into pix [N*OHW, Cout]. Images
/// are independent, so `parallel` runs them as one OpenMP loop; the result
/// does not depend on it. Returns the nonzero count of x.
std::size_t scatter_batch(const float* x, const float* wt, float* pix, std::size_t batch,
                          const ConvGeometry& g, std::size_t cout,
                          [[maybe_unused]] bool parallel) {
  ScatterImageFn scatter = nullptr;
  switch (g.stride) {
    case 1: scatter = scatter_image_at_width<1>(cout); break;
    case 2: scatter = scatter_image_at_width<2>(cout); break;
    default: scatter = scatter_image_at_width<0>(cout); break;
  }
  const std::size_t in_size = g.in_channels * g.in_h * g.in_w;
  const std::size_t out_size = g.out_h() * g.out_w() * cout;
  std::size_t nonzeros = 0;
#pragma omp parallel for schedule(static) if (parallel) reduction(+ : nonzeros)
  for (std::size_t img = 0; img < batch; ++img) {
    nonzeros += scatter(x + img * in_size, wt, g, cout, pix + img * out_size);
  }
  return nonzeros;
}

}  // namespace
}  // namespace dtsnn::util
