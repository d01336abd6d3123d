// The spike_epilogue kernel (GemmBackend::spike_epilogue, util/gemm.h),
// shared by the bitwise backends. Internal: included only by the backend TUs
// gemm.cpp, gemm_avx2.cpp and gemm_avx512.cpp, each of which compiles it at
// its own ISA flags. Everything here sits in an anonymous namespace, so each
// of those TUs keeps its own copy: a plain inline or template definition
// would be one ODR entity, and the linker could keep the -mavx512f copy for
// every caller (enforced by scripts/check_invariants.py, rule
// scatter-kernel-isolation).

#pragma once

#include <cstddef>
#include <cstring>

#include "util/gemm.h"

namespace dtsnn::util {
namespace {

/// The epilogue over one image: pp is its [pixels, cout] block of the
/// conv's pixel-major output, u and s its NCHW [cout, pixels] membrane and
/// spikes. Channel by channel, one loop over the pixels reads the channel's
/// column of pp (stride cout, an image's block stays cache-resident across
/// the channels) and runs the BN affine and the LIF update over contiguous
/// runs of the membrane and spikes, vectorized across pixels. pp is zeroed
/// afterwards in one contiguous pass. Every element takes exactly the
/// unfused layers' float operations in their order (the backend TUs compile
/// with -ffp-contract=off), so the result is bitwise that of BatchNorm2d's
/// then Lif's eval step. Templated on the reset rule so the inner loop
/// carries no branch.
///
/// Out of line and 64-byte aligned like scatter_image: pinning the start
/// keeps the inner loop's placement, and so the step time, from shifting
/// with unrelated code linked ahead of it.
template <bool kHardReset>
[[gnu::noinline, gnu::aligned(64)]] void epilogue_image(float* pp, float* u, float* s,
                                                        std::size_t pixels,
                                                        std::size_t cout,
                                                        const SpikeEpilogue& e) {
  const float tau = e.tau;
  const float vth = e.vth;
  for (std::size_t ch = 0; ch < cout; ++ch) {
    const float mean = e.bn.mean[ch];
    const float inv_std = e.bn.inv_std[ch];
    const float gamma = e.bn.gamma[ch];
    const float beta = e.bn.beta[ch];
    const float* v = pp + ch;
    float* uc = u + ch * pixels;
    float* sc = s + ch * pixels;
#pragma omp simd
    for (std::size_t p = 0; p < pixels; ++p) {
      const float h = (v[p * cout] - mean) * inv_std;
      const float y = gamma * h + beta;
      const float pre = tau * uc[p] + y;
      // pre > vth as a quiet compare: the same 0 or 1 (NaN never fires),
      // but unlike `>` it lets the AVX2 and SSE2 copies vectorize.
      const float spike = static_cast<float>(__builtin_isgreater(pre, vth));
      sc[p] = spike;
      uc[p] = kHardReset ? pre * (1.0f - spike) : pre - vth * spike;
    }
  }
  std::memset(pp, 0, pixels * cout * sizeof(float));
}

/// The epilogue over a batch: pix [batch*pixels, cout], membrane and spikes
/// [batch, cout, pixels]. Images are independent, so `parallel` runs them as
/// one OpenMP loop; the result does not depend on it.
void spike_epilogue_batch(float* pix, float* membrane, float* spikes, std::size_t batch,
                          std::size_t pixels, std::size_t cout, const SpikeEpilogue& e,
                          [[maybe_unused]] bool parallel) {
  const std::size_t image = pixels * cout;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::size_t img = 0; img < batch; ++img) {
    float* pp = pix + img * image;
    float* u = membrane + img * image;
    float* s = spikes + img * image;
    if (e.hard_reset) {
      epilogue_image<true>(pp, u, s, pixels, cout, e);
    } else {
      epilogue_image<false>(pp, u, s, pixels, cout, e);
    }
  }
}

}  // namespace
}  // namespace dtsnn::util
