// AVX2 GEMM backend. Compiled with -mavx2 (and only then — CMake defines
// DTSNN_HAVE_AVX2 when the flag is supported); runtime dispatch is
// additionally gated by CPUID in available().
//
// Bitwise contract (see util/gemm.h): vectorization is strictly over
// independent output columns — each output element owns one vector lane
// whose contributions arrive in ascending-k order, exactly like scalar_ref.
// Multiplies and adds stay separate instructions; -mfma is never enabled
// for this translation unit, so no FMA contraction can change the rounding.

#include "util/gemm_internal.h"

#ifdef DTSNN_HAVE_AVX2

#include <immintrin.h>

#include <cstddef>
#include <vector>

#include "util/conv_scatter_kernel.h"
#include "util/gemm.h"
#include "util/spike_epilogue_kernel.h"

namespace dtsnn::util {
namespace {

/// crow[j..j+n) += aval * brow[j..j+n) with 8-wide lanes; per-column sums
/// stay independent, so the scalar order is preserved.
inline void axpy_row(float aval, const float* brow, float* crow, std::size_t n) {
  const __m256 av = _mm256_set1_ps(aval);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(brow + j));
    _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), prod));
  }
  for (; j < n; ++j) crow[j] += aval * brow[j];
}

class Avx2Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "avx2"; }
  [[nodiscard]] bool available() const override { return cpu_supports_avx2(); }

 protected:
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aval = arow[kk];
        if (aval == 0.0f) continue;  // same zero-skip rule as scalar_ref
        axpy_row(aval, b + kk * n, crow, n);
      }
    }
  }

  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aval = a[kk * m + i];
        if (aval == 0.0f) continue;
        axpy_row(aval, b + kk * n, crow, n);
      }
    }
  }

  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    // Shared packed-column scheme (gemm_internal.h): eight B^T rows packed
    // k-major, eight accumulator lanes each summing its own dot product
    // sequentially in k with one add into C — here the lane update is a
    // single AVX2 mul+add instead of the blocked kernel's simd loop.
    static_assert(internal::kBtLanes == 8, "AVX2 gemm_bt assumes 8-float lanes");
    std::vector<float> packed(k * internal::kBtLanes);
    std::size_t j0 = 0;
    for (; j0 + internal::kBtLanes <= n; j0 += internal::kBtLanes) {
      internal::pack_bt_columns(b, k, j0, packed.data());
      const float* pk = packed.data();
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        __m256 acc = _mm256_setzero_ps();
        for (std::size_t kk = 0; kk < k; ++kk) {
          const __m256 av = _mm256_set1_ps(arow[kk]);
          acc = _mm256_add_ps(acc, _mm256_mul_ps(av, _mm256_loadu_ps(pk + kk * 8)));
        }
        float* cj = c + i * n + j0;
        _mm256_storeu_ps(cj, _mm256_add_ps(_mm256_loadu_ps(cj), acc));
      }
    }
    internal::gemm_bt_scalar_tail(a, b, c, m, k, n, j0);
  }

  // The shared scatter kernel, compiled here at this TU's ISA flags: its
  // per-output-column inner loop vectorizes with no FMA contraction.
  std::size_t do_conv_scatter(const float* x, const float* wt, float* pix,
                              std::size_t batch, const ConvGeometry& g,
                              std::size_t cout) const override {
    return scatter_batch(x, wt, pix, batch, g, cout, /*parallel=*/true);
  }

  // The shared epilogue kernel, likewise compiled at this TU's ISA flags.
  void do_spike_epilogue(float* pix, float* membrane, float* spikes, std::size_t batch,
                         std::size_t pixels, std::size_t cout,
                         const SpikeEpilogue& e) const override {
    spike_epilogue_batch(pix, membrane, spikes, batch, pixels, cout, e, /*parallel=*/true);
  }
};

}  // namespace

const GemmBackend* avx2_backend_or_null() {
  static const Avx2Backend backend;
  return &backend;
}

}  // namespace dtsnn::util

#else  // !DTSNN_HAVE_AVX2

namespace dtsnn::util {

const GemmBackend* avx2_backend_or_null() { return nullptr; }

}  // namespace dtsnn::util

#endif  // DTSNN_HAVE_AVX2
