// AVX-512 GEMM backend. Compiled with -mavx512f -ffp-contract=off and only
// when the toolchain supports the flag (CMake defines DTSNN_HAVE_AVX512;
// -DDTSNN_DISABLE_AVX512=ON forces the stub build so the registry-fallback
// path stays testable on capable hosts). Runtime dispatch is additionally
// gated by CPUID in available().
//
// Bitwise contract (see util/gemm.h): identical scheme to the AVX2 backend,
// widened to 16 lanes — vectorization strictly over independent output
// columns, each output element's contributions arriving in ascending-k
// order, mul and add as separate instructions. -mavx512f implies FMA
// support, so unlike the AVX2 TU the compiler *could* contract a*b+c here;
// -ffp-contract=off forbids that for the whole TU, keeping scalar tails and
// intrinsics alike on the scalar_ref rounding.
//
// This is the only translation unit allowed to use AVX-512 intrinsics
// (enforced by scripts/check_invariants.py, rule avx512-isolation).

#include "util/gemm_internal.h"

#ifdef DTSNN_HAVE_AVX512

#include <immintrin.h>

#include <cstddef>
#include <vector>

#include "util/conv_scatter_kernel.h"
#include "util/gemm.h"
#include "util/spike_epilogue_kernel.h"

namespace dtsnn::util {
namespace {

/// Column-block width of the AVX-512 gemm_bt kernel: one __m512 of
/// independent per-column accumulators.
constexpr std::size_t kLanes = 16;

/// crow[j..j+n) += aval * brow[j..j+n) with 16-wide lanes; per-column sums
/// stay independent, so the scalar order is preserved.
inline void axpy_row(float aval, const float* brow, float* crow, std::size_t n) {
  const __m512 av = _mm512_set1_ps(aval);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512 prod = _mm512_mul_ps(av, _mm512_loadu_ps(brow + j));
    _mm512_storeu_ps(crow + j, _mm512_add_ps(_mm512_loadu_ps(crow + j), prod));
  }
  for (; j < n; ++j) crow[j] += aval * brow[j];
}

/// Pack B^T rows [j0, j0 + kLanes) of B[n,k] k-major with stride kLanes (the
/// 16-lane analogue of internal::pack_bt_columns).
void pack_bt_columns_512(const float* b, std::size_t k, std::size_t j0,
                         float* packed) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    const float* brow = b + (j0 + l) * k;
    for (std::size_t kk = 0; kk < k; ++kk) packed[kk * kLanes + l] = brow[kk];
  }
}

class Avx512Backend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "avx512"; }
  [[nodiscard]] bool available() const override { return cpu_supports_avx512(); }

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
    // Packed-column scheme as in the AVX2 backend, with 16 B^T rows per
    // block: 16 accumulator lanes each summing their own dot product
    // sequentially in k with one add into C. Column-block width does not
    // affect the bitwise result — every column's sum is its own lane either
    // way — so sharing the scalar tail with the 8-lane backends is sound.
    std::vector<float> packed(k * kLanes);
    std::size_t j0 = 0;
    for (; j0 + kLanes <= n; j0 += kLanes) {
      pack_bt_columns_512(b, k, j0, packed.data());
      const float* pk = packed.data();
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        __m512 acc = _mm512_setzero_ps();
        for (std::size_t kk = 0; kk < k; ++kk) {
          const __m512 av = _mm512_set1_ps(arow[kk]);
          acc = _mm512_add_ps(acc,
                              _mm512_mul_ps(av, _mm512_loadu_ps(pk + kk * kLanes)));
        }
        float* cj = c + i * n + j0;
        _mm512_storeu_ps(cj, _mm512_add_ps(_mm512_loadu_ps(cj), acc));
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

const GemmBackend* avx512_backend_or_null() {
  static const Avx512Backend backend;
  return &backend;
}

}  // namespace dtsnn::util

#else  // !DTSNN_HAVE_AVX512

namespace dtsnn::util {

const GemmBackend* avx512_backend_or_null() { return nullptr; }

}  // namespace dtsnn::util

#endif  // DTSNN_HAVE_AVX512
