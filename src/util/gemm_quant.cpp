// The spike-path quantized kernel (internal::qgemm_spike_kernel): the LUT
// backends' small-batch fallback and the reference they are tested against.
//
// It consumes util::QuantizedMatrix weights (k-major packed codes,
// group-wise symmetric scales; see util/quant.h) against spike activations
// in A. Each A row is branchlessly compressed to (index, value) pairs, then
// processed group-by-group along k. Inside a scale group, binary spikes
// (exactly 1.0f) add the selected quantized weight row into an int32
// accumulator — no multiplies, and the bytes streamed per spike are 1/4
// (INT8) or 1/8 (INT4) of the float backends' traffic. Graded spikes fall
// back to float accumulation of decoded codes. Each group is dequantized
// once per output column at its boundary:
// crow[j] += (int_sum + graded_sum) * scale[g][j].
//
// Accumulation order is fixed (ascending k within a group, ascending groups,
// rows independent), so outputs are deterministic and batch-composition
// invariant — but quantization error makes them tolerance-gated, not
// bitwise, versus the float tier (GemmIdentityTier::kToleranceGated).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/gemm.h"
#include "util/gemm_internal.h"
#include "util/quant.h"

namespace dtsnn::util {

namespace {

/// Decode one INT4 code from its offset-binary nibble (low = even column).
inline int decode_nibble(std::uint8_t byte, bool high) {
  return (high ? (byte >> 4) : (byte & 0x0F)) - 8;
}

template <int kBits>
void qgemm_kernel(const float* a, const QuantizedMatrix& q, float* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  const std::size_t gs = q.group_size();
  const std::size_t stride = q.row_stride();
  const std::uint8_t* data = q.packed().data();
  const float* scales = q.scales().data();
#pragma omp parallel
  {
    std::vector<std::uint32_t> idx(k);
    std::vector<float> val(k);
    std::vector<std::int32_t> iacc(n);
    std::vector<float> facc(n);
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      // Branchless CSR compress of the spike row.
      std::size_t nnz = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        idx[nnz] = static_cast<std::uint32_t>(kk);
        val[nnz] = arow[kk];
        nnz += arow[kk] != 0.0f;
      }
      float* crow = c + i * n;
      std::size_t s = 0;
      while (s < nnz) {
        // Jump straight to the scale group of the next spike; spike-free
        // groups cost nothing.
        const std::size_t g = idx[s] / gs;
        const std::size_t k_end = std::min((g + 1) * gs, k);
        std::fill(iacc.begin(), iacc.end(), 0);
        bool graded = false;
        for (; s < nnz && idx[s] < k_end; ++s) {
          const std::size_t kk = idx[s];
          const float v = val[s];
          const std::uint8_t* qrow = data + kk * stride;
          if (v == 1.0f) {
            if constexpr (kBits == 8) {
              const auto* row = reinterpret_cast<const std::int8_t*>(qrow);
#pragma omp simd
              for (std::size_t j = 0; j < n; ++j) iacc[j] += row[j];
            } else {
#pragma omp simd
              for (std::size_t p = 0; p < n / 2; ++p) {
                const std::uint8_t byte = qrow[p];
                iacc[2 * p] += decode_nibble(byte, false);
                iacc[2 * p + 1] += decode_nibble(byte, true);
              }
              if (n % 2 != 0) iacc[n - 1] += decode_nibble(qrow[n / 2], false);
            }
          } else {
            if (!graded) {
              std::fill(facc.begin(), facc.end(), 0.0f);
              graded = true;
            }
            if constexpr (kBits == 8) {
              const auto* row = reinterpret_cast<const std::int8_t*>(qrow);
#pragma omp simd
              for (std::size_t j = 0; j < n; ++j) {
                facc[j] += v * static_cast<float>(row[j]);
              }
            } else {
#pragma omp simd
              for (std::size_t p = 0; p < n / 2; ++p) {
                const std::uint8_t byte = qrow[p];
                facc[2 * p] += v * static_cast<float>(decode_nibble(byte, false));
                facc[2 * p + 1] += v * static_cast<float>(decode_nibble(byte, true));
              }
              if (n % 2 != 0) {
                facc[n - 1] += v * static_cast<float>(decode_nibble(qrow[n / 2], false));
              }
            }
          }
        }
        // Dequantize the whole group once per output column.
        const float* srow = scales + g * n;
        if (graded) {
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] += (static_cast<float>(iacc[j]) + facc[j]) * srow[j];
          }
        } else {
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] += static_cast<float>(iacc[j]) * srow[j];
          }
        }
      }
    }
  }
}

}  // namespace

namespace internal {

void qgemm_spike_kernel(int bits, const float* a, const QuantizedMatrix& q, float* c,
                        std::size_t m, std::size_t k, std::size_t n) {
  if (bits == 8) {
    qgemm_kernel<8>(a, q, c, m, k, n);
  } else {
    qgemm_kernel<4>(a, q, c, m, k, n);
  }
}

}  // namespace internal

}  // namespace dtsnn::util
