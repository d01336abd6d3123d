// Internal glue between the GEMM registry (gemm.cpp) and the ISA-specific
// backend translation units. Not part of the public util/gemm.h API.

#pragma once

#include <cstddef>

namespace dtsnn::util {

class GemmBackend;

/// The AVX2 backend instance, or nullptr when the toolchain could not build
/// it (gemm_avx2.cpp compiles its kernels only under DTSNN_HAVE_AVX2, which
/// CMake defines when -mavx2 is supported). Runtime CPUID gating happens
/// separately through GemmBackend::available().
const GemmBackend* avx2_backend_or_null();

/// The AVX-512 backend instance, or nullptr when gemm_avx512.cpp compiled to
/// its stub (toolchain lacks -mavx512f, or -DDTSNN_DISABLE_AVX512=ON forced
/// the fallback build). Same compile-time/runtime split as avx2.
const GemmBackend* avx512_backend_or_null();

namespace internal {

/// Column-block width of the packed B^T scheme shared by the blocked and
/// AVX2 gemm_bt kernels. These helpers encode the bitwise accumulation
/// contract exactly once: eight independent per-column accumulators advance
/// sequentially in ascending-k order, and leftover columns run sequential
/// scalar dots — so all backends built on them agree bit-for-bit. (The
/// AVX-512 kernel widens the column block to 16 lanes; per-column sums stay
/// independent, so the contract is unchanged.)
inline constexpr std::size_t kBtLanes = 8;

/// Pack B^T rows [j0, j0 + kBtLanes) of B[n,k] k-major into
/// packed[k * kBtLanes] so the dot loops run contiguous loads.
void pack_bt_columns(const float* b, std::size_t k, std::size_t j0, float* packed);

/// C[:, j0..n) += A * B^T for the remainder columns: sequential scalar dot
/// per output element (one local accumulator, one add into C).
void gemm_bt_scalar_tail(const float* a, const float* b, float* c, std::size_t m,
                         std::size_t k, std::size_t n, std::size_t j0);

}  // namespace internal

}  // namespace dtsnn::util
