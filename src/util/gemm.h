// Multi-backend single-precision GEMM dispatch layer.
//
// Convolution and linear layers funnel their products through four
// row-major ops, served by runtime-selected backends behind the GemmBackend
// interface:
//
//   gemm          C[m,n] (+)= A[m,k] * B[k,n]      (NN)
//   gemm_at       C[m,n] (+)= A^T * B, A stored [k,m]
//   gemm_bt       C[m,n] (+)= A * B^T, B stored [n,k]
//   conv_scatter  the spike convolution of Conv2d's float eval forward: for
//                 every nonzero input (c, y, x) in ascending order, add
//                 v * W^T row into each output pixel it touches. It is the
//                 NN product of the im2col matrix and W^T, run without
//                 materializing im2col, and is accounted as that product.
//
// plus one element-wise op that is not a product:
//
//   spike_epilogue  the eval BatchNorm2d affine and LIF update of a
//                 Conv2d -> BatchNorm2d -> Lif run, applied in one pass over
//                 the conv's pixel-major output: it writes NCHW spikes,
//                 updates the NCHW membrane in place, and leaves the pixels
//                 zeroed for the next scatter. It does no multiply-
//                 accumulates of the network's weights, so GemmContext
//                 records nothing for it: GemmStats counts products only.
//
// The backends:
//
//   scalar_ref    plain loops; the oracle that *defines* the bitwise
//                 accumulation contract (see below).
//   blocked_omp   cache-blocked, OpenMP-parallel kernels (the historical
//                 default).
//   avx2          AVX2 kernels vectorized over independent output columns —
//                 each output element keeps its own sequential k-order
//                 accumulator lane, and mul/add stay separate instructions
//                 (no FMA contraction) — so results are bitwise identical to
//                 scalar_ref. Compiled only when the toolchain supports
//                 -mavx2; dispatch additionally gated by runtime CPUID.
//   avx512        like avx2 but with 16-lane AVX-512F kernels; own TU
//                 compiled with -mavx512f -ffp-contract=off (AVX-512F
//                 implies FMA, and contraction would break the bitwise
//                 contract). Auto-selected above avx2 when the CPU has it.
//
// Quantized weights are a storage format, not a backend: a Conv2d or Linear
// carrying calibrated util::QuantizedMatrix weights dequantizes them once at
// install (snn/quantize.h), and its eval forwards run the dequantized floats
// through these same ops.
//
// Every backend runs the one conv_scatter kernel (util/conv_scatter_kernel.h)
// and the one spike_epilogue kernel (util/spike_epilogue_kernel.h), each
// compiled once per backend TU at that TU's ISA flags: scalar_ref serially,
// blocked_omp, avx2 and avx512 parallel over images. The scatter is also
// compiled at the output widths the model presets build (Cout 8, 16, 32, 64,
// 128), where each tap's row add becomes straight-line vector code; any other
// width runs the generic kernel. The width changes no per-element order, so
// it is invisible to the identity contract below.
//
// The registry picks only the ISA. Whether a product runs in the sparse or
// the dense op form is decided once, by the layers, from the input spike
// density (snn::kSparseDensityThreshold).
//
// Identity contract: for every op, each output element accumulates its
// contributions in ascending-k order with exact-zero A values skipped (NN /
// A^T / conv_scatter, whose k order is the ascending (c, ky, kx) patch
// order), and the B^T op sums each dot product sequentially into a local
// accumulator before a single add into C. spike_epilogue applies, per
// element, the float operations of the unfused BatchNorm2d and Lif eval steps
// in their order. Every backend follows the contract exactly, so DT-SNN
// logits — and therefore early-exit decisions — are bitwise identical no
// matter which backend runs, and the per-backend identity suite enforces it
// against scalar_ref. That holds for quantized networks too: they run the
// float ops on their dequantized weights. Versus the float network they are
// tolerance-gated instead (core::calibrate_quantized).
//
// Selection: the DTSNN_GEMM_BACKEND environment variable forces a backend by
// name (unknown or unavailable names throw, listing the registry with
// availability); otherwise the best available backend runs:
// avx512 > avx2 > blocked_omp.
//
// Call sites do not invoke backends directly: they go through a GemmContext
// (selected backend + per-op call/FLOP/density accounting). Layers default
// to the process-wide GemmContext::global() and can be re-pointed per
// network (snn::SpikingNetwork::set_gemm_context).

#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace dtsnn::util {

/// Geometry of one 2-D convolution over an NCHW input (square kernel, same
/// stride and zero padding on both axes). The layers' im2col transforms and
/// the conv_scatter op share it.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 1;
  std::size_t stride = 1;
  std::size_t padding = 0;

  [[nodiscard]] std::size_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  [[nodiscard]] std::size_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
  [[nodiscard]] std::size_t patch_size() const { return in_channels * kernel * kernel; }
  /// True if the geometry is self-consistent (kernel fits the padded input).
  [[nodiscard]] bool valid() const {
    return in_channels > 0 && kernel > 0 && stride > 0 && in_h + 2 * padding >= kernel &&
           in_w + 2 * padding >= kernel;
  }
};

/// Per-channel constants of a BatchNorm2d eval forward,
/// y = gamma * ((x - mean) * inv_std) + beta; each points at [channels]
/// floats (snn::BatchNorm2d::eval_constants).
struct BatchNormEval {
  const float* mean = nullptr;
  const float* inv_std = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
};

/// The scalar operands of the spike_epilogue op: the BatchNorm2d eval
/// constants and the LIF neuron parameters (snn::LifConfig).
struct SpikeEpilogue {
  BatchNormEval bn;
  float tau = 0.5f;
  float vth = 1.0f;
  bool hard_reset = true;
};

// ------------------------------------------------------------------ backend

class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  /// Stable identifier used by DTSNN_GEMM_BACKEND and reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether this backend can run on the current machine (runtime CPUID for
  /// ISA-specific backends). Unavailable backends stay listed but are never
  /// selected.
  [[nodiscard]] virtual bool available() const { return true; }

  /// C[m,n] (+)= A[m,k] * B[k,n]   (all row-major). With accumulate == false
  /// C is overwritten. Degenerate shapes (m, k, or n == 0) are handled
  /// deterministically here: C is zeroed when not accumulating and the
  /// kernel is never entered.
  void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n, bool accumulate = false) const;

  /// C[m,n] (+)= A^T * B where A is stored row-major as [k,m].
  void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false) const;

  /// C[m,n] (+)= A * B^T where B is stored row-major as [n,k].
  void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false) const;

  /// pix[batch*OH*OW, cout] += conv(x, W): the spike convolution of x
  /// [batch, Cin, H, W] with W^T `wt` [Cin*K*K, cout], written one row per
  /// output pixel. Zero inputs are skipped, and each output element takes its
  /// contributions in ascending (c, ky, kx) order, so pix gains exactly the
  /// NN product of the im2col matrix and W^T. Always accumulates; `g` must
  /// be valid(). Returns the number of nonzero elements of x. batch == 0
  /// never enters the kernel (null pointers are fine) and returns 0.
  std::size_t conv_scatter(const float* x, const float* wt, float* pix,
                           std::size_t batch, const ConvGeometry& g,
                           std::size_t cout) const;

  /// The fused eval spiking epilogue over pix [batch*pixels, cout] (one row
  /// per output pixel, as conv_scatter writes it). For every element, with
  /// c its channel and (c, p) its NCHW position in image `img`:
  ///   h = (v - mean[c]) * inv_std[c];  y = gamma[c] * h + beta[c];
  ///   pre = tau * u + y;  s = pre > vth;  u = hard ? pre * (1 - s) : pre - vth * s
  /// where u is membrane[img, c, p] (updated in place) and s is written to
  /// spikes[img, c, p] as 0 or 1. Each pix element is set to 0 after it is
  /// read, so pix leaves all zero. batch == 0 never enters the kernel.
  void spike_epilogue(float* pix, float* membrane, float* spikes, std::size_t batch,
                      std::size_t pixels, std::size_t cout, const SpikeEpilogue& e) const;

 protected:
  /// Kernels always accumulate into C (the public wrappers zero C first when
  /// not accumulating) and are only entered with m, k, n all nonzero.
  virtual void do_gemm(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n) const = 0;
  virtual void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n) const = 0;
  virtual void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n) const = 0;
  /// Entered only with batch nonzero.
  virtual std::size_t do_conv_scatter(const float* x, const float* wt, float* pix,
                                      std::size_t batch, const ConvGeometry& g,
                                      std::size_t cout) const = 0;
  /// Entered only with batch nonzero.
  virtual void do_spike_epilogue(float* pix, float* membrane, float* spikes,
                                 std::size_t batch, std::size_t pixels, std::size_t cout,
                                 const SpikeEpilogue& e) const = 0;
};

// ----------------------------------------------------------------- registry

/// All compiled-in backends in registration order: scalar_ref, blocked_omp,
/// avx2 (when the toolchain supported -mavx2), avx512 (when the toolchain
/// supported -mavx512f and the build did not disable it).
std::span<const GemmBackend* const> gemm_backends();

/// Lookup by name; nullptr when no such backend is compiled in.
const GemmBackend* find_gemm_backend(std::string_view name);

/// Resolve an explicit override (nullptr or empty = automatic selection,
/// preferred_dense_gemm_backend()). Throws std::invalid_argument for unknown
/// names and std::runtime_error for known backends this machine cannot run —
/// both list every registered backend and its availability — so a typo'd or
/// impossible DTSNN_GEMM_BACKEND fails loudly instead of silently falling
/// back.
const GemmBackend& resolve_gemm_backend(const char* override_name);

/// The process default: resolve_gemm_backend(getenv("DTSNN_GEMM_BACKEND")),
/// evaluated once and cached.
const GemmBackend& default_gemm_backend();

/// The best backend this machine can run: avx512 > avx2 > blocked_omp.
/// Automatic selection uses this.
const GemmBackend& preferred_dense_gemm_backend();

/// Runtime CPUID check used to gate the avx2 backend.
bool cpu_supports_avx2();

/// Runtime CPUID check (AVX-512 Foundation) used to gate the avx512 backend.
bool cpu_supports_avx512();

// -------------------------------------------------------------------- stats

/// Accounting for one GEMM op kind.
struct GemmCallStats {
  std::size_t calls = 0;
  double flops = 0.0;       ///< dense FLOP count, 2*m*k*n per call
  double a_elements = 0.0;  ///< total elements of A seen
  double a_nonzeros = 0.0;  ///< nonzero elements of A seen
  /// Element-weighted nonzero density of A across all calls (spike density
  /// when A carries spike activations).
  [[nodiscard]] double density() const {
    return a_elements > 0.0 ? a_nonzeros / a_elements : 0.0;
  }
};

/// Per-op accounting of one GemmContext.
struct GemmStats {
  GemmCallStats nn;  ///< gemm and conv_scatter (as its im2col NN product)
  GemmCallStats at;  ///< gemm_at
  GemmCallStats bt;  ///< gemm_bt
  [[nodiscard]] std::size_t calls() const { return nn.calls + at.calls + bt.calls; }
  [[nodiscard]] double flops() const { return nn.flops + at.flops + bt.flops; }
  [[nodiscard]] double elements() const {
    return nn.a_elements + at.a_elements + bt.a_elements;
  }
  [[nodiscard]] double nonzeros() const {
    return nn.a_nonzeros + at.a_nonzeros + bt.a_nonzeros;
  }
  [[nodiscard]] double density() const {
    const double e = elements();
    return e > 0.0 ? nonzeros() / e : 0.0;
  }
};

// ------------------------------------------------------------------ context

/// A backend selection plus per-op accounting, threaded through every GEMM
/// call site. Thread-safe for concurrent GEMM calls (parallel evaluation
/// replicas share the global context); set_backend is not synchronized
/// against in-flight calls and must happen between them.
class GemmContext {
 public:
  /// Uses default_gemm_backend().
  GemmContext();
  explicit GemmContext(const GemmBackend& backend) : backend_(&backend) {}

  /// Process-wide default context used by layers with no explicit context.
  static GemmContext& global();

  [[nodiscard]] const GemmBackend& backend() const { return *backend_; }
  void set_backend(const GemmBackend& backend) { backend_ = &backend; }

  void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n, bool accumulate = false);
  void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false);
  void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false);

  /// Spike convolution (GemmBackend::conv_scatter), recorded as the NN
  /// product it equals: m = batch*OH*OW, k = Cin*K*K, n = cout, dense
  /// equivalent flops, and x as the operand read, with the nonzero count the
  /// kernel returns (no separate pass over x).
  void conv_scatter(const float* x, const float* wt, float* pix, std::size_t batch,
                    const ConvGeometry& g, std::size_t cout);

  /// The fused eval spiking epilogue (GemmBackend::spike_epilogue) at the
  /// selected backend's ISA. Not a product, so it records nothing.
  void spike_epilogue(float* pix, float* membrane, float* spikes, std::size_t batch,
                      std::size_t pixels, std::size_t cout, const SpikeEpilogue& e) const {
    backend_->spike_epilogue(pix, membrane, spikes, batch, pixels, cout, e);
  }

  [[nodiscard]] GemmStats stats() const DTSNN_EXCLUDES(mutex_);
  void reset_stats() DTSNN_EXCLUDES(mutex_);

 private:
  /// The one accounting point: every dispatched op lands here. Accounting
  /// costs one pass over A per dispatched GEMM call (the nonzero count;
  /// conv_scatter counts inside its kernel) plus a mutex acquisition —
  /// cheap next to the product itself.
  void record(GemmCallStats GemmStats::* op, std::size_t m, std::size_t k, std::size_t n,
              double a_elements, double a_nonzeros) DTSNN_EXCLUDES(mutex_);

  const GemmBackend* backend_;
  mutable Mutex mutex_;
  GemmStats stats_ DTSNN_GUARDED_BY(mutex_);
};

}  // namespace dtsnn::util
