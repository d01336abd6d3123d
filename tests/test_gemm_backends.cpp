// GEMM backend-dispatch subsystem tests.
//
// The load-bearing property is the bitwise identity contract (util/gemm.h):
// every registered backend must produce bit-for-bit the same output as
// scalar_ref for all three ops, on awkward shapes (1, primes, larger than
// the cache blocks), dense, all-zero, and spike-sparse operands — because
// DT-SNN's early-exit *decisions* gate on exact logit values, and backends
// must be swappable without changing any decision. The suite closes with an
// end-to-end check that BatchedSequentialEngine emits identical results
// under every backend, on every dataset preset.

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "snn/conv.h"
#include "util/gemm.h"
#include "util/rng.h"

namespace dtsnn {
namespace {

enum class Fill { kDense, kAllZero, kSparse90Binary, kSparse70Graded };

std::vector<float> make_matrix(std::size_t rows, std::size_t cols, Fill fill,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> m(rows * cols, 0.0f);
  switch (fill) {
    case Fill::kDense:
      for (auto& v : m) v = static_cast<float>(rng.gaussian());
      break;
    case Fill::kAllZero:
      break;
    case Fill::kSparse90Binary:  // LIF spike trains: 0/1 at ~10% density
      for (auto& v : m) v = rng.bernoulli(0.1) ? 1.0f : 0.0f;
      break;
    case Fill::kSparse70Graded:  // 30% nonzero, arbitrary magnitudes
      for (auto& v : m) v = rng.bernoulli(0.3) ? static_cast<float>(rng.gaussian()) : 0.0f;
      break;
  }
  return m;
}

const char* fill_name(Fill fill) {
  switch (fill) {
    case Fill::kDense: return "dense";
    case Fill::kAllZero: return "all_zero";
    case Fill::kSparse90Binary: return "sparse90_binary";
    case Fill::kSparse70Graded: return "sparse70_graded";
  }
  return "?";
}

// ----------------------------------------------------------------- registry

TEST(GemmRegistry, ShipsAllBackends) {
  // scalar_ref and blocked_omp are unconditional; the ISA backends (avx2,
  // avx512) are present whenever the toolchain could target them (this
  // repo's CI always can), and must be consistently gated by runtime CPUID.
  // The registry lists exactly these, in this order.
  std::vector<std::string> expected{"scalar_ref", "blocked_omp"};
  for (const char* isa : {"avx2", "avx512"}) {
    if (util::find_gemm_backend(isa) != nullptr) expected.emplace_back(isa);
  }
  std::vector<std::string> listed;
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    listed.emplace_back(backend->name());
  }
  EXPECT_EQ(listed, expected);
  for (const std::string& name : expected) {
    if (name.starts_with("avx")) continue;  // CPUID-gated, checked below
    const util::GemmBackend* backend = util::find_gemm_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_TRUE(backend->available()) << name;
    EXPECT_EQ(backend->name(), name);
  }
  if (const util::GemmBackend* avx2 = util::find_gemm_backend("avx2")) {
    EXPECT_EQ(avx2->available(), util::cpu_supports_avx2());
  }
  if (const util::GemmBackend* avx512 = util::find_gemm_backend("avx512")) {
    EXPECT_EQ(avx512->available(), util::cpu_supports_avx512());
  }
  EXPECT_EQ(util::find_gemm_backend("no_such_backend"), nullptr);
}

TEST(GemmRegistry, ResolutionRules) {
  // Explicit names resolve to themselves; unknown names throw (a typo'd
  // DTSNN_GEMM_BACKEND must fail loudly, not fall back silently), and the
  // message lists every registered backend so the failure is self-diagnosing.
  // Retired backend names are unknown names like any other.
  EXPECT_EQ(&util::resolve_gemm_backend("scalar_ref"),
            util::find_gemm_backend("scalar_ref"));
  for (const char* unknown : {"no_such_backend", "sparse_spike", "adaptive", "int8_spike",
                              "int4_spike", "int8_lut", "int4_lut"}) {
    try {
      util::resolve_gemm_backend(unknown);
      ADD_FAILURE() << unknown << " is not a registered backend and must throw";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(unknown), std::string::npos) << msg;
      for (const util::GemmBackend* backend : util::gemm_backends()) {
        EXPECT_NE(msg.find(std::string(backend->name())), std::string::npos)
            << msg << " should list " << backend->name();
      }
    }
  }
  // Known-but-impossible names throw a distinct error with the same registry
  // listing, marking which entries this machine cannot run.
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    if (backend->available()) continue;
    try {
      util::resolve_gemm_backend(std::string(backend->name()).c_str());
      FAIL() << backend->name() << " is unavailable here and must not resolve";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("not available"), std::string::npos) << msg;
      EXPECT_NE(msg.find("unavailable on this machine"), std::string::npos) << msg;
    }
  }

  // Automatic selection: the best dense bitwise backend this machine can
  // run — avx512 > avx2 > blocked_omp.
  const util::GemmBackend& automatic = util::resolve_gemm_backend(nullptr);
  EXPECT_EQ(&automatic, &util::preferred_dense_gemm_backend());
  const util::GemmBackend* avx512 = util::find_gemm_backend("avx512");
  const util::GemmBackend* avx2 = util::find_gemm_backend("avx2");
  if (avx512 != nullptr && avx512->available()) {
    EXPECT_EQ(&automatic, avx512);
  } else if (avx2 != nullptr && avx2->available()) {
    EXPECT_EQ(&automatic, avx2);
  } else {
    EXPECT_EQ(&automatic, util::find_gemm_backend("blocked_omp"));
  }
  EXPECT_EQ(&util::resolve_gemm_backend(""), &automatic);
}

// ------------------------------------------------------------- accounting

TEST(GemmContext, TracksCallsFlopsAndDensity) {
  util::GemmContext ctx(*util::find_gemm_backend("scalar_ref"));
  const std::size_t m = 4, k = 8, n = 6;
  std::vector<float> a(m * k, 0.0f), b(k * n, 1.0f), c(m * n);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 1.0f;  // density 0.5

  ctx.gemm(a.data(), b.data(), c.data(), m, k, n);
  ctx.gemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  util::GemmStats s = ctx.stats();
  EXPECT_EQ(s.nn.calls, 2u);
  EXPECT_EQ(s.calls(), 2u);
  EXPECT_DOUBLE_EQ(s.nn.flops, 2.0 * 2 * m * k * n);
  EXPECT_DOUBLE_EQ(s.nn.density(), 0.5);

  std::vector<float> at(k * m, 1.0f), bt(n * k, 1.0f);
  ctx.gemm_at(at.data(), b.data(), c.data(), m, k, n);
  ctx.gemm_bt(a.data(), bt.data(), c.data(), m, k, n);
  s = ctx.stats();
  EXPECT_EQ(s.at.calls, 1u);
  EXPECT_EQ(s.bt.calls, 1u);
  EXPECT_EQ(s.calls(), 4u);
  EXPECT_DOUBLE_EQ(s.at.density(), 1.0);
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 4 * m * k * n);

  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().calls(), 0u);
}

/// Conv2d's float eval forward dispatches the conv_scatter op to its
/// context's backend, at every input density. Each backend's scatter is one
/// NN product in the accounting: dense-equivalent flops
/// 2*(N*OH*OW)*patch*Cout, x as the operand read, and the nonzero count the
/// kernel itself returns.
TEST(GemmContext, ConvScatterIsRecordedAsOneNNCall) {
  const std::size_t n = 2, rows = n * 5 * 5, patch = 4 * 3 * 3, cout = 8;
  const double flops = 2.0 * static_cast<double>(rows * patch * cout);
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    if (!backend->available()) continue;
    util::Rng rng(9);
    snn::Conv2d conv(4, 8, 3, 2, 1, /*bias=*/false, rng);
    util::GemmContext ctx(*backend);
    conv.set_gemm_context(&ctx);
    for (const double density : {0.0, 0.1, 0.9}) {
      snn::Tensor x({n, 4, 9, 9});
      util::Rng xr(static_cast<std::uint64_t>(density * 100));
      std::size_t nonzeros = 0;
      for (auto& v : x.span()) {
        v = xr.bernoulli(density) ? 1.0f : 0.0f;
        nonzeros += v != 0.0f;
      }
      ctx.reset_stats();
      conv.set_time(1, n);
      conv.forward(x, /*train=*/false);
      const util::GemmStats s = ctx.stats();
      const std::string where = std::string(backend->name()) + " density " +
                                std::to_string(density);
      EXPECT_EQ(s.calls(), 1u) << where;
      EXPECT_EQ(s.nn.calls, 1u) << where;
      EXPECT_DOUBLE_EQ(s.nn.flops, flops) << where;
      EXPECT_DOUBLE_EQ(s.nn.a_elements, static_cast<double>(x.numel())) << where;
      EXPECT_DOUBLE_EQ(s.nn.a_nonzeros, static_cast<double>(nonzeros)) << where;
    }
  }
}

// ------------------------------------------------- degenerate-shape guards

class GemmBackendEach : public testing::TestWithParam<const util::GemmBackend*> {};

TEST_P(GemmBackendEach, DegenerateShapesAreDeterministic) {
  const util::GemmBackend& backend = *GetParam();
  if (!backend.available()) GTEST_SKIP() << backend.name() << " unavailable here";

  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {5, 6, 7, 8};

  // k == 0, overwrite: C must be zeroed (not left with stale garbage).
  std::vector<float> c(6, 42.0f);
  backend.gemm(a, b, c.data(), 2, 0, 3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);

  // k == 0, accumulate: C must be untouched.
  std::vector<float> c2(6, 42.0f);
  backend.gemm(a, b, c2.data(), 2, 0, 3, /*accumulate=*/true);
  for (const float v : c2) EXPECT_EQ(v, 42.0f);

  // m == 0 / n == 0: C has no elements; the call must simply not crash —
  // including with null data pointers, which is what a zero-sized Tensor
  // hands out.
  backend.gemm(nullptr, nullptr, nullptr, 0, 4, 3);
  backend.gemm(a, b, nullptr, 2, 2, 0);
  backend.gemm_at(nullptr, nullptr, nullptr, 0, 0, 0);
  backend.gemm_bt(nullptr, nullptr, nullptr, 0, 0, 0, /*accumulate=*/true);

  // Same guards via the dispatching context.
  util::GemmContext ctx(backend);
  std::vector<float> c3(6, 7.0f);
  ctx.gemm_at(a, b, c3.data(), 2, 0, 3);
  for (const float v : c3) EXPECT_EQ(v, 0.0f);
  ctx.gemm_bt(a, b, c3.data(), 2, 0, 3, /*accumulate=*/true);
  for (const float v : c3) EXPECT_EQ(v, 0.0f);

  // conv_scatter with batch == 0 never enters the kernel: null pointers are
  // fine, nothing is nonzero, and the context still records one (empty) op.
  const util::ConvGeometry g{2, 3, 3, 3, 1, 1};
  EXPECT_EQ(backend.conv_scatter(nullptr, nullptr, nullptr, 0, g, 4), 0u);
  ctx.reset_stats();
  ctx.conv_scatter(nullptr, nullptr, nullptr, 0, g, 4);
  EXPECT_EQ(ctx.stats().nn.calls, 1u);
  EXPECT_EQ(ctx.stats().nn.a_elements, 0.0);
  EXPECT_EQ(ctx.stats().flops(), 0.0);

  // An all-zero input touches nothing: pix keeps its (accumulate) contents
  // and the returned nonzero count is 0.
  const std::vector<float> x(2 * g.in_channels * g.in_h * g.in_w, 0.0f);
  const std::vector<float> wt(g.patch_size() * 4, 1.0f);
  std::vector<float> pix(2 * g.out_h() * g.out_w() * 4, 7.0f);
  EXPECT_EQ(backend.conv_scatter(x.data(), wt.data(), pix.data(), 2, g, 4), 0u);
  for (const float v : pix) EXPECT_EQ(v, 7.0f);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GemmBackendEach,
                         testing::ValuesIn(util::gemm_backends().begin(),
                                           util::gemm_backends().end()),
                         [](const auto& param_info) {
                           return std::string(param_info.param->name());
                         });

// ------------------------------------------------- bitwise identity suite

struct IdentityCase {
  std::size_t m, k, n;
  Fill fill;
};

class GemmBackendIdentity
    : public testing::TestWithParam<std::tuple<const util::GemmBackend*, IdentityCase>> {};

/// Every backend op must be bit-for-bit equal to scalar_ref — EXPECT_EQ on
/// floats, no tolerance. Shapes mix 1s, primes, and dimensions larger than
/// the blocked kernel's tiles (64/256) so every block-boundary and tail path
/// is crossed.
TEST_P(GemmBackendIdentity, BitwiseEqualToScalarRef) {
  const auto& [backend, c] = GetParam();
  if (!backend->available()) GTEST_SKIP() << backend->name() << " unavailable here";
  const util::GemmBackend& ref = *util::find_gemm_backend("scalar_ref");

  for (const bool accumulate : {false, true}) {
    // NN: A [m,k] carries the (possibly sparse) activations.
    {
      const auto a = make_matrix(c.m, c.k, c.fill, 11);
      const auto b = make_matrix(c.k, c.n, Fill::kDense, 12);
      auto out = make_matrix(c.m, c.n, Fill::kDense, 13);  // accumulate seed
      auto expected = out;
      backend->gemm(a.data(), b.data(), out.data(), c.m, c.k, c.n, accumulate);
      ref.gemm(a.data(), b.data(), expected.data(), c.m, c.k, c.n, accumulate);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i])
            << backend->name() << " gemm acc=" << accumulate << " elem " << i;
      }
    }
    // A^T: A stored [k,m].
    {
      const auto a = make_matrix(c.k, c.m, c.fill, 14);
      const auto b = make_matrix(c.k, c.n, Fill::kDense, 15);
      auto out = make_matrix(c.m, c.n, Fill::kDense, 16);
      auto expected = out;
      backend->gemm_at(a.data(), b.data(), out.data(), c.m, c.k, c.n, accumulate);
      ref.gemm_at(a.data(), b.data(), expected.data(), c.m, c.k, c.n, accumulate);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i])
            << backend->name() << " gemm_at acc=" << accumulate << " elem " << i;
      }
    }
    // B^T: B stored [n,k]; A carries the activations (train-forward form).
    {
      const auto a = make_matrix(c.m, c.k, c.fill, 17);
      const auto b = make_matrix(c.n, c.k, Fill::kDense, 18);
      auto out = make_matrix(c.m, c.n, Fill::kDense, 19);
      auto expected = out;
      backend->gemm_bt(a.data(), b.data(), out.data(), c.m, c.k, c.n, accumulate);
      ref.gemm_bt(a.data(), b.data(), expected.data(), c.m, c.k, c.n, accumulate);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i])
            << backend->name() << " gemm_bt acc=" << accumulate << " elem " << i;
      }
    }
  }
}

std::vector<IdentityCase> identity_cases() {
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes{
      {1, 1, 1},        // minimal
      {1, 7, 1},        // vector-ish primes
      {3, 5, 7},        // small primes
      {13, 31, 11},     // primes below the vector width boundary
      {31, 97, 17},     // primes straddling the 8-lane tail handling
      {65, 257, 33},    // one past the 64/256 cache blocks, odd n
      {70, 300, 72},    // beyond all block sizes, n not a multiple of 8
  };
  std::vector<IdentityCase> cases;
  for (const auto& [m, k, n] : shapes) {
    for (const Fill fill :
         {Fill::kDense, Fill::kAllZero, Fill::kSparse90Binary, Fill::kSparse70Graded}) {
      cases.push_back({m, k, n, fill});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Contract, GemmBackendIdentity,
    testing::Combine(testing::ValuesIn(util::gemm_backends().begin(),
                                       util::gemm_backends().end()),
                     testing::ValuesIn(identity_cases())),
    [](const auto& param_info) {
      const util::GemmBackend* backend = std::get<0>(param_info.param);
      const IdentityCase& c = std::get<1>(param_info.param);
      return std::string(backend->name()) + "_" + std::to_string(c.m) + "x" +
             std::to_string(c.k) + "x" + std::to_string(c.n) + "_" + fill_name(c.fill);
    });

// ------------------------------------------- conv scatter identity suite

struct ScatterCase {
  std::size_t stride, padding, kernel, cout, batch;
};

enum class ScatterFill { kZero, kBinary05, kBinary30, kGraded60, kDenseGraded };

/// Spike-like input [batch, Cin, H, W] at the fill's density: binary {0, 1}
/// spikes, or graded gaussian values (1.0 = every element nonzero).
std::vector<float> scatter_input(std::size_t numel, ScatterFill fill, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> x(numel, 0.0f);
  for (auto& v : x) {
    switch (fill) {
      case ScatterFill::kZero: break;
      case ScatterFill::kBinary05: v = rng.bernoulli(0.05) ? 1.0f : 0.0f; break;
      case ScatterFill::kBinary30: v = rng.bernoulli(0.3) ? 1.0f : 0.0f; break;
      case ScatterFill::kGraded60:
        v = rng.bernoulli(0.6) ? static_cast<float>(rng.gaussian()) : 0.0f;
        break;
      case ScatterFill::kDenseGraded: v = static_cast<float>(rng.gaussian()); break;
    }
  }
  return x;
}

class ConvScatterIdentity
    : public testing::TestWithParam<std::tuple<const util::GemmBackend*, ScatterCase>> {};

/// Every backend's conv_scatter must equal scalar_ref's bit for bit
/// (ASSERT_EQ on floats) and return the same nonzero count, over strides
/// {1, 2, 3} (both compile-time specializations and the generic stride),
/// padding {0, 1}, kernels {1, 3}, densities from all-zero to dense graded,
/// and Cout values that cross the 8- and 16-lane vector tails plus every
/// width the kernel compiles as a constant (8, 16, 32, 64, 128). pix starts
/// from dense values, so the accumulate semantics are checked too.
TEST_P(ConvScatterIdentity, BitwiseEqualToScalarRef) {
  const auto& [backend, c] = GetParam();
  if (!backend->available()) GTEST_SKIP() << backend->name() << " unavailable here";
  const util::GemmBackend& ref = *util::find_gemm_backend("scalar_ref");
  const util::ConvGeometry g{5, 9, 8, c.kernel, c.stride, c.padding};
  ASSERT_TRUE(g.valid());
  const auto wt = make_matrix(g.patch_size(), c.cout, Fill::kDense, 21);
  for (const ScatterFill fill :
       {ScatterFill::kZero, ScatterFill::kBinary05, ScatterFill::kBinary30,
        ScatterFill::kGraded60, ScatterFill::kDenseGraded}) {
    const auto x = scatter_input(c.batch * g.in_channels * g.in_h * g.in_w, fill,
                                 22 + static_cast<std::uint64_t>(fill));
    const std::size_t nonzeros = static_cast<std::size_t>(
        std::count_if(x.begin(), x.end(), [](float v) { return v != 0.0f; }));
    auto out = make_matrix(c.batch * g.out_h() * g.out_w(), c.cout, Fill::kDense, 23);
    auto expected = out;
    const std::size_t got_nz =
        backend->conv_scatter(x.data(), wt.data(), out.data(), c.batch, g, c.cout);
    const std::size_t ref_nz =
        ref.conv_scatter(x.data(), wt.data(), expected.data(), c.batch, g, c.cout);
    ASSERT_EQ(got_nz, nonzeros) << backend->name();
    ASSERT_EQ(ref_nz, nonzeros);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], expected[i])
          << backend->name() << " fill " << static_cast<int>(fill) << " elem " << i;
    }
  }
}

std::vector<ScatterCase> scatter_cases() {
  std::vector<ScatterCase> cases;
  for (const std::size_t stride : {1, 2, 3}) {
    for (const std::size_t padding : {0, 1}) {
      for (const std::size_t kernel : {1, 3}) {
        for (const std::size_t cout : {1, 8, 16, 17, 32, 33, 64, 72, 128}) {
          for (const std::size_t batch : {1, 3}) {
            cases.push_back({stride, padding, kernel, cout, batch});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Contract, ConvScatterIdentity,
    testing::Combine(testing::ValuesIn(util::gemm_backends().begin(),
                                       util::gemm_backends().end()),
                     testing::ValuesIn(scatter_cases())),
    [](const auto& param_info) {
      const util::GemmBackend* backend = std::get<0>(param_info.param);
      const ScatterCase& c = std::get<1>(param_info.param);
      return std::string(backend->name()) + "_s" + std::to_string(c.stride) + "p" +
             std::to_string(c.padding) + "k" + std::to_string(c.kernel) + "_cout" +
             std::to_string(c.cout) + "_n" + std::to_string(c.batch);
    });

/// The explicit im2col matrix of x [batch, Cin, H, W]: one row per output
/// pixel (image, oy, ox), one column per patch position (c, ky, kx)
/// ascending, zero where the patch reads padding.
std::vector<float> im2col(const std::vector<float>& x, std::size_t batch,
                          const util::ConvGeometry& g) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), patch = g.patch_size();
  std::vector<float> cols(batch * oh * ow * patch, 0.0f);
  for (std::size_t img = 0; img < batch; ++img) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* row = cols.data() + ((img * oh + oy) * ow + ox) * patch;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
              const auto y = static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                             static_cast<std::ptrdiff_t>(g.padding);
              const auto xx = static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                              static_cast<std::ptrdiff_t>(g.padding);
              if (y < 0 || xx < 0 || y >= static_cast<std::ptrdiff_t>(g.in_h) ||
                  xx >= static_cast<std::ptrdiff_t>(g.in_w)) {
                continue;
              }
              row[(c * g.kernel + ky) * g.kernel + kx] =
                  x[((img * g.in_channels + c) * g.in_h + static_cast<std::size_t>(y)) *
                        g.in_w +
                    static_cast<std::size_t>(xx)];
            }
          }
        }
      }
    }
  }
  return cols;
}

/// Every backend's conv_scatter, scalar_ref's included, at every width the
/// kernel compiles as a constant and strides {1, 2, 3}, equals an explicit
/// im2col followed by scalar_ref's NN gemm, bit for bit. ConvScatterIdentity
/// compares backends against scalar_ref's scatter, which compiles the same
/// kernel header, so a width-specialization bug shared by every backend would
/// pass it; this reference shares no code with the scatter.
TEST(ConvScatterWidths, EqualsIm2colTimesScalarRefGemm) {
  const util::GemmBackend& ref = *util::find_gemm_backend("scalar_ref");
  const std::size_t batch = 2;
  for (const std::size_t cout : {8, 16, 32, 64, 128}) {
    for (const std::size_t stride : {1, 2, 3}) {
      const util::ConvGeometry g{3, 9, 7, 3, stride, 1};
      ASSERT_TRUE(g.valid());
      const std::size_t rows = batch * g.out_h() * g.out_w();
      const auto wt = make_matrix(g.patch_size(), cout, Fill::kDense, 31 + cout);
      for (const ScatterFill fill : {ScatterFill::kBinary30, ScatterFill::kGraded60}) {
        const auto x = scatter_input(batch * g.in_channels * g.in_h * g.in_w, fill,
                                     32 + stride + static_cast<std::uint64_t>(fill));
        const auto pix0 = make_matrix(rows, cout, Fill::kDense, 33);
        auto expected = pix0;
        ref.gemm(im2col(x, batch, g).data(), wt.data(), expected.data(), rows,
                 g.patch_size(), cout, /*accumulate=*/true);
        for (const util::GemmBackend* backend : util::gemm_backends()) {
          if (!backend->available()) continue;
          auto out = pix0;
          backend->conv_scatter(x.data(), wt.data(), out.data(), batch, g, cout);
          for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out[i], expected[i])
                << backend->name() << " cout " << cout << " stride " << stride << " fill "
                << static_cast<int>(fill) << " elem " << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------ spike epilogue identity suite

struct EpilogueCase {
  std::size_t cout, pixels, batch;
};

class SpikeEpilogueIdentity
    : public testing::TestWithParam<std::tuple<const util::GemmBackend*, EpilogueCase>> {};

/// Every backend's spike_epilogue must equal scalar_ref's bit for bit
/// (ASSERT_EQ on spikes and membranes) and leave pix all zero, over Cout
/// values that cross the 8- and 16-lane tails, pixel counts from 1 up, empty
/// batches, and both reset rules. scalar_ref itself must compute the
/// unfused layers' float ops: BatchNorm2d's eval affine, then Lif's step.
/// Channel 0 carries an identity affine, and every third of its pixels
/// starts from a zero membrane with v == vth, so pre == vth exactly there,
/// which must not fire.
TEST_P(SpikeEpilogueIdentity, BitwiseEqualToScalarRef) {
  const auto& [backend, c] = GetParam();
  if (!backend->available()) GTEST_SKIP() << backend->name() << " unavailable here";
  const util::GemmBackend& ref = *util::find_gemm_backend("scalar_ref");
  const std::size_t numel = c.batch * c.pixels * c.cout;
  auto mean = make_matrix(1, c.cout, Fill::kDense, 31);
  auto inv_std = make_matrix(1, c.cout, Fill::kDense, 32);
  auto gamma = make_matrix(1, c.cout, Fill::kDense, 33);
  auto beta = make_matrix(1, c.cout, Fill::kDense, 34);
  mean[0] = 0.0f;
  inv_std[0] = 1.0f;
  gamma[0] = 1.0f;
  beta[0] = 0.0f;
  const util::BatchNormEval bn{mean.data(), inv_std.data(), gamma.data(), beta.data()};

  for (const bool hard_reset : {true, false}) {
    const util::SpikeEpilogue e{bn, 0.75f, 0.5f, hard_reset};
    auto pix = make_matrix(c.batch * c.pixels, c.cout, Fill::kDense, 35);
    auto membrane = make_matrix(1, numel, Fill::kDense, 36);
    std::size_t ties = 0;
    for (std::size_t img = 0; img < c.batch; ++img) {
      for (std::size_t p = 0; p < c.pixels; p += 3) {
        pix[(img * c.pixels + p) * c.cout] = e.vth;  // channel 0, pixel p
        membrane[img * c.cout * c.pixels + p] = 0.0f;
        ++ties;
      }
    }

    // The unfused layers' ops, element by element.
    std::vector<float> want_spikes(numel), want_membrane = membrane;
    for (std::size_t img = 0; img < c.batch; ++img) {
      for (std::size_t ch = 0; ch < c.cout; ++ch) {
        for (std::size_t p = 0; p < c.pixels; ++p) {
          const float v = pix[(img * c.pixels + p) * c.cout + ch];
          const float h = (v - mean[ch]) * inv_std[ch];
          const float y = gamma[ch] * h + beta[ch];
          const std::size_t i = (img * c.cout + ch) * c.pixels + p;
          const float pre = e.tau * want_membrane[i] + y;
          const float s = pre > e.vth ? 1.0f : 0.0f;
          want_spikes[i] = s;
          want_membrane[i] = hard_reset ? pre * (1.0f - s) : pre - e.vth * s;
        }
      }
    }

    auto ref_pix = pix;
    auto ref_membrane = membrane;
    std::vector<float> ref_spikes(numel, -1.0f), spikes(numel, -1.0f);
    ref.spike_epilogue(ref_pix.data(), ref_membrane.data(), ref_spikes.data(), c.batch,
                       c.pixels, c.cout, e);
    backend->spike_epilogue(pix.data(), membrane.data(), spikes.data(), c.batch, c.pixels,
                            c.cout, e);
    const std::string where =
        std::string(backend->name()) + (hard_reset ? " hard" : " soft") + " elem ";
    for (std::size_t i = 0; i < numel; ++i) {
      ASSERT_EQ(ref_spikes[i], want_spikes[i]) << "scalar_ref" << where << i;
      ASSERT_EQ(ref_membrane[i], want_membrane[i]) << "scalar_ref" << where << i;
      ASSERT_EQ(spikes[i], ref_spikes[i]) << where << i;
      ASSERT_EQ(membrane[i], ref_membrane[i]) << where << i;
    }
    for (std::size_t i = 0; i < pix.size(); ++i) ASSERT_EQ(pix[i], 0.0f) << where << i;
    for (std::size_t img = 0; img < c.batch; ++img) {
      for (std::size_t p = 0; p < c.pixels; p += 3) {
        ASSERT_EQ(spikes[img * c.cout * c.pixels + p], 0.0f) << "pre == vth fired";
      }
    }
    EXPECT_EQ(ties, c.batch * ((c.pixels + 2) / 3));
  }
}

std::vector<EpilogueCase> epilogue_cases() {
  std::vector<EpilogueCase> cases;
  for (const std::size_t cout : {1, 8, 17, 33, 72}) {
    for (const std::size_t pixels : {1, 15, 256}) {
      for (const std::size_t batch : {0, 1, 3}) cases.push_back({cout, pixels, batch});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Contract, SpikeEpilogueIdentity,
    testing::Combine(testing::ValuesIn(util::gemm_backends().begin(),
                                       util::gemm_backends().end()),
                     testing::ValuesIn(epilogue_cases())),
    [](const auto& param_info) {
      const util::GemmBackend* backend = std::get<0>(param_info.param);
      const EpilogueCase& c = std::get<1>(param_info.param);
      return std::string(backend->name()) + "_cout" + std::to_string(c.cout) + "_ohw" +
             std::to_string(c.pixels) + "_n" + std::to_string(c.batch);
    });

/// The epilogue is not a product: the context dispatches it to its backend
/// and records nothing.
TEST(GemmContext, SpikeEpilogueRecordsNothing) {
  const float one = 1.0f, zero = 0.0f;
  const util::SpikeEpilogue e{{&zero, &one, &one, &zero}, 0.5f, 1.0f, true};
  float pix = 2.0f, membrane = 0.0f, spike = -1.0f;
  util::GemmContext ctx(*util::find_gemm_backend("scalar_ref"));
  ctx.spike_epilogue(&pix, &membrane, &spike, 1, 1, 1, e);
  EXPECT_EQ(spike, 1.0f);
  EXPECT_EQ(membrane, 0.0f);
  EXPECT_EQ(pix, 0.0f);
  EXPECT_EQ(ctx.stats().calls(), 0u);
  EXPECT_EQ(ctx.stats().flops(), 0.0);
}

// -------------------------------------------- conv sparse-train equivalence

/// The training forward picks the A-stationary zero-skip form for sparse
/// inputs and the dense dot-product form otherwise; the float eval forward
/// dispatches the conv_scatter op to the context's backend at every density
/// (ConvScatterIdentity pins each backend's scatter to scalar_ref's). All
/// three must agree bitwise on the same input, on both sides of the density
/// threshold (up to dense graded input) — and for every stride specialization
/// of the scatter (1, 2, and the generic runtime stride), with and without
/// padding.
TEST(ConvSparseTraining, TrainAndEvalForwardsBitwiseEqual) {
  util::GemmContext ctx(util::GemmContext::global().backend());
  for (const std::size_t stride : {1, 2, 3}) {
    for (const std::size_t padding : {0, 1}) {
      util::Rng rng(5);
      snn::Conv2d conv(4, 8, 3, stride, padding, /*bias=*/true, rng);
      conv.set_gemm_context(&ctx);
      for (const double density : {0.05, 0.2, 0.6, 1.0}) {
        snn::Tensor x({3, 4, 9, 9});
        util::Rng xr(static_cast<std::uint64_t>(density * 100) + 1);
        for (auto& v : x.span()) {
          v = xr.bernoulli(density) ? static_cast<float>(xr.gaussian()) : 0.0f;
        }
        conv.set_time(1, 3);
        const snn::Tensor train_out = conv.forward(x, /*train=*/true);
        conv.set_time(1, 3);
        const snn::Tensor eval_out = conv.forward(x, /*train=*/false);
        ASSERT_EQ(train_out.shape(), eval_out.shape()) << density;
        for (std::size_t i = 0; i < train_out.numel(); ++i) {
          ASSERT_EQ(train_out.data()[i], eval_out.data()[i])
              << "stride " << stride << " padding " << padding << " density "
              << density << " elem " << i;
        }
      }
    }
  }
}

// --------------------------------------------------- end-to-end decisions

core::Experiment micro_experiment(const std::string& dataset, std::size_t timesteps) {
  core::ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = dataset;
  spec.epochs = 1;
  spec.timesteps = timesteps;
  spec.data_scale = 0.05;
  return run_experiment(spec);
}

/// Acceptance: BatchedSequentialEngine decisions — predictions, exit
/// timesteps, entropies, and full logit trajectories — are identical under
/// every backend, on all four dataset presets. Quantized networks run the
/// same ops on dequantized weights (tests/test_quantized.cpp).
TEST(GemmBackendEndToEnd, BatchedEngineDecisionsIdenticalUnderEveryBackend) {
  const core::EntropyExitPolicy policy(0.35);
  for (const std::string preset : {"sync10", "sync100", "syntin", "syndvs"}) {
    const std::size_t timesteps = preset == "syndvs" ? 5 : 3;
    core::Experiment e = micro_experiment(preset, timesteps);
    const auto& ds = *e.bundle.test;
    core::InferenceRequest request =
        core::InferenceRequest::first_n(std::min<std::size_t>(20, ds.size()));
    request.record_logits = true;

    util::GemmContext ref_ctx(*util::find_gemm_backend("scalar_ref"));
    e.net.set_gemm_context(&ref_ctx);
    core::BatchedSequentialEngine engine(e.net, policy, timesteps, /*batch_size=*/7);
    EXPECT_EQ(engine.gemm_backend(), "scalar_ref");
    const auto reference = engine.run(ds, request);
    EXPECT_GT(ref_ctx.stats().calls(), 0u) << "context not threaded through " << preset;

    for (const util::GemmBackend* backend : util::gemm_backends()) {
      if (!backend->available()) continue;
      util::GemmContext ctx(*backend);
      e.net.set_gemm_context(&ctx);
      EXPECT_EQ(engine.gemm_backend(), backend->name());
      const auto got = engine.run(ds, request);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string context =
            preset + "/" + std::string(backend->name()) + " sample " + std::to_string(i);
        EXPECT_EQ(got[i].predicted_class, reference[i].predicted_class) << context;
        EXPECT_EQ(got[i].exit_timestep, reference[i].exit_timestep) << context;
        EXPECT_EQ(got[i].final_entropy, reference[i].final_entropy) << context;
        ASSERT_EQ(got[i].timestep_logits.numel(), reference[i].timestep_logits.numel())
            << context;
        for (std::size_t j = 0; j < got[i].timestep_logits.numel(); ++j) {
          ASSERT_EQ(got[i].timestep_logits[j], reference[i].timestep_logits[j])
              << context << " logit " << j;
        }
      }
    }
    e.net.set_gemm_context(nullptr);
  }
}

}  // namespace
}  // namespace dtsnn
