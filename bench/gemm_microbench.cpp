// GEMM backend microbenchmark: GFLOP/s of every registered backend on the
// GEMM shapes the models actually run (im2col convolution products and the
// classifier matmul of vgg_mini/resnet_mini at batch 32 on 16x16 frames),
// with dense activations and with binary spike activations at 70% / 90%
// sparsity — the operating regime of the hidden LIF layers. Every backend
// is checked bitwise against scalar_ref; any mismatch fails the run.
//
// Quantized weights are a storage format (util/quant.h): a quantized layer
// runs its dequantized weights through these same backends. This bench
// reports their storage size next to the float weights, and — at full scale
// — the per-preset decision-flip-rate of quantized networks versus the
// float network on trained models (core::calibrate_quantized).
//
// Emits BENCH_gemm.json via bench::BenchReport: per-(shape, density,
// backend) GFLOP/s, the per-shape observed A-operand density histogram,
// weight storage bytes (float, INT8 and INT4
// codes and scales) with the headline footprint_ratio, and the decision
// gate's flip rates and accuracy deltas.
//
// In-bench acceptance gates (nonzero exit on failure):
//   * every backend bitwise-identical to scalar_ref — including avx512 when
//     this machine has it (a loud skip plus a report field otherwise, so
//     CI's fallback leg is visibly not silently green);
//   * weight storage reduction >= 4x (INT8) and >= 8x (INT4);
//   * at full scale: INT8 prediction-flip-rate <= 1% and |accuracy delta|
//     <= 2pp versus the float network on every dataset preset (INT4 is
//     reported and held to a documented looser 8% — a 16-level weight grid
//     on sub-percent decision margins is the paper's accuracy/footprint
//     trade-off, not a kernel defect).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "core/quantize.h"
#include "util/gemm.h"
#include "util/quant.h"
#include "util/rng.h"

using namespace dtsnn;

namespace {

/// One A-stationary (NN) GEMM shape from the model zoo; m counts im2col
/// rows (batch * output pixels) for convs and batch rows for the linear.
struct GemmShape {
  const char* tag;
  std::size_t m, k, n;
};

// vgg_mini plan (32,32,M,64,64,M,128,M) and resnet_mini stage tail on
// 3x16x16 inputs, batch 32; the classifier is the batch-32 linear.
constexpr GemmShape kShapes[] = {
    {"vgg_conv1", 32 * 16 * 16, 3 * 9, 32},    // 3->32 @ 16x16
    {"vgg_conv2", 32 * 16 * 16, 32 * 9, 32},   // 32->32 @ 16x16
    {"vgg_conv3", 32 * 8 * 8, 32 * 9, 64},     // 32->64 @ 8x8
    {"vgg_conv4", 32 * 8 * 8, 64 * 9, 64},     // 64->64 @ 8x8
    {"vgg_conv5", 32 * 4 * 4, 64 * 9, 128},    // 64->128 @ 4x4
    {"resnet_stage3", 32 * 4 * 4, 32 * 9, 64}, // stage-2->3 projection @ 4x4
    {"classifier", 32, 128 * 2 * 2, 10},       // vgg_mini linear head
};

constexpr double kDensities[] = {1.0, 0.30, 0.10};  // dense, 70%, 90% sparse

// Gate thresholds (see file comment).
constexpr double kInt8FootprintGate = 4.0;
constexpr double kInt4FootprintGate = 8.0;
constexpr double kInt8FlipGate = 0.01;
constexpr double kInt4FlipGate = 0.08;
constexpr double kAccuracyDeltaGate = 0.02;

std::string density_tag(double density) {
  return "d" + std::to_string(static_cast<int>(std::lround(density * 100)));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Best-of-3 timing of `calls` back-to-back invocations of `fn` (the host is
/// shared; the fastest repetition is the least-perturbed estimate).
template <typename Fn>
double time_kernel(Fn&& fn, std::size_t calls) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t it = 0; it < calls; ++it) fn();
    const double elapsed = seconds_since(start) / static_cast<double>(calls);
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Calibrate the timed-call count so one measurement covers ~target_secs.
template <typename Fn>
double measure_secs(Fn&& fn, double target_secs) {
  const double once = time_kernel(fn, 1);
  const std::size_t calls = std::clamp<std::size_t>(
      static_cast<std::size_t>(target_secs / std::max(once, 1e-7)), 1, 2000);
  return calls > 1 ? time_kernel(fn, calls) : once;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);
  bench::banner("GEMM backends: GFLOP/s on the model's conv/linear shapes, "
                "dense vs spike-sparse; quantized weight storage and decisions");
  bench::BenchReport report("gemm", options);
  report.set("default_backend",
             std::string(util::default_gemm_backend().name()));
  report.set("avx2_cpu", util::cpu_supports_avx2() ? "yes" : "no");
  report.set("avx512_cpu", util::cpu_supports_avx512() ? "yes" : "no");
  const util::GemmBackend* avx512 = util::find_gemm_backend("avx512");
  const bool avx512_measured = avx512 != nullptr && avx512->available();
  report.set("avx512_backend", avx512_measured ? "measured"
                                               : "SKIPPED (unavailable here)");
  if (!avx512_measured) {
    std::printf("NOTE: avx512 backend unavailable on this machine (%s) — its "
                "bitwise identity gate is SKIPPED, not passed.\n",
                avx512 == nullptr ? "not compiled in" : "no AVX-512F CPUID");
  }

  const util::GemmBackend& scalar_ref = *util::find_gemm_backend("scalar_ref");
  // ~50ms per measurement, scaled down for smoke runs.
  const double target_secs = 0.05 * std::min(1.0, options.scale);

  bool all_identical = true;
  // stored weight bytes per format across all shapes
  std::map<std::string, double> weight_bytes;

  bench::TablePrinter table({"Shape", "m*k*n", "Density", "Backend", "GFLOP/s", "vs blocked"},
                            {14, 16, 8, 13, 9, 11});
  util::CsvWriter csv(options.csv_dir + "/gemm_microbench.csv");
  csv.write_header({"shape", "m", "k", "n", "density", "backend", "gflops", "seconds"});

  for (const GemmShape& s : kShapes) {
    const double flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                         static_cast<double>(s.n);
    // Observed A-operand density histogram for this shape (10 bins of 0.1
    // width) across all measured passes — what density regime this shape's
    // activations actually put the backends in.
    std::size_t density_hist[10] = {};

    for (const double density : kDensities) {
      util::Rng rng(42);
      std::vector<float> a(s.m * s.k, 0.0f), b(s.k * s.n), c(s.m * s.n);
      for (auto& v : b) v = static_cast<float>(rng.gaussian());
      if (density >= 1.0) {
        for (auto& v : a) v = static_cast<float>(rng.gaussian());
      } else {
        // Binary spikes, like the LIF activations the eval path sees.
        for (auto& v : a) v = rng.bernoulli(density) ? 1.0f : 0.0f;
      }
      std::size_t a_nonzeros = 0;
      for (const float v : a) a_nonzeros += v != 0.0f ? 1 : 0;
      const double observed =
          static_cast<double>(a_nonzeros) / static_cast<double>(a.size());
      report.set(std::string(s.tag) + "_" + density_tag(density) + "_a_density_observed",
                 observed);
      density_hist[std::min<std::size_t>(static_cast<std::size_t>(observed * 10.0), 9)]++;
      std::vector<float> expected(s.m * s.n);
      scalar_ref.gemm(a.data(), b.data(), expected.data(), s.m, s.k, s.n);

      double blocked_gflops = 0.0;
      for (const util::GemmBackend* backend : util::gemm_backends()) {
        if (!backend->available()) continue;
        // Identity gate: the measured kernel must match scalar_ref bitwise.
        backend->gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
        if (c != expected) {
          all_identical = false;
          std::printf("IDENTITY MISMATCH: %s on %s %s\n", std::string(backend->name()).c_str(),
                      s.tag, density_tag(density).c_str());
        }

        const double secs = measure_secs(
            [&] { backend->gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n); },
            target_secs);
        const double gflops = flops / secs / 1e9;
        if (backend->name() == "blocked_omp") blocked_gflops = gflops;

        const std::string key = std::string(s.tag) + "_" + density_tag(density) + "_" +
                                std::string(backend->name());
        report.set(key + "_gflops", gflops);
        csv.row(s.tag, static_cast<double>(s.m), static_cast<double>(s.k),
                static_cast<double>(s.n), density, std::string(backend->name()), gflops,
                secs);
        table.row({s.tag,
                   bench::fmt("%zux%zux%zu", s.m, s.k, s.n),
                   bench::fmt("%.2f", density), std::string(backend->name()),
                   bench::fmt("%.2f", gflops),
                   blocked_gflops > 0.0 ? bench::fmt("%.2fx", gflops / blocked_gflops)
                                        : std::string("-")});
      }
    }
    {
      // Per-shape histogram of observed A densities, bins [0,0.1)..[0.9,1].
      std::string hist;
      for (const std::size_t count : density_hist) {
        hist += hist.empty() ? "" : ",";
        hist += std::to_string(count);
      }
      report.set(std::string(s.tag) + "_a_density_hist", hist);
    }

    // Stored size of this shape's weights, float and quantized. The op is
    // C = A * W^T with W[n, k], so quantize the transpose of B[k, n]; the
    // values do not matter for the sizes.
    const std::vector<float> w_nk(s.n * s.k, 1.0f);
    const util::QuantizedMatrix q8 =
        util::QuantizedMatrix::quantize(w_nk.data(), s.n, s.k, {.bits = 8});
    const util::QuantizedMatrix q4 =
        util::QuantizedMatrix::quantize(w_nk.data(), s.n, s.k, {.bits = 4});
    weight_bytes["float"] += static_cast<double>(q8.float_bytes());
    weight_bytes["int8"] += static_cast<double>(q8.packed_bytes());
    weight_bytes["int4"] += static_cast<double>(q4.packed_bytes());
    weight_bytes["int8_scales"] += static_cast<double>(q8.scale_bytes());
    weight_bytes["int4_scales"] += static_cast<double>(q4.scale_bytes());
  }

  // Weight storage bytes across all model shapes, and the headline
  // reduction ratios of the quantized formats.
  for (const auto& [format, bytes] : weight_bytes) {
    report.set("weight_bytes_" + format, bytes);
  }
  const double footprint_ratio_int8 = weight_bytes["float"] / weight_bytes["int8"];
  const double footprint_ratio_int4 = weight_bytes["float"] / weight_bytes["int4"];
  report.set("footprint_ratio", footprint_ratio_int8);  // headline (INT8)
  report.set("int4_footprint_ratio", footprint_ratio_int4);
  report.set("bitwise_identical_to_scalar_ref", all_identical ? "yes" : "NO");

  // ---- end-to-end decision gate: quantized networks vs the float network
  // on trained models, per dataset preset (the tolerance-gated contract
  // measured where it matters — exit decisions). Models are
  // trained at the bench's data scale; the flip gate is enforced only at
  // full scale, where margins are real (a smoke-scale model is near chance
  // and its flips measure training, not quantization).
  bool flips_within_gate = true;
  const bool gate_flips = options.scale >= 1.0;
  // Per-preset operating points, DT-SNN style (the paper tunes the exit
  // threshold per dataset): epochs is the training budget that saturates
  // vgg_micro on the preset, theta the entropy threshold of its
  // high-accuracy operating point. Decision margins — not quantizer
  // precision — dominate the flip rate (group-size sweeps 64..2 leave it
  // flat), so the gate is only meaningful where the float model's own
  // decisions have converged.
  struct FlipStage {
    const char* preset;
    std::size_t epochs;
    double theta;
  };
  constexpr FlipStage kFlipStages[] = {
      {"sync10", 60, 0.03},
      {"sync100", 30, 0.15},
      {"syntin", 30, 0.08},
      {"syndvs", 30, 0.35},
  };
  for (const FlipStage& stage : kFlipStages) {
    const std::string preset = stage.preset;
    core::ExperimentSpec spec;
    spec.model = "vgg_micro";
    spec.dataset = preset;
    spec.timesteps = core::preset_timesteps(preset);
    spec.epochs = stage.epochs;
    spec.loss = core::LossKind::kPerTimestep;
    core::Experiment e = bench::run(spec, options);
    const core::EntropyExitPolicy policy(stage.theta);

    std::printf("\n%s: quantized decision gate (%zu-timestep budget, "
                "theta=%.2f)\n",
                preset.c_str(), spec.timesteps, stage.theta);
    for (const int bits : {8, 4}) {
      core::QuantCalibrationConfig config;
      config.spec.bits = bits;
      config.max_samples = 256;
      config.flip_rate_tolerance = bits == 8 ? kInt8FlipGate : kInt4FlipGate;
      config.accuracy_delta_tolerance = kAccuracyDeltaGate;
      const core::QuantCalibrationReport r = core::calibrate_quantized(
          e.net, *e.bundle.test, policy, spec.timesteps, config);
      const std::string prefix = "quant_" + preset + "_int" + std::to_string(bits);
      report.set(prefix + "_prediction_flip_rate", r.diff.prediction_flip_rate);
      report.set(prefix + "_exit_flip_rate", r.diff.exit_flip_rate);
      report.set(prefix + "_accuracy_delta", r.accuracy_delta);
      report.set(prefix + "_accuracy_float", r.accuracy_float);
      report.set(prefix + "_samples", static_cast<double>(r.samples));
      std::printf(
          "  int%d: flips %.2f%% (exit %.2f%%), accuracy %+.2fpp (float %.2f%%), "
          "footprint %.1fx over %zu samples%s\n",
          bits, 100 * r.diff.prediction_flip_rate, 100 * r.diff.exit_flip_rate,
          100 * r.accuracy_delta, 100 * r.accuracy_float, r.footprint_ratio, r.samples,
          gate_flips ? (r.within_tolerance ? "  [gate: ok]" : "  [gate: FAIL]") : "");
      if (gate_flips && !r.within_tolerance) flips_within_gate = false;
    }
  }
  report.set("quant_flip_gate_enforced", gate_flips ? "yes" : "no (smoke scale)");
  report.set("quant_flips_within_gate", flips_within_gate ? "yes" : "NO");

  // ---- acceptance gates -------------------------------------------------
  const bool footprint_ok = footprint_ratio_int8 >= kInt8FootprintGate &&
                            footprint_ratio_int4 >= kInt4FootprintGate;
  std::printf(
      "\nBackends bitwise identical to scalar_ref on every measured shape: %s "
      "(avx512: %s)\n"
      "weight storage: %.2fx (INT8) / %.2fx (INT4) smaller than float "
      "[gates >= %.0fx / >= %.0fx: %s]\n"
      "quantized decision gate: %s\n",
      all_identical ? "yes" : "NO",
      avx512_measured ? "measured" : "SKIPPED, unavailable here",
      footprint_ratio_int8, footprint_ratio_int4, kInt8FootprintGate, kInt4FootprintGate,
      footprint_ok ? "ok" : "FAIL", flips_within_gate ? "ok" : "FAIL");
  return all_identical && footprint_ok && flips_within_gate ? 0 : 1;
}
