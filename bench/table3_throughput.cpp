// Table III reproduction: inference throughput (images/second) of static
// SNNs at T = 1..4 versus DT-SNN at three thresholds, measured through the
// unified core::InferenceEngine API.
//
// The paper measures an RTX 2080Ti through PyTorch; this environment has no
// GPU, so the measurement substrate is this library's sequential engines on
// CPU (README, "Substitutions for the paper's setting", item 2). The
// reproduced claims are relative:
//   * throughput falls roughly linearly with T, and DT-SNN recovers most of
//     the 1-timestep throughput while holding the 4-timestep accuracy;
//   * batching the early-exit control flow (BatchedSequentialEngine, batch
//     32 with live-batch compaction) beats batch-1 sequential execution
//     while making bitwise-identical decisions on every sample.
//
// BENCH_table3_throughput.json reports two speedup families:
//   * <model>_theta*_batch32_same_policy_speedup — batched vs batch-1 with
//     the *same* exit policy (the pure batching win);
//   * batch32_speedup — the Table III headline: batched DT-SNN throughput
//     at the iso-accuracy operating point over the batch-1 sequential
//     static-SNN baseline at the full T=4 budget (batching + early exit
//     together, at matched accuracy; worst case across models). The
//     operating point is theta calibrated against the measured sample set
//     (core::calibrate_theta, the paper's methodology), with a 1pp
//     tolerance — below the ~1.3pp binomial std of a ~600-sample accuracy
//     measurement. Grid thetas within the tolerance also qualify. The JSON
//     carries batch32_speedup_definition so the number is unambiguous.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/calibration.h"
#include "core/quantize.h"
#include "snn/quantize.h"
#include "util/gemm.h"

using namespace dtsnn;

namespace {

struct Throughput {
  double images_per_sec = 0.0;
  double accuracy = 0.0;
  double avg_timesteps = 0.0;
  std::vector<core::InferenceResult> results;
};

Throughput measure(core::InferenceEngine& engine, const data::Dataset& ds,
                   std::size_t samples) {
  const core::InferenceRequest request =
      core::InferenceRequest::first_n(std::min(samples, ds.size()));

  // Best-of-3: throughput on a shared host is noisy (±15% interference);
  // the fastest repetition is the least-perturbed estimate. Decisions are
  // deterministic, so every repetition returns identical results.
  constexpr int kReps = 3;
  std::vector<core::InferenceResult> results;
  double secs = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::InferenceResult> run = engine.run(ds, request);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (rep == 0 || elapsed < secs) {
      secs = elapsed;
      results = std::move(run);
    }
  }

  Throughput r;
  std::size_t correct = 0;
  double total_t = 0.0;
  for (const auto& res : results) {
    correct += res.predicted_class == static_cast<std::size_t>(ds.label(res.sample));
    total_t += static_cast<double>(res.exit_timestep);
  }
  const double n = static_cast<double>(results.size());
  r.images_per_sec = n / secs;
  r.accuracy = static_cast<double>(correct) / n;
  r.avg_timesteps = total_t / n;
  r.results = std::move(results);
  return r;
}

/// Bitwise decision identity between two engines' result sets.
bool identical_decisions(const Throughput& a, const Throughput& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].predicted_class != b.results[i].predicted_class ||
        a.results[i].exit_timestep != b.results[i].exit_timestep ||
        a.results[i].final_entropy != b.results[i].final_entropy) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);
  const std::size_t samples = static_cast<std::size_t>(512 * options.scale) + 64;
  const std::size_t kBatch = 32;

  bench::banner("Table III: throughput, static SNN vs DT-SNN, batch-1 vs batched "
                "(CPU substrate)");
  bench::BenchReport report("table3_throughput", options);
  report.set("threads", static_cast<double>(core::evaluation_threads()));
  report.set("batch_size", static_cast<double>(kBatch));
  // GEMM-form math below (the linear layers) runs through this backend
  // (util/gemm.h dispatch); float eval convs run the direct scatter kernel
  // instead, which follows the same bitwise contract and is counted in the
  // same GemmStats. Backends are bitwise identical, so only speed depends on
  // this.
  report.set("gemm_backend", std::string(util::default_gemm_backend().name()));
  const double kIsoTolerance = 0.01;  // 1pp, below ~600-sample binomial noise
  report.set("batch32_speedup_definition",
             "batched DT-SNN (batch 32) img/s at the iso-accuracy operating "
             "point (theta calibrated to the static T=4 accuracy on the "
             "measured samples, 1pp tolerance; qualifying grid thetas also "
             "considered) over batch-1 sequential static SNN at T=4 img/s, for "
             "the primary model vgg_mini; per-model values are the "
             "*_batch32_iso_accuracy_speedup_vs_static_t4 keys and the worst "
             "case is batch32_speedup_min_across_models. The "
             "*_same_policy_speedup keys isolate the pure batching win at an "
             "identical exit policy");

  bool all_identical = true;
  double primary_headline_speedup = 0.0;  // vgg_mini's iso-accuracy headline
  double min_headline_speedup = -1.0;     // -1 = no model measured yet
  double min_same_policy_speedup = -1.0;

  for (const std::string model : {"vgg_mini", "resnet_mini"}) {
    core::ExperimentSpec spec;
    spec.model = model;
    spec.dataset = "sync10";
    spec.timesteps = 4;
    spec.epochs = 14;
    spec.loss = core::LossKind::kPerTimestep;
    core::Experiment e = bench::run(spec, options);

    std::printf("%s on sync10:\n", model.c_str());
    bench::TablePrinter table(
        {"Method", "Setting", "avgT", "Acc.", "img/s b1", "img/s b32", "speedup"},
        {9, 13, 7, 9, 10, 10, 9});
    util::CsvWriter csv(options.csv_dir + "/table3_throughput_" + model + ".csv");
    csv.write_header({"method", "setting", "avg_timesteps", "accuracy",
                      "images_per_sec_batch1", "images_per_sec_batch32",
                      "same_policy_speedup"});

    const core::NeverExitPolicy never;
    double static_t4_batch1 = 0.0;
    double static_t4_accuracy = 0.0;
    for (std::size_t t = 1; t <= 4; ++t) {
      core::SequentialEngine seq(e.net, never, t);
      core::BatchedSequentialEngine batched(e.net, never, t, kBatch);
      const auto r1 = measure(seq, *e.bundle.test, samples);
      const auto rb = measure(batched, *e.bundle.test, samples);
      all_identical = all_identical && identical_decisions(r1, rb);
      if (t == 4) {
        static_t4_batch1 = r1.images_per_sec;
        static_t4_accuracy = r1.accuracy;
      }
      const double speedup = rb.images_per_sec / r1.images_per_sec;
      table.row({"SNN", bench::fmt("T=%zu", t), bench::fmt("%.2f", r1.avg_timesteps),
                 bench::fmt("%.2f%%", 100 * r1.accuracy),
                 bench::fmt("%.1f", r1.images_per_sec),
                 bench::fmt("%.1f", rb.images_per_sec), bench::fmt("%.2fx", speedup)});
      csv.row("SNN", bench::fmt("T=%zu", t), r1.avg_timesteps, 100 * r1.accuracy,
              r1.images_per_sec, rb.images_per_sec, speedup);
    }
    report.set(model + "_static_t4_images_per_sec", static_t4_batch1);

    // Calibrated operating point (the paper's methodology): largest theta
    // whose replayed accuracy over the measured samples holds the static
    // T=4 accuracy within the tolerance. Replay decisions equal the
    // engines' decisions (bitwise-identical logits), so calibrating on the
    // recording is calibrating the engines.
    const auto outputs = core::collect_outputs(e.net, *e.bundle.test, 4,
                                               /*batch_size=*/256, samples);
    const auto calib =
        core::calibrate_theta(outputs, core::static_accuracy(outputs, 4),
                              kIsoTolerance);

    // Measure the calibrated theta only when it isn't already a grid row
    // (at reporting precision): BenchReport keys must stay unique.
    std::vector<double> thetas{0.6, 0.3, 0.1};
    const auto key_of = [](double th) { return bench::fmt("%.2f", th); };
    bool calib_is_new = true;
    for (const double th : thetas) {
      if (key_of(th) == key_of(calib.theta)) calib_is_new = false;
    }
    if (calib_is_new) thetas.push_back(calib.theta);

    double best_iso_batched = 0.0;  // best batched img/s at iso-accuracy
    double float_b32_theta030 = 0.0;  // quantized-tier comparison baseline
    for (const double theta : thetas) {
      const core::EntropyExitPolicy policy(theta);
      core::SequentialEngine seq(e.net, policy, 4);
      core::BatchedSequentialEngine batched(e.net, policy, 4, kBatch);
      const auto r1 = measure(seq, *e.bundle.test, samples);
      const auto rb = measure(batched, *e.bundle.test, samples);
      all_identical = all_identical && identical_decisions(r1, rb);

      const double same_policy = rb.images_per_sec / r1.images_per_sec;
      if (key_of(theta) == "0.30") float_b32_theta030 = rb.images_per_sec;
      if (min_same_policy_speedup < 0.0 || same_policy < min_same_policy_speedup) {
        min_same_policy_speedup = same_policy;
      }
      // Iso-accuracy operating point: holds the T=4 accuracy within the
      // tolerance.
      if (rb.accuracy >= static_t4_accuracy - kIsoTolerance &&
          rb.images_per_sec > best_iso_batched) {
        best_iso_batched = rb.images_per_sec;
      }

      table.row({"DT-SNN", bench::fmt("theta=%.2f", theta),
                 bench::fmt("%.2f", r1.avg_timesteps),
                 bench::fmt("%.2f%%", 100 * r1.accuracy),
                 bench::fmt("%.1f", r1.images_per_sec),
                 bench::fmt("%.1f", rb.images_per_sec),
                 bench::fmt("%.2fx", same_policy)});
      csv.row("DT-SNN", bench::fmt("theta=%.2f", theta), r1.avg_timesteps,
              100 * r1.accuracy, r1.images_per_sec, rb.images_per_sec, same_policy);

      report.set(model + bench::fmt("_theta%.2f_images_per_sec", theta),
                 r1.images_per_sec);
      report.set(model + bench::fmt("_theta%.2f_batch32_images_per_sec", theta),
                 rb.images_per_sec);
      report.set(model + bench::fmt("_theta%.2f_batch32_same_policy_speedup", theta),
                 same_policy);
      report.set(model + bench::fmt("_theta%.2f_batch32_speedup_vs_static_t4", theta),
                 rb.images_per_sec / static_t4_batch1);
      report.set(model + bench::fmt("_theta%.2f_accuracy", theta), r1.accuracy);
      report.set(model + bench::fmt("_theta%.2f_avg_timesteps", theta), r1.avg_timesteps);
    }

    // Quantized weights (snn/quantize.h, tolerance-gated versus the float
    // network): calibrate INT8/INT4 weights against the float network on the
    // measured samples, then rerun the batched DT-SNN operating point
    // theta=0.30 on the calibrated network, on the same default context as
    // the float rows. Reported, not gated — the flip gate on a fully
    // trained model is QuantToleranceGate in tests/test_quantized.cpp.
    for (const int bits : {8, 4}) {
      core::QuantCalibrationConfig config;
      config.spec.bits = bits;
      config.max_samples = samples;
      const core::EntropyExitPolicy policy030(0.3);
      const core::QuantCalibrationReport qr = core::calibrate_quantized(
          e.net, *e.bundle.test, policy030, 4, config);
      core::BatchedSequentialEngine batched(e.net, policy030, 4, kBatch);
      const auto rq = measure(batched, *e.bundle.test, samples);

      const char* tier = bits == 8 ? "int8" : "int4";
      const std::string prefix = model + "_" + tier;
      report.set(prefix + "_theta0.30_batch32_images_per_sec", rq.images_per_sec);
      report.set(prefix + "_theta0.30_batch32_vs_float_speedup",
                 float_b32_theta030 > 0.0 ? rq.images_per_sec / float_b32_theta030
                                          : 0.0);
      report.set(prefix + "_prediction_flip_rate", qr.diff.prediction_flip_rate);
      report.set(prefix + "_exit_flip_rate", qr.diff.exit_flip_rate);
      report.set(prefix + "_accuracy_delta", qr.accuracy_delta);
      report.set(prefix + "_weight_footprint_ratio", qr.footprint_ratio);
      std::printf(
          "  %s @ theta=0.30 batch32: %.1f img/s (%.2fx of float), flips %.2f%%, "
          "accuracy %+.2fpp, weights stored %.1fx smaller\n",
          tier, rq.images_per_sec,
          float_b32_theta030 > 0.0 ? rq.images_per_sec / float_b32_theta030 : 0.0,
          100 * qr.diff.prediction_flip_rate, 100 * qr.accuracy_delta,
          qr.footprint_ratio);
    }
    snn::clear_network_quantized_weights(e.net);

    // A model with no iso-accuracy operating point contributes 0, which the
    // min must keep (it means the headline claim failed for that model).
    const double iso_headline = best_iso_batched / static_t4_batch1;
    report.set(model + "_batch32_iso_accuracy_speedup_vs_static_t4", iso_headline);
    std::printf("  iso-accuracy batched DT-SNN vs batch-1 static T=4: %.2fx\n\n",
                iso_headline);
    if (min_headline_speedup < 0.0 || iso_headline < min_headline_speedup) {
      min_headline_speedup = iso_headline;
    }
    if (model == "vgg_mini") primary_headline_speedup = iso_headline;
    // Both models run the same sync10 split; record its footprint once.
    if (model == "vgg_mini") report.set_dataset(*e.bundle.test);
  }

  report.set("batch32_speedup", primary_headline_speedup);
  report.set("batch32_speedup_min_across_models", std::max(min_headline_speedup, 0.0));
  report.set("batch32_same_policy_speedup_min", std::max(min_same_policy_speedup, 0.0));
  report.set("decisions_identical", all_identical ? "yes" : "NO");

  std::printf(
      "Decision identity (batched vs batch-1, every sample): %s\n"
      "Shape check (paper Table III): static throughput drops ~3x from T=1 to\n"
      "T=4; DT-SNN at low average T approaches the T=1 throughput while\n"
      "keeping the T=4 accuracy. Batching the early-exit control flow adds a\n"
      "further same-policy speedup on top (per-step overheads amortize across\n"
      "the live batch; on multi-core hosts the batch also parallelizes).\n"
      "Headline: batched DT-SNN over batch-1 static T=4 at iso-accuracy is\n"
      "%.2fx on vgg_mini (batch32_speedup in the JSON) and %.2fx worst-case\n"
      "across models; definition fields included. Grows with training\n"
      "quality and core count.\n",
      all_identical ? "identical" : "MISMATCH", primary_headline_speedup,
      std::max(min_headline_speedup, 0.0));
  return all_identical ? 0 : 1;
}
