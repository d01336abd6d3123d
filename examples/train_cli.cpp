// train_cli: command-line training / evaluation / checkpointing front end
// for the library — the "user-facing tool" of the repository.
//
// Usage:
//   train_cli train --model vgg_mini --dataset sync10 --epochs 12
//             --timesteps 4 --loss eq10 --out model.ckpt
//   train_cli eval  --model vgg_mini --dataset sync10 --timesteps 4
//             --ckpt model.ckpt [--theta 0.25] [--noise]
//
// `eval` reports static per-timestep accuracy; with --theta it additionally
// runs DT-SNN at that threshold; with --noise it first projects the weights
// through the 20% conductance-variation device pipeline.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/calibration.h"
#include "core/evaluator.h"
#include "imc/xbar_functional.h"
#include "snn/serialize.h"
#include "util/gemm.h"

using namespace dtsnn;

namespace {

struct CliArgs {
  std::string command;
  std::string model = "vgg_mini";
  std::string dataset = "sync10";
  std::size_t epochs = 12;
  std::size_t timesteps = 4;
  std::string loss = "eq10";
  std::string surrogate = "triangle";
  std::string checkpoint;
  double theta = -1.0;
  double scale = 1.0;
  std::uint64_t seed = 1;
  bool noise = false;
  std::string gemm_backend;  ///< empty = env/auto selection

  static void usage(const char* argv0) {
    std::printf(
        "usage:\n"
        "  %s train --model M --dataset D [--epochs N] [--timesteps T]\n"
        "           [--loss eq9|eq10] [--surrogate triangle|dspike|rectangle|atan]\n"
        "           [--scale F] [--seed S] --out FILE\n"
        "  %s eval  --model M --dataset D [--timesteps T] --ckpt FILE\n"
        "           [--theta TH] [--noise] [--scale F]\n"
        "           (runs the checkpoint's quantized weights when it has a\n"
        "            quantized section, else its float weights)\n"
        "common: --gemm-backend scalar_ref|blocked_omp|avx2|avx512\n"
        "        (default: DTSNN_GEMM_BACKEND env, else avx512 > avx2 >\n"
        "         blocked_omp, whichever this machine supports)\n"
        "models: vgg_mini vgg_micro resnet_mini resnet_micro\n"
        "datasets: sync10 sync100 syntin syndvs\n",
        argv0, argv0);
  }
};

CliArgs parse(int argc, char** argv) {
  CliArgs args;
  if (argc < 2) {
    CliArgs::usage(argv[0]);
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) pre-thread flag parsing
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);  // NOLINT(concurrency-mt-unsafe) pre-thread flag parsing
      }
      return argv[++i];
    };
    if (flag == "--model") args.model = next();
    else if (flag == "--dataset") args.dataset = next();
    else if (flag == "--epochs") args.epochs = std::strtoull(next().c_str(), nullptr, 10);
    else if (flag == "--timesteps") args.timesteps = std::strtoull(next().c_str(), nullptr, 10);
    else if (flag == "--loss") args.loss = next();
    else if (flag == "--surrogate") args.surrogate = next();
    else if (flag == "--out" || flag == "--ckpt") args.checkpoint = next();
    else if (flag == "--theta") args.theta = std::atof(next().c_str());
    else if (flag == "--scale") args.scale = std::atof(next().c_str());
    else if (flag == "--seed") args.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (flag == "--noise") args.noise = true;
    else if (flag == "--gemm-backend") args.gemm_backend = next();
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      CliArgs::usage(argv[0]);
      std::exit(2);  // NOLINT(concurrency-mt-unsafe) pre-thread flag parsing
    }
  }
  return args;
}

core::ExperimentSpec to_spec(const CliArgs& args) {
  core::ExperimentSpec spec;
  spec.model = args.model;
  spec.dataset = args.dataset;
  spec.epochs = args.epochs;
  spec.timesteps = args.timesteps;
  spec.loss = args.loss == "eq9" ? core::LossKind::kMeanLogit
                                 : core::LossKind::kPerTimestep;
  spec.surrogate = snn::surrogate_from_string(args.surrogate);
  spec.data_scale = args.scale;
  spec.seed = args.seed;
  return spec;
}

int cmd_train(const CliArgs& args) {
  if (args.checkpoint.empty()) {
    std::fprintf(stderr, "train: --out FILE is required\n");
    return 2;
  }
  core::Experiment e = core::run_experiment(to_spec(args));
  snn::save_checkpoint(e.net, args.checkpoint);
  std::printf("final train accuracy: %.2f%%\n", 100.0 * e.train_stats.final_accuracy());
  std::printf("GEMM work: %.2f GFLOP via %s (input density %.3f)\n",
              e.train_stats.gemm_gflops, e.train_stats.gemm_backend.c_str(),
              e.train_stats.gemm_input_density);
  std::printf("checkpoint written to %s\n", args.checkpoint.c_str());
  return 0;
}

int cmd_eval(const CliArgs& args) {
  if (args.checkpoint.empty()) {
    std::fprintf(stderr, "eval: --ckpt FILE is required\n");
    return 2;
  }
  data::SyntheticBundle bundle = core::make_bundle(args.dataset, args.scale);
  snn::ModelConfig mc;
  mc.num_classes = bundle.train->num_classes();
  mc.input_shape = bundle.train->frame_shape();
  mc.seed = args.seed;
  mc.lif.surrogate.kind = snn::surrogate_from_string(args.surrogate);
  snn::SpikingNetwork net = snn::make_model(args.model, mc);
  snn::load_checkpoint(net, args.checkpoint);

  if (args.noise) {
    const imc::ImcConfig cfg;
    const std::size_t n = imc::apply_device_variation(net, cfg, args.seed ^ 0xd0123);
    std::printf("applied %.0f%% conductance variation to %zu weights\n",
                100.0 * cfg.device_sigma_over_mu, n);
  }

  auto outputs = core::collect_outputs(net, *bundle.test, args.timesteps);
  std::printf("static accuracy per timestep:\n");
  const auto acc = core::accuracy_per_timestep(outputs);
  for (std::size_t t = 1; t <= acc.size(); ++t) {
    std::printf("  T=%zu: %.2f%%\n", t, 100.0 * acc[t - 1]);
  }
  if (args.theta >= 0.0) {
    const core::EntropyExitPolicy policy(args.theta);
    const auto r = core::evaluate_recorded(outputs, policy);
    std::printf("DT-SNN @ theta=%.3f: %.2f%% accuracy, %.2f avg timesteps [%s]\n",
                args.theta, 100.0 * r.accuracy, r.avg_timesteps,
                r.timestep_histogram.to_string().c_str());
  } else {
    const auto calib = core::calibrate_theta(outputs, acc.back(), 0.005);
    std::printf("calibrated theta=%.3f: %.2f%% accuracy, %.2f avg timesteps\n",
                calib.theta, 100.0 * calib.result.accuracy,
                calib.result.avg_timesteps);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse(argc, argv);
  // Backends are bitwise identical (util/gemm.h), so this only changes
  // speed; resolve_gemm_backend rejects unknown/unavailable names loudly.
  // Without the flag the global context keeps its DTSNN_GEMM_BACKEND /
  // CPUID-derived default — which also resolves (and can throw) here, so a
  // typo'd env var gets the same clean exit-2 as a bad flag.
  try {
    if (!args.gemm_backend.empty()) {
      util::GemmContext::global().set_backend(
          util::resolve_gemm_backend(args.gemm_backend.c_str()));
    }
    std::printf("GEMM backend: %s\n",
                std::string(util::GemmContext::global().backend().name()).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "GEMM backend selection failed (--gemm-backend / "
                 "DTSNN_GEMM_BACKEND): %s\n", e.what());
    return 2;
  }
  if (args.command == "train") return cmd_train(args);
  if (args.command == "eval") return cmd_eval(args);
  CliArgs::usage(argv[0]);
  return 2;
}
