// One-off fixture tool for the benchmark.
//
//   dtsnn_perfbench_fixture train <checkpoint>      train and save the model
//   dtsnn_perfbench_fixture calibrate <checkpoint>  print the calibrated theta
//
// `train` runs the fixture spec from scratch (deterministic: fixed seeds,
// no checkpoint cache) and also checks that the benchmark's reduced bundle
// reproduces the full bundle's test split bit for bit. `calibrate` applies
// the paper's method, core::calibrate_theta at the static-T4 accuracy
// within 1 pp, over the whole test split; its theta is copied into
// dtsnn_perfbench.cpp as a workload parameter.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fixture.h"

using namespace dtsnn;

namespace {

bool same_test_split(const data::Dataset& a, const data::Dataset& b) {
  if (a.size() != b.size() || a.frame_shape() != b.frame_shape()) return false;
  const std::size_t numel = snn::shape_numel(a.frame_shape());
  std::vector<float> fa(numel);
  std::vector<float> fb(numel);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.label(i) != b.label(i)) return false;
    for (std::size_t t = 0; t < 4; ++t) {
      a.write_frame(i, t, fa);
      b.write_frame(i, t, fb);
      if (std::memcmp(fa.data(), fb.data(), numel * sizeof(float)) != 0) return false;
    }
  }
  return true;
}

int train(const std::string& path) {
  core::Experiment e = core::run_experiment(perfbench::fixture_spec());
  snn::save_checkpoint(e.net, path);
  const data::SyntheticBundle reduced = perfbench::fixture_bundle();
  if (!same_test_split(*e.bundle.test, *reduced.test)) {
    std::fprintf(stderr, "reduced bundle's test split differs from the full bundle\n");
    return 1;
  }
  std::printf("saved %s; reduced test split identical\n", path.c_str());
  return 0;
}

int calibrate(const std::string& path) {
  core::Experiment e = perfbench::load_fixture(path);
  const auto outputs = core::collect_outputs(e.net, *e.bundle.test, 4);
  const double static_t4 = core::static_accuracy(outputs, 4);
  const auto calib = core::calibrate_theta(outputs, static_t4, /*tolerance=*/0.01);
  imc::EnergyModel energy = bench::measured_energy_model(e);
  const double edp_ratio =
      energy.mean_edp(calib.result.exit_timestep) / energy.edp(4.0);
  std::printf("static T4 accuracy %.6f\n", static_t4);
  std::printf("theta %.17g (met target: %s)\n", calib.theta,
              calib.met_target ? "yes" : "no");
  std::printf("accuracy %.6f avg_timesteps %.6f exits %s\n", calib.result.accuracy,
              calib.result.avg_timesteps,
              calib.result.timestep_histogram.to_string().c_str());
  std::printf("imc_edp_vs_static_t4 %.6f\n", edp_ratio);
  return calib.met_target ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s train|calibrate <checkpoint>\n", argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "train") return train(argv[2]);
  if (mode == "calibrate") return calibrate(argv[2]);
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
