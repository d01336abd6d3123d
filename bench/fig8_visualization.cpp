// Fig. 8 reproduction: visualization of inputs DT-SNN classifies at T-hat=1
// (easy) versus T-hat=T (hard). The paper shows photographs; here the
// synthetic samples are rendered as ASCII intensity maps, together with the
// generator's hidden difficulty statistics — verifying that the entropy
// criterion separates easy from hard inputs without ever seeing difficulty.

#include <cstdio>

#include "bench_common.h"

using namespace dtsnn;

namespace {

/// ASCII render of a CxHxW frame (channel-mean intensity).
void render(const data::ArrayDataset& ds, std::size_t sample) {
  const auto fs = ds.frame_shape();
  const std::size_t c = fs[0], h = fs[1], w = fs[2];
  const auto frame = ds.frame_data(sample, 0);
  static const char* ramp = " .:-=+*#%@";
  float lo = 1e9f, hi = -1e9f;
  for (const float v : frame) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float range = std::max(1e-6f, hi - lo);
  for (std::size_t y = 0; y < h; ++y) {
    std::string line = "    ";
    for (std::size_t x = 0; x < w; ++x) {
      float mean = 0.0f;
      for (std::size_t ch = 0; ch < c; ++ch) mean += frame[ch * h * w + y * w + x];
      mean /= static_cast<float>(c);
      const int level =
          std::min(9, static_cast<int>((mean - lo) / range * 9.99f));
      line += ramp[level];
      line += ramp[level];  // double width for aspect ratio
    }
    std::printf("%s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);

  bench::BenchReport report("fig8_visualization", options);
  core::ExperimentSpec spec;
  spec.model = "vgg_mini";
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = 14;
  spec.loss = core::LossKind::kPerTimestep;
  core::Experiment e = bench::run(spec, options);
  const auto outputs = core::test_outputs(e);

  // Low threshold maximizes differentiation (paper: "we use a low threshold
  // to filter out the high timesteps").
  const core::EntropyExitPolicy policy(0.08);
  const auto r = core::evaluate_recorded(outputs, policy);

  const auto* ds = dynamic_cast<const data::ArrayDataset*>(e.bundle.test.get());

  bench::banner("Fig. 8: inputs classified at T-hat = 1 (easy) vs T-hat = 4 (hard)");
  util::CsvWriter csv(options.csv_dir + "/fig8_difficulty_by_exit.csv");
  csv.write_header({"exit_timestep", "count", "mean_difficulty"});

  // Difficulty statistics per exit timestep.
  std::vector<double> diff_sum(outputs.timesteps, 0.0);
  std::vector<std::size_t> diff_n(outputs.timesteps, 0);
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    const std::size_t bin = r.exit_timestep[i] - 1;
    diff_sum[bin] += ds->difficulty(i);
    ++diff_n[bin];
  }
  bench::TablePrinter table({"T-hat", "Samples", "Mean difficulty (hidden)"});
  for (std::size_t t = 0; t < outputs.timesteps; ++t) {
    const double mean = diff_n[t] ? diff_sum[t] / static_cast<double>(diff_n[t]) : 0.0;
    table.row({bench::fmt("%zu", t + 1), bench::fmt("%zu", diff_n[t]),
               bench::fmt("%.3f", mean)});
    csv.row(t + 1, diff_n[t], mean);
  }

  // Render the two extremes.
  std::size_t easiest = 0, hardest = 0;
  bool have_easy = false, have_hard = false;
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    if (r.exit_timestep[i] == 1 && !have_easy) {
      easiest = i;
      have_easy = true;
    }
    if (r.exit_timestep[i] == outputs.timesteps) {
      hardest = i;  // keep the last one found; any full-T sample works
      have_hard = true;
    }
  }
  if (have_easy) {
    std::printf("\n  Example exiting at T-hat = 1 (difficulty %.2f, class %d):\n\n",
                ds->difficulty(easiest), ds->label(easiest));
    render(*ds, easiest);
  }
  if (have_hard) {
    std::printf("\n  Example needing T-hat = %zu (difficulty %.2f, class %d):\n\n",
                outputs.timesteps, ds->difficulty(hardest), ds->label(hardest));
    render(*ds, hardest);
  }
  const double first_bin =
      diff_n[0] ? diff_sum[0] / static_cast<double>(diff_n[0]) : 0.0;
  const std::size_t last = outputs.timesteps - 1;
  const double last_bin =
      diff_n[last] ? diff_sum[last] / static_cast<double>(diff_n[last]) : 0.0;
  report.set_result(r.accuracy, r.avg_timesteps);
  report.set("difficulty_at_t1", first_bin);
  report.set("difficulty_at_full_t", last_bin);
  report.set_dataset(*e.bundle.test);
  std::printf("\nShape check: mean hidden difficulty must rise with T-hat — the\n"
              "entropy rule finds hard inputs without access to the generator.\n");
  return 0;
}
