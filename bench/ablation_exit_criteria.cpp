// Extension ablation (beyond the paper): exit-criterion comparison.
// Entropy thresholding (Eq. 8) vs max-softmax-probability vs top-2 margin,
// each swept over its own threshold range and reported as accuracy /
// average-timesteps frontiers. Also ablates hard vs soft LIF reset.

#include <cstdio>

#include "bench_common.h"

using namespace dtsnn;

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);
  bench::BenchReport report("ablation_exit_criteria", options);

  core::ExperimentSpec spec;
  spec.model = "vgg_mini";
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = 14;
  spec.loss = core::LossKind::kPerTimestep;
  core::Experiment e = bench::run(spec, options);
  const auto outputs = core::test_outputs(e);
  const double full_acc = core::static_accuracy(outputs, 4);

  bench::banner("Ablation: exit criterion frontiers (accuracy vs avg timesteps)");
  util::CsvWriter csv(options.csv_dir + "/ablation_exit_criteria.csv");
  csv.write_header({"criterion", "threshold", "avg_timesteps", "accuracy"});

  bench::TablePrinter table({"Criterion", "Threshold", "avgT", "Acc."}, {12, 11, 8, 9});

  for (const double theta : {0.9, 0.6, 0.3, 0.1, 0.03}) {
    const core::EntropyExitPolicy policy(theta);
    const auto r = core::evaluate_recorded(outputs, policy);
    table.row({"entropy", bench::fmt("%.2f", theta), bench::fmt("%.2f", r.avg_timesteps),
               bench::fmt("%.2f%%", 100 * r.accuracy)});
    csv.row("entropy", theta, r.avg_timesteps, 100 * r.accuracy);
  }
  for (const double p : {0.5, 0.7, 0.9, 0.97, 0.995}) {
    const core::MaxProbExitPolicy policy(p);
    const auto r = core::evaluate_recorded(outputs, policy);
    table.row({"maxprob", bench::fmt("%.3f", p), bench::fmt("%.2f", r.avg_timesteps),
               bench::fmt("%.2f%%", 100 * r.accuracy)});
    csv.row("maxprob", p, r.avg_timesteps, 100 * r.accuracy);
  }
  for (const double m : {0.3, 0.5, 0.8, 0.95, 0.99}) {
    const core::MarginExitPolicy policy(m);
    const auto r = core::evaluate_recorded(outputs, policy);
    table.row({"margin", bench::fmt("%.3f", m), bench::fmt("%.2f", r.avg_timesteps),
               bench::fmt("%.2f%%", 100 * r.accuracy)});
    csv.row("margin", m, r.avg_timesteps, 100 * r.accuracy);
  }
  std::printf("static T=4 reference accuracy: %.2f%%\n", 100 * full_acc);
  report.set("static_t4_accuracy", full_acc);
  {
    const auto r = core::evaluate_recorded(outputs, core::EntropyExitPolicy(0.3));
    report.set_result(r.accuracy, r.avg_timesteps);
  }

  bench::banner("Ablation: hard (paper) vs soft (subtractive) LIF reset");
  bench::TablePrinter reset_table({"Reset", "T=1", "T=2", "T=3", "T=4"});
  for (const bool hard : {true, false}) {
    core::ExperimentSpec rs = spec;
    rs.seed = 31;  // distinct cache entry per reset mode
    // Reset mode flows through the LIF config of the model builder.
    core::Experiment exp = [&] {
      data::SyntheticBundle bundle = core::make_bundle(rs.dataset, rs.data_scale *
                                                                       options.scale);
      snn::ModelConfig mc;
      mc.num_classes = bundle.train->num_classes();
      mc.input_shape = bundle.train->frame_shape();
      mc.seed = rs.seed;
      mc.lif.hard_reset = hard;
      snn::SpikingNetwork net = snn::make_model(rs.model, mc);
      snn::PerTimestepCrossEntropy loss;
      data::ShuffledBatchSource source(*bundle.train, rs.batch_size, rs.seed);
      snn::TrainOptions topt;
      topt.epochs = options.epochs_override ? options.epochs_override : rs.epochs;
      topt.timesteps = rs.timesteps;
      auto stats = snn::train(net, loss, source, topt);
      return core::Experiment{rs, std::move(bundle), std::move(net), std::move(stats),
                              false};
    }();
    const auto out = core::test_outputs(exp);
    const auto acc = core::accuracy_per_timestep(out);
    std::vector<std::string> row{hard ? "hard" : "soft"};
    for (const double a : acc) row.push_back(bench::fmt("%.2f%%", 100 * a));
    reset_table.row(row);
    for (std::size_t t = 1; t <= acc.size(); ++t) {
      csv.row(hard ? "reset_hard" : "reset_soft", t, t, 100 * acc[t - 1]);
    }
  }
  report.set_dataset(*e.bundle.test);
  std::printf("\nExpected: entropy and maxprob frontiers are close (both proper\n"
              "confidence scores); margin is slightly worse at matched avg T.\n");
  return 0;
}
