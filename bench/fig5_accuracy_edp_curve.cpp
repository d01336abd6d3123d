// Fig. 5 reproduction: accuracy vs EDP trade-off curves. Static SNNs trace
// the curve by varying T in {1..4}; DT-SNN by varying the entropy threshold
// theta (three operating points, as in the paper). The per-threshold exit
// distribution ("pie charts") is printed alongside.
//
// Expected shape: the DT-SNN curve sits up-and-left of the static curve —
// equal or better accuracy at a fraction of the EDP — with T-hat mass
// concentrated at t=1.

#include <cstdio>

#include "bench_common.h"

using namespace dtsnn;

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);

  bench::banner("Fig. 5: accuracy vs EDP (normalized to 1-timestep static SNN)");
  bench::BenchReport report("fig5_accuracy_edp_curve", options);
  util::CsvWriter csv(options.csv_dir + "/fig5_accuracy_edp.csv");
  csv.write_header({"model", "dataset", "method", "theta", "avg_timesteps", "accuracy",
                    "edp_norm", "pie_t1", "pie_t2", "pie_t3", "pie_t4"});

  for (const std::string model : {"vgg_mini", "resnet_mini"}) {
    for (const std::string dataset : {"sync10", "sync100", "syntin"}) {
      const std::size_t timesteps = 4;
      core::ExperimentSpec spec;
      spec.model = model;
      spec.dataset = dataset;
      spec.timesteps = timesteps;
      spec.epochs = 14;
      spec.loss = core::LossKind::kPerTimestep;
      core::Experiment e = bench::run(spec, options);
      const auto outputs = core::test_outputs(e);

      const double activity = bench::mean_hidden_activity(e);
      const imc::EnergyModel hw = bench::paper_scale_energy_model(model, activity);
      const double edp1 = hw.edp(1.0);  // normalization: 1-timestep static

      std::printf("%s on %s:\n", model.c_str(), dataset.c_str());
      bench::TablePrinter table(
          {"Method", "theta", "avgT", "Acc.", "EDP", "That distribution"},
          {10, 8, 7, 9, 8, 28});

      for (std::size_t t = 1; t <= timesteps; ++t) {
        const double acc = core::static_accuracy(outputs, t);
        const double edp = hw.edp(static_cast<double>(t)) / edp1;
        table.row({"SNN", "-", bench::fmt("%zu", t), bench::fmt("%.2f%%", 100 * acc),
                   bench::fmt("%.2f", edp), "-"});
        csv.row(model, dataset, "SNN", 0.0, t, 100 * acc, edp, 0.0, 0.0, 0.0, 0.0);
      }

      // Three operating points spanning aggressive -> conservative exits.
      for (const double theta : {0.5, 0.2, 0.05}) {
        const core::EntropyExitPolicy policy(theta);
        const auto r = core::evaluate_recorded(outputs, policy);
        std::vector<double> exits_edp;
        const double edp =
            hw.mean_edp(r.exit_timestep) / edp1;
        table.row({"DT-SNN", bench::fmt("%.2f", theta),
                   bench::fmt("%.2f", r.avg_timesteps),
                   bench::fmt("%.2f%%", 100 * r.accuracy), bench::fmt("%.2f", edp),
                   r.timestep_histogram.to_string()});
        csv.row(model, dataset, "DT-SNN", theta, r.avg_timesteps, 100 * r.accuracy, edp,
                r.timestep_histogram.fraction(0), r.timestep_histogram.fraction(1),
                r.timestep_histogram.fraction(2), r.timestep_histogram.fraction(3));
        report.set(model + "_" + dataset + bench::fmt("_theta%.2f", theta) + "_accuracy",
                   r.accuracy);
        report.set(model + "_" + dataset + bench::fmt("_theta%.2f", theta) + "_edp",
                   edp);
      }
      if (model == "vgg_mini") report.set_dataset(*e.bundle.test, dataset + "_");
      std::printf("\n");
    }
  }
  std::printf("Shape check: DT-SNN rows should dominate the static rows (higher\n"
              "accuracy at lower EDP), with most mass exiting at T-hat = 1.\n");
  return 0;
}
