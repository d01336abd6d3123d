// Dynamic-inference demo: watch DT-SNN decide, sample by sample.
//
// Trains a small model, then steps individual test samples through the
// sequential engine printing the entropy trajectory and exit decision for
// each timestep — including the fixed-point sigma-E module's view of the
// same decision, as the chip would compute it.

#include <cstdio>
#include <span>

#include "core/engine.h"
#include "core/entropy.h"
#include "core/evaluator.h"
#include "imc/sigma_e.h"
#include "util/math.h"

using namespace dtsnn;

int main() {
  core::ExperimentSpec spec;
  spec.model = "vgg_mini";
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = 10;
  spec.loss = core::LossKind::kPerTimestep;
  spec.data_scale = 0.4;

  std::printf("Training %s on %s...\n\n", spec.model.c_str(), spec.dataset.c_str());
  core::Experiment e = core::run_experiment(spec);

  const double theta = 0.25;
  const core::EntropyExitPolicy policy(theta);
  imc::SigmaEModule sigma_e;
  const auto& ds = *e.bundle.test;

  // The batch-1 engine with the cumulative-mean trajectory recorded exposes
  // the per-timestep internals of each decision.
  core::SequentialEngine batch1(e.net, policy, spec.timesteps);
  core::InferenceRequest first8 = core::InferenceRequest::first_n(8);
  first8.record_logits = true;
  std::printf("Entropy threshold theta = %.2f. Stepping 8 test samples:\n\n", theta);
  for (const core::InferenceResult& res : batch1.run(ds, first8)) {
    std::printf("sample %zu (label %d, hidden difficulty n/a to the model):\n", res.sample,
                ds.label(res.sample));
    const std::size_t k = res.timestep_logits.dim(1);
    for (std::size_t t = 0; t < res.exit_timestep; ++t) {
      const std::span<const float> cum(res.timestep_logits.data() + t * k, k);
      const double h_float = core::entropy_of_logits(cum);
      const double h_fixed = sigma_e.compute_entropy(cum);
      const bool last = t + 1 == res.exit_timestep;
      std::printf("  t=%zu  entropy=%.3f (sigma-E fixed-point: %.3f)  argmax=%zu  %s\n",
                  t + 1, h_float, h_fixed, util::argmax(cum),
                  !last             ? "continue"
                  : h_float < theta ? "-> EXIT"
                                    : "-> out of timesteps, EXIT");
    }
    std::printf("  prediction: %zu (%s)\n\n", res.predicted_class,
                res.predicted_class == static_cast<std::size_t>(ds.label(res.sample))
                    ? "correct"
                    : "WRONG");
  }

  // Aggregate view: the batched engine steps 32 samples together,
  // re-evaluating Eq. 8 per sample each timestep and compacting the live
  // batch as samples exit — same decisions as the batch-1 engine above, at
  // batch throughput.
  core::BatchedSequentialEngine engine(e.net, policy, spec.timesteps, /*batch_size=*/32);
  const core::InferenceRequest request =
      core::InferenceRequest::first_n(std::min<std::size_t>(256, ds.size()));
  const core::DtsnnResult r = core::evaluate_engine(engine, ds, request);
  std::printf("Over %zu samples (%s): %.2f%% accuracy at %.2f average timesteps.\n",
              request.samples.size(), engine.name().c_str(), 100.0 * r.accuracy,
              r.avg_timesteps);
  return 0;
}
