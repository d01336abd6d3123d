#include "core/spatiotemporal.h"

#include <cassert>
#include <numeric>
#include <stdexcept>

#include "core/entropy.h"
#include "snn/loss.h"
#include "util/math.h"

namespace dtsnn::core {

std::span<const float> MultiExitOutputs::at(std::size_t exit, std::size_t t,
                                            std::size_t i) const {
  assert(exit < exits && t < timesteps && i < samples);
  return {cum_logits[exit].data() + (t * samples + i) * classes, classes};
}

MultiExitOutputs collect_multi_exit_outputs(snn::MultiExitNetwork& net,
                                            const data::Dataset& dataset,
                                            std::size_t timesteps,
                                            std::size_t batch_size, std::size_t limit) {
  if (batch_size == 0) {
    throw std::invalid_argument("collect_multi_exit_outputs: batch_size == 0");
  }
  if (timesteps == 0) {
    throw std::invalid_argument("collect_multi_exit_outputs: timesteps == 0");
  }
  const std::size_t n = limit ? std::min(limit, dataset.size()) : dataset.size();
  const std::size_t k = net.num_classes();

  MultiExitOutputs out;
  out.exits = net.num_exits();
  out.timesteps = timesteps;
  out.samples = n;
  out.classes = k;
  out.cost_fractions = net.cost_fractions();
  out.labels.resize(n);
  out.cum_logits.reserve(out.exits);
  for (std::size_t e = 0; e < out.exits; ++e) {
    out.cum_logits.emplace_back(snn::Shape{timesteps * n, k});
  }

  // Stream the split chunk by chunk: one encoded batch is live at a time, so
  // multi-exit recording never materializes the whole dataset.
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t b = std::min(batch_size, n - start);
    std::vector<std::size_t> indices(b);
    std::iota(indices.begin(), indices.end(), start);
    const snn::EncodedBatch batch = data::materialize_batch(dataset, indices, timesteps);
    auto logits = net.forward(batch.x, timesteps, /*train=*/false);
    for (std::size_t e = 0; e < out.exits; ++e) {
      snn::Tensor cum = snn::cumulative_mean_logits(logits[e], timesteps);
      for (std::size_t t = 0; t < timesteps; ++t) {
        for (std::size_t i = 0; i < b; ++i) {
          const float* src = cum.data() + (t * b + i) * k;
          float* dst = out.cum_logits[e].data() + (t * n + start + i) * k;
          std::copy(src, src + k, dst);
        }
      }
    }
    for (std::size_t i = 0; i < b; ++i) out.labels[start + i] = batch.labels[i];
  }
  return out;
}

SpatioTemporalResult evaluate_spatiotemporal(const MultiExitOutputs& outputs,
                                             const SpatioTemporalPolicy& policy) {
  if (outputs.exits == 0 || outputs.samples == 0) {
    throw std::invalid_argument("evaluate_spatiotemporal: empty outputs");
  }
  SpatioTemporalResult result;
  result.time_histogram = util::Histogram(outputs.timesteps);
  result.depth_histogram = util::Histogram(outputs.exits);

  const std::size_t deepest = outputs.exits - 1;
  std::size_t correct = 0;
  double total_cost = 0.0, total_time = 0.0, total_depth = 0.0;

  for (std::size_t i = 0; i < outputs.samples; ++i) {
    std::size_t chosen_t = outputs.timesteps - 1;
    std::size_t chosen_e = deepest;
    bool exited = false;
    for (std::size_t t = 0; t < outputs.timesteps && !exited; ++t) {
      const bool last_t = t + 1 == outputs.timesteps;
      if (!policy.use_time && !last_t) continue;  // static time: only t = T
      for (std::size_t e = 0; e < outputs.exits && !exited; ++e) {
        const bool is_deepest = e == deepest;
        if (!policy.use_depth && !is_deepest) continue;
        if (last_t && is_deepest) break;  // fallback handles the final point
        if (entropy_of_logits(outputs.at(e, t, i)) < policy.theta) {
          chosen_t = t;
          chosen_e = e;
          exited = true;
        }
      }
    }
    const auto logits = outputs.at(chosen_e, chosen_t, i);
    correct += util::argmax(logits) == static_cast<std::size_t>(outputs.labels[i]);
    // Cost: full timesteps before the exit one, plus the exited timestep's
    // depth fraction. The deepest head costs a full timestep (fraction 1).
    total_cost += static_cast<double>(chosen_t) + outputs.cost_fractions[chosen_e];
    total_time += static_cast<double>(chosen_t + 1);
    total_depth += static_cast<double>(chosen_e);
    result.time_histogram.add(chosen_t);
    result.depth_histogram.add(chosen_e);
  }
  const auto n = static_cast<double>(outputs.samples);
  result.accuracy = static_cast<double>(correct) / n;
  result.avg_cost = total_cost / n;
  result.avg_exit_time = total_time / n;
  result.avg_exit_depth = total_depth / n;
  return result;
}

}  // namespace dtsnn::core
