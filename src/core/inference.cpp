#include "core/inference.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "core/entropy.h"
#include "util/gemm.h"
#include "util/math.h"

namespace dtsnn::core {

std::string InferenceEngine::gemm_backend() const {
  return std::string(util::GemmContext::global().backend().name());
}

std::size_t validate_request_samples(std::span<const std::size_t> samples,
                                     std::size_t num_samples, const std::string& who,
                                     bool allow_duplicates) {
  std::unordered_set<std::size_t> seen;
  if (!allow_duplicates) seen.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i] >= num_samples) {
      throw std::out_of_range(who + ": sample index " + std::to_string(samples[i]) +
                              " at request position " + std::to_string(i) +
                              " out of range (sample limit " +
                              std::to_string(num_samples) + ")");
    }
    if (!allow_duplicates && !seen.insert(samples[i]).second) {
      throw std::invalid_argument(who + ": duplicate sample index " +
                                  std::to_string(samples[i]) + " at request position " +
                                  std::to_string(i));
    }
  }
  return samples.size();
}

InferenceResult make_exit_result(std::span<const float> cum, std::size_t t,
                                 bool record_logits, std::vector<float>& history) {
  InferenceResult r;
  r.exit_timestep = t + 1;
  r.predicted_class = util::argmax(cum);
  r.final_entropy = entropy_of_logits(cum);
  if (record_logits) {
    r.timestep_logits = snn::Tensor({t + 1, cum.size()}, std::move(history));
  }
  history.clear();
  return r;
}

InferenceRequest InferenceRequest::first_n(std::size_t n) {
  InferenceRequest request;
  request.samples.resize(n);
  std::iota(request.samples.begin(), request.samples.end(), 0);
  return request;
}

std::vector<InferenceResult> InferenceEngine::run(const data::Dataset& dataset,
                                                  const InferenceRequest& request) {
  InferenceRequest req = request;
  if (req.samples.empty()) {
    req.samples.resize(dataset.size());
    std::iota(req.samples.begin(), req.samples.end(), 0);
  }
  std::vector<InferenceResult> results(req.samples.size());
  std::vector<unsigned char> seen(req.samples.size(), 0);
  run_streaming(dataset, req, [&](const InferenceResult& r) {
    results.at(r.request_index) = r;
    seen.at(r.request_index) = 1;
  });
  for (const unsigned char s : seen) {
    if (!s) throw std::logic_error(name() + ": engine dropped a requested sample");
  }
  return results;
}

DtsnnResult evaluate_engine(InferenceEngine& engine, const data::Dataset& dataset,
                            const InferenceRequest& request) {
  const std::size_t budget =
      request.max_timesteps ? request.max_timesteps : engine.max_timesteps();
  const std::vector<InferenceResult> results = engine.run(dataset, request);

  DtsnnResult out;
  out.timestep_histogram = util::Histogram(std::max<std::size_t>(budget, 1));
  out.exit_timestep.resize(results.size());
  out.correct.resize(results.size());
  std::size_t correct = 0;
  double total_t = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InferenceResult& r = results[i];
    const bool ok =
        r.predicted_class == static_cast<std::size_t>(dataset.label(r.sample));
    out.exit_timestep[i] = r.exit_timestep;
    out.correct[i] = ok;
    out.timestep_histogram.add(r.exit_timestep - 1);
    correct += ok;
    total_t += static_cast<double>(r.exit_timestep);
  }
  const double n = static_cast<double>(results.size());
  out.accuracy = results.empty() ? 0.0 : static_cast<double>(correct) / n;
  out.avg_timesteps = results.empty() ? 0.0 : total_t / n;
  return out;
}

}  // namespace dtsnn::core
