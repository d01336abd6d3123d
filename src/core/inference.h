// Unified inference API.
//
// Every way of stepping DT-SNN inference — true batch-1 early termination
// and batched early termination with live-batch compaction — sits behind
// one interface:
//
//   InferenceRequest  what to run: dataset sample indices, an optional
//                     per-request exit-policy / timestep-budget override,
//                     and whether to keep per-timestep logits.
//   InferenceResult   one finished sample: prediction, exit timestep
//                     (1-based), the entropy at the exit decision, and the
//                     cumulative-mean logit trajectory on demand.
//   InferenceEngine   runs a request against a dataset, streaming results
//                     to a sink as samples finish (samples exit at
//                     different timesteps, so completion order is not
//                     request order); run() collects and re-orders.
//
// The two engines (core/engine.h) are decision-identical, and so is the
// recorded replay there (evaluate_recorded): for the same network, policy,
// and budget they produce the same predictions and exit timesteps on every
// sample. evaluate_engine() aggregates any engine's results into the
// DtsnnResult the benches and the recorded replay report.

#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/exit_policy.h"
#include "data/dataset.h"
#include "snn/tensor.h"
#include "util/stats.h"

namespace dtsnn::core {

/// One batch of inference work against a dataset.
struct InferenceRequest {
  /// Dataset sample indices to run. Empty means "the whole dataset" —
  /// evaluate_engine and run() expand it.
  std::vector<std::size_t> samples;
  /// Per-request exit-policy override; nullptr uses the engine's policy.
  const ExitPolicy* policy = nullptr;
  /// Per-request timestep budget; 0 uses the engine's budget.
  std::size_t max_timesteps = 0;
  /// Keep the cumulative-mean logits of every executed timestep in
  /// InferenceResult::timestep_logits.
  bool record_logits = false;

  /// Request for dataset samples 0..n-1 (the common bench/test shape).
  static InferenceRequest first_n(std::size_t n);
};

/// Validate request sample indices against the dataset size `num_samples`
/// *before* any network work happens: an out-of-range index throws
/// std::out_of_range, and — when `allow_duplicates` is false, as at serving
/// admission where a duplicate index is almost always a client bug — a
/// repeated index throws std::invalid_argument. Both messages name the
/// offending position and value, instead of failing deep inside
/// data::materialize_batch / dataset accessors. Engines call this at the top
/// of run_streaming; the serving layer calls it at submit(). Returns the
/// number of validated samples ([[nodiscard]]: downstream sizing — result
/// buffers, remaining-sample counters — must come from the validated count,
/// not from a separate re-read of the request).
[[nodiscard]] std::size_t validate_request_samples(
    std::span<const std::size_t> samples, std::size_t num_samples,
    const std::string& who, bool allow_duplicates = true);

/// One finished sample.
struct InferenceResult {
  std::size_t request_index = 0;   ///< position within InferenceRequest::samples
  std::size_t sample = 0;          ///< dataset sample index
  std::size_t predicted_class = 0;
  std::size_t exit_timestep = 0;   ///< 1-based; == budget on a forced exit
  double final_entropy = 0.0;      ///< entropy of the cum logits at the exit
  /// [exit_timestep, K] cumulative-mean logits when requested, else empty.
  snn::Tensor timestep_logits;
};

/// Receives each result as its sample finishes. Called serially.
using ResultSink = std::function<void(const InferenceResult&)>;

/// The quantities every engine reports at an exit decision, built from the
/// cumulative-mean logits at the exiting timestep `t` (0-based): prediction
/// (argmax), exit entropy, 1-based exit timestep, and — when recording —
/// the [t+1, K] trajectory consumed from `history`. One definition shared
/// by the stepping engines and the serving layer, so the bitwise identity
/// contract between them is encoded once (request_index / sample are the
/// caller's). `history` is left empty either way.
InferenceResult make_exit_result(std::span<const float> cum, std::size_t t,
                                 bool record_logits, std::vector<float>& history);

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  /// Run the request, emitting each sample's result as it finishes. Engines
  /// with batched early exit emit in (exit time, batch position) order of
  /// one pool of their batch size, not request order, however many threads
  /// step it. run() reorders.
  virtual void run_streaming(const data::Dataset& dataset, const InferenceRequest& request,
                             const ResultSink& sink) = 0;

  /// Convenience: run and return results ordered by request position.
  std::vector<InferenceResult> run(const data::Dataset& dataset,
                                   const InferenceRequest& request);

  [[nodiscard]] virtual std::string name() const = 0;

  /// Name of the GEMM backend this engine's network math runs through
  /// (util::GemmContext dispatch) — surfaced in bench reports so measured
  /// throughput is attributable.
  [[nodiscard]] virtual std::string gemm_backend() const;

  /// Default timestep budget (a request's max_timesteps of 0 resolves here).
  [[nodiscard]] virtual std::size_t max_timesteps() const = 0;
};

struct DtsnnResult {
  double accuracy = 0.0;
  double avg_timesteps = 0.0;
  util::Histogram timestep_histogram{1};  ///< bin t-1 = count of samples exiting at t
  std::vector<std::size_t> exit_timestep; ///< per sample, 1-based
  std::vector<bool> correct;              ///< per sample
};

/// Run `request` through `engine` and aggregate accuracy / average exit
/// timestep / exit histogram against the dataset labels. Per-sample vectors
/// are ordered by request position. An empty request runs every sample.
DtsnnResult evaluate_engine(InferenceEngine& engine, const data::Dataset& dataset,
                            const InferenceRequest& request = {});

}  // namespace dtsnn::core
