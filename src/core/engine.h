// DT-SNN inference: two stepping engines plus the recorded replay.
//
//  * Recorded replay: collect_outputs runs the network once for the maximum
//    T over a dataset and records the cumulative-mean logits f_t of every
//    timestep; evaluate_recorded (any ExitPolicy) and
//    evaluate_dtsnn_with_table (an entropy threshold against a precomputed
//    table) then replay the exit rule (Eq. 8) without re-running the
//    network. Both run through one replay loop. This is how threshold
//    sweeps and calibration are done cheaply.
//
//  * SequentialEngine: true early termination — the network is stepped one
//    timestep at a time (batch 1) and computation stops at the exit decision.
//    Kept as the reference oracle for LivePool and as the model of the
//    on-chip control flow, so it deliberately shares no loop with it.
//
//  * BatchedSequentialEngine: true early termination at batch granularity —
//    a thin driver over core::LivePool (core/live_pool.h), which steps a
//    pool of samples together, evaluates the exit rule per sample each
//    timestep, and compacts finished samples out; the engine refills their
//    slots with waiting samples in request order (continuous batching).
//    With several OpenMP threads it enters one parallel region per request,
//    in which each thread steps its own pool over a row window of the one
//    network. Decision-identical to SequentialEngine; used for throughput
//    (Table III). The serving fleet runs its worker pools on LivePool too.

#pragma once

#include <functional>

#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "snn/network.h"
#include "util/stats.h"

namespace dtsnn::core {

/// Recorded per-timestep cumulative-mean logits over a dataset.
struct TimestepOutputs {
  std::size_t timesteps = 0;
  std::size_t samples = 0;
  std::size_t classes = 0;
  /// [T * N, K] time-major cumulative-mean logits f_t(x_i).
  snn::Tensor cum_logits;
  std::vector<int> labels;

  /// Logits of sample i after t+1 timesteps (t in [0, T)).
  [[nodiscard]] std::span<const float> at(std::size_t t, std::size_t i) const;
};

/// Factory producing architecturally identical (untrained) replicas of the
/// network under evaluation; trained state is stamped in with
/// snn::copy_network_state. Must be safe to call from the calling thread.
using NetworkFactory = std::function<snn::SpikingNetwork()>;

/// Run the network in eval mode over `dataset` (optionally only the first
/// `limit` samples), recording cumulative-mean logits. Samples are encoded
/// and forwarded in chunks of `batch_size`, so only one chunk per worker is
/// live at a time. With `make_replica` and OpenMP, chunks are distributed
/// over `num_threads` workers (0 = all cores), each owning a replica of
/// `net`; chunk boundaries do not depend on the thread count, so the
/// recording is bitwise identical either way. Without a factory, without
/// OpenMP, or at 1 thread, everything runs on `net` and the factory is
/// never called. Throws std::invalid_argument for batch_size == 0 or
/// timesteps == 0.
TimestepOutputs collect_outputs(snn::SpikingNetwork& net, const data::Dataset& dataset,
                                std::size_t timesteps, std::size_t batch_size = 256,
                                std::size_t limit = 0,
                                const NetworkFactory& make_replica = {},
                                std::size_t num_threads = 0);

/// Number of evaluation worker threads `num_threads = 0` resolves to
/// (1 without OpenMP).
std::size_t evaluation_threads();

/// Static-SNN evaluation: accuracy using exactly `t` timesteps (1-based).
double static_accuracy(const TimestepOutputs& outputs, std::size_t t);

/// Accuracy at every t = 1..T.
std::vector<double> accuracy_per_timestep(const TimestepOutputs& outputs);

/// Normalized entropy of every recorded (t, sample) cumulative logit row,
/// laid out like cum_logits ([T * N], time-major). Computed in parallel.
/// Replaying an entropy threshold against this table is O(1) per decision,
/// so theta sweeps touch the softmax only once.
std::vector<double> entropy_table(const TimestepOutputs& outputs);

/// Replay the Eq. 8 entropy rule at `theta` against a precomputed table
/// (decision-identical to evaluate_recorded with EntropyExitPolicy(theta)).
/// This is the fast path behind theta_sweep / calibrate_theta.
DtsnnResult evaluate_dtsnn_with_table(const TimestepOutputs& outputs,
                                      std::span<const double> entropies, double theta);

/// Replay `policy` (Eq. 8 for any exit criterion) against a recording and
/// score against outputs.labels: each sample exits at the first t < T whose
/// recorded row makes the policy fire, else at T. Samples are replayed in
/// parallel (`policy` is called concurrently); aggregation is serial in
/// sample order. An exception thrown by the policy propagates. Throws
/// std::invalid_argument for a recording with no timesteps.
DtsnnResult evaluate_recorded(const TimestepOutputs& outputs, const ExitPolicy& policy);

/// Batch-1 true early termination; the reference oracle the batched engine
/// is tested against.
class SequentialEngine final : public InferenceEngine {
 public:
  /// Throws std::invalid_argument when max_timesteps == 0.
  SequentialEngine(snn::SpikingNetwork& net, const ExitPolicy& policy,
                   std::size_t max_timesteps);

  void run_streaming(const data::Dataset& dataset, const InferenceRequest& request,
                     const ResultSink& sink) override;
  [[nodiscard]] std::string name() const override { return "sequential"; }
  [[nodiscard]] std::string gemm_backend() const override;
  [[nodiscard]] std::size_t max_timesteps() const override { return max_timesteps_; }

 private:
  InferenceResult infer_one(const data::Dataset& dataset, std::size_t sample,
                            const ExitPolicy& policy, std::size_t budget,
                            bool record_logits);

  snn::SpikingNetwork& net_;
  const ExitPolicy& policy_;
  std::size_t max_timesteps_;
};

/// Batched true early termination with continuous batching: up to
/// `batch_size` samples step together (each at its own timestep), finished
/// samples are emitted to the sink immediately, and their slots are
/// refilled with the next waiting request positions, so every step runs as
/// full as the remaining work allows.
///
/// The rows are split into W = min(OpenMP threads, batch_size, request
/// size) windows of about batch_size / W rows (W = 1 when called inside an
/// active OpenMP region, whose nested regions get one thread). The
/// network's step state is sized once per request, and core::LivePool w
/// steps window w of it, admitting the next waiting position from a shared
/// cursor. At W = 1 the one pool runs on the calling thread, each op its own
/// OpenMP loop, with no region around it. At W > 1 run_streaming enters one
/// OpenMP region per request, in which thread w steps pool w with no
/// barrier against the other threads. The sink runs on the calling thread
/// alone, which collects the other windows' exits between its own steps.
/// At every W exits reach the sink in the order one pool of batch_size rows
/// emits them — (exit step, batch position), survivors keeping their order
/// and waiting positions refilling freed rows in request order — which
/// depends only on each sample's exit timestep, not on timing. A window's
/// exit is held until every exit ahead of it in that order has arrived.
///
/// Decisions, predictions and entropies are bitwise identical to
/// SequentialEngine at every W: a row's trajectory never depends on its
/// neighbours. A failure — an exit policy or frame encode that throws, a
/// network fault, a throwing sink — stops admissions; the rows already
/// admitted step until they exit or fail, and run_streaming then rethrows
/// the error of the lowest failing request position. Positions are admitted
/// in order, so when each failure belongs to its sample (a bad frame, a
/// policy error on its logits) that position does not depend on timing.
/// Exits a failed run still holds for their turn reach the sink in request
/// position order before the rethrow.
class BatchedSequentialEngine final : public InferenceEngine {
 public:
  /// Throws std::invalid_argument when max_timesteps == 0 or batch_size == 0.
  BatchedSequentialEngine(snn::SpikingNetwork& net, const ExitPolicy& policy,
                          std::size_t max_timesteps, std::size_t batch_size = 32);

  void run_streaming(const data::Dataset& dataset, const InferenceRequest& request,
                     const ResultSink& sink) override;
  [[nodiscard]] std::string name() const override { return "batched-sequential"; }
  [[nodiscard]] std::string gemm_backend() const override;
  [[nodiscard]] std::size_t max_timesteps() const override { return max_timesteps_; }
  [[nodiscard]] std::size_t batch_size() const { return batch_size_; }

 private:
  snn::SpikingNetwork& net_;
  const ExitPolicy& policy_;
  std::size_t max_timesteps_;
  std::size_t batch_size_;
};

}  // namespace dtsnn::core
