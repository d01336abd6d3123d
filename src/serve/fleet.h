// Multi-tenant, SLO-aware serving fleet.
//
// ServingFleet turns the live-pool execution of the offline engines into a
// long-running service: several models resident at once, several worker
// pools per model, one admission queue ordered by a pluggable scheduler,
// per-tenant quotas, and request cancellation. A single-model deployment is
// just a fleet with one FleetModel.
//
//   client threads ──submit()──▶ tenant quotas ──▶ scheduler (fifo / edf /
//        │                                         weighted_fair)
//        └─cancel(handle)──▶ purge queued / flag residents
//                                  │
//            ┌─────────────────────┴──────────────────────┐
//   worker 0 (model A, replica 0)  ...  worker N (model B, replica k)
//            └──────── futures / streaming callbacks ◀────┘
//
// Each worker owns one network (worker 0 of a model borrows the model's
// base network; extra workers run copy_network_state replicas) and steps it
// through a core::LivePool over the row window {0, max_pool} of its step
// state, begun afresh whenever the pool restarts after a drain — the same
// pool loop BatchedSequentialEngine drives: admit into free pool slots at
// timestep boundaries, step the pool, apply the shared exit rule (budget →
// policy → the deadline as the pool's force-exit rule), emit finished
// samples immediately. The worker adds only admission, deadlines,
// cancellation, quotas, stats and delivery. Because every sample's
// trajectory depends only on its own frames and per-row LIF state, fleet
// results are bitwise identical — prediction, exit timestep, exit entropy,
// logits — to the batch-1 SequentialEngine oracle for that sample's model,
// regardless of scheduler policy, worker count, tenant mix, or arrival
// order.
// Schedulers and quotas change *when* a sample runs, never *what* it
// computes.
//
// Cancellation: cancel(handle) removes the request's queued samples
// immediately and flags the request; resident samples force-exit at the
// next timestep boundary (their slots are reclaimed before the next step),
// and the request's future fails with CancelledError. Cancelled work is
// reported distinctly from completions and failures.
//
// All shared state lives behind the annotated util::Mutex admission lock;
// Pending completion state crossed by multiple workers is atomic
// (remaining / settled / failed / cancelled), so delivery never takes a
// lock while running user callbacks.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "data/prefetch.h"
#include "serve/scheduler.h"
#include "serve/tenant.h"
#include "snn/network.h"
#include "util/gemm.h"
#include "util/stats.h"
#include "util/sync.h"
#include "util/thread.h"
#include "util/thread_annotations.h"

namespace dtsnn::serve {

using ServeClock = std::chrono::steady_clock;

/// One resident model: a trained network, its dataset, default exit policy,
/// and serving shape. The fleet takes exclusive use of `network` between
/// construction and drain(); `dataset`, `default_policy`, and any
/// per-request policy overrides must outlive the fleet.
struct FleetModel {
  /// Routing key clients put in FleetRequest::model; "" becomes "model<i>".
  std::string name;
  snn::SpikingNetwork* network = nullptr;
  const data::Dataset* dataset = nullptr;
  const core::ExitPolicy* default_policy = nullptr;
  /// Server-side timestep budget (per-request overrides may lower it).
  std::size_t max_timesteps = 0;
  /// Worker pools stepping this model concurrently. Workers beyond the
  /// first run on fresh replicas from `make_replica` (trained state stamped
  /// in with snn::copy_network_state), so requiring it only when > 1.
  std::size_t workers = 1;
  core::NetworkFactory make_replica;
  /// Live-pool capacity per worker.
  std::size_t max_pool = 8;
  /// GEMM backend for this model's networks, by registry name ("" = leave
  /// them on their current context). Unknown names throw
  /// std::invalid_argument and unavailable ones std::runtime_error, both at
  /// construction. A model serves quantized when its network carries
  /// quantized weights (snn/quantize.h), under any backend.
  std::string gemm_backend;
};

struct FleetConfig {
  /// Admission-queue capacity in samples across all models and tenants.
  std::size_t max_queue = 4096;
  /// How long an *idle* worker holds its first arrivals hoping to fill its
  /// pool before launching the batch. 0 starts immediately.
  std::chrono::microseconds admission_window{0};
  /// Latency digests cover the most recent this-many completed samples
  /// (per tenant class and globally).
  std::size_t latency_window = 8192;
  /// Scheduler policy name; "" defers to DTSNN_SERVE_SCHEDULER, then fifo.
  std::string scheduler;
  /// Tenant classes. Tenant 0 (default) always exists; ids are assigned in
  /// order starting at 1.
  std::vector<TenantSpec> tenants;
};

/// One client submission.
struct FleetRequest {
  core::InferenceRequest request;
  /// Optional deadline: at the first timestep boundary at or past it, the
  /// sample force-exits with the same quantities a budget exhaustion would
  /// report at that timestep. Samples always complete at least one timestep.
  std::optional<ServeClock::time_point> deadline;
  /// Optional streaming callback, invoked the moment each sample exits.
  /// With multiple workers per model it may run concurrently from several
  /// worker threads; it must be thread-safe and must not drain() the fleet.
  core::ResultSink on_result;
  /// Tenant class (quotas, fair-share weight); must exist in the registry.
  TenantId tenant = kDefaultTenant;
  /// Routing key; "" routes to the first model.
  std::string model;
};

/// Cancellation token for a submitted request.
struct RequestHandle {
  std::uint64_t id = 0;
};

/// submit()'s return: the results future plus the cancellation handle.
struct Submission {
  std::future<std::vector<core::InferenceResult>> results;
  RequestHandle handle;
};

/// The exception a cancelled request's future fails with.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-tenant-class slice of the fleet counters.
struct TenantStats {
  std::string name;
  std::size_t submitted_samples = 0;
  std::size_t completed_samples = 0;
  std::size_t failed_samples = 0;
  /// Queued samples removed by cancel() before ever entering a pool.
  std::size_t cancelled_queued_samples = 0;
  /// Resident samples force-exited at a timestep boundary by cancel().
  std::size_t cancelled_live_samples = 0;
  std::size_t deadline_forced_exits = 0;
  /// Completed samples whose exit decision landed past their deadline
  /// (deadline-forced or not) — the SLO-miss count schedulers are graded on.
  std::size_t deadline_missed = 0;
  /// Requests bounced by this tenant's max_queued quota.
  std::size_t rejected_requests = 0;
  std::size_t queue_depth = 0;   ///< samples waiting now
  std::size_t in_flight = 0;     ///< samples resident in pools now
  util::PercentileSummary queue_us;
  util::PercentileSummary latency_us;
};

/// Snapshot of fleet counters (stats()). The global section covers every
/// model; `tenants` slices the same events per tenant class.
struct FleetStats {
  std::size_t submitted_requests = 0;
  std::size_t submitted_samples = 0;
  std::size_t completed_samples = 0;
  std::size_t failed_samples = 0;
  std::size_t cancelled_queued_samples = 0;
  std::size_t cancelled_live_samples = 0;
  std::size_t cancelled_requests = 0;  ///< cancel() calls that took effect
  std::size_t deadline_forced_exits = 0;
  std::size_t deadline_missed = 0;
  std::size_t rejected_requests = 0;
  std::size_t queue_depth = 0;
  std::size_t live_samples = 0;  ///< resident across all pools now
  std::size_t peak_pool = 0;     ///< largest single-pool occupancy seen
  /// Bin t-1 = completed samples that exited at timestep t (bins span the
  /// largest model budget).
  util::Histogram exit_timesteps{1};
  double mean_exit_timestep = 0.0;  ///< 1-based; 0 when nothing completed
  util::PercentileSummary queue_us;
  util::PercentileSummary latency_us;
  std::vector<TenantStats> tenants;
};

class ServingFleet {
 public:
  /// Validates models (non-null network/dataset/policy, max_timesteps > 0,
  /// max_pool > 0, workers > 0, replica factory when workers > 1, unique
  /// names), the config (max_queue > 0, latency_window > 0, scheduler name,
  /// tenant weights), resolves per-model GEMM backends, stamps worker
  /// replicas, and starts every worker thread.
  ServingFleet(std::vector<FleetModel> models, FleetConfig config = {});

  /// Drains gracefully: all accepted work completes before destruction.
  ~ServingFleet();

  ServingFleet(const ServingFleet&) = delete;
  ServingFleet& operator=(const ServingFleet&) = delete;

  /// Thread-safe submission, validated up front: an empty sample list
  /// expands to the whole dataset of the routed model; out-of-range indices
  /// throw std::out_of_range; duplicates, over-budget overrides, and an
  /// unknown model name or tenant id throw std::invalid_argument; draining
  /// or a full queue throws std::runtime_error; a submission over the
  /// tenant's max_queued quota throws TenantQuotaError. The future resolves
  /// with results ordered by request position once the last sample exits,
  /// or with the exception that failed the request: a throw from the
  /// request's exit policy, frame encode or result callback fails that
  /// request only, and a network-step fault fails the requests resident on
  /// that worker; the fleet keeps serving either way.
  Submission submit(FleetRequest req) DTSNN_EXCLUDES(mu_);

  /// Cancel a submitted request. Queued samples are removed immediately;
  /// resident ones force-exit at their worker's next timestep boundary; the
  /// request future fails with CancelledError. Returns true when the
  /// request was still live (some of its samples had not finished), false
  /// when it was already fully settled or the handle is unknown. Idempotent.
  bool cancel(RequestHandle handle) DTSNN_EXCLUDES(mu_);

  /// Graceful shutdown: stop accepting, run everything already accepted to
  /// completion, then stop the workers. Idempotent; also called by the
  /// destructor. After drain() the base networks are free for other users
  /// (their GEMM contexts are restored to the process default).
  void drain() DTSNN_EXCLUDES(mu_, drain_mu_);

  [[nodiscard]] FleetStats stats() const DTSNN_EXCLUDES(mu_);
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] SchedulerKind scheduler_kind() const { return scheduler_kind_; }
  [[nodiscard]] const TenantRegistry& tenants() const { return tenants_; }
  [[nodiscard]] std::size_t num_models() const { return models_.size(); }
  /// Model metadata by index (registration order).
  [[nodiscard]] const std::string& model_name(std::size_t model) const;
  [[nodiscard]] std::size_t model_max_timesteps(std::size_t model) const;
  /// GEMM backend the model's pool math dispatches through.
  [[nodiscard]] std::string model_gemm_backend(std::size_t model) const;
  /// Routing lookup; throws std::invalid_argument for unknown names.
  [[nodiscard]] std::size_t model_index(const std::string& name) const;

 private:
  /// One FleetRequest in flight; shared by its queued/live samples across
  /// every worker of its model. Fields written before submission are
  /// immutable afterwards; cross-worker completion state is atomic.
  struct Pending {
    std::uint64_t id = 0;
    std::size_t model = 0;
    TenantId tenant = kDefaultTenant;
    const core::ExitPolicy* policy = nullptr;
    std::size_t budget = 0;
    bool record_logits = false;
    std::optional<ServeClock::time_point> deadline;
    core::ResultSink on_result;
    ServeClock::time_point submit_time;
    std::vector<core::InferenceResult> results;  ///< by request position
    /// Samples not yet delivered; the worker whose fetch_sub hits 0
    /// resolves the future.
    std::atomic<std::size_t> remaining{0};
    /// Exactly-once gate on the promise (value, exception, or cancel).
    std::atomic<bool> settled{false};
    /// Failed by a worker error: stragglers are discarded, not delivered.
    std::atomic<bool> failed{false};
    /// cancel() flag: queued samples purge, residents force-exit.
    std::atomic<bool> cancelled{false};
    std::promise<std::vector<core::InferenceResult>> promise;
  };

  struct Worker;  // defined in fleet.cpp: the worker's core::LivePool

  /// Per-model runtime: resolved config, owned replicas, GEMM context.
  struct Model {
    FleetModel spec;
    /// Owned replica networks for workers 1..N-1 (worker 0 borrows
    /// spec.network).
    std::vector<std::unique_ptr<snn::SpikingNetwork>> replicas;
    /// Owned context when spec.gemm_backend forces a backend; every worker
    /// network of the model points at it for the fleet lifetime
    /// (GemmContext is thread-safe for concurrent GEMM calls, and
    /// heap-owned because its accounting atomics make it immovable).
    std::unique_ptr<util::GemmContext> gemm_context;
    std::unique_ptr<data::ShardPrefetcher> prefetcher;
  };

  /// Mutable per-tenant accounting (registry itself is immutable config).
  struct TenantCounters {
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    std::size_t submitted_samples = 0;
    std::size_t completed_samples = 0;
    std::size_t failed_samples = 0;
    std::size_t cancelled_queued = 0;
    std::size_t cancelled_live = 0;
    std::size_t deadline_forced = 0;
    std::size_t deadline_missed = 0;
    std::size_t rejected_requests = 0;
    std::unique_ptr<util::BoundedSampleWindow> queue_us;
    std::unique_ptr<util::BoundedSampleWindow> latency_us;
  };

  void worker_loop(std::size_t model, snn::SpikingNetwork& net) DTSNN_EXCLUDES(mu_);

  /// Block until this worker can admit something (or drain). False only
  /// when draining and no sample for this model remains queued.
  bool wait_for_work(util::MutexLock& lk, std::size_t model) DTSNN_REQUIRES(mu_);

  /// Drop pool slots whose request failed or was cancelled; cancelled ones
  /// are the "force-exit at the next timestep boundary" path. True when any
  /// slot was dropped.
  bool purge_dead_slots(Worker& w) DTSNN_REQUIRES(mu_);

  /// Admit via the scheduler into free pool slots; appends admitted sample
  /// indices for post-lock prefetching.
  void admit_waiting(Worker& w, std::vector<std::size_t>& admitted_samples)
      DTSNN_REQUIRES(mu_);

  /// True when the scheduler holds a sample this worker may take right now.
  [[nodiscard]] bool has_admissible(std::size_t model) const DTSNN_REQUIRES(mu_);

  void snapshot_counters(FleetStats& s, std::vector<double>& queue_window,
                         std::vector<double>& latency_window,
                         std::vector<std::vector<double>>& tenant_queue_windows,
                         std::vector<std::vector<double>>& tenant_latency_windows) const
      DTSNN_REQUIRES(mu_);

  std::vector<Model> models_;
  FleetConfig config_;
  TenantRegistry tenants_;
  SchedulerKind scheduler_kind_;
  ServeClock::time_point epoch_;  ///< deadline offsets are relative to this

  mutable util::Mutex mu_;
  util::Mutex drain_mu_;  ///< serializes drain() callers around the joins
  util::CondVar cv_workers_;
  std::unique_ptr<Scheduler> scheduler_ DTSNN_GUARDED_BY(mu_);
  bool draining_ DTSNN_GUARDED_BY(mu_) = false;
  std::uint64_t next_request_id_ DTSNN_GUARDED_BY(mu_) = 1;
  std::uint64_t next_seq_ DTSNN_GUARDED_BY(mu_) = 0;
  /// Live requests by id, for cancel(); erased when fully accounted.
  std::vector<std::shared_ptr<Pending>> live_requests_ DTSNN_GUARDED_BY(mu_);

  std::size_t submitted_requests_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t submitted_samples_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t completed_samples_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t failed_samples_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t cancelled_queued_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t cancelled_live_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t cancelled_requests_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t deadline_forced_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t deadline_missed_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t rejected_requests_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t live_samples_ DTSNN_GUARDED_BY(mu_) = 0;
  std::size_t peak_pool_ DTSNN_GUARDED_BY(mu_) = 0;
  /// Sized for real in the constructor once the models are validated.
  util::Histogram exit_hist_ DTSNN_GUARDED_BY(mu_){1};
  util::BoundedSampleWindow queue_waits_us_ DTSNN_GUARDED_BY(mu_){1};
  util::BoundedSampleWindow latencies_us_ DTSNN_GUARDED_BY(mu_){1};
  std::vector<TenantCounters> tenant_counters_ DTSNN_GUARDED_BY(mu_);

  /// Started last in the constructor (single-threaded), joined under
  /// drain_mu_.
  std::vector<util::Thread> workers_ DTSNN_GUARDED_BY(drain_mu_);
};

}  // namespace dtsnn::serve
