#include "serve/fleet.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/live_pool.h"
#include "snn/serialize.h"

namespace dtsnn::serve {

namespace {

double elapsed_us(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

/// One worker's live pool. Touched only by its own thread (the admission
/// helpers mutate it while holding mu_, but always on behalf of — and
/// called from — the owning worker).
struct ServingFleet::Worker {
  /// The payload of one pool row: whose sample it is.
  struct Slot {
    std::shared_ptr<Pending> owner;
    std::size_t request_index = 0;
    TenantId tenant = kDefaultTenant;
    ServeClock::time_point admitted_at;
  };

  Worker(std::size_t model_index, std::size_t pool_capacity, snn::SpikingNetwork& net)
      : model(model_index), max_pool(pool_capacity), pool(net) {}

  std::size_t model;
  std::size_t max_pool;
  core::LivePool<Slot> pool;
};

ServingFleet::ServingFleet(std::vector<FleetModel> models, FleetConfig config)
    : config_(std::move(config)),
      scheduler_kind_(resolve_scheduler_kind(config_.scheduler)),
      epoch_(ServeClock::now()) {
  if (models.empty()) throw std::invalid_argument("ServingFleet: no models");
  if (config_.max_queue == 0) throw std::invalid_argument("ServingFleet: max_queue == 0");
  if (config_.latency_window == 0) {
    throw std::invalid_argument("ServingFleet: latency_window == 0");
  }
  for (TenantSpec& spec : config_.tenants) tenants_.register_tenant(spec);
  scheduler_ = make_scheduler(scheduler_kind_, &tenants_);

  std::size_t max_budget = 1;
  for (std::size_t i = 0; i < models.size(); ++i) {
    FleetModel& m = models[i];
    if (m.name.empty()) m.name = "model" + std::to_string(i);
    const std::string who = "ServingFleet: model '" + m.name + "'";
    if (m.network == nullptr) throw std::invalid_argument(who + ": null network");
    if (m.dataset == nullptr) throw std::invalid_argument(who + ": null dataset");
    if (m.default_policy == nullptr) {
      throw std::invalid_argument(who + ": null default_policy");
    }
    if (m.max_timesteps == 0) throw std::invalid_argument(who + ": max_timesteps == 0");
    if (m.max_pool == 0) throw std::invalid_argument(who + ": max_pool == 0");
    if (m.workers == 0) throw std::invalid_argument(who + ": workers == 0");
    if (m.workers > 1 && !m.make_replica) {
      throw std::invalid_argument(who + ": workers > 1 needs a replica factory");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (models[j].name == m.name) {
        throw std::invalid_argument("ServingFleet: duplicate model name '" + m.name + "'");
      }
    }
    max_budget = std::max(max_budget, m.max_timesteps);
  }

  models_.reserve(models.size());
  for (FleetModel& spec : models) {
    Model m;
    m.spec = std::move(spec);
    if (!m.spec.gemm_backend.empty()) {
      // Per-model backend selection, resolved loudly at construction:
      // unknown / unavailable backends throw here, so a misconfigured model
      // never fails on a worker thread mid-request.
      const util::GemmBackend& backend =
          util::resolve_gemm_backend(m.spec.gemm_backend.c_str());
      m.gemm_context = std::make_unique<util::GemmContext>(backend);
      m.spec.network->set_gemm_context(m.gemm_context.get());
    }
    // Extra workers run on replicas with the trained (and any quantized)
    // weights stamped in; all of a model's networks share its context
    // (GemmContext is thread-safe for concurrent GEMM calls).
    for (std::size_t w = 1; w < m.spec.workers; ++w) {
      auto replica = std::make_unique<snn::SpikingNetwork>(m.spec.make_replica());
      snn::copy_network_state(*m.spec.network, *replica);
      if (m.gemm_context) replica->set_gemm_context(m.gemm_context.get());
      m.replicas.push_back(std::move(replica));
    }
    m.prefetcher = std::make_unique<data::ShardPrefetcher>(*m.spec.dataset);
    models_.push_back(std::move(m));
  }

  exit_hist_ = util::Histogram(max_budget);
  queue_waits_us_ = util::BoundedSampleWindow(config_.latency_window);
  latencies_us_ = util::BoundedSampleWindow(config_.latency_window);
  tenant_counters_.resize(tenants_.size());
  for (TenantCounters& tc : tenant_counters_) {
    tc.queue_us = std::make_unique<util::BoundedSampleWindow>(config_.latency_window);
    tc.latency_us = std::make_unique<util::BoundedSampleWindow>(config_.latency_window);
  }

  // Threads start last: everything above is immutable (or mu_-guarded) by
  // the time any worker can observe it.
  for (std::size_t mi = 0; mi < models_.size(); ++mi) {
    for (std::size_t w = 0; w < models_[mi].spec.workers; ++w) {
      snn::SpikingNetwork* net =
          w == 0 ? models_[mi].spec.network : models_[mi].replicas[w - 1].get();
      workers_.push_back(util::Thread([this, mi, net] { worker_loop(mi, *net); }));
    }
  }
}

ServingFleet::~ServingFleet() { drain(); }

void ServingFleet::drain() {
  {
    util::MutexLock lk(mu_);
    draining_ = true;
  }
  cv_workers_.notify_all();
  // Serialize concurrent drainers: joinable()/join() on one thread handle
  // from two threads is a race. mu_ cannot guard the joins (the workers
  // take it), hence the dedicated mutex.
  util::MutexLock lk(drain_mu_);
  for (util::Thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // No worker steps the networks anymore; release the base networks back to
  // the process default context ("after drain() the networks are free").
  for (Model& m : models_) {
    if (m.gemm_context) m.spec.network->set_gemm_context(nullptr);
  }
}

const std::string& ServingFleet::model_name(std::size_t model) const {
  if (model >= models_.size()) {
    throw std::out_of_range("ServingFleet::model_name: model " + std::to_string(model));
  }
  return models_[model].spec.name;
}

std::size_t ServingFleet::model_max_timesteps(std::size_t model) const {
  if (model >= models_.size()) {
    throw std::out_of_range("ServingFleet::model_max_timesteps: model " +
                            std::to_string(model));
  }
  return models_[model].spec.max_timesteps;
}

std::string ServingFleet::model_gemm_backend(std::size_t model) const {
  if (model >= models_.size()) {
    throw std::out_of_range("ServingFleet::model_gemm_backend: model " +
                            std::to_string(model));
  }
  return std::string(models_[model].spec.network->gemm_context().backend().name());
}

std::size_t ServingFleet::model_index(const std::string& name) const {
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (models_[i].spec.name == name) return i;
  }
  std::string known;
  for (const Model& m : models_) {
    known += known.empty() ? "'" + m.spec.name + "'" : ", '" + m.spec.name + "'";
  }
  throw std::invalid_argument("ServingFleet: unknown model '" + name +
                              "' (resident: " + known + ")");
}

Submission ServingFleet::submit(FleetRequest req) {
  const std::size_t model = req.model.empty() ? 0 : model_index(req.model);
  const Model& m = models_[model];
  if (!tenants_.contains(req.tenant)) {
    throw std::invalid_argument("ServingFleet::submit: unknown tenant id " +
                                std::to_string(req.tenant) + " (registered: " +
                                std::to_string(tenants_.size()) + ")");
  }
  core::InferenceRequest& r = req.request;
  if (r.samples.empty()) {
    r.samples.resize(m.spec.dataset->size());
    std::iota(r.samples.begin(), r.samples.end(), 0);
  }
  // Clear errors at the submission site: bounds and duplicates per the
  // shared core validator, and the budget override capped by the model's
  // budget so the exit histogram's bin count stays a fleet invariant.
  const std::size_t n_samples = core::validate_request_samples(
      r.samples, m.spec.dataset->size(), "ServingFleet::submit",
      /*allow_duplicates=*/false);
  const std::size_t budget = r.max_timesteps ? r.max_timesteps : m.spec.max_timesteps;
  if (budget > m.spec.max_timesteps) {
    throw std::invalid_argument("ServingFleet::submit: per-request max_timesteps " +
                                std::to_string(budget) + " exceeds model '" +
                                m.spec.name + "' budget " +
                                std::to_string(m.spec.max_timesteps));
  }

  auto pending = std::make_shared<Pending>();
  pending->model = model;
  pending->tenant = req.tenant;
  pending->policy = r.policy ? r.policy : m.spec.default_policy;
  pending->budget = budget;
  pending->record_logits = r.record_logits;
  pending->deadline = req.deadline;
  pending->on_result = std::move(req.on_result);
  pending->submit_time = ServeClock::now();
  pending->results.resize(n_samples);
  pending->remaining.store(n_samples, std::memory_order_relaxed);
  Submission out;
  out.results = pending->promise.get_future();

  // Scheduler key: the deadline as a microsecond offset from the fleet
  // epoch (EDF orders on it); already-elapsed deadlines clamp to 0.
  std::optional<std::uint64_t> deadline_us;
  if (req.deadline.has_value()) {
    const double us = elapsed_us(epoch_, *req.deadline);
    deadline_us = us > 0.0 ? static_cast<std::uint64_t>(us) : 0;
  }

  {
    util::MutexLock lk(mu_);
    if (draining_) {
      throw std::runtime_error("ServingFleet::submit: fleet is draining");
    }
    if (n_samples == 0) {
      // Nothing to run (an empty dataset expands to an empty request):
      // resolve now — workers only resolve promises as samples finish.
      pending->settled.store(true, std::memory_order_release);
      pending->promise.set_value({});
      out.handle.id = next_request_id_++;
      return out;
    }
    if (scheduler_->size() + n_samples > config_.max_queue) {
      throw std::runtime_error("ServingFleet::submit: admission queue full (" +
                               std::to_string(scheduler_->size()) +
                               " waiting, capacity " +
                               std::to_string(config_.max_queue) + ")");
    }
    const TenantSpec& ts = tenants_.spec(req.tenant);
    TenantCounters& tc = tenant_counters_[req.tenant];
    if (ts.max_queued > 0 && tc.queued + n_samples > ts.max_queued) {
      ++tc.rejected_requests;
      ++rejected_requests_;
      throw TenantQuotaError(
          req.tenant, "ServingFleet::submit: tenant '" + ts.name + "' over max_queued (" +
                          std::to_string(tc.queued) + " waiting + " +
                          std::to_string(n_samples) + " submitted > quota " +
                          std::to_string(ts.max_queued) + ")");
    }
    pending->id = next_request_id_++;
    out.handle.id = pending->id;
    for (std::size_t i = 0; i < n_samples; ++i) {
      QueuedSample unit;
      unit.owner = pending;
      unit.request_index = i;
      unit.sample = r.samples[i];
      unit.model = model;
      unit.tenant = req.tenant;
      unit.seq = next_seq_++;
      unit.deadline_us = deadline_us;
      scheduler_->push(std::move(unit));
    }
    ++submitted_requests_;
    submitted_samples_ += n_samples;
    tc.submitted_samples += n_samples;
    tc.queued += n_samples;
    live_requests_.push_back(std::move(pending));
  }
  cv_workers_.notify_all();
  return out;
}

bool ServingFleet::cancel(RequestHandle handle) {
  if (handle.id == 0) return false;
  std::shared_ptr<Pending> target;
  {
    util::MutexLock lk(mu_);
    for (const std::shared_ptr<Pending>& p : live_requests_) {
      if (p->id == handle.id) {
        target = p;
        break;
      }
    }
    if (!target) return false;
    if (target->settled.load(std::memory_order_acquire)) return false;
    target->cancelled.store(true, std::memory_order_release);
    ++cancelled_requests_;
    // Queued samples leave right now; residents force-exit at their
    // worker's next timestep boundary (purge_dead_slots), reported as
    // cancelled_live there.
    auto& counters = tenant_counters_;
    auto& cancelled_queued = cancelled_queued_;
    scheduler_->purge(
        [&](const QueuedSample& u) { return u.owner.get() == target.get(); },
        [&](QueuedSample& u) {
          TenantCounters& tc = counters[u.tenant];
          --tc.queued;
          ++tc.cancelled_queued;
          ++cancelled_queued;
        });
  }
  // Settle the future outside the lock (promise machinery can run
  // continuations); the exchange keeps it exactly-once against a racing
  // final delivery.
  if (!target->settled.exchange(true, std::memory_order_acq_rel)) {
    target->promise.set_exception(std::make_exception_ptr(
        CancelledError("ServingFleet: request " + std::to_string(handle.id) + " cancelled")));
  }
  cv_workers_.notify_all();
  return true;
}

FleetStats ServingFleet::stats() const {
  FleetStats s;
  std::vector<double> queue_window;
  std::vector<double> latency_window;
  std::vector<std::vector<double>> tenant_queue_windows;
  std::vector<std::vector<double>> tenant_latency_windows;
  {
    util::MutexLock lk(mu_);
    snapshot_counters(s, queue_window, latency_window, tenant_queue_windows,
                      tenant_latency_windows);
  }
  // Percentile sorts run outside the lock so a stats() poll never stalls
  // admission or completion publishing.
  s.queue_us = util::summarize_percentiles(queue_window);
  s.latency_us = util::summarize_percentiles(latency_window);
  for (std::size_t i = 0; i < s.tenants.size(); ++i) {
    s.tenants[i].queue_us = util::summarize_percentiles(tenant_queue_windows[i]);
    s.tenants[i].latency_us = util::summarize_percentiles(tenant_latency_windows[i]);
  }
  return s;
}

void ServingFleet::snapshot_counters(
    FleetStats& s, std::vector<double>& queue_window, std::vector<double>& latency_window,
    std::vector<std::vector<double>>& tenant_queue_windows,
    std::vector<std::vector<double>>& tenant_latency_windows) const {
  s.submitted_requests = submitted_requests_;
  s.submitted_samples = submitted_samples_;
  s.completed_samples = completed_samples_;
  s.failed_samples = failed_samples_;
  s.cancelled_queued_samples = cancelled_queued_;
  s.cancelled_live_samples = cancelled_live_;
  s.cancelled_requests = cancelled_requests_;
  s.deadline_forced_exits = deadline_forced_;
  s.deadline_missed = deadline_missed_;
  s.rejected_requests = rejected_requests_;
  s.queue_depth = scheduler_->size();
  s.live_samples = live_samples_;
  s.peak_pool = peak_pool_;
  s.exit_timesteps = exit_hist_;
  s.mean_exit_timestep = completed_samples_ ? exit_hist_.mean() + 1.0 : 0.0;
  queue_window = queue_waits_us_.snapshot();
  latency_window = latencies_us_.snapshot();
  s.tenants.resize(tenant_counters_.size());
  tenant_queue_windows.resize(tenant_counters_.size());
  tenant_latency_windows.resize(tenant_counters_.size());
  for (std::size_t i = 0; i < tenant_counters_.size(); ++i) {
    const TenantCounters& tc = tenant_counters_[i];
    TenantStats& ts = s.tenants[i];
    ts.name = tenants_.spec(static_cast<TenantId>(i)).name;
    ts.submitted_samples = tc.submitted_samples;
    ts.completed_samples = tc.completed_samples;
    ts.failed_samples = tc.failed_samples;
    ts.cancelled_queued_samples = tc.cancelled_queued;
    ts.cancelled_live_samples = tc.cancelled_live;
    ts.deadline_forced_exits = tc.deadline_forced;
    ts.deadline_missed = tc.deadline_missed;
    ts.rejected_requests = tc.rejected_requests;
    ts.queue_depth = tc.queued;
    ts.in_flight = tc.in_flight;
    tenant_queue_windows[i] = tc.queue_us->snapshot();
    tenant_latency_windows[i] = tc.latency_us->snapshot();
  }
}

bool ServingFleet::has_admissible(std::size_t model) const {
  const auto& counters = tenant_counters_;
  const TenantRegistry& tenants = tenants_;
  return scheduler_->any([&counters, &tenants, model](const QueuedSample& u) {
    if (u.model != model) return false;
    const TenantSpec& ts = tenants.spec(u.tenant);
    return ts.max_in_flight == 0 || counters[u.tenant].in_flight < ts.max_in_flight;
  });
}

bool ServingFleet::wait_for_work(util::MutexLock& lk, std::size_t model) {
  while (true) {
    if (has_admissible(model)) break;
    if (draining_) {
      // Drained for this worker only when nothing for its model remains
      // queued at all. Quota-blocked units don't end the loop: the pools
      // holding their tenant's in-flight samples will finish, decrement,
      // and notify.
      const bool any_for_model = scheduler_->any(
          [model](const QueuedSample& u) { return u.model == model; });
      if (!any_for_model) return false;
    }
    cv_workers_.wait(lk);
  }
  const std::size_t max_pool = models_[model].spec.max_pool;
  if (config_.admission_window.count() > 0 && scheduler_->size() < max_pool) {
    // Dynamic batching: an idle worker holds the first arrivals until its
    // pool would launch full or the window expires.
    const ServeClock::time_point deadline = ServeClock::now() + config_.admission_window;
    while (!draining_ && scheduler_->size() < max_pool) {
      if (cv_workers_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
  }
  return true;
}

bool ServingFleet::purge_dead_slots(Worker& w) {
  // The resident half of cancellation: a cancelled request's rows
  // force-exit at this timestep boundary and never step again. (A failed
  // request's rows would be discarded anyway — same reclamation.)
  const std::vector<Worker::Slot> dropped = w.pool.drop_if([](const Worker::Slot& s) {
    return s.owner->failed.load(std::memory_order_acquire) ||
           s.owner->cancelled.load(std::memory_order_acquire);
  });
  for (const Worker::Slot& slot : dropped) {
    TenantCounters& tc = tenant_counters_[slot.tenant];
    --tc.in_flight;
    if (slot.owner->failed.load(std::memory_order_acquire)) {
      ++failed_samples_;
      ++tc.failed_samples;
    } else {
      ++cancelled_live_;
      ++tc.cancelled_live;
    }
  }
  live_samples_ -= dropped.size();
  return !dropped.empty();
}

void ServingFleet::admit_waiting(Worker& w, std::vector<std::size_t>& admitted_samples) {
  const ServeClock::time_point now = ServeClock::now();
  const std::size_t model = w.model;
  auto& counters = tenant_counters_;
  const TenantRegistry& tenants = tenants_;
  const AdmissionFilter admissible = [&counters, &tenants, model](const QueuedSample& u) {
    if (u.model != model) return false;
    const TenantSpec& ts = tenants.spec(u.tenant);
    return ts.max_in_flight == 0 || counters[u.tenant].in_flight < ts.max_in_flight;
  };
  while (w.pool.size() < w.max_pool) {
    std::optional<QueuedSample> unit = scheduler_->pop(admissible);
    if (!unit.has_value()) break;
    auto owner = std::static_pointer_cast<Pending>(unit->owner);
    TenantCounters& tc = tenant_counters_[unit->tenant];
    --tc.queued;
    if (owner->failed.load(std::memory_order_acquire)) {
      // The request was already failed by a worker-side error; its promise
      // holds the exception, so its stragglers are discarded.
      ++failed_samples_;
      ++tc.failed_samples;
      continue;
    }
    if (owner->cancelled.load(std::memory_order_acquire)) {
      // cancel() purges queued units under mu_, so this only covers a unit
      // pushed-and-cancelled between our pop attempts; it never ran.
      ++cancelled_queued_;
      ++tc.cancelled_queued;
      continue;
    }
    const core::PoolAdmission rule{.sample = unit->sample,
                                   .policy = owner->policy,
                                   .budget = owner->budget,
                                   .record_logits = owner->record_logits};
    w.pool.admit(rule, {std::move(owner), unit->request_index, unit->tenant, now});
    ++tc.in_flight;
    ++live_samples_;
    admitted_samples.push_back(unit->sample);
  }
  peak_pool_ = std::max(peak_pool_, w.pool.size());
}

void ServingFleet::worker_loop(std::size_t model, snn::SpikingNetwork& net) {
  const Model& m = models_[model];
  const data::Dataset& dataset = *m.spec.dataset;
  Worker w(model, m.spec.max_pool, net);

  // Settle a request with `error` exactly once; its other samples are
  // discarded wherever they are (purged from pools, dropped at delivery).
  const auto fail_request = [](Pending& p, const std::exception_ptr& error) {
    p.failed.store(true, std::memory_order_release);
    if (!p.settled.exchange(true, std::memory_order_acq_rel)) {
      p.promise.set_exception(error);
    }
  };

  while (true) {
    // ---- Admission. Waiting samples fill free slots at every timestep
    // boundary, in scheduler-policy order; an idle worker first blocks for
    // work (and optionally holds the admission window).
    std::vector<std::size_t> admitted_samples;
    bool purged = false;
    {
      util::MutexLock lk(mu_);
      // Reclaim slots whose request failed or was cancelled since the last
      // boundary — the force-exit point of cancellation.
      purged = purge_dead_slots(w);
      if (w.pool.empty() && !wait_for_work(lk, model)) break;
      admit_waiting(w, admitted_samples);
    }
    // Purged slots released tenant in-flight quota: wake quota-blocked
    // siblings.
    if (purged) cv_workers_.notify_all();
    if (w.pool.empty()) continue;
    // Warm storage-backed datasets for the newly admitted samples outside
    // the admission lock, overlapping this cycle's pool step when the
    // background prefetcher is active.
    if (!admitted_samples.empty()) {
      if (m.prefetcher->active()) {
        m.prefetcher->enqueue(admitted_samples);
      } else {
        dataset.prefetch(admitted_samples);
      }
    }

    // ---- One timestep for the whole pool. The deadline is the caller's
    // force-exit rule, consulted after budget and policy, against one clock
    // read per step (taken at the first deadline check, after the step).
    std::optional<ServeClock::time_point> decided;
    const auto decided_at = [&decided] {
      if (!decided) decided = ServeClock::now();
      return *decided;
    };
    std::vector<core::LivePool<Worker::Slot>::Exit> exits;
    try {
      exits = w.pool.step(dataset, [&decided_at](const Worker::Slot& s) {
        return s.owner->deadline.has_value() && decided_at() >= *s.owner->deadline;
      });
    } catch (...) {
      // A network-step fault leaves this network's state indeterminate (a
      // frame encode fault fails only its own row, below), so every
      // resident trajectory on THIS worker is lost: fail their requests and
      // keep serving with a fresh pool. Other workers purge the failed
      // requests' slots at their next boundary.
      const std::exception_ptr error = std::current_exception();
      const std::vector<Worker::Slot> lost = w.pool.reset();
      for (const Worker::Slot& s : lost) fail_request(*s.owner, error);
      {
        util::MutexLock lk(mu_);
        failed_samples_ += lost.size();
        live_samples_ -= lost.size();
        for (const Worker::Slot& s : lost) {
          TenantCounters& tc = tenant_counters_[s.tenant];
          ++tc.failed_samples;
          --tc.in_flight;
        }
      }
      cv_workers_.notify_all();
      continue;
    }
    if (exits.empty()) continue;
    const ServeClock::time_point exited_at = decided_at();

    // A throwing exit policy or frame encode fails its own request only
    // (LivePool reports the row as a failed exit); fail it before delivery
    // so the request's other samples exiting this step are discarded with
    // it.
    for (const auto& x : exits) {
      if (x.reason == core::ExitReason::kFailed) fail_request(*x.payload.owner, x.error);
    }

    // Deliver outside the lock: callbacks first (streaming), then the
    // request future once its last sample has exited anywhere in the fleet
    // (remaining is the cross-worker rendezvous; each worker decrements
    // only after writing its disjoint results slots, so the finisher's
    // acquire sees them all). Samples of a failed or cancelled request are
    // discarded, not delivered.
    enum class Outcome : unsigned char { kDelivered, kFailed, kCancelled };
    std::vector<Outcome> outcomes(exits.size(), Outcome::kFailed);
    std::vector<std::size_t> exit_timesteps(exits.size());
    for (std::size_t i = 0; i < exits.size(); ++i) {
      core::InferenceResult& result = exits[i].result;
      Pending& p = *exits[i].payload.owner;
      exit_timesteps[i] = result.exit_timestep;
      if (p.failed.load(std::memory_order_acquire)) continue;
      if (p.cancelled.load(std::memory_order_acquire)) {
        outcomes[i] = Outcome::kCancelled;
        continue;
      }
      result.request_index = exits[i].payload.request_index;
      try {
        if (p.on_result) p.on_result(result);
        p.results[result.request_index] = std::move(result);
        if (p.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (!p.settled.exchange(true, std::memory_order_acq_rel)) {
            p.promise.set_value(std::move(p.results));
          }
        }
        outcomes[i] = Outcome::kDelivered;
      } catch (...) {
        // A throwing result callback fails its own request only.
        fail_request(p, std::current_exception());
      }
    }
    // Only delivered results enter the stats: completed, failed, and
    // cancelled samples partition the submitted ones, and discarded work
    // never skews the latency digests or the exit histogram.
    {
      util::MutexLock lk(mu_);
      for (std::size_t i = 0; i < exits.size(); ++i) {
        const Worker::Slot& slot = exits[i].payload;
        const Pending& p = *slot.owner;
        TenantCounters& tc = tenant_counters_[slot.tenant];
        --tc.in_flight;
        if (outcomes[i] == Outcome::kFailed) {
          ++failed_samples_;
          ++tc.failed_samples;
          continue;
        }
        if (outcomes[i] == Outcome::kCancelled) {
          ++cancelled_live_;
          ++tc.cancelled_live;
          continue;
        }
        ++completed_samples_;
        ++tc.completed_samples;
        if (exits[i].reason == core::ExitReason::kForced) {
          ++deadline_forced_;
          ++tc.deadline_forced;
        }
        if (p.deadline && exited_at >= *p.deadline) {
          ++deadline_missed_;
          ++tc.deadline_missed;
        }
        const double queue_wait_us = elapsed_us(p.submit_time, slot.admitted_at);
        const double latency_us = elapsed_us(p.submit_time, exited_at);
        exit_hist_.add(exit_timesteps[i] - 1);
        queue_waits_us_.add(queue_wait_us);
        latencies_us_.add(latency_us);
        tc.queue_us->add(queue_wait_us);
        tc.latency_us->add(latency_us);
      }
      live_samples_ -= exits.size();
      exits.clear();  // release this step's request references
      // Fully settled requests with no remaining references anywhere in the
      // fleet can leave the cancellation index.
      live_requests_.erase(
          std::remove_if(live_requests_.begin(), live_requests_.end(),
                         [](const std::shared_ptr<Pending>& p) {
                           return p->settled.load(std::memory_order_acquire) &&
                                  p.use_count() == 1;
                         }),
          live_requests_.end());
    }
    // Completions freed pool slots and tenant quota: wake waiting workers.
    cv_workers_.notify_all();
  }
}

}  // namespace dtsnn::serve
