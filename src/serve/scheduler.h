// Admission scheduling policies for the serving layer.
//
// The serving fleet keeps every waiting sample in one admission structure;
// whenever a worker has a free pool slot it asks the scheduler which sample
// to admit next. The policy decides *order only* — per-sample decisions
// (prediction, exit timestep, entropy, logits) are bitwise identical to the
// batch-1 oracle regardless of admission order, so schedulers trade tail
// latency and fairness, never correctness.
//
// Three shipped policies:
//
//   fifo           Strict arrival order (the pre-fleet single-server
//                  behavior). Head-of-line: one slow class delays everyone.
//   edf            Earliest-deadline-first: deadline-bound requests are
//                  admitted by absolute deadline; requests without a
//                  deadline run after every deadline-bound one, in arrival
//                  order. The policy for SLO traffic.
//   weighted_fair  Start-time weighted fair queuing across tenant classes:
//                  each tenant accrues virtual time 1/weight per admitted
//                  sample, and the backlogged tenant with the least virtual
//                  time goes next (FIFO within a tenant). A bulk tenant can
//                  saturate its own share but never starve the others.
//
// Selection: FleetConfig carries a policy name; an empty name
// defers to the DTSNN_SERVE_SCHEDULER environment knob (util::env_string),
// and an unset knob means fifo. Unknown names throw, loudly, at
// construction.
//
// Schedulers are NOT thread-safe: the owning fleet calls them only
// under its admission mutex.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "serve/tenant.h"

namespace dtsnn::serve {

enum class SchedulerKind { kFifo, kEdf, kWeightedFair };

/// Canonical policy name ("fifo", "edf", "weighted_fair").
std::string_view scheduler_kind_name(SchedulerKind kind);

/// Parse a policy name; throws std::invalid_argument naming the accepted
/// forms on anything else.
SchedulerKind scheduler_kind_from_name(std::string_view name);

/// Resolve the effective policy: a non-empty `configured` name wins, else
/// the DTSNN_SERVE_SCHEDULER environment variable, else fifo. Malformed
/// values throw std::invalid_argument naming their origin.
SchedulerKind resolve_scheduler_kind(const std::string& configured);

/// One queued sample, carrying exactly the metadata scheduling policies
/// order by. `owner` is the opaque per-request state of the owning
/// server/fleet (type-erased so the scheduler layer depends on neither).
struct QueuedSample {
  std::shared_ptr<void> owner;
  std::size_t request_index = 0;  ///< position within the owning request
  std::size_t sample = 0;         ///< dataset sample index
  std::size_t model = 0;          ///< fleet model index (0 for one model)
  TenantId tenant = kDefaultTenant;
  std::uint64_t seq = 0;          ///< global admission sequence (FIFO ties)
  /// Absolute deadline in microseconds since the owning server's epoch;
  /// nullopt = not deadline-bound. (A plain integer rather than a
  /// time_point so scheduling order is a pure function of the queue.)
  std::optional<std::uint64_t> deadline_us;
};

/// Predicate a worker passes to pop(): which queued samples it can admit
/// right now (its own model, tenant in-flight quota not exhausted, ...).
using AdmissionFilter = std::function<bool(const QueuedSample&)>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual void push(QueuedSample unit) = 0;

  /// Remove and return the policy's next admissible sample — the first one,
  /// in policy order, for which `admissible` is true — or nullopt when no
  /// queued sample passes the filter.
  virtual std::optional<QueuedSample> pop(const AdmissionFilter& admissible) = 0;

  /// Remove every queued sample matching `victim` (request cancellation,
  /// failed-request purge); returns how many were removed. Removal order is
  /// unspecified; the removed units are handed back for accounting.
  virtual std::size_t purge(const std::function<bool(const QueuedSample&)>& victim,
                            const std::function<void(QueuedSample&)>& on_removed) = 0;

  /// True when any queued sample passes the filter (a worker's wait
  /// predicate).
  [[nodiscard]] virtual bool any(const AdmissionFilter& admissible) const = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] virtual SchedulerKind kind() const = 0;
  [[nodiscard]] std::string_view name() const { return scheduler_kind_name(kind()); }
};

/// Build a scheduler. `tenants` supplies weighted_fair's weights (borrowed;
/// must outlive the scheduler); fifo/edf ignore it, and weighted_fair with
/// a null registry treats every tenant as weight 1.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          const TenantRegistry* tenants = nullptr);

}  // namespace dtsnn::serve
