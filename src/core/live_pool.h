// The live pool: DT-SNN's per-sample early-exit loop over a batch.
//
// Every stepping consumer of a network — BatchedSequentialEngine and each
// ServingFleet worker — runs the same loop over a pool of samples, each at
// its own timestep: encode every row's next frame, step the network once for
// the whole pool, fold the step's logits into each row's cumulative mean,
// and apply the exit rule per row (Eq. 8). LivePool is the one owner of that
// loop. Callers only decide which samples to admit and what to do with the
// exits.
//
//   admit(rule, payload)   append a row: dataset sample, exit policy,
//                          timestep budget, record flag, caller payload
//   step(dataset[, force]) one timestep for every row; returns the rows that
//                          exited, in batch-position order
//   drop_if(pred)          remove rows without stepping them (cancellation)
//   reset()                drop every row and the network state (a fault)
//
// Decision order per row: budget exhaustion, then the row's exit policy
// (consulted only below the budget, exactly as on the batch-1 oracle), then
// the caller's force-exit predicate (the fleet's deadline). A policy that
// throws, or a frame encode that throws, fails only its own row
// (ExitReason::kFailed); co-resident rows keep stepping. LivePool reads no
// clock, so its decisions are a function of the rows' own logits, budgets
// and the caller's predicate.
//
// The network state is reconciled with the rows once per step, just before
// it: survivors keep their LIF rows in order and admissions become fresh
// zero-state rows (snn::Layer::kFreshRow). Per-row trajectories therefore
// never depend on the pool's composition, and every exit is bitwise
// identical to SequentialEngine on the same sample, policy and budget.
//
// A pool steps either the whole network or one row window of it:
//
//   LivePool(net)                    every row of the network's step state:
//                                    a fresh begin_inference when the pool
//                                    has drained, the state grown with the
//                                    rows, and each op one OpenMP loop.
//   LivePool(net, offset, capacity)  rows [offset, offset + capacity) of the
//                                    state begin_inference already sized.
//                                    It writes no member of the network, so
//                                    pools over disjoint windows of one
//                                    network step concurrently, one thread
//                                    each, inside one OpenMP region whose
//                                    nested op loops run on one thread
//                                    (BatchedSequentialEngine).
//
// A pool encodes its rows' frames as one OpenMP loop over rows
// (Dataset::write_frame is thread-safe under const access), except on the
// step that begins an inference sequence, which encodes serially. Each row
// writes only
// its own frame, into a buffer the pool keeps, so the step input does not
// depend on the thread count.

#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "snn/network.h"

namespace dtsnn::core {

/// Why a row left the pool.
enum class ExitReason : unsigned char {
  kBudget,  ///< ran its whole timestep budget
  kPolicy,  ///< its exit policy fired below the budget
  kForced,  ///< the caller's force-exit predicate claimed it
  kFailed,  ///< its exit policy or frame encode threw (carried by the exit)
};

/// The exit rule of one admitted sample.
struct PoolAdmission {
  std::size_t sample = 0;              ///< dataset sample index
  const ExitPolicy* policy = nullptr;  ///< non-null; must outlive the row
  std::size_t budget = 0;              ///< > 0
  bool record_logits = false;
};

namespace detail {

/// The payload-independent half of LivePool (live_pool.cpp): rows' exit
/// rules, timesteps, accumulators and logit histories, plus the network
/// state reconciliation.
class LivePoolRows {
 public:
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

 protected:
  /// capacity 0: the whole network; else the window at `offset`.
  LivePoolRows(snn::SpikingNetwork& net, std::size_t offset, std::size_t capacity);

  /// Append a row; throws std::invalid_argument on a null policy, a zero
  /// budget or a full window.
  void push_row(const PoolAdmission& admission);
  /// Reconcile the network state with the rows, encode each row's next
  /// frame, and step the network once. Returns the [rows, K] logits, valid
  /// until the next step. Throws std::invalid_argument when the dataset's
  /// frames do not have the network's sample shape.
  [[nodiscard]] const float* forward(const data::Dataset& dataset);
  /// Fold row j's logits into its cumulative mean, then apply its budget
  /// and policy. nullopt means the row stays; a throwing policy, or a throw
  /// from the row's frame encode in the last forward(), yields kFailed with
  /// the exception in `error`.
  std::optional<ExitReason> decide(std::size_t j, const float* logits,
                                   std::exception_ptr& error);
  /// The exit quantities of row j at the timestep decide() just ran.
  [[nodiscard]] InferenceResult exit_result(std::size_t j, ExitReason reason);
  /// Remove the rows flagged in leaving_, keeping order; `stepped` advances
  /// the survivors to their next timestep.
  void retire(bool stepped);
  void clear_rows();

  [[nodiscard]] std::size_t classes() const { return classes_; }

  /// Rows flagged to leave at the current step() / drop_if().
  std::vector<unsigned char> leaving_;

 private:
  struct Row {
    PoolAdmission rule;
    std::size_t t = 0;           ///< this row's current (0-based) timestep
    std::vector<float> history;  ///< cumulative-mean trajectory when recording
  };

  [[nodiscard]] bool windowed() const { return capacity_ != 0; }

  snn::SpikingNetwork& net_;
  std::size_t classes_;
  std::size_t offset_;    ///< the window's first row (0 for the whole network)
  std::size_t capacity_;  ///< the window's rows; 0 for the whole network
  std::size_t frame_numel_;
  std::vector<float> frames_;  ///< the step input, one frame per row
  std::vector<Row> rows_;
  std::vector<double> acc_;  ///< [rows, K] accumulators, the oracle's arithmetic
  std::vector<float> cum_;   ///< cumulative-mean row of the last decide()
  /// Per row, its row in the network's inference state (kFreshRow for an
  /// admission not yet stepped).
  std::vector<std::size_t> keep_;
  /// Per row, the exception its frame encode threw in the last forward().
  std::vector<std::exception_ptr> encode_errors_;
  std::size_t held_ = 0;     ///< rows the network state holds for this pool
  bool active_ = false;      ///< the network holds inference state for keep_
  bool reconciled_ = false;  ///< keep_ is the identity over that state
};

}  // namespace detail

/// A live pool whose rows each carry a caller `Payload` (a request position,
/// a serving slot), moved along with its row and handed back when the row
/// exits or is dropped.
template <typename Payload>
class LivePool : public detail::LivePoolRows {
 public:
  struct Exit {
    /// make_exit_result quantities plus `sample`; request_index is the
    /// caller's. A kFailed exit carries only sample and exit_timestep.
    InferenceResult result;
    Payload payload{};
    ExitReason reason = ExitReason::kBudget;
    std::exception_ptr error;  ///< kFailed only
  };

  /// The pool steps `net` (exclusively) for its lifetime.
  explicit LivePool(snn::SpikingNetwork& net) : LivePoolRows(net, 0, 0) {}

  /// The pool steps rows [offset, offset + capacity) of `net`'s step state,
  /// which net.begin_inference() must have sized to cover them, and admits
  /// at most `capacity` rows. It allocates its buffers here, so stepping it
  /// allocates only small per-exit results. Throws std::invalid_argument
  /// for a zero capacity.
  LivePool(snn::SpikingNetwork& net, std::size_t offset, std::size_t capacity)
      : LivePoolRows(net, offset, capacity) {
    if (capacity == 0) throw std::invalid_argument("LivePool: zero window capacity");
    payloads_.reserve(capacity);
  }

  void admit(const PoolAdmission& admission, Payload payload) {
    push_row(admission);
    payloads_.push_back(std::move(payload));
  }

  /// One timestep for every row; `force_exit(payload)` is asked about rows
  /// that neither their budget nor their policy claimed. Returns the exits
  /// in batch-position order. If it throws (a dataset of the wrong frame
  /// shape, the network step), no row has left and the caller must reset()
  /// before stepping again.
  template <typename ForceExit>
  std::vector<Exit> step(const data::Dataset& dataset, ForceExit&& force_exit) {
    std::vector<Exit> exits;
    if (empty()) return exits;
    const float* y = forward(dataset);
    const std::size_t k = classes();
    leaving_.assign(size(), 0);
    for (std::size_t j = 0; j < size(); ++j) {
      std::exception_ptr error;
      std::optional<ExitReason> reason = decide(j, y + j * k, error);
      if (!reason && force_exit(std::as_const(payloads_[j]))) reason = ExitReason::kForced;
      if (!reason) continue;
      Exit& e = exits.emplace_back();
      e.result = exit_result(j, *reason);
      e.reason = *reason;
      e.error = std::move(error);
      leaving_[j] = 1;
    }
    // Payloads move only once every decision stands, so a throw above
    // leaves every row (and its payload) in place for reset().
    std::size_t next = 0;
    for (std::size_t j = 0; j < size(); ++j) {
      if (leaving_[j]) exits[next++].payload = std::move(payloads_[j]);
    }
    retire_payloads(/*stepped=*/true);
    return exits;
  }

  std::vector<Exit> step(const data::Dataset& dataset) {
    return step(dataset, [](const Payload&) { return false; });
  }

  /// Remove the rows whose payload satisfies `pred` before the next step;
  /// survivors keep their state. Returns the removed payloads in row order.
  template <typename Pred>
  std::vector<Payload> drop_if(Pred&& pred) {
    std::vector<Payload> dropped;
    leaving_.assign(size(), 0);
    for (std::size_t j = 0; j < size(); ++j) {
      leaving_[j] = pred(std::as_const(payloads_[j])) ? 1 : 0;
    }
    for (std::size_t j = 0; j < size(); ++j) {
      if (leaving_[j]) dropped.push_back(std::move(payloads_[j]));
    }
    if (!dropped.empty()) retire_payloads(/*stepped=*/false);
    return dropped;
  }

  /// Drop every row and the network state; the next admission begins a
  /// fresh inference sequence. Returns the removed payloads in row order.
  std::vector<Payload> reset() {
    std::vector<Payload> dropped = std::move(payloads_);
    payloads_.clear();
    clear_rows();
    return dropped;
  }

 private:
  void retire_payloads(bool stepped) {
    std::size_t dst = 0;
    for (std::size_t j = 0; j < payloads_.size(); ++j) {
      if (leaving_[j]) continue;
      if (dst != j) payloads_[dst] = std::move(payloads_[j]);
      ++dst;
    }
    payloads_.resize(dst);
    retire(stepped);
  }

  std::vector<Payload> payloads_;
};

}  // namespace dtsnn::core
