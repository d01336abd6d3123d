// Serving demo: a two-tenant DT-SNN inference service under live traffic.
//
// Trains a small model, starts a one-model serve::ServingFleet with the EDF
// scheduler and two tenant classes — a deadline-bound "interactive" tenant
// and a quota-limited "bulk" tenant — then drives both from concurrent
// client threads. The demo shows the scheduler subsystem end to end:
// earliest-deadline-first admission pulls interactive work past queued bulk
// batches, the bulk tenant's max_queued quota bounces over-eager
// submissions with a typed TenantQuotaError (the client backs off and
// retries), one bulk request is cancelled mid-flight through its
// RequestHandle, and the run closes with per-tenant latency/quota/exit
// statistics.

#include <chrono>
#include <cstdio>
#include <future>
#include <thread>  // std::this_thread::sleep_for (arrival pacing only)
#include <vector>

#include "core/evaluator.h"
#include "serve/fleet.h"
#include "util/sync.h"
#include "util/thread.h"

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
  const auto& ds = *e.bundle.test;

  const core::EntropyExitPolicy default_policy(0.3);
  serve::FleetModel model;
  model.network = &e.net;
  model.dataset = &ds;
  model.default_policy = &default_policy;
  model.max_timesteps = spec.timesteps;
  model.max_pool = 4;  // small pool: admission order is visible in the output
  serve::FleetConfig config;
  config.scheduler = "edf";
  config.tenants.push_back({.name = "interactive", .weight = 4.0});
  config.tenants.push_back({.name = "bulk", .weight = 1.0, .max_queued = 8});
  const serve::TenantId interactive = 1;
  const serve::TenantId bulk = 2;
  serve::ServingFleet server({model}, config);

  const std::string kind{serve::scheduler_kind_name(server.scheduler_kind())};
  std::printf("Serving with theta=0.30, scheduler=%s, pool=%zu, budget T=%zu.\n"
              "Tenants: interactive (deadline-bound), bulk (max_queued=8).\n\n",
              kind.c_str(), model.max_pool, server.model_max_timesteps(0));

  util::Mutex print_mu;
  const auto t0 = serve::ServeClock::now();
  auto say = [&](const char* format, auto... args) {
    const double ms =
        std::chrono::duration<double, std::milli>(serve::ServeClock::now() - t0)
            .count();
    util::MutexLock lk(print_mu);
    std::printf("  [%7.2f ms] ", ms);
    std::printf(format, args...);
  };
  auto streamer = [&](const char* client) {
    return [&, client](const core::InferenceResult& r) {
      say("%s: sample %3zu -> class %zu, exited t=%zu (entropy %.3f)\n", client,
          r.sample, r.predicted_class, r.exit_timestep, r.final_entropy);
    };
  };

  // Interactive tenant: small paced requests, each with a 40ms deadline.
  // Under EDF these overtake any bulk batch still waiting for admission.
  util::Thread client_a([&] {
    std::vector<std::future<std::vector<core::InferenceResult>>> futs;
    for (std::size_t i = 0; i < 8; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      serve::FleetRequest req;
      req.request.samples.push_back(3 * i);
      req.tenant = interactive;
      req.deadline = serve::ServeClock::now() + std::chrono::milliseconds(40);
      req.on_result = streamer("interactive");
      futs.push_back(server.submit(std::move(req)).results);
    }
    for (auto& f : futs) f.wait();
  });

  // Bulk tenant: fires batches as fast as it can. The 8-sample max_queued
  // quota bounces the excess with a typed error; the client backs off and
  // retries — backpressure lands on the greedy tenant, not the fleet.
  util::Thread client_b([&] {
    std::vector<std::future<std::vector<core::InferenceResult>>> futs;
    std::size_t rejections = 0;
    for (std::size_t batch = 0; batch < 4; ++batch) {
      while (true) {
        // Rebuilt per attempt: submit() consumes the request even when the
        // quota bounces it.
        serve::FleetRequest req;
        for (std::size_t s = 0; s < 6; ++s) {
          req.request.samples.push_back(100 + 6 * batch + s);
        }
        req.tenant = bulk;
        req.on_result = streamer("bulk       ");
        try {
          futs.push_back(server.submit(std::move(req)).results);
          break;
        } catch (const serve::TenantQuotaError& err) {
          if (++rejections == 1) say("bulk        quota rejection: %s\n", err.what());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    }
    say("bulk        saw %zu quota rejection(s) while submitting\n", rejections);
    for (auto& f : futs) f.wait();
  });

  // Cancellation: submit one more bulk batch through a handle, then revoke
  // it — queued samples are purged, resident ones force-exit at the next
  // timestep boundary, and the future fails with CancelledError.
  client_a.join();
  client_b.join();
  serve::FleetRequest doomed;
  for (std::size_t s = 140; s < 146; ++s) doomed.request.samples.push_back(s);
  doomed.tenant = bulk;
  serve::Submission sub = server.submit(std::move(doomed));
  const bool cancelled = server.cancel(sub.handle);
  say("bulk        cancelled request #%llu: %s\n",
      static_cast<unsigned long long>(sub.handle.id), cancelled ? "yes" : "no");
  try {
    sub.results.get();
  } catch (const serve::CancelledError& err) {
    say("bulk        future failed as expected: %s\n", err.what());
  }
  server.drain();

  const serve::FleetStats stats = server.stats();
  std::printf("\nServer stats (gemm backend: %s):\n", server.model_gemm_backend(0).c_str());
  std::printf("  requests %zu, samples %zu served, %zu deadline-forced exits\n",
              stats.submitted_requests, stats.completed_samples,
              stats.deadline_forced_exits);
  std::printf("  cancelled: %zu requests (%zu queued + %zu live samples), "
              "rejected: %zu requests\n",
              stats.cancelled_requests, stats.cancelled_queued_samples,
              stats.cancelled_live_samples, stats.rejected_requests);
  std::printf("  exit timesteps: %s (mean %.2f)\n",
              stats.exit_timesteps.to_string().c_str(), stats.mean_exit_timestep);
  std::printf("  latency  p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, p99.9 %.2f ms\n",
              stats.latency_us.p50 / 1000.0, stats.latency_us.p95 / 1000.0,
              stats.latency_us.p99 / 1000.0, stats.latency_us.p999 / 1000.0);
  std::printf("  peak pool occupancy %zu / %zu\n", stats.peak_pool, model.max_pool);
  for (const serve::TenantStats& t : stats.tenants) {
    if (t.submitted_samples == 0 && t.rejected_requests == 0) continue;
    std::printf("  tenant %-12s %4zu served, %2zu deadline-missed, %2zu "
                "rejected, p99 %.2f ms\n",
                t.name.c_str(), t.completed_samples, t.deadline_missed,
                t.rejected_requests, t.latency_us.p99 / 1000.0);
  }
  return 0;
}
