#include "bddfc/chase/supervisor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "bddfc/base/thread_pool.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {
namespace {

/// One rung of the degradation ladder: a label for reports plus the
/// option change it applies. Rungs apply cumulatively, most-likely-culprit
/// first (the thread pool, then every fast path at once), and each
/// preserves byte-identity.
struct Rung {
  const char* name;
  void (*apply)(ChaseOptions*);
};

std::vector<Rung> BuildLadder(const ChaseOptions& options) {
  std::vector<Rung> rungs;
  if (options.engine == ChaseEngine::kNaive) return rungs;
  const size_t threads =
      options.threads != 0 ? options.threads : ThreadPool::DefaultThreads();
  if (threads > 1) {
    rungs.push_back({"serial", [](ChaseOptions* o) { o->threads = 1; }});
  }
  // The reference engine: interpretive Matcher and hash sink, no compiled
  // plans, no vectorized sink, no sorted-index refresh.
  rungs.push_back(
      {"naive", [](ChaseOptions* o) { o->engine = ChaseEngine::kNaive; }});
  return rungs;
}

}  // namespace

SupervisedChase RunChaseSupervised(const Theory& theory,
                                   const Structure& instance,
                                   const ChaseOptions& chase_options,
                                   const SupervisorOptions& sup_options) {
  // The attempts need a parent to hang child contexts off; an ungoverned
  // caller gets a local one (no deadline, no limits — pure isolation).
  ExecutionContext local_parent;
  ExecutionContext* parent = sup_options.context != nullptr
                                 ? sup_options.context
                                 : chase_options.context != nullptr
                                       ? chase_options.context
                                       : &local_parent;

  const std::vector<Rung> ladder = BuildLadder(chase_options);
  ChaseOptions attempt_options = chase_options;
  size_t next_rung = 0;

  SupervisedChase out{ChaseResult(instance.signature_ptr()), 0, {}, false};
  // The run's registry, not the process-wide one: the per-retry Reset below
  // must only wipe THIS run's counters. With the global registry a retry in
  // one request erased every concurrent request's series.
  obs::MetricsRegistry& metrics = ContextMetrics(parent);

  for (size_t attempt = 0;; ++attempt) {
    // Attempt isolation: fresh child context (fault latches die with it)
    // and a signature mark so an aborted attempt's invented nulls roll
    // back — the retry then reproduces the fault-free run's TermIds.
    const Signature::Mark mark = instance.signature_ptr()->TakeMark();
    std::unique_ptr<ExecutionContext> child =
        parent->CreateChild(sup_options.child_memory_limit);
    attempt_options.context = child.get();

    out.result = RunChase(theory, instance, attempt_options);
    out.attempts = attempt + 1;

    // Only kInternal (injected fault / paranoia trip) is retryable: a
    // budget exhaustion is a correct partial answer and a semantic error
    // would fail identically on every rung.
    if (out.result.status.code() != StatusCode::kInternal) {
      out.recovered = attempt > 0;
      break;
    }
    if (attempt >= sup_options.max_retries || parent->Exhausted()) break;
    double backoff = std::min(
        sup_options.backoff_ms * static_cast<double>(uint64_t{1} << attempt),
        sup_options.max_backoff_ms);
    if (parent->has_deadline()) {
      const double remaining = parent->RemainingMs();
      if (remaining <= 0) break;
      backoff = std::min(backoff, remaining / 4.0);
    }

    // Discard the failed attempt before rolling the signature back: the
    // result's structure references the ids being forgotten.
    out.result = ChaseResult(instance.signature_ptr());
    instance.signature_ptr()->RollbackTo(mark);

    // A recovered run should publish one clean set of counters — wipe
    // whatever the failed attempt published. The supervisor's own series
    // is published once, after the loop, so it survives this reset.
    if (metrics.enabled()) metrics.Reset();

    std::string degraded;
    if (next_rung < ladder.size()) {
      ladder[next_rung].apply(&attempt_options);
      degraded = ladder[next_rung].name;
      out.degradations.emplace_back(degraded);
      ++next_rung;
    }

    obs::TraceSpan span(&parent->tracer(), "supervisor.retry");
    std::string note = "attempt " + std::to_string(attempt + 2) +
                       (degraded.empty() ? std::string()
                                         : ", degraded: " + degraded) +
                       ", backoff " + std::to_string(backoff) + "ms";
    span.set_detail(note);
    parent->NotePhase("supervisor.retry", std::move(note));
    if (backoff > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
  }

  if (metrics.enabled()) {
    if (out.attempts > 1) {
      metrics.GetCounter("bddfc.supervisor.retries")->Add(out.attempts - 1);
    }
    if (!out.degradations.empty()) {
      metrics.GetCounter("bddfc.supervisor.degradations")
          ->Add(out.degradations.size());
    }
    if (out.recovered) {
      metrics.GetCounter("bddfc.supervisor.recoveries")->Add(1);
    }
    if (out.result.status.code() == StatusCode::kInternal) {
      metrics.GetCounter("bddfc.supervisor.gave_up")->Add(1);
    }
  }
  return out;
}

}  // namespace bddfc
