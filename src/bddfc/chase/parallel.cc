#include "bddfc/chase/parallel.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bddfc/eval/exec.h"
#include "bddfc/obs/trace.h"

namespace bddfc {
namespace chase_internal {

// Each shard task buffers into a private VectorSink — no shared table in
// the enumeration loop — and finalizes it locally (sort-dedup + one bulk
// containment pass per predicate). The barrier then merges the tasks'
// sorted distinct runs, counting cross-run duplicates, and keep-min
// dedups the raw trigger candidates: the same totals and the same winners
// as the serial round, at any thread count.
Status EnumerateRoundParallel(const RoundInputs& in, ThreadPool* pool,
                              RoundBuffer* buf) {
  std::mutex mu;
  ChaseStats merged;
  std::vector<DatalogSinkBuffers::Run> runs;
  std::vector<std::pair<std::string, PendingExistential>> raw_triggers;
  std::atomic<size_t> fault_seq{0};

  for (size_t ri = 0; ri < in.theory.rules().size(); ++ri) {
    const Rule& rule = in.theory.rules()[ri];
    if (rule.IsExistential() && in.options.datalog_only) continue;
    for (size_t di = 0; di < rule.body.size(); ++di) {
      // An anchor whose old/new split is vacuous contributes no bindings:
      // skip it by inspecting the structure only, so the task set stays a
      // pure function of the workload, never of the thread count. (In
      // round 1 every watermark is 0, which kills all anchors but the
      // first — the full enumeration.)
      bool empty_prefix = false;
      for (size_t j = 0; j < di; ++j) {
        if (in.frozen.WatermarkRows(rule.body[j].pred) == 0) {
          empty_prefix = true;
          break;
        }
      }
      if (empty_prefix) continue;
      const PredId anchor_pred = rule.body[di].pred;
      for (const RowRange& chunk :
           in.frozen.DeltaChunks(anchor_pred, kChunkRows)) {
        // Shard by anchor predicate: one relation's scan homes on one
        // worker (cache-warm postings) and a skewed relation's chunk
        // backlog spreads by stealing.
        pool->Submit(
            static_cast<size_t>(anchor_pred), [&, ri, di, chunk]() -> Status {
              // Fail-stop fault site: the trip latches on the context and
              // ShouldStop drains the remaining tasks; returning OK keeps
              // the pool's own status channel for real cancellation. The
              // round-abort path discards the incomplete buffer.
              if (!in.ctx->CheckFault(faults::kPoolTask).ok()) {
                return Status::OK();
              }
              const auto start = std::chrono::steady_clock::now();
              obs::TraceSpan span(&in.ctx->tracer(), "chase.shard");
              ChaseStats local;
              Matcher witness(in.frozen);
              // The run-global oblivious `fired` set is not thread-safe, so
              // filtering moves to the barrier. Equivalent: a delta round
              // enumerates each (rule, binding) at most once, so keys are
              // unique within the round.
              VectorSink sink(in, &local, kSinkCompactTuples, &fault_seq,
                              /*defer_oblivious=*/true);
              const Rule& r = in.theory.rules()[ri];
              const std::vector<RowBand> bands =
                  AnchorBands(in.frozen, r, di, chunk.begin, chunk.end);
              EnumerateAnchorVectorized(in, ri, di, bands, witness, &sink,
                                        &local.match);
              auto task_runs = sink.TakeDatalogRuns();
              auto task_triggers = sink.TakeRawTriggers();
              span.set_detail("r" + std::to_string(ri) + " a" +
                              std::to_string(di) + " +" +
                              std::to_string(chunk.size()) + "@" +
                              std::to_string(chunk.begin));
              local.round_ms.push_back(
                  std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
              std::lock_guard<std::mutex> lock(mu);
              merged += local;  // counters sum; round_ms takes the max
              for (auto& run : task_runs) runs.push_back(std::move(run));
              for (auto& kv : task_triggers) {
                raw_triggers.push_back(std::move(kv));
              }
              return Status::OK();
            });
      }
    }
  }

  Status barrier = pool->Wait();

  // Canonical merge under the sink span: cross-run datalog dedup, keep-min
  // trigger dedup, then the deferred oblivious filter (keys fired in an
  // earlier round are dropped, new ones recorded).
  obs::TraceSpan span(&in.ctx->tracer(), "chase.sink");
  // Fail-stop fault site at the barrier merge; a fire latches the context
  // and the round-abort path in chase.cc discards the merged buffer.
  (void)in.ctx->CheckFault(faults::kSinkMerge);
  buf->stats = std::move(merged);
  MergeDatalogRuns(std::move(runs), in.fault == ChaseFault::kSinkDropDup,
                   &buf->datalog, &buf->stats.datalog_deduped);
  std::vector<std::pair<std::string, PendingExistential>> deduped;
  DedupTriggers(std::move(raw_triggers), &deduped,
                &buf->stats.triggers_deduped);
  if (in.options.oblivious) {
    buf->triggers.reserve(deduped.size());
    for (auto& kv : deduped) {
      if (in.fired->insert(kv.first).second) {
        buf->triggers.push_back(std::move(kv));
      }
    }
  } else {
    buf->triggers = std::move(deduped);
  }
  return barrier;
}

}  // namespace chase_internal
}  // namespace bddfc
