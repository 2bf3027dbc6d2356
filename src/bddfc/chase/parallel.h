// Parallel sharded round enumeration for the chase (ChaseEngine::kParallel
// at a resolved thread count above 1).
//
// One chase round fans out as independent scan tasks: for every rule and
// every delta anchor position, the anchor relation's delta is split into
// fixed-size row chunks (Structure::DeltaChunks) and each chunk becomes one
// ThreadPool task. Each task buffers its derivations into a private
// vectorized sink (round.h); the pool's Wait() is the round barrier, after
// which the tasks' sorted runs and trigger candidates merge in canonical
// order into the same RoundBuffer/ApplyRound path the serial round uses.
//
// Determinism: the task *set* depends only on the structure (watermarks +
// row counts + a fixed chunk size), never on the thread count; chunks
// partition the round's bindings exactly (each binding's grounded anchor
// row lies in exactly one chunk); and the merge keeps the TriggerLess-least
// candidate per trigger key regardless of arrival order. Hence the applied
// round — and therefore the whole run, including row order, null naming
// and provenance — is byte-identical to the serial round at any thread
// count.

#ifndef BDDFC_CHASE_PARALLEL_H_
#define BDDFC_CHASE_PARALLEL_H_

#include "bddfc/base/status.h"
#include "bddfc/base/thread_pool.h"
#include "bddfc/chase/round.h"

namespace bddfc {
namespace chase_internal {

/// Rows per sharded anchor chunk. Fixed (never derived from the thread
/// count) so the task decomposition — and with it every per-task stat —
/// is a function of the workload alone.
inline constexpr uint32_t kChunkRows = 1024;

/// Enumerates one round's derivations into `buf` using `pool`, blocking
/// until the round barrier. Returns the pool's aggregated task status:
/// non-OK means tasks were drained unrun (cancellation) and the round is
/// incomplete — the caller must discard it even if the context has not
/// latched a trip yet. Counters in buf->stats are summed across tasks;
/// buf->stats.round_ms holds one entry, the *maximum* task wall time of
/// the round (not the sum — shards overlap).
Status EnumerateRoundParallel(const RoundInputs& in, ThreadPool* pool,
                              RoundBuffer* buf);

}  // namespace chase_internal
}  // namespace bddfc

#endif  // BDDFC_CHASE_PARALLEL_H_
