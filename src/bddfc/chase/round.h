// Internal round machinery shared by the chase engines (chase.cc,
// parallel.cc): trigger canonicalization, per-binding buffering, the
// vectorized round sink, and the canonical round application that makes
// every engine's output byte-identical.
//
// Determinism design. Within a round, body bindings may be enumerated in
// any order — the serial round follows the join order the plan (or, under
// kNaive, the matcher) picks, the parallel round additionally splits delta
// anchors into row chunks, which changes the discovery order.
// Byte-identical results therefore cannot rely on discovery order
// anywhere. Instead:
//
//   * buffered datalog additions are a *set*; ApplyRound inserts them
//     sorted by (predicate, argument tuple);
//   * pending existential triggers are keyed by the canonical PatternKey;
//     per key the TriggerLess-least candidate wins (not the first
//     discovered), and ApplyRound fires keys in sorted order — so null
//     invention order, null provenance, and row order are all functions of
//     the round's *set* of derivations;
//   * the dedup counters are occurrence counts minus distinct counts,
//     which are order-independent too.
//
// The headers under chase/ expose this as an implementation detail, not
// API: only chase.cc and parallel.cc include it.

#ifndef BDDFC_CHASE_ROUND_H_
#define BDDFC_CHASE_ROUND_H_

#include <atomic>
#include <cassert>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/eval/plan.h"

namespace bddfc {
namespace chase_internal {

/// A pending existential trigger: the rule's head with frontier variables
/// grounded and existential variables still symbolic. Keyed for per-round
/// deduplication (one witness per demanded head pattern).
struct PendingExistential {
  int rule_index;
  std::vector<Atom> head_pattern;    // grounded except existential vars
  std::vector<TermId> existentials;  // the symbolic witness variables
};

/// Canonical "which same-key trigger wins" order: least (rule index, head
/// pattern, existential list). Any total order works for correctness —
/// same-key triggers demand the same witnesses up to renaming — but a
/// *value* order makes the winner independent of enumeration order, which
/// keep-first was not.
inline bool TriggerLess(const PendingExistential& a,
                        const PendingExistential& b) {
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  if (a.head_pattern != b.head_pattern) return a.head_pattern < b.head_pattern;
  return a.existentials < b.existentials;
}

/// Canonical key of a head pattern, invariant under existential-variable
/// renaming and atom reordering. Defined in round.cc.
std::string PatternKey(const std::vector<Atom>& pattern);

/// Adds a fact to `out` and records its birth round. Returns true when new.
bool AddFactTracked(ChaseResult* out, PredId pred,
                    const std::vector<TermId>& args, int round);

/// One round's buffered derivations, evaluated against the frozen
/// Chase^{i-1} snapshot. Engines fill it (sequentially or from shard
/// tasks); ApplyRound consumes it in canonical order.
struct RoundBuffer {
  /// Distinct head atoms not present in the frozen structure (unsorted).
  std::vector<Atom> datalog;
  /// Unique-key pending triggers, each key's TriggerLess-least candidate.
  std::vector<std::pair<std::string, PendingExistential>> triggers;
  /// Counters and per-round timing merged across the producing tasks.
  ChaseStats stats;

  bool empty() const { return datalog.empty() && triggers.empty(); }
};

/// The read-only inputs one round's enumeration runs against.
struct RoundInputs {
  const Theory& theory;
  const Structure& frozen;  ///< Chase^{i-1}; not mutated until ApplyRound
  const ChaseOptions& options;
  ExecutionContext* ctx;  ///< never null (RunChase installs a local one)
  /// Oblivious-mode run-global (rule, body-binding) dedup. The serial
  /// rounds filter against it during enumeration; the parallel round at
  /// the merge barrier (equivalent: a delta-driven round enumerates each
  /// binding at most once, so within-round keys are unique).
  std::unordered_set<std::string>* fired;
  /// Per-run compiled-plan cache (thread-safe; kNaive never reads it).
  /// Witness-existence probes always stay on the Matcher: their patterns
  /// are grounded per binding (caching would never hit) and dominated by
  /// point lookups.
  PlanCache* plans = nullptr;
  /// The run's effective behavioral fault, resolved once at RunChase entry
  /// from options.fault or a FaultRegistry fire at faults::kChaseBug.
  /// Round code reads this, never options.fault.
  ChaseFault fault = ChaseFault::kNone;
};

/// Serializes the oblivious-chase firing key of (rule `ri`, binding `b`).
std::string ObliviousKey(size_t ri, const Rule& rule, const Binding& b);

/// Per-binding buffering logic, shared verbatim by every round loop;
/// `Sink` supplies the buffer operations:
///
///   bool BufferDatalog(Atom g);            // false = duplicate (counted)
///   bool ObliviousPreFilter(const std::string& key);  // true = skip now
///   void BufferTrigger(std::string key, PendingExistential pe);
///   size_t FaultSeq();                     // kSkipTriggerDedup suffixes
///
/// BufferDatalog owns the frozen-containment check: kNaive's hash sink
/// probes Contains eagerly per occurrence, the vectorized sink defers both
/// the probe and the dedup to its sorted bulk pass.
///
/// Returns false to stop the enumeration (governor trip).
template <typename Sink>
bool HandleBinding(const RoundInputs& in, size_t ri, const Binding& b,
                   const Matcher& witness, Sink& sink) {
  // Strided governor probe: aborts this task's enumeration on a trip; the
  // post-enumeration check discards the buffered round.
  if (in.ctx->ShouldStop("chase enumerate")) return false;
  const Rule& rule = in.theory.rules()[ri];
  auto ground = [&b](const Atom& a) {
    Atom g = a;
    for (TermId& t : g.args) {
      if (IsVar(t)) {
        auto it = b.find(t);
        if (it != b.end()) t = it->second;
      }
    }
    return g;
  };
  if (!rule.IsExistential()) {
    for (const Atom& h : rule.head) {
      Atom g = ground(h);
      assert(g.IsGround() && "datalog rule with unbound head variable");
      sink.BufferDatalog(std::move(g));
    }
    return true;
  }
  // Existential TGD: the non-oblivious check — is the head already
  // witnessed in Chase^i under this frontier binding?
  std::vector<Atom> pattern;
  pattern.reserve(rule.head.size());
  for (const Atom& h : rule.head) pattern.push_back(ground(h));
  std::string key;
  if (in.options.oblivious) {
    // Blind chase: one witness per (rule, body binding), ever.
    key = ObliviousKey(ri, rule, b);
    if (sink.ObliviousPreFilter(key)) return true;
  } else {
    if (witness.Exists(pattern, {})) return true;
    key = PatternKey(pattern);
    if (in.fault == ChaseFault::kSkipTriggerDedup) {
      // Injected bug: make every key unique so same-pattern triggers stop
      // collapsing to one witness.
      key += "#" + std::to_string(sink.FaultSeq());
    }
  }
  PendingExistential pe;
  pe.rule_index = static_cast<int>(ri);
  pe.head_pattern = std::move(pattern);
  pe.existentials = rule.ExistentialVariables();
  sink.BufferTrigger(std::move(key), std::move(pe));
  return true;
}

/// Bands for evaluating `rule`'s body with delta anchor `di` confined to
/// rows [begin, end) of its relation: atoms before the anchor stay on
/// pre-round rows, atoms after it range over the full relation — the
/// standard old/new split, with the anchor band narrowed to one chunk for
/// sharded scans (the serial round passes the whole delta).
std::vector<RowBand> AnchorBands(const Structure& s, const Rule& rule,
                                 size_t di, uint32_t begin, uint32_t end);

/// Default per-predicate raw-tail size (tuples) at which the vectorized
/// sink compacts: sorts the tail, merges it into the kept prefix, and
/// answers containment in one bulk pass. Large enough that typical rounds
/// compact exactly once, at Finish; tests shrink it to exercise
/// mid-enumeration compactions.
inline constexpr size_t kSinkCompactTuples = 1 << 16;

/// Flat per-predicate candidate buffers with sort-dedup compaction and
/// bulk containment — the datalog half of the vectorized round sink
/// (DESIGN §2.13), shared by the serial and parallel rounds.
///
/// Append is the entire per-occurrence cost: bump a cursor and copy
/// `arity` TermIds; no Atom allocation, no hash probe, no dedup-set
/// insert. Compact() restores the invariant that the buffer's prefix is
/// sorted, distinct, and absent from `frozen`: the raw tail is sorted in
/// place (RadixSortTuples), duplicate groups collapse with
/// order-independent counting (a group of k occurrences contributes k-1
/// to deduped() whether it collapses in one compaction, telescopes across
/// several, or splits across parallel tasks), and the fresh distinct
/// tuples go through one bulk Structure::ContainsSorted probe. The
/// counters therefore match kNaive's hash sink exactly — the
/// byte-identity contract extends to stats.
class DatalogSinkBuffers {
 public:
  /// `frozen` answers containment (Chase^{i-1}; must outlive the sink).
  /// `drop_dup_groups` is the kSinkDropDup self-test fault: tuples derived
  /// more than once get dropped instead of collapsed.
  DatalogSinkBuffers(const Structure& frozen, size_t compact_threshold,
                     bool drop_dup_groups);

  /// Reserves one tuple of `pred` and returns the slot to write `arity`
  /// TermIds into (invalidated by the next sink call; null iff arity 0).
  TermId* Append(PredId pred, size_t arity);
  void AppendAtom(const Atom& g);

  /// Final compaction, then emits every surviving tuple — sorted,
  /// distinct, frozen-free — as Atoms appended to `out`.
  void FinishInto(std::vector<Atom>* out);

  /// One predicate's surviving tuples as a flat sorted run (`tuples`
  /// entries of `arity` TermIds; arity-0 runs carry only the count).
  struct Run {
    PredId pred = -1;
    size_t arity = 0;
    size_t tuples = 0;
    std::vector<TermId> data;
  };
  /// Final compaction, then moves the per-predicate runs out (ascending
  /// pred) — the parallel barrier merges runs across tasks.
  std::vector<Run> TakeRuns();

  size_t candidates() const { return candidates_; }
  size_t contained() const { return contained_; }
  size_t probes() const { return probes_; }
  size_t deduped() const { return deduped_; }

 private:
  struct PredBuf {
    PredId pred = -1;
    size_t arity = 0;
    /// Tuples [0, kept) are the compacted prefix (sorted, distinct, not in
    /// frozen); tuples [kept, kept + tail) are the raw unsorted tail.
    std::vector<TermId> data;
    size_t kept = 0;
    size_t tail = 0;
    /// Parallel to the kept prefix, only under drop_dup_groups: tuple ever
    /// had a duplicate occurrence (dropped at Finish/TakeRuns).
    std::vector<char> kept_dup;
  };

  PredBuf& Buf(PredId pred, size_t arity);
  void Compact(PredBuf* pb);

  const Structure& frozen_;
  const size_t compact_threshold_;
  const bool drop_dup_groups_;
  std::vector<int32_t> pred_slot_;  // pred -> index into bufs_, or -1
  std::vector<PredBuf> bufs_;      // first-appearance order
  /// Compaction working storage, reused across compactions and
  /// predicates: the radix sort's scratch, the fresh groups' occurrence
  /// counts and their containment answers.
  std::vector<TermId> scratch_;
  std::vector<uint32_t> fresh_count_;
  std::vector<char> fresh_in_;
  size_t candidates_ = 0;
  size_t contained_ = 0;
  size_t probes_ = 0;
  size_t deduped_ = 0;
};

/// Merges per-task sorted distinct runs (TakeRuns output, several tasks'
/// worth) into Atoms appended to `out`: cross-run duplicate groups
/// collapse to one copy, counting the extra occurrences into *deduped —
/// the +1-per-extra-run rule that makes the total dedup count shard-count
/// independent. Under `drop_dup_groups` (kSinkDropDup) cross-run
/// duplicates are dropped entirely instead. Runs are already frozen-free,
/// so no containment re-probe happens here.
void MergeDatalogRuns(std::vector<DatalogSinkBuffers::Run> runs,
                      bool drop_dup_groups, std::vector<Atom>* out,
                      size_t* deduped);

/// Sorts raw (key, candidate) trigger pairs, collapses each key to its
/// TriggerLess-least candidate counting dropped occurrences into *tdedup,
/// and appends the unique-key survivors to *out in key order — the same
/// winner kNaive's keep-min hash map picks, independent of arrival
/// order.
void DedupTriggers(
    std::vector<std::pair<std::string, PendingExistential>> raw,
    std::vector<std::pair<std::string, PendingExistential>>* out,
    size_t* tdedup);

/// The vectorized round sink: datalog candidates go through
/// DatalogSinkBuffers, existential triggers append raw and dedup once at
/// the end. Satisfies the HandleBinding Sink
/// interface, plus AppendDatalogSlot for block-at-a-time head grounding.
class VectorSink {
 public:
  /// `stats` receives the dedup/containment counters when the sink is
  /// finalized. `shared_fault_seq` backs FaultSeq across the parallel
  /// engine's tasks (nullptr = private counter); `defer_oblivious`
  /// disables the in-enumeration fired-key filter (the parallel engine
  /// filters at the merge barrier instead, where keys are unique within a
  /// delta round).
  VectorSink(const RoundInputs& in, ChaseStats* stats,
             size_t compact_threshold = kSinkCompactTuples,
             std::atomic<size_t>* shared_fault_seq = nullptr,
             bool defer_oblivious = false);

  bool BufferDatalog(Atom g) {
    bufs_.AppendAtom(g);
    return true;
  }
  bool ObliviousPreFilter(const std::string& key);
  void BufferTrigger(std::string key, PendingExistential pe) {
    triggers_.emplace_back(std::move(key), std::move(pe));
  }
  size_t FaultSeq();
  TermId* AppendDatalogSlot(PredId pred, size_t arity) {
    return bufs_.Append(pred, arity);
  }

  /// Serial round: final-compacts, folds counters into `stats`, and emits
  /// into `buf` exactly what kNaive's hash sink would have — under a
  /// "chase.sink" trace span. Runs even after a governor trip (the
  /// kTornExhaust self-test applies a torn round's buffered datalog).
  void Finish(RoundBuffer* buf);

  /// Parallel task path: final-compacts, folds counters into `stats`, and
  /// moves out the per-predicate runs; triggers come out raw via
  /// TakeRawTriggers for the barrier's DedupTriggers pass.
  std::vector<DatalogSinkBuffers::Run> TakeDatalogRuns();
  std::vector<std::pair<std::string, PendingExistential>> TakeRawTriggers() {
    return std::move(triggers_);
  }

 private:
  void FoldCounters();

  const RoundInputs& in_;
  ChaseStats* stats_;
  DatalogSinkBuffers bufs_;
  std::vector<std::pair<std::string, PendingExistential>> triggers_;
  std::atomic<size_t>* shared_fault_seq_;
  size_t local_fault_seq_ = 0;
  bool defer_oblivious_;
};

/// Grounding template of one datalog head atom against a plan's slot
/// layout: per position, a constant or the slot holding the variable's
/// value. Lets block grounding resolve a head occurrence with `arity`
/// array reads instead of per-variable Binding lookups.
struct HeadTemplate {
  struct Arg {
    bool is_const = false;
    TermId value = 0;   // constant value when is_const
    uint32_t slot = 0;  // slot index otherwise
  };
  PredId pred = -1;
  size_t arity = 0;
  std::vector<Arg> args;
};

/// Builds the head templates of a datalog rule against `slot_vars` (the
/// PlanSlotVars order of the body's plan). Datalog heads only use body
/// variables, so every head variable resolves to a slot.
std::vector<HeadTemplate> BuildHeadTemplates(
    const Rule& rule, const std::vector<TermId>& slot_vars);

/// Enumerates rule `ri` with delta anchor `di` over `bands` through the
/// run's compiled plan into the vectorized sink: datalog rules ground
/// their heads block-at-a-time straight from the executor's slot blocks
/// (no Binding, no Atom per occurrence); existential rules go through
/// per-binding HandleBinding. Shared by the serial round and the parallel
/// round's shard tasks.
void EnumerateAnchorVectorized(const RoundInputs& in, size_t ri, size_t di,
                               const std::vector<RowBand>& bands,
                               const Matcher& witness, VectorSink* sink,
                               MatchStats* match_stats);

/// The engine's serial round (ChaseEngine::kParallel at one thread):
/// delta-anchored compiled plans into one vectorized sink.
void EnumerateRoundSequential(const RoundInputs& in, RoundBuffer* buf);

/// kNaive's round: full re-enumeration of every rule body through the
/// interpretive Matcher into the per-binding hash sink — the independent
/// reference the differential tests compare the engine against.
void EnumerateRoundNaive(const RoundInputs& in, RoundBuffer* buf);

/// Applies a completed round's buffer in canonical order: datalog
/// additions sorted by (pred, args), then triggers in key order, inventing
/// nulls and recording provenance. Returns the number of facts added.
size_t ApplyRound(RoundBuffer* buf, size_t round, ChaseResult* out);

}  // namespace chase_internal
}  // namespace bddfc

#endif  // BDDFC_CHASE_ROUND_H_
