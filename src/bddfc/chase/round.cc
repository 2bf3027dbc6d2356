#include "bddfc/chase/round.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "bddfc/core/radix_sort.h"
#include "bddfc/eval/exec.h"
#include "bddfc/obs/trace.h"

namespace bddfc {
namespace chase_internal {

namespace {

/// Serializes `pattern` with variables renumbered by first occurrence.
std::string SerializeRenumbered(const std::vector<Atom>& pattern) {
  std::unordered_map<TermId, TermId> ren;
  int32_t next = 0;
  std::string s;
  for (const Atom& a : pattern) {
    s += std::to_string(a.pred);
    for (TermId t : a.args) {
      if (IsVar(t)) {
        auto it = ren.find(t);
        if (it == ren.end()) it = ren.emplace(t, MakeVar(next++)).first;
        t = it->second;
      }
      s += "," + std::to_string(t);
    }
    s += "|";
  }
  return s;
}

}  // namespace

/// Canonical key of a head pattern, invariant under existential-variable
/// renaming *and* atom reordering: the same demanded pattern gets the same
/// key no matter which rule (or head-atom order) produced it.
///
/// Renumbering variables by first occurrence before sorting (the seed
/// behavior) bakes the incoming atom order into the variable names, so
/// logically identical patterns hashed apart and spawned duplicate
/// witnesses. Instead, atoms are sorted under a name-independent local key
/// (predicate + per-position constant/within-atom variable shape); among
/// atoms whose local keys tie, every arrangement is tried and the
/// lexicographically least renumbered serialization wins. Ties are rare
/// (heads are small), but a cap falls back to the sorted order — still
/// deterministic and never merging inequivalent patterns, as the key is the
/// serialized pattern itself.
std::string PatternKey(const std::vector<Atom>& pattern) {
  auto local_key = [](const Atom& a) {
    std::unordered_map<TermId, int32_t> ren;
    std::string s = std::to_string(a.pred);
    for (TermId t : a.args) {
      if (IsVar(t)) {
        auto it = ren.emplace(t, static_cast<int32_t>(ren.size())).first;
        s += ",v" + std::to_string(it->second);
      } else {
        s += ",c" + std::to_string(t);
      }
    }
    return s;
  };

  std::vector<std::pair<std::string, Atom>> keyed;
  keyed.reserve(pattern.size());
  for (const Atom& a : pattern) keyed.emplace_back(local_key(a), a);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  // Group atoms with equal local keys and bound the number of arrangements.
  std::vector<std::vector<Atom>> groups;
  size_t arrangements = 1;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) groups.emplace_back();
    groups.back().push_back(keyed[i].second);
    arrangements *= groups.back().size();  // running product of factorials
  }

  std::vector<Atom> cand;
  cand.reserve(pattern.size());
  if (arrangements > 5040) {  // cap: fall back to the sorted order
    for (const auto& g : groups) cand.insert(cand.end(), g.begin(), g.end());
    return SerializeRenumbered(cand);
  }

  std::string best;
  std::function<void(size_t)> rec = [&](size_t gi) {
    if (gi == groups.size()) {
      cand.clear();
      for (const auto& g : groups) cand.insert(cand.end(), g.begin(), g.end());
      std::string s = SerializeRenumbered(cand);
      if (best.empty() || s < best) best = std::move(s);
      return;
    }
    auto& g = groups[gi];
    std::sort(g.begin(), g.end());
    do {
      rec(gi + 1);
    } while (std::next_permutation(g.begin(), g.end()));
  };
  rec(0);
  return best;
}

bool AddFactTracked(ChaseResult* out, PredId pred,
                    const std::vector<TermId>& args, int round) {
  uint32_t row = static_cast<uint32_t>(out->structure.NumFacts(pred));
  if (!out->structure.AddFact(pred, args)) return false;
  out->fact_round.emplace(FactHandle{pred, row}, round);
  return true;
}

std::string ObliviousKey(size_t ri, const Rule& rule, const Binding& b) {
  std::string key = std::to_string(ri);
  for (const Atom& a : rule.body) {
    Atom g = a;
    for (TermId& t : g.args) {
      if (IsVar(t)) {
        auto it = b.find(t);
        if (it != b.end()) t = it->second;
      }
    }
    key += "|" + std::to_string(g.pred);
    for (TermId t : g.args) key += "," + std::to_string(t);
  }
  return key;
}

std::vector<RowBand> AnchorBands(const Structure& s, const Rule& rule,
                                 size_t di, uint32_t begin, uint32_t end) {
  const size_t k = rule.body.size();
  std::vector<RowBand> bands(k);
  for (size_t j = 0; j < k; ++j) {
    if (j < di) {
      bands[j] = {0, s.WatermarkRows(rule.body[j].pred)};
    } else if (j == di) {
      bands[j] = {begin, end};
    } else {
      bands[j] = RowBand::All();
    }
  }
  return bands;
}

namespace {

/// kNaive's buffer operations: plain hash containers, frozen containment
/// probed and dedup counted per occurrence on the way in — independent of
/// the vectorized sink it cross-checks.
struct SerialSink {
  const RoundInputs& in;
  RoundBuffer* buf;
  std::unordered_set<Atom, AtomHash> datalog_seen;
  std::map<std::string, PendingExistential> triggers;
  size_t fault_seq = 0;

  bool BufferDatalog(Atom g) {
    if (in.frozen.Contains(g)) return false;
    if (!datalog_seen.insert(g).second) {
      ++buf->stats.datalog_deduped;
      return false;
    }
    buf->datalog.push_back(std::move(g));
    return true;
  }
  bool ObliviousPreFilter(const std::string& key) {
    return !in.fired->insert(key).second;
  }
  void BufferTrigger(std::string key, PendingExistential pe) {
    auto [it, inserted] = triggers.try_emplace(std::move(key), std::move(pe));
    if (!inserted) {
      ++buf->stats.triggers_deduped;
      if (TriggerLess(pe, it->second)) it->second = std::move(pe);
    }
  }
  size_t FaultSeq() { return fault_seq++; }
};

}  // namespace

DatalogSinkBuffers::DatalogSinkBuffers(const Structure& frozen,
                                       size_t compact_threshold,
                                       bool drop_dup_groups)
    : frozen_(frozen),
      compact_threshold_(std::max<size_t>(compact_threshold, 1)),
      drop_dup_groups_(drop_dup_groups) {}

DatalogSinkBuffers::PredBuf& DatalogSinkBuffers::Buf(PredId pred,
                                                     size_t arity) {
  if (static_cast<size_t>(pred) >= pred_slot_.size()) {
    pred_slot_.resize(pred + 1, -1);
  }
  int32_t& slot = pred_slot_[pred];
  if (slot < 0) {
    slot = static_cast<int32_t>(bufs_.size());
    bufs_.emplace_back();
    bufs_.back().pred = pred;
    bufs_.back().arity = arity;
  }
  assert(bufs_[slot].arity == arity && "predicate arity changed mid-round");
  return bufs_[slot];
}

TermId* DatalogSinkBuffers::Append(PredId pred, size_t arity) {
  PredBuf& pb = Buf(pred, arity);
  ++candidates_;
  if (pb.tail >= compact_threshold_) Compact(&pb);
  ++pb.tail;
  if (arity == 0) return nullptr;
  const size_t at = pb.data.size();
  pb.data.resize(at + arity);
  return pb.data.data() + at;
}

void DatalogSinkBuffers::AppendAtom(const Atom& g) {
  TermId* dst = Append(g.pred, g.args.size());
  if (dst != nullptr) std::copy(g.args.begin(), g.args.end(), dst);
}

void DatalogSinkBuffers::Compact(PredBuf* pb) {
  if (pb->tail == 0) return;
  const size_t arity = pb->arity;
  if (arity == 0) {
    // Nullary predicate: all occurrences are the one empty tuple.
    if (pb->kept == 1) {
      deduped_ += pb->tail;
      if (drop_dup_groups_) pb->kept_dup.assign(1, 1);
    } else {
      ++probes_;
      if (frozen_.Contains(pb->pred, {})) {
        contained_ += pb->tail;
      } else {
        deduped_ += pb->tail - 1;
        pb->kept = 1;
        if (drop_dup_groups_) pb->kept_dup.assign(1, pb->tail > 1 ? 1 : 0);
      }
    }
    pb->tail = 0;
    return;
  }

  // Sort the raw tail in place; equal tuples become adjacent groups.
  TermId* const base = pb->data.data();
  TermId* const tail = base + pb->kept * arity;
  RadixSortTuples(tail, pb->tail, arity, &scratch_);
  auto tup_less = [arity](const TermId* a, const TermId* b) {
    return std::lexicographical_compare(a, a + arity, b, b + arity);
  };
  auto tup_eq = [arity](const TermId* a, const TermId* b) {
    return std::equal(a, a + arity, b);
  };

  // Pass 1: walk the sorted tail groups against the kept prefix with a
  // monotone cursor. Groups equal to a kept tuple collapse immediately
  // (order-independent: k more occurrences of a kept tuple count k);
  // fresh distinct tuples are packed to the front of the tail (the write
  // cursor never passes the read cursor) for one bulk containment probe.
  fresh_count_.clear();
  TermId* fresh_end = tail;
  size_t pi = 0;
  for (size_t gi = 0; gi < pb->tail;) {
    const TermId* t = tail + gi * arity;
    size_t ge = gi + 1;
    while (ge < pb->tail && tup_eq(t, tail + ge * arity)) ++ge;
    const size_t k = ge - gi;
    while (pi < pb->kept && tup_less(base + pi * arity, t)) ++pi;
    if (pi < pb->kept && tup_eq(base + pi * arity, t)) {
      deduped_ += k;
      if (drop_dup_groups_) pb->kept_dup[pi] = 1;
    } else {
      if (fresh_end != t) std::copy_n(t, arity, fresh_end);
      fresh_end += arity;
      fresh_count_.push_back(static_cast<uint32_t>(k));
    }
    gi = ge;
  }

  // One bulk containment probe for all fresh distinct tuples.
  const size_t fresh_tuples = fresh_count_.size();
  size_t fresh_hits = 0;
  if (fresh_tuples > 0) {
    probes_ += fresh_tuples;
    fresh_hits = frozen_.ContainsSorted(pb->pred, arity, tail, fresh_tuples,
                                        &fresh_in_);
  }

  // Pass 2: merge the kept prefix with the surviving fresh tuples (both
  // sorted, disjoint) into the new compacted prefix, allocated at its
  // exact size: the buffer a parallel task hands to the barrier keeps no
  // tail-sized capacity.
  std::vector<TermId> merged;
  std::vector<char> merged_dup;
  merged.reserve((pb->kept + fresh_tuples - fresh_hits) * arity);
  size_t mi = 0;  // kept cursor
  size_t fi = 0;  // fresh cursor
  auto push_kept = [&](size_t i) {
    merged.insert(merged.end(), base + i * arity, base + (i + 1) * arity);
    if (drop_dup_groups_) merged_dup.push_back(pb->kept_dup[i]);
  };
  auto push_fresh = [&](size_t i) {
    const TermId* t = tail + i * arity;
    if (fresh_in_[i]) {
      contained_ += fresh_count_[i];
      return;
    }
    deduped_ += fresh_count_[i] - 1;
    merged.insert(merged.end(), t, t + arity);
    if (drop_dup_groups_) merged_dup.push_back(fresh_count_[i] > 1 ? 1 : 0);
  };
  while (mi < pb->kept && fi < fresh_tuples) {
    if (tup_less(base + mi * arity, tail + fi * arity)) {
      push_kept(mi++);
    } else {
      push_fresh(fi++);
    }
  }
  while (mi < pb->kept) push_kept(mi++);
  while (fi < fresh_tuples) push_fresh(fi++);

  pb->kept = merged.size() / arity;
  pb->tail = 0;
  pb->data = std::move(merged);
  if (drop_dup_groups_) pb->kept_dup = std::move(merged_dup);
}

void DatalogSinkBuffers::FinishInto(std::vector<Atom>* out) {
  std::vector<size_t> order(bufs_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return bufs_[a].pred < bufs_[b].pred;
  });
  for (size_t bi : order) {
    PredBuf& pb = bufs_[bi];
    Compact(&pb);
    for (size_t ti = 0; ti < pb.kept; ++ti) {
      if (drop_dup_groups_ && pb.kept_dup[ti]) continue;
      const TermId* t = pb.data.data() + ti * pb.arity;
      out->emplace_back(pb.pred, std::vector<TermId>(t, t + pb.arity));
    }
  }
}

std::vector<DatalogSinkBuffers::Run> DatalogSinkBuffers::TakeRuns() {
  std::sort(bufs_.begin(), bufs_.end(),
            [](const PredBuf& a, const PredBuf& b) { return a.pred < b.pred; });
  std::vector<Run> runs;
  runs.reserve(bufs_.size());
  for (PredBuf& pb : bufs_) {
    Compact(&pb);
    Run run;
    run.pred = pb.pred;
    run.arity = pb.arity;
    if (drop_dup_groups_ &&
        std::find(pb.kept_dup.begin(), pb.kept_dup.end(), 1) !=
            pb.kept_dup.end()) {
      // Fault path: rebuild the run without the flagged tuples.
      for (size_t ti = 0; ti < pb.kept; ++ti) {
        if (pb.kept_dup[ti]) continue;
        const TermId* t = pb.data.data() + ti * pb.arity;
        run.data.insert(run.data.end(), t, t + pb.arity);
        ++run.tuples;
      }
    } else {
      run.tuples = pb.kept;
      run.data = std::move(pb.data);
    }
    if (run.tuples > 0) runs.push_back(std::move(run));
  }
  bufs_.clear();
  pred_slot_.clear();
  return runs;
}

void MergeDatalogRuns(std::vector<DatalogSinkBuffers::Run> runs,
                      bool drop_dup_groups, std::vector<Atom>* out,
                      size_t* deduped) {
  std::sort(runs.begin(), runs.end(),
            [](const DatalogSinkBuffers::Run& a,
               const DatalogSinkBuffers::Run& b) { return a.pred < b.pred; });
  std::vector<TermId> flat, scratch;
  for (size_t i = 0; i < runs.size();) {
    size_t j = i + 1;
    while (j < runs.size() && runs[j].pred == runs[i].pred) ++j;
    const PredId pred = runs[i].pred;
    const size_t arity = runs[i].arity;
    if (arity == 0) {
      size_t total = 0;
      for (size_t r = i; r < j; ++r) total += runs[r].tuples;
      if (total > 0) {
        *deduped += total - 1;
        if (!(drop_dup_groups && total > 1)) {
          out->emplace_back(pred, std::vector<TermId>());
        }
      }
      i = j;
      continue;
    }
    // Concatenate the runs of this predicate and sort the tuples (each run
    // is sorted and distinct, so a lone run needs no sort); equal tuples
    // from different runs become adjacent groups.
    flat.clear();
    size_t total = 0;
    for (size_t r = i; r < j; ++r) {
      flat.insert(flat.end(), runs[r].data.begin(), runs[r].data.end());
      total += runs[r].tuples;
    }
    if (j - i > 1) RadixSortTuples(flat.data(), total, arity, &scratch);
    for (size_t gi = 0; gi < total;) {
      const TermId* t = flat.data() + gi * arity;
      size_t ge = gi + 1;
      while (ge < total && std::equal(t, t + arity, flat.data() + ge * arity)) {
        ++ge;
      }
      *deduped += ge - gi - 1;
      if (!(drop_dup_groups && ge - gi > 1)) {
        out->emplace_back(pred, std::vector<TermId>(t, t + arity));
      }
      gi = ge;
    }
    i = j;
  }
}

void DedupTriggers(
    std::vector<std::pair<std::string, PendingExistential>> raw,
    std::vector<std::pair<std::string, PendingExistential>>* out,
    size_t* tdedup) {
  std::sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return TriggerLess(a.second, b.second);
  });
  for (size_t i = 0; i < raw.size();) {
    size_t j = i + 1;
    while (j < raw.size() && raw[j].first == raw[i].first) ++j;
    *tdedup += j - i - 1;
    out->push_back(std::move(raw[i]));
    i = j;
  }
}

VectorSink::VectorSink(const RoundInputs& in, ChaseStats* stats,
                       size_t compact_threshold,
                       std::atomic<size_t>* shared_fault_seq,
                       bool defer_oblivious)
    : in_(in),
      stats_(stats),
      bufs_(in.frozen, compact_threshold,
            in.fault == ChaseFault::kSinkDropDup),
      shared_fault_seq_(shared_fault_seq),
      defer_oblivious_(defer_oblivious) {}

bool VectorSink::ObliviousPreFilter(const std::string& key) {
  if (defer_oblivious_) return false;
  return !in_.fired->insert(key).second;
}

size_t VectorSink::FaultSeq() {
  return shared_fault_seq_ != nullptr
             ? shared_fault_seq_->fetch_add(1, std::memory_order_relaxed)
             : local_fault_seq_++;
}

void VectorSink::FoldCounters() {
  stats_->sink_candidates += bufs_.candidates();
  stats_->sink_contained += bufs_.contained();
  stats_->sink_probes += bufs_.probes();
  stats_->datalog_deduped += bufs_.deduped();
}

void VectorSink::Finish(RoundBuffer* buf) {
  obs::TraceSpan span("chase.sink");
  // Fail-stop fault site: a fire latches the context, and the round-abort
  // path in chase.cc discards this buffer as an incomplete round.
  (void)in_.ctx->CheckFault(faults::kSinkMerge);
  bufs_.FinishInto(&buf->datalog);
  FoldCounters();
  DedupTriggers(std::move(triggers_), &buf->triggers,
                &stats_->triggers_deduped);
}

std::vector<DatalogSinkBuffers::Run> VectorSink::TakeDatalogRuns() {
  std::vector<DatalogSinkBuffers::Run> runs = bufs_.TakeRuns();
  FoldCounters();
  return runs;
}

std::vector<HeadTemplate> BuildHeadTemplates(
    const Rule& rule, const std::vector<TermId>& slot_vars) {
  std::vector<HeadTemplate> heads;
  heads.reserve(rule.head.size());
  for (const Atom& h : rule.head) {
    HeadTemplate ht;
    ht.pred = h.pred;
    ht.arity = h.args.size();
    ht.args.reserve(h.args.size());
    for (TermId t : h.args) {
      HeadTemplate::Arg a;
      if (IsVar(t)) {
        auto it = std::find(slot_vars.begin(), slot_vars.end(), t);
        assert(it != slot_vars.end() &&
               "datalog head variable missing from the body's slot layout");
        a.slot = static_cast<uint32_t>(it - slot_vars.begin());
      } else {
        a.is_const = true;
        a.value = t;
      }
      ht.args.push_back(a);
    }
    heads.push_back(std::move(ht));
  }
  return heads;
}

void EnumerateAnchorVectorized(const RoundInputs& in, size_t ri, size_t di,
                               const std::vector<RowBand>& bands,
                               const Matcher& witness, VectorSink* sink,
                               MatchStats* match_stats) {
  const Rule& rule = in.theory.rules()[ri];
  auto on_binding = [&](const Binding& b) {
    return HandleBinding(in, ri, b, witness, *sink);
  };
  // Fail-stop fault site at the plan boundary: a fire latches the context
  // and this anchor (and, via Exhausted, the rest of the round) is skipped;
  // the round-abort path discards the partial buffer.
  if (!in.ctx->CheckFault(faults::kPlanCompile).ok()) return;
  const std::function<bool()> block_stop = [&in] {
    return in.ctx->ShouldStop("plan block");
  };
  if (rule.IsExistential()) {
    // Existential rules keep the per-binding path: the witness-existence
    // probe and PatternKey need a Binding anyway.
    ExecuteBandedPlan(in.frozen, *in.plans, rule.body, di, bands, on_binding,
                      match_stats, &block_stop);
    return;
  }
  // Datalog rule on the compiled path: ground head blocks straight from
  // the executor's slot blocks — no Binding, no Atom per occurrence.
  std::shared_ptr<const QueryPlan> plan =
      in.plans->Get(in.frozen, rule.body, di);
  const std::vector<TermId> slot_vars = PlanSlotVars(*plan, rule.body);
  const std::vector<HeadTemplate> heads = BuildHeadTemplates(rule, slot_vars);
  auto on_block = [&](const SlotBlock& blk) {
    for (size_t r = 0; r < blk.num_rows; ++r) {
      const TermId* slots = blk.rows + r * blk.width;
      for (const HeadTemplate& h : heads) {
        TermId* dst = sink->AppendDatalogSlot(h.pred, h.arity);
        for (size_t pos = 0; pos < h.arity; ++pos) {
          const HeadTemplate::Arg& a = h.args[pos];
          dst[pos] = a.is_const ? a.value : slots[a.slot];
        }
      }
    }
    return true;
  };
  ExecutePlanBlocks(in.frozen, *plan, rule.body, &bands, on_block, match_stats,
                    &block_stop);
}

void EnumerateRoundSequential(const RoundInputs& in, RoundBuffer* buf) {
  Matcher witness(in.frozen);
  VectorSink sink(in, &buf->stats);
  for (size_t ri = 0; ri < in.theory.rules().size(); ++ri) {
    if (in.ctx->Exhausted()) break;  // a trip mid-rule skips the rest
    const Rule& rule = in.theory.rules()[ri];
    if (rule.IsExistential() && in.options.datalog_only) continue;
    // Semi-naive: rotate a delta anchor over the body; each binding that
    // touches the delta is enumerated exactly once, with the anchor at its
    // first delta atom. Before the first MarkRoundBoundary (round 1) all
    // watermarks are 0, so only anchor 0 fires and it performs one full
    // enumeration.
    for (size_t di = 0; di < rule.body.size(); ++di) {
      const PredId anchor_pred = rule.body[di].pred;
      const uint32_t wm = in.frozen.WatermarkRows(anchor_pred);
      if (wm >= in.frozen.NumFacts(anchor_pred)) {
        continue;  // this relation gained nothing last round
      }
      // An anchor whose pre-watermark prefix is vacuous (some earlier body
      // atom has watermark 0) contributes no bindings, but the plan
      // executor pins the anchor first and would scan its whole delta
      // before probing the empty band. Skip it up front, matching the
      // parallel path's shard-submission filter, so the effort counters
      // agree at every thread count.
      bool empty_prefix = false;
      for (size_t j = 0; j < di; ++j) {
        if (in.frozen.WatermarkRows(rule.body[j].pred) == 0) {
          empty_prefix = true;
          break;
        }
      }
      if (empty_prefix) continue;
      const std::vector<RowBand> bands =
          AnchorBands(in.frozen, rule, di, wm, UINT32_MAX);
      EnumerateAnchorVectorized(in, ri, di, bands, witness, &sink,
                                &buf->stats.match);
    }
  }
  // Runs even after a governor trip (see VectorSink::Finish).
  sink.Finish(buf);
}

void EnumerateRoundNaive(const RoundInputs& in, RoundBuffer* buf) {
  Matcher matcher(in.frozen, &buf->stats.match);
  // Witness-existence probes go through a stats-less matcher so
  // bindings_tried counts rule-body bindings only.
  Matcher witness(in.frozen);
  SerialSink sink{in, buf, {}, {}, 0};

  for (size_t ri = 0; ri < in.theory.rules().size(); ++ri) {
    if (in.ctx->Exhausted()) break;  // a trip mid-rule skips the rest
    const Rule& rule = in.theory.rules()[ri];
    if (rule.IsExistential() && in.options.datalog_only) continue;
    matcher.Enumerate(rule.body, {}, [&](const Binding& b) {
      return HandleBinding(in, ri, b, witness, sink);
    });
  }

  // The sink's keep-min map already holds unique keys; move it out.
  buf->triggers.reserve(sink.triggers.size());
  for (auto& [key, pe] : sink.triggers) {
    buf->triggers.emplace_back(key, std::move(pe));
  }
}

size_t ApplyRound(RoundBuffer* buf, size_t round, ChaseResult* out) {
  // Canonical application order (see the header): sorted datalog atoms
  // first, then triggers in key order. Every engine funnels through this,
  // so row order and null naming are functions of the round's derivation
  // set alone.
  std::sort(buf->datalog.begin(), buf->datalog.end());
  std::sort(buf->triggers.begin(), buf->triggers.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  size_t added = 0;
  for (const Atom& g : buf->datalog) {
    if (AddFactTracked(out, g.pred, g.args, static_cast<int>(round))) {
      ++added;
    }
  }
  for (auto& [key, pe] : buf->triggers) {
    (void)key;
    // Invent one null per existential variable of this trigger.
    std::unordered_map<TermId, TermId> witness;
    for (TermId v : pe.existentials) {
      TermId null_id = out->structure.mutable_sig().AddNull();
      witness.emplace(v, null_id);
      ++out->nulls_created;
    }
    for (Atom g : pe.head_pattern) {
      for (TermId& t : g.args) {
        if (IsVar(t)) t = witness.at(t);
      }
      if (AddFactTracked(out, g.pred, g.args, static_cast<int>(round))) {
        ++added;
      }
      // Record provenance on each fresh null (one shared head atom each).
      for (auto [v, null_id] : witness) {
        (void)v;
        auto it = out->null_provenance.find(null_id);
        if (it == out->null_provenance.end()) {
          NullProvenance np;
          np.birth_round = static_cast<int>(round);
          np.rule_index = pe.rule_index;
          np.head_atom = g;
          out->null_provenance.emplace(null_id, std::move(np));
        }
      }
    }
  }
  return added;
}

}  // namespace chase_internal
}  // namespace bddfc
