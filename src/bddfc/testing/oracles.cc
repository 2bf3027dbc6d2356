#include "bddfc/testing/oracles.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bddfc/chase/skeleton.h"
#include "bddfc/chase/supervisor.h"
#include "bddfc/classes/recognizers.h"
#include "bddfc/eval/answers.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/parser/printer.h"
#include "bddfc/serve/server.h"
#include "bddfc/testing/coloring_reference.h"
#include "bddfc/testing/ptype_reference.h"
#include "bddfc/types/quotient.h"

namespace bddfc {

namespace {

template <typename T>
std::string Mismatch(const char* what, const T& a, const T& b) {
  std::ostringstream os;
  os << what << " diverged: " << a << " vs " << b;
  return os.str();
}

/// Per-predicate multiset of fact birth rounds — row-order and null-name
/// independent, so it compares chase runs without an isomorphism search.
std::map<PredId, std::vector<int>> BirthRoundsByPredicate(
    const ChaseResult& r) {
  std::map<PredId, std::vector<int>> out;
  for (const auto& [handle, round] : r.fact_round) {
    out[handle.pred].push_back(round);
  }
  for (auto& [pred, rounds] : out) {
    (void)pred;
    std::sort(rounds.begin(), rounds.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// chase-agreement: the engine (restricted and oblivious, at every thread
// count) must produce chases identical to the naive baseline; fixpoints
// must satisfy the theory.
// ---------------------------------------------------------------------------

/// Thread counts the engine runs at against the kNaive baseline
/// (threads=1 is the serial round, the rest the sharded parallel round).
constexpr size_t kEngineThreads[] = {1, 2, 4, 8};

std::string ThreadsLabel(size_t threads) {
  return "engine t" + std::to_string(threads);
}

class ChaseAgreementOracle : public Oracle {
 public:
  std::string_view name() const override { return "chase-agreement"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    for (bool oblivious : {false, true}) {
      ChaseOptions opts;
      opts.max_rounds = config.max_rounds;
      opts.max_facts = config.max_facts;
      opts.oblivious = oblivious;

      opts.engine = ChaseEngine::kNaive;
      opts.fault = ChaseFault::kNone;
      opts.paranoia = ParanoiaLevel::kOff;
      ChaseResult naive = RunChase(s.theory, s.instance, opts);

      // The injected fault (the fuzzer's self-test) rides on the engine
      // under test, never on the baseline. (kNaive keeps the hash sink, so
      // the baseline is also immune to kSinkDropDup by construction.)
      // Paranoia likewise guards only the engine under test: a corruption
      // its checks catch becomes a kInternal status divergence here.
      for (size_t threads : kEngineThreads) {
        opts.engine = ChaseEngine::kParallel;
        opts.fault = config.chase_fault;
        opts.paranoia = config.paranoia;
        opts.threads = threads;
        ChaseResult run = RunChase(s.theory, s.instance, opts);

        std::string mode = std::string(oblivious ? "[oblivious " :
                                                   "[restricted ") +
                           ThreadsLabel(threads) + "] ";
        if (run.status.code() != naive.status.code()) {
          return OracleOutcome::Fail(mode + Mismatch("status",
                                                     run.status.ToString(),
                                                     naive.status.ToString()));
        }
        if (run.structure.NumFacts() != naive.structure.NumFacts()) {
          return OracleOutcome::Fail(
              mode + Mismatch("facts", run.structure.NumFacts(),
                              naive.structure.NumFacts()));
        }
        if (run.nulls_created != naive.nulls_created) {
          return OracleOutcome::Fail(
              mode + Mismatch("nulls", run.nulls_created,
                              naive.nulls_created));
        }
        if (run.rounds_run != naive.rounds_run) {
          return OracleOutcome::Fail(
              mode + Mismatch("rounds", run.rounds_run, naive.rounds_run));
        }
        if (run.fixpoint_reached != naive.fixpoint_reached) {
          return OracleOutcome::Fail(mode + Mismatch("fixpoint",
                                                     run.fixpoint_reached,
                                                     naive.fixpoint_reached));
        }
        if (run.facts_per_round != naive.facts_per_round) {
          return OracleOutcome::Fail(mode +
                                     std::string("facts_per_round diverged"));
        }
        if (BirthRoundsByPredicate(run) != BirthRoundsByPredicate(naive)) {
          return OracleOutcome::Fail(
              mode + std::string("per-predicate birth rounds diverged"));
        }
        // A reached fixpoint must actually be a model of the theory.
        if (!oblivious && run.fixpoint_reached) {
          for (const ChaseResult* r : {&run, &naive}) {
            if (auto v = CheckModel(r->structure, s.theory)) {
              return OracleOutcome::Fail(
                  mode + std::string("fixpoint is not a model: ") +
                  v->ToString(*s.sig));
            }
          }
        }
      }
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// parser-roundtrip: Print ∘ Parse ∘ Print must be a fixpoint and preserve
// the program's shape.
// ---------------------------------------------------------------------------

class ParserRoundTripOracle : public Oracle {
 public:
  std::string_view name() const override { return "parser-roundtrip"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    (void)config;
    std::string text1 = ScenarioToText(s);
    Result<Scenario> reparsed = ParseScenario(text1);
    if (!reparsed.ok()) {
      return OracleOutcome::Fail("printed program does not reparse: " +
                                 reparsed.status().ToString() +
                                 "\n--- program ---\n" + text1);
    }
    const Scenario& r = reparsed.value();
    if (r.theory.size() != s.theory.size()) {
      return OracleOutcome::Fail(
          Mismatch("rule count", s.theory.size(), r.theory.size()));
    }
    if (r.instance.NumFacts() != s.instance.NumFacts()) {
      return OracleOutcome::Fail(Mismatch("fact count",
                                          s.instance.NumFacts(),
                                          r.instance.NumFacts()));
    }
    if (r.queries.size() != s.queries.size()) {
      return OracleOutcome::Fail(
          Mismatch("query count", s.queries.size(), r.queries.size()));
    }
    std::string text2 = ScenarioToText(r);
    if (text1 != text2) {
      size_t at = 0;
      while (at < text1.size() && at < text2.size() && text1[at] == text2[at]) {
        ++at;
      }
      return OracleOutcome::Fail(
          "print-parse-print is not a fixpoint (first divergence at byte " +
          std::to_string(at) + ")\n--- first ---\n" + text1 +
          "--- second ---\n" + text2);
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// rewrite-vs-chase: Def. 2 — on a theory whose chase terminates, a
// saturated rewriting Φ′ must satisfy Chase(D,T) ⊨ Φ ⇔ D ⊨ Φ′, and the
// two certain-answer routes must return the same tuples.
// ---------------------------------------------------------------------------

class RewriteVsChaseOracle : public Oracle {
 public:
  std::string_view name() const override { return "rewrite-vs-chase"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (s.queries.empty()) return OracleOutcome::Skip("no queries");
    if (!IsWeaklyAcyclic(s.theory)) {
      return OracleOutcome::Skip("not weakly acyclic");
    }
    ChaseOptions chase_opts;
    chase_opts.max_rounds = config.max_rounds;
    chase_opts.max_facts = config.max_facts;
    ChaseResult chase = RunChase(s.theory, s.instance, chase_opts);
    if (!chase.fixpoint_reached) {
      return OracleOutcome::Skip("chase budget tripped");
    }
    RewriteOptions rewrite_opts = config.rewrite;
    rewrite_opts.threads = 1;
    size_t checked = 0;
    for (size_t qi = 0; qi < s.queries.size(); ++qi) {
      const ConjunctiveQuery& q = s.queries[qi];
      RewriteResult rw = RewriteQuery(s.theory, q, rewrite_opts);
      if (!rw.status.ok()) continue;  // budgeted out: sound but incomplete
      bool chase_says = Satisfies(chase.structure, q);
      bool rewrite_says = SatisfiesUcq(s.instance, rw.rewriting);
      ++checked;
      if (chase_says != rewrite_says) {
        return OracleOutcome::Fail(
            "query " + std::to_string(qi) + " (" + q.ToString(*s.sig) +
            "): " + Mismatch("Boolean certain answer", chase_says,
                             rewrite_says));
      }
      // Non-Boolean variant: free the first variable and compare the
      // certain-answer tuple sets of the two routes.
      std::vector<TermId> vars = q.Variables();
      if (vars.empty()) continue;
      ConjunctiveQuery open = q;
      open.answer_vars = {vars[0]};
      CertainAnswersResult via_chase =
          CertainAnswers(s.theory, s.instance, open, chase_opts);
      CertainAnswersResult via_rewriting =
          CertainAnswersViaRewriting(s.theory, s.instance, open, rewrite_opts);
      if (!via_chase.complete || !via_rewriting.complete) continue;
      if (via_chase.answers != via_rewriting.answers) {
        return OracleOutcome::Fail(
            "query " + std::to_string(qi) + " (" + open.ToString(*s.sig) +
            "): " + Mismatch("certain-answer count",
                             via_chase.answers.size(),
                             via_rewriting.answers.size()));
      }
    }
    if (checked == 0) return OracleOutcome::Skip("every rewriting budgeted out");
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// rewrite-determinism: ProbeBdd/ComputeKappa must return byte-identical
// aggregates for any thread count (including budget-tripped Unknown runs —
// the cutoffs are deterministic too).
// ---------------------------------------------------------------------------

class RewriteDeterminismOracle : public Oracle {
 public:
  std::string_view name() const override { return "rewrite-determinism"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    RewriteOptions base = config.rewrite;
    base.threads = 1;
    BddProbeResult serial = ProbeBdd(s.theory, base);
    KappaResult serial_kappa = ComputeKappa(s.theory, base);
    for (size_t threads : config.determinism_threads) {
      RewriteOptions opts = base;
      opts.threads = threads;
      BddProbeResult probe = ProbeBdd(s.theory, opts);
      std::string t = "threads=" + std::to_string(threads) + ": ";
      if (probe.status.code() != serial.status.code()) {
        return OracleOutcome::Fail(t + Mismatch("probe status",
                                                serial.status.ToString(),
                                                probe.status.ToString()));
      }
      if (probe.certified != serial.certified) {
        return OracleOutcome::Fail(
            t + Mismatch("certified", serial.certified, probe.certified));
      }
      if (probe.kappa != serial.kappa) {
        return OracleOutcome::Fail(
            t + Mismatch("kappa", serial.kappa, probe.kappa));
      }
      if (probe.max_depth_seen != serial.max_depth_seen) {
        return OracleOutcome::Fail(t + Mismatch("max_depth_seen",
                                                serial.max_depth_seen,
                                                probe.max_depth_seen));
      }
      if (probe.total_disjuncts != serial.total_disjuncts) {
        return OracleOutcome::Fail(t + Mismatch("total_disjuncts",
                                                serial.total_disjuncts,
                                                probe.total_disjuncts));
      }
      if (probe.queries_generated != serial.queries_generated) {
        return OracleOutcome::Fail(t + Mismatch("queries_generated",
                                                serial.queries_generated,
                                                probe.queries_generated));
      }
      if (probe.stats.hom_checks != serial.stats.hom_checks ||
          probe.stats.TotalCandidates() != serial.stats.TotalCandidates()) {
        return OracleOutcome::Fail(t + "aggregated RewriteStats diverged");
      }
      KappaResult kappa = ComputeKappa(s.theory, opts);
      if (kappa.kappa != serial_kappa.kappa ||
          kappa.status.code() != serial_kappa.status.code()) {
        return OracleOutcome::Fail(
            t + Mismatch("ComputeKappa", serial_kappa.kappa, kappa.kappa));
      }
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// pipeline-certify: when the chase refutes Q, the Theorem-2 pipeline's
// counter-model must *independently* re-verify M ⊇ D, M ⊨ T₀, M ⊭ Q —
// not just pass the pipeline's own certification.
// ---------------------------------------------------------------------------

class PipelineCertifyOracle : public Oracle {
 public:
  std::string_view name() const override { return "pipeline-certify"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (s.queries.empty()) return OracleOutcome::Skip("no queries");
    if (!IsBinaryTheory(s.theory) || !s.theory.IsSingleHead()) {
      return OracleOutcome::Skip("not binary single-head");
    }
    if (s.theory.size() > 10 || s.instance.NumFacts() > 30) {
      return OracleOutcome::Skip("scenario too large for the pipeline budget");
    }
    ChaseOptions chase_opts;
    chase_opts.max_rounds = config.max_rounds;
    chase_opts.max_facts = config.max_facts;
    ChaseResult chase = RunChase(s.theory, s.instance, chase_opts);
    if (!chase.fixpoint_reached) {
      return OracleOutcome::Skip("chase budget tripped");
    }
    size_t target = s.queries.size();
    for (size_t qi = 0; qi < s.queries.size(); ++qi) {
      if (!Satisfies(chase.structure, s.queries[qi])) {
        target = qi;
        break;
      }
    }
    if (target == s.queries.size()) {
      return OracleOutcome::Skip("every query certain — nothing to refute");
    }
    // Clone onto a fresh signature: the pipeline interns hidden/normalized/
    // color predicates and must not pollute the scenario for later oracles.
    Result<Scenario> cloned = CloneScenario(s);
    if (!cloned.ok()) {
      return OracleOutcome::Fail("clone via print+parse failed: " +
                                 cloned.status().ToString());
    }
    const Scenario& c = cloned.value();
    const ConjunctiveQuery& q = c.queries[target];
    PipelineOptions opts;
    opts.initial_chase_depth = 6;
    opts.max_chase_depth = 48;
    opts.max_chase_facts = config.max_facts;
    opts.max_n = 3;
    opts.max_m = 3;
    opts.rewrite_options = config.rewrite;
    opts.rewrite_options.threads = 1;
    opts.max_saturation_rounds = 128;
    FiniteModelResult result =
        ConstructFiniteCounterModel(c.theory, c.instance, q, opts);
    if (result.query_certainly_true) {
      // The terminated chase refuted Q; "certainly true" is a contradiction.
      // (The reductions also answer FailedPrecondition for out-of-scope
      // theories, so only this flag is the contradiction signal.)
      return OracleOutcome::Fail(
          "pipeline claims the query is certainly true, but the chase "
          "fixpoint refutes it (query " +
          std::to_string(target) + ": " + q.ToString(*c.sig) + ")");
    }
    if (!result.status.ok()) {
      return OracleOutcome::Skip("pipeline out of scope or budgeted out: " +
                                 result.status.ToString());
    }
    if (!result.model.ContainsAllFactsOf(c.instance)) {
      return OracleOutcome::Fail("certified model does not contain D");
    }
    if (auto v = CheckModel(result.model, c.theory)) {
      return OracleOutcome::Fail("certified model violates T0: " +
                                 v->ToString(*c.sig));
    }
    if (Satisfies(result.model, q)) {
      return OracleOutcome::Fail("certified model satisfies the query " +
                                 q.ToString(*c.sig));
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// governor-prefix: a chase interrupted by the governor (deadline / memory /
// cancel, injected deterministically after K cooperative checks) must be
// prefix-consistent with the uninterrupted run — ResourceExhausted with the
// right ResourceKind, the same facts per completed round, the same
// per-predicate birth rounds on that prefix, and no torn half-round.
// ---------------------------------------------------------------------------

class GovernorPrefixOracle : public Oracle {
 public:
  std::string_view name() const override { return "governor-prefix"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (config.inject_fault == InjectedFault::kNone) {
      return OracleOutcome::Skip("no fault injected (--inject-fault)");
    }
    ResourceKind expected = ResourceKind::kNone;
    switch (config.inject_fault) {
      case InjectedFault::kDeadline: expected = ResourceKind::kDeadline; break;
      case InjectedFault::kOom:      expected = ResourceKind::kMemory;   break;
      case InjectedFault::kCancel:   expected = ResourceKind::kCancelled; break;
      case InjectedFault::kNone:     break;
    }

    ChaseOptions base;
    base.max_rounds = config.max_rounds;
    base.max_facts = config.max_facts;
    ChaseResult baseline = RunChase(s.theory, s.instance, base);

    // The serial and the sharded round land their cooperative checks in
    // different places (one sink vs per-shard sinks and a barrier merge),
    // so the prefix contract is probed for both: a cancellation that fires
    // mid-round must discard either round's buffered (incomplete) output.
    bool tripped_any = false;
    for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t after : {size_t{1}, size_t{3}, size_t{7}}) {
      ExecutionContext ctx;
      ctx.InjectFaultAfterChecks(config.inject_fault, after);
      ChaseOptions opts = base;
      opts.context = &ctx;
      opts.threads = threads;
      // kTornExhaust rides along so the torn-prefix path has a detector.
      opts.fault = config.chase_fault;
      ChaseResult run = RunChase(s.theory, s.instance, opts);
      std::string t = "[" + ThreadsLabel(threads) + "] after " +
                      std::to_string(after) + " checks: ";

      if (run.status.ok() ||
          run.status.code() != StatusCode::kResourceExhausted ||
          run.report.exhausted != expected) {
        // The chase may legitimately finish (or trip a count budget) before
        // the injected fault fires; only a wrong *governed* kind is a bug.
        bool governed_kind =
            run.report.exhausted == ResourceKind::kDeadline ||
            run.report.exhausted == ResourceKind::kMemory ||
            run.report.exhausted == ResourceKind::kCancelled;
        if (governed_kind && run.report.exhausted != expected) {
          return OracleOutcome::Fail(
              t + Mismatch("exhausted kind", ResourceKindName(expected),
                           ResourceKindName(run.report.exhausted)));
        }
        continue;
      }
      tripped_any = true;

      if (run.rounds_run > baseline.rounds_run) {
        return OracleOutcome::Fail(
            t + Mismatch("rounds_run beyond baseline", baseline.rounds_run,
                         run.rounds_run));
      }
      if (run.facts_per_round.size() > baseline.facts_per_round.size()) {
        return OracleOutcome::Fail(t + "more facts_per_round entries than "
                                       "the uninterrupted run");
      }
      for (size_t i = 0; i < run.facts_per_round.size(); ++i) {
        if (run.facts_per_round[i] != baseline.facts_per_round[i]) {
          return OracleOutcome::Fail(
              t + "facts_per_round[" + std::to_string(i) + "] " +
              Mismatch("is not a baseline prefix", baseline.facts_per_round[i],
                       run.facts_per_round[i]));
        }
      }
      // No torn half-round: every fact belongs to a completed round.
      if (!run.facts_per_round.empty() &&
          run.structure.NumFacts() != run.facts_per_round.back()) {
        return OracleOutcome::Fail(
            t + Mismatch("torn structure: facts vs last complete round",
                         run.structure.NumFacts(), run.facts_per_round.back()));
      }
      // Per-predicate birth rounds on the completed prefix must agree.
      auto clip = [&](const ChaseResult& r) {
        std::map<PredId, std::vector<int>> out;
        for (auto& [pred, rounds] : BirthRoundsByPredicate(r)) {
          for (int round : rounds) {
            if (round <= static_cast<int>(run.rounds_run)) {
              out[pred].push_back(round);
            }
          }
        }
        return out;
      };
      if (clip(run) != clip(baseline)) {
        return OracleOutcome::Fail(
            t + "per-predicate birth rounds diverge on the completed prefix");
      }
    }
    }
    if (!tripped_any) {
      return OracleOutcome::Skip("chase finished before any injected fault");
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// chaos-recovery: a supervised chase under a random bounded fault plan
// must end byte-identical — raw TermIds, nulls, provenance, per-round
// counts — to the fault-free run. Recovery is mandatory, not best-effort.
// ---------------------------------------------------------------------------

/// Byte-exact dump of everything the recovery contract covers. Mirrors
/// chase_ab_test's ExactDump: raw TermIds (not names), so it only compares
/// runs whose signatures interned identically — which the per-run
/// CloneScenario below guarantees. `with_bindings` adds bindings_tried,
/// an effort counter the naive rung legitimately changes (it re-enumerates
/// every round).
std::string ExactChaseDump(const ChaseResult& r, bool with_bindings) {
  std::string s;
  s += "status=" + r.status.ToString() + " fixpoint=";
  s += r.fixpoint_reached ? '1' : '0';
  s += " rounds=" + std::to_string(r.rounds_run);
  s += " nulls=" + std::to_string(r.nulls_created);
  if (with_bindings) {
    s += " bindings=" + std::to_string(r.stats.match.bindings_tried);
  }
  s += " tdedup=" + std::to_string(r.stats.triggers_deduped);
  s += " ddedup=" + std::to_string(r.stats.datalog_deduped);
  s += "\nfacts_per_round:";
  for (size_t n : r.facts_per_round) s += " " + std::to_string(n);
  s += "\n";
  for (PredId p = 0; p < r.structure.NumStoredPredicates(); ++p) {
    s += "pred " + std::to_string(p) + ":";
    for (const auto& row : r.structure.Rows(p)) {
      s += " (";
      for (TermId t : row) s += std::to_string(t) + ",";
      s += ")";
    }
    s += "\n";
  }
  std::map<TermId, NullProvenance> prov(r.null_provenance.begin(),
                                        r.null_provenance.end());
  for (const auto& [null_id, np] : prov) {
    s += "null " + std::to_string(null_id) + ": r" +
         std::to_string(np.birth_round) + " rule" +
         std::to_string(np.rule_index) + " head p" +
         std::to_string(np.head_atom.pred) + "(";
    for (TermId t : np.head_atom.args) s += std::to_string(t) + ",";
    s += ")\n";
  }
  return s;
}

class ChaosRecoveryOracle : public Oracle {
 public:
  std::string_view name() const override { return "chaos-recovery"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (config.chaos_plans == 0) {
      return OracleOutcome::Skip("chaos disabled (--chaos)");
    }
    // The richest configuration — every degradation rung available.
    ChaseOptions opts;
    opts.max_rounds = config.max_rounds;
    opts.max_facts = config.max_facts;
    opts.engine = ChaseEngine::kParallel;
    opts.threads = 4;
    opts.paranoia = config.paranoia;

    // Every run (reference and chaos) chases its own print+parse clone:
    // cloning interns identically, so invented nulls land on the same raw
    // TermIds in every run and the dumps compare as plain bytes. A run
    // that recovered on the naive rung is compared without bindings_tried
    // (`ref_semantic`); every other run byte for byte against `ref`.
    std::string ref;
    std::string ref_semantic;
    auto run_plan = [&](const FaultPlan* plan, std::string* dump,
                        const std::string** want) -> Status {
      Result<Scenario> c = CloneScenario(s);
      if (!c.ok()) return c.status();
      FaultRegistry reg;
      ExecutionContext parent;
      if (plan != nullptr) {
        reg.ArmPlan(*plan);
        parent.SetFaultRegistry(&reg);
      }
      SupervisorOptions sup;
      sup.context = &parent;
      SupervisedChase out =
          RunChaseSupervised(c.value().theory, c.value().instance, opts, sup);
      const bool naive =
          std::find(out.degradations.begin(), out.degradations.end(),
                    "naive") != out.degradations.end();
      *dump = ExactChaseDump(out.result, /*with_bindings=*/!naive);
      if (want != nullptr) *want = naive ? &ref_semantic : &ref;
      if (plan == nullptr) {
        ref_semantic = ExactChaseDump(out.result, /*with_bindings=*/false);
      }
      return Status::OK();
    };

    if (Status st = run_plan(nullptr, &ref, nullptr); !st.ok()) {
      return OracleOutcome::Skip("clone failed: " + st.ToString());
    }

    for (size_t k = 0; k < config.chaos_plans; ++k) {
      const uint64_t plan_seed =
          (config.chaos_seed ^ s.seed) + 0x9e3779b97f4a7c15ull * (k + 1);
      FaultPlan plan = RandomFaultPlan(plan_seed);
      std::string dump;
      const std::string* want = nullptr;
      if (Status st = run_plan(&plan, &dump, &want); !st.ok()) {
        return OracleOutcome::Skip("clone failed: " + st.ToString());
      }
      if (dump == *want) continue;

      // ddmin the plan (greedy single-spec drops to a fixpoint) so the
      // failure names the smallest sub-plan that still breaks recovery.
      FaultPlan min = plan;
      bool shrunk = true;
      while (shrunk && min.faults.size() > 1) {
        shrunk = false;
        for (size_t i = 0; i < min.faults.size(); ++i) {
          FaultPlan cand;
          for (size_t j = 0; j < min.faults.size(); ++j) {
            if (j != i) cand.faults.push_back(min.faults[j]);
          }
          std::string d;
          const std::string* w = nullptr;
          if (!run_plan(&cand, &d, &w).ok()) continue;
          if (d != *w) {
            min = std::move(cand);
            shrunk = true;
            break;
          }
        }
      }
      size_t at = 0;
      while (at < dump.size() && at < want->size() &&
             dump[at] == (*want)[at]) {
        ++at;
      }
      return OracleOutcome::Fail(
          "chaos plan (seed " + std::to_string(plan_seed) +
          ") did not recover byte-identically (first divergence at byte " +
          std::to_string(at) + ")\n--- minimized plan ---\n" + min.ToString() +
          "--- fault-free ---\n" + *want + "--- chaos ---\n" + dump);
    }
    return OracleOutcome::Pass();
  }
};

/// Renders one CQ as the bare body text the serve protocol's QUERY
/// payload carries ("e(V0, V1), u(V1)").
std::string QueryBodyText(const ConjunctiveQuery& q, const SignaturePtr& sig) {
  std::vector<ConjunctiveQuery> one{q};
  const Theory empty(sig);
  std::string text = ToProgramText(empty, nullptr, &one);
  // ToProgramText renders a query line as "?- <body>.\n".
  if (text.rfind("?- ", 0) == 0) text.erase(0, 3);
  while (!text.empty() && (text.back() == '\n' || text.back() == '.')) {
    text.pop_back();
  }
  return text;
}

/// Serving agreement (DESIGN.md §2.15): a ReasoningServer that LOADs the
/// scenario and answers its queries from the cached artifact must agree
/// byte-for-byte with a one-shot RunChase + Satisfies over the same
/// program. Every query is asked twice — the second ask runs against a
/// signature the first ask already marked and rolled back, so a rollback
/// leak (satellite: one Signature per artifact, copy-on-admit) diverges
/// here. Skips scenarios the compile budget rejects (serve only admits
/// saturating theories).
class ServeAgreementOracle : public Oracle {
 public:
  std::string_view name() const override { return "serve-agreement"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    if (s.queries.empty()) return OracleOutcome::Skip("no queries");

    ChaseOptions opts;
    opts.max_rounds = config.max_rounds;
    opts.max_facts = config.max_facts;
    const ChaseResult one_shot = RunChase(s.theory, s.instance, opts);
    if (!one_shot.status.ok() || !one_shot.fixpoint_reached) {
      return OracleOutcome::Skip("chase budget (serve admits only fixpoints)");
    }

    serve::ServerOptions sopts;
    sopts.compile.max_rounds = config.max_rounds;
    sopts.compile.max_facts = config.max_facts;
    serve::ReasoningServer server(sopts);

    serve::Request load;
    load.kind = serve::Request::Kind::kLoad;
    load.tenant = "oracle";
    load.payload = ToProgramText(s.theory, &s.instance, nullptr);
    const serve::Response loaded = server.Handle(load);
    if (!loaded.ok()) {
      return OracleOutcome::Fail("LOAD rejected a saturating theory: " +
                                 loaded.status.ToString());
    }
    uint64_t key = 0;
    if (loaded.body.rfind("key=", 0) != 0 ||
        !serve::KeyFromHex(loaded.body.substr(4, 16), &key)) {
      return OracleOutcome::Fail("unparseable LOAD response: " + loaded.body);
    }

    for (size_t i = 0; i < s.queries.size(); ++i) {
      const bool expected = Satisfies(one_shot.structure, s.queries[i]);
      serve::Request ask;
      ask.kind = serve::Request::Kind::kQuery;
      ask.tenant = "oracle";
      ask.key = key;
      ask.payload = QueryBodyText(s.queries[i], s.sig);
      for (int round = 0; round < 2; ++round) {
        const serve::Response served = server.Handle(ask);
        if (!served.ok()) {
          return OracleOutcome::Fail("QUERY failed: " +
                                     served.status.ToString());
        }
        const std::string want = expected ? "true" : "false";
        if (served.body != want) {
          return OracleOutcome::Fail(
              "query " + std::to_string(i) + " ask " + std::to_string(round) +
              " diverged: served " + served.body + ", one-shot " + want +
              " (" + ask.payload + ")");
        }
      }
    }
    return OracleOutcome::Pass();
  }
};

// ---------------------------------------------------------------------------
// ptype-reference: ≡_n from the connected-pattern TypeOracle must equal the
// all-subsets reference (testing/ptype_reference.h) at n = 2 and 3 on the
// scenario's bounded chase, cut at the longest round prefix the reference
// can afford. So must the containment of each element's quotient image in
// the element: the CheckConservativeUpTo shape, the one that reaches the
// oracle's pin-free components.
// ---------------------------------------------------------------------------

class PtypeReferenceOracle : public Oracle {
 public:
  std::string_view name() const override { return "ptype-reference"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    ChaseOptions opts;
    opts.max_rounds = config.max_rounds;
    opts.max_facts = config.max_facts;
    const ChaseResult chase = RunChase(s.theory, s.instance, opts);
    const Structure c = NullBoundedPrefix(chase);
    if (std::none_of(c.Domain().begin(), c.Domain().end(),
                     [&](TermId e) { return s.sig->IsNull(e); })) {
      return OracleOutcome::Skip(chase.nulls_created == 0
                                     ? "no labeled nulls"
                                     : "too many nulls for the reference");
    }
    for (int n : {2, 3}) {
      const std::string at = "n=" + std::to_string(n) + ": ";
      Result<TypePartition> got = ExactPtpPartition(c, n);
      Result<TypePartition> want = ReferenceExactPtpPartition(c, n);
      if (!got.ok() || !want.ok()) {
        return OracleOutcome::Skip("type pattern budget tripped");
      }
      if (got.value().class_id != want.value().class_id) {
        return OracleOutcome::Fail(
            at + Mismatch("ExactPtpPartition classes",
                          got.value().num_classes, want.value().num_classes));
      }
      const Quotient q = BuildQuotient(c, got.value());
      TypeOracleOptions topts;
      topts.num_variables = n;
      TypeOracle oracle(q.structure, c, topts);
      ReferenceTypeOracle reference(q.structure, c, topts);
      for (TermId e : c.Domain()) {
        const bool fast = oracle.TypeContained(q.Project(e), e);
        const bool slow = reference.TypeContained(q.Project(e), e);
        if (oracle.budget_exhausted() || reference.budget_exhausted()) {
          return OracleOutcome::Skip("type pattern budget tripped");
        }
        if (fast != slow) {
          return OracleOutcome::Fail(
              at + Mismatch("quotient-image containment of element",
                            fast, slow) +
              " (element " + s.sig->ConstantName(e) + ")");
        }
      }
    }
    return OracleOutcome::Pass();
  }

 private:
  static constexpr size_t kMaxNulls = 16;

  /// The longest round prefix Chase^R (R = 0 is D) with at most kMaxNulls
  /// labeled nulls: the reference's all-subsets enumeration is exponential
  /// in the null count.
  static Structure NullBoundedPrefix(const ChaseResult& chase) {
    std::vector<size_t> born(1, 0);  // nulls per birth round
    for (TermId e : chase.structure.Domain()) {
      const size_t r = static_cast<size_t>(chase.ElementBirthRound(e));
      if (r >= born.size()) born.resize(r + 1, 0);
      ++born[r];
    }
    size_t last = 0;
    for (size_t r = 1, nulls = 0; r < born.size(); ++r) {
      nulls += born[r];
      if (nulls > kMaxNulls) break;
      last = r;
    }
    Structure out(chase.structure.signature_ptr());
    for (TermId e : chase.structure.Domain()) {
      if (static_cast<size_t>(chase.ElementBirthRound(e)) <= last) {
        out.AddDomainElement(e);
      }
    }
    const std::vector<std::vector<Atom>> rounds = chase.FactsByRound();
    for (size_t r = 0; r <= last && r < rounds.size(); ++r) {
      for (const Atom& fact : rounds[r]) out.AddFact(fact);
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// coloring-reference: the indexed NaturalColoring must equal the literal
// full-scan reference (testing/coloring_reference.h) on the scenario's
// bounded chase whenever its nulls form a forest: the same colors, color
// predicates, lightness count and colored structure, and a coloring that
// passes the literal Def. 14 check. Both run on copies of the signature,
// so the scenario's signature gains no color predicates.
// ---------------------------------------------------------------------------

class ColoringReferenceOracle : public Oracle {
 public:
  std::string_view name() const override { return "coloring-reference"; }

  OracleOutcome Check(const Scenario& s,
                      const OracleConfig& config) const override {
    ChaseOptions opts;
    opts.max_rounds = config.max_rounds;
    opts.max_facts = config.max_facts;
    const ChaseResult chase = RunChase(s.theory, s.instance, opts);
    const Structure& c = chase.structure;
    if (std::none_of(c.Domain().begin(), c.Domain().end(),
                     [&](TermId e) { return s.sig->IsNull(e); })) {
      return OracleOutcome::Skip("no labeled nulls");
    }
    if (!AnalyzeSkeleton(c).is_forest) {
      return OracleOutcome::Skip("nulls do not form a forest");
    }
    // The reference scans every fact once per element.
    if (c.Domain().size() * c.NumFacts() > kMaxReferenceWork) {
      return OracleOutcome::Skip("structure too large for the reference");
    }
    const int m = 1 + static_cast<int>(s.seed % 4);
    const Structure c_fast = CopyOnFreshSignature(c);
    const Structure c_ref = CopyOnFreshSignature(c);
    Result<Coloring> got = NaturalColoring(c_fast, m);
    Result<Coloring> want = ReferenceNaturalColoring(c_ref, m);
    if (!got.ok() || !want.ok()) {
      return OracleOutcome::Fail(
          "coloring of a forest failed: " + got.status().ToString() + " vs " +
          want.status().ToString());
    }
    const Coloring& g = got.value();
    const Coloring& w = want.value();
    if (g.num_lightnesses != w.num_lightnesses) {
      return OracleOutcome::Fail(
          Mismatch("lightness count", g.num_lightnesses, w.num_lightnesses));
    }
    if (g.color_predicates != w.color_predicates) {
      return OracleOutcome::Fail("color predicates differ");
    }
    for (TermId e : c.Domain()) {
      if (g.color_of.at(e) != w.color_of.at(e)) {
        return OracleOutcome::Fail(
            Mismatch("color",
                     g.colored.sig().PredicateName(g.color_of.at(e)),
                     w.colored.sig().PredicateName(w.color_of.at(e))) +
            " (element " + s.sig->ConstantName(e) + ")");
      }
    }
    if (g.colored.ToString() != w.colored.ToString()) {
      return OracleOutcome::Fail("colored structures differ");
    }
    if (!IsNaturalColoring(g, c_fast, m)) {
      return OracleOutcome::Fail("coloring fails the Def. 14 check");
    }
    return OracleOutcome::Pass();
  }

 private:
  static constexpr size_t kMaxReferenceWork = 2000000;
};

}  // namespace

const std::vector<const Oracle*>& AllOracles() {
  static const ChaseAgreementOracle chase_agreement;
  static const ParserRoundTripOracle parser_roundtrip;
  static const RewriteDeterminismOracle rewrite_determinism;
  static const RewriteVsChaseOracle rewrite_vs_chase;
  static const PipelineCertifyOracle pipeline_certify;
  static const GovernorPrefixOracle governor_prefix;
  static const ChaosRecoveryOracle chaos_recovery;
  static const ServeAgreementOracle serve_agreement;
  static const PtypeReferenceOracle ptype_reference;
  static const ColoringReferenceOracle coloring_reference;
  static const std::vector<const Oracle*> kAll = {
      &chase_agreement, &parser_roundtrip, &rewrite_determinism,
      &rewrite_vs_chase, &pipeline_certify, &governor_prefix,
      &chaos_recovery, &serve_agreement, &ptype_reference,
      &coloring_reference};
  return kAll;
}

const Oracle* FindOracle(std::string_view name) {
  for (const Oracle* o : AllOracles()) {
    if (o->name() == name) return o;
  }
  return nullptr;
}

}  // namespace bddfc
