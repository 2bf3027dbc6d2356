// A/B equivalence suite: the chase engine (ChaseEngine::kParallel, serial
// round at one thread, sharded rounds above) must produce the same result
// as the seed naive full-re-enumeration loop — same facts, same per-round
// growth, same nulls, same fixpoint verdict — on every workload generator
// family and every paper-example program. The engine is additionally held
// to *byte identity* (row order, raw TermIds, provenance, dedup counters)
// with kNaive at 1, 2, 4 and 8 threads. kNaive runs the interpretive
// Matcher and the per-binding hash sink, so the identity sweep
// cross-validates the plan executor and the vectorized sink against an
// independent implementation on every workload here.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/parser/parser.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

/// Per-predicate multiset of fact birth rounds — a strong cheap invariant
/// that is independent of row order and null naming.
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

/// Runs the engine at one and four threads against the naive baseline
/// with identical options and asserts equivalence for each.
/// `check_isomorphism` additionally requires homomorphisms both ways
/// (exact up to null renaming); keep it off for large random structures
/// where the whole-structure CQ gets expensive.
void ExpectEnginesAgree(const Theory& theory, const Structure& instance,
                        ChaseOptions options, bool check_isomorphism = true) {
  options.engine = ChaseEngine::kNaive;
  ChaseResult naive = RunChase(theory, instance, options);

  options.engine = ChaseEngine::kParallel;
  for (size_t threads : {1u, 4u}) {
    options.threads = threads;
    ChaseResult got = RunChase(theory, instance, options);
    const std::string label = "threads=" + std::to_string(threads);

    EXPECT_EQ(got.structure.NumFacts(), naive.structure.NumFacts()) << label;
    EXPECT_EQ(got.facts_per_round, naive.facts_per_round) << label;
    EXPECT_EQ(got.nulls_created, naive.nulls_created) << label;
    EXPECT_EQ(got.fixpoint_reached, naive.fixpoint_reached) << label;
    EXPECT_EQ(got.rounds_run, naive.rounds_run) << label;
    EXPECT_EQ(got.status.code(), naive.status.code()) << label;
    EXPECT_EQ(BirthRoundsByPredicate(got), BirthRoundsByPredicate(naive))
        << label;
    if (check_isomorphism) {
      EXPECT_TRUE(HasHomomorphism(got.structure, naive.structure)) << label;
      EXPECT_TRUE(HasHomomorphism(naive.structure, got.structure)) << label;
    }
  }
}

/// Serializes everything the determinism contract covers: rows in append
/// order with raw TermIds, per-round growth, null provenance, fact birth
/// rounds and the dedup counters. Two runs with equal dumps are
/// byte-identical — same row order, same null *names*, not just
/// isomorphic. `with_bindings` adds bindings_tried, the one effort counter
/// in the dump: equal at every thread count, but kNaive re-enumerates every
/// round, so comparisons against it leave it out.
std::string ExactDump(const ChaseResult& r, bool with_bindings = true) {
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
  std::map<std::pair<PredId, uint32_t>, int> births;
  for (const auto& [handle, round] : r.fact_round) {
    births[{handle.pred, handle.row}] = round;
  }
  for (const auto& [key, round] : births) {
    s += "fact p" + std::to_string(key.first) + "#" +
         std::to_string(key.second) + "=r" + std::to_string(round) + "\n";
  }
  return s;
}

/// The engine's core contract: byte-identical output at 1, 2, 4 and 8
/// threads, and — bindings_tried aside — byte-identical to kNaive, the
/// interpretive Matcher with the per-binding hash sink. Every comparison
/// is therefore an A/B check of the plan executor and of the sort-dedup
/// sink, dedup counters included (they are part of the dump). `make` must
/// build a fresh Program per call — runs share a Signature otherwise, and
/// the nulls the first run interns would shift the TermIds of the second.
void ExpectByteIdentical(const std::function<Program()>& make,
                         ChaseOptions options) {
  options.engine = ChaseEngine::kNaive;
  Program naive_program = make();
  const std::string naive = ExactDump(
      RunChase(naive_program.theory, naive_program.instance, options),
      /*with_bindings=*/false);
  options.engine = ChaseEngine::kParallel;
  std::string serial;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    Program p = make();
    ChaseOptions o = options;
    o.threads = threads;
    const ChaseResult r = RunChase(p.theory, p.instance, o);
    EXPECT_EQ(ExactDump(r, /*with_bindings=*/false), naive)
        << "threads=" << threads << " vs naive";
    if (threads == 1) {
      serial = ExactDump(r);
    } else {
      EXPECT_EQ(ExactDump(r), serial) << "threads=" << threads << " vs 1";
    }
  }
}

ChaseOptions Depth(size_t rounds) {
  ChaseOptions o;
  o.max_rounds = rounds;
  return o;
}

// ---------------------------------------------------------------------------
// Paper-example programs (workload/paper_examples.cc).
// ---------------------------------------------------------------------------

TEST(ChaseAbTest, Example1) {
  Program p = Example1();  // diverges: compare bounded prefixes
  ExpectEnginesAgree(p.theory, p.instance, Depth(6));
}

TEST(ChaseAbTest, RemarkThreeTheory) {
  Program p = RemarkThreeTheory();
  ExpectEnginesAgree(p.theory, p.instance, Depth(6));
}

TEST(ChaseAbTest, Example7) {
  Program p = Example7();
  ExpectEnginesAgree(p.theory, p.instance, Depth(6));
}

TEST(ChaseAbTest, Example9) {
  Program p = Example9();  // binary tree growth
  ExpectEnginesAgree(p.theory, p.instance, Depth(5));
}

TEST(ChaseAbTest, Section54) {
  Program p = Section54();
  ExpectEnginesAgree(p.theory, p.instance, Depth(5));
}

TEST(ChaseAbTest, Section55) {
  Program p = Section55();
  ExpectEnginesAgree(p.theory, p.instance, Depth(5));
}

TEST(ChaseAbTest, GuardedSample) {
  Program p = GuardedSample();
  ExpectEnginesAgree(p.theory, p.instance, Depth(8));
}

TEST(ChaseAbTest, PaperExamplesOblivious) {
  for (Program p : {Example1(), Example7(), Example9(), Section55()}) {
    ChaseOptions o = Depth(4);
    o.oblivious = true;
    ExpectEnginesAgree(p.theory, p.instance, o);
  }
}

TEST(ChaseAbTest, CyclicWitnessReuse) {
  // Witnesses pre-exist: the restricted chase must stop immediately under
  // both engines.
  auto parsed = ParseProgram(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b). e(b, a).
  )");
  ASSERT_TRUE(parsed.ok());
  Program& p = parsed.value();
  ExpectEnginesAgree(p.theory, p.instance, Depth(8));
}

// ---------------------------------------------------------------------------
// Generator families (workload/generators.cc), swept over seeds.
// ---------------------------------------------------------------------------

class ChaseAbGenerators : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaseAbGenerators, RandomGraphTransitiveClosure) {
  auto sig = std::make_shared<Signature>();
  Structure d = RandomGraph(sig, /*nodes=*/14, /*edges=*/30, GetParam());
  PredId e0 = std::move(sig->FindPredicate("e0")).ValueOrDie();
  Theory t(sig);
  TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
  ASSERT_TRUE(t.AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                             {Atom(e0, {x, z})}))
                  .ok());
  ExpectEnginesAgree(t, d, Depth(64), /*check_isomorphism=*/false);
}

TEST_P(ChaseAbGenerators, RandomLinearTheory) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomLinearTheory(sig, /*preds=*/4, /*rules=*/6, GetParam());
  Structure d(sig);
  PredId p0 = std::move(sig->FindPredicate("p0")).ValueOrDie();
  PredId p1 = std::move(sig->FindPredicate("p1")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b"),
         c = sig->AddConstant("c");
  d.AddFact(p0, {a, b});
  d.AddFact(p1, {b, c});
  ExpectEnginesAgree(t, d, Depth(6));
}

TEST_P(ChaseAbGenerators, RandomGuardedTheory) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomGuardedTheory(sig, /*max_arity=*/3, /*rules=*/5,
                                 GetParam());
  Structure d(sig);
  PredId g2 = std::move(sig->FindPredicate("g2_0")).ValueOrDie();
  PredId g3 = std::move(sig->FindPredicate("g3_0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(g2, {a, b});
  d.AddFact(g3, {b, a, a});
  ExpectEnginesAgree(t, d, Depth(5));
}

TEST_P(ChaseAbGenerators, RandomAcyclicBinaryTheory) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, /*preds=*/5, /*tgds=*/5,
                                       /*datalog_rules=*/4, GetParam());
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  Rng rng(GetParam() * 31 + 5);
  std::vector<TermId> consts;
  for (int i = 0; i < 4; ++i) {
    consts.push_back(sig->AddConstant("k" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    d.AddFact(b0, {consts[rng.Uniform(4)], consts[rng.Uniform(4)]});
  }
  // Weakly acyclic: both engines must reach the same fixpoint.
  ExpectEnginesAgree(t, d, Depth(128));
}

TEST_P(ChaseAbGenerators, RandomAcyclicBinaryTheoryDatalogOnly) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, /*preds=*/5, /*tgds=*/3,
                                       /*datalog_rules=*/6, GetParam());
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
  d.AddFact(b0, {a, b});
  d.AddFact(b0, {b, a});
  ChaseOptions o = Depth(128);
  o.datalog_only = true;
  ExpectEnginesAgree(t, d, o);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseAbGenerators,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Parallel engine byte-identity: not just isomorphic — identical row
// order, identical null TermIds, identical provenance at every thread
// count (the determinism contract of chase/parallel.h).
// ---------------------------------------------------------------------------

TEST(ChaseParallelIdentity, PaperExamples) {
  ExpectByteIdentical([] { return Example1(); }, Depth(6));
  ExpectByteIdentical([] { return Example9(); }, Depth(5));
  ExpectByteIdentical([] { return GuardedSample(); }, Depth(8));
  ExpectByteIdentical([] { return Section54(); }, Depth(5));
}

TEST(ChaseParallelIdentity, ObliviousMode) {
  ChaseOptions o = Depth(4);
  o.oblivious = true;
  ExpectByteIdentical([] { return Example7(); }, o);
  ExpectByteIdentical([] { return Example1(); }, o);
}

TEST(ChaseParallelIdentity, DatalogTransitiveClosure) {
  // Large enough that one relation spans multiple 1024-row chunks is
  // impractical here; instead exercise many rounds and heavy dedup.
  auto make = [] {
    std::string text = "e(X, Y), e(Y, Z) -> e(X, Z).\n";
    for (int i = 0; i < 24; ++i) {
      text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
              ").\n";
    }
    auto r = ParseProgram(text);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  ExpectByteIdentical(make, Depth(64));
}

TEST(ChaseParallelIdentity, GeneratorWorkloads) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    ExpectByteIdentical(
        [seed] {
          auto sig = std::make_shared<Signature>();
          Structure d = RandomGraph(sig, /*nodes=*/14, /*edges=*/30, seed);
          PredId e0 = std::move(sig->FindPredicate("e0")).ValueOrDie();
          Program p(sig);
          TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
          EXPECT_TRUE(
              p.theory
                  .AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                                {Atom(e0, {x, z})}))
                  .ok());
          p.instance = std::move(d);
          return p;
        },
        Depth(64));
    ExpectByteIdentical(
        [seed] {
          auto sig = std::make_shared<Signature>();
          Program p(sig);
          p.theory = RandomGuardedTheory(sig, /*max_arity=*/3, /*rules=*/5,
                                         seed);
          PredId g2 = std::move(sig->FindPredicate("g2_0")).ValueOrDie();
          PredId g3 = std::move(sig->FindPredicate("g3_0")).ValueOrDie();
          TermId a = sig->AddConstant("a"), b = sig->AddConstant("b");
          p.instance.AddFact(g2, {a, b});
          p.instance.AddFact(g3, {b, a, a});
          return p;
        },
        Depth(5));
  }
}

TEST(ChaseParallelIdentity, DivergentRunCutByRoundBudget) {
  // A budget-cut (non-fixpoint) run must be byte-identical too: the
  // parallel engine's round barriers make the prefix deterministic.
  ChaseOptions o = Depth(8);
  ExpectByteIdentical([] { return Example1(); }, o);
  ChaseOptions facts = Depth(64);
  facts.max_facts = 100;
  ExpectByteIdentical([] { return Example9(); }, facts);
}

// ---------------------------------------------------------------------------
// Stats-merge regression (the parallel ChaseStats bugfix): per-round
// times must merge max across shards, so the reported round times can
// never exceed the measured wall clock of the whole run.
// ---------------------------------------------------------------------------

TEST(ChaseParallelStats, ReportedRoundTimesStayUnderMeasuredWallClock) {
  const std::pair<ChaseEngine, size_t> configs[] = {
      {ChaseEngine::kNaive, 1},    {ChaseEngine::kParallel, 1},
      {ChaseEngine::kParallel, 2}, {ChaseEngine::kParallel, 4},
      {ChaseEngine::kParallel, 8}};
  for (const auto& [engine, threads] : configs) {
    auto sig = std::make_shared<Signature>();
    Structure d = RandomGraph(sig, /*nodes=*/18, /*edges=*/48, /*seed=*/5);
    PredId e0 = std::move(sig->FindPredicate("e0")).ValueOrDie();
    Theory t(sig);
    TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
    ASSERT_TRUE(t.AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                               {Atom(e0, {x, z})}))
                    .ok());
    ChaseOptions o;
    o.max_rounds = 64;
    o.engine = engine;
    o.threads = threads;

    const auto wall_start = std::chrono::steady_clock::now();
    ChaseResult r = RunChase(t, d, o);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.fixpoint_reached);
    // Same stats shape at every thread count: one entry per executed round
    // plus the final (empty) fixpoint round.
    const std::string label =
        (engine == ChaseEngine::kNaive ? "naive" : "engine") +
        std::string(" threads=") + std::to_string(threads);
    EXPECT_EQ(r.stats.round_ms.size(), r.rounds_run + 1) << label;
    // Rounds are disjoint sub-intervals of the run: with shard times
    // max-merged their sum is bounded by the wall clock. A sum-merge
    // would overshoot on any multi-core box. Small slack for clock
    // granularity.
    const double reported = std::accumulate(r.stats.round_ms.begin(),
                                            r.stats.round_ms.end(), 0.0);
    EXPECT_LE(reported, wall_ms + 0.5) << label;
  }
}

// ---------------------------------------------------------------------------
// Vectorized-sink counter parity: the deterministic sink counters
// (candidates buffered, occurrences dropped by bulk containment) must be
// identical at every thread count — only sink_probes may vary (compaction
// boundaries move with sharding). Under kNaive (hash sink) they must all
// stay zero while the dedup counter still agrees.
// ---------------------------------------------------------------------------

TEST(ChaseSinkStats, SinkCountersAreEngineAndThreadInvariant) {
  auto make_workload = [](SignaturePtr* sig_out) {
    auto sig = std::make_shared<Signature>();
    Structure d = RandomGraph(sig, /*nodes=*/16, /*edges=*/40, /*seed=*/11);
    *sig_out = sig;
    return d;
  };
  SignaturePtr ref_sig;
  Structure ref_d = make_workload(&ref_sig);
  PredId e0 = std::move(ref_sig->FindPredicate("e0")).ValueOrDie();
  Theory t(ref_sig);
  TermId x = MakeVar(0), y = MakeVar(1), z = MakeVar(2);
  ASSERT_TRUE(t.AddRule(Rule({Atom(e0, {x, y}), Atom(e0, {y, z})},
                             {Atom(e0, {x, z})}))
                  .ok());
  ChaseOptions base;
  base.max_rounds = 64;

  ChaseResult ref = RunChase(t, ref_d, base);  // the engine at one thread
  ASSERT_TRUE(ref.status.ok());
  EXPECT_GT(ref.stats.sink_candidates, 0u);
  // Conservation: every candidate is contained, deduped, or a new fact.
  EXPECT_EQ(ref.stats.sink_candidates - ref.stats.sink_contained -
                ref.stats.datalog_deduped,
            ref.structure.NumFacts() - ref_d.NumFacts());

  for (size_t threads : {2u, 4u, 8u}) {
    ChaseOptions o = base;
    o.threads = threads;
    ChaseResult r = RunChase(t, ref_d, o);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.stats.sink_candidates, ref.stats.sink_candidates)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.sink_contained, ref.stats.sink_contained)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.datalog_deduped, ref.stats.datalog_deduped)
        << "threads=" << threads;
  }

  ChaseOptions naive = base;
  naive.engine = ChaseEngine::kNaive;
  ChaseResult r = RunChase(t, ref_d, naive);
  EXPECT_EQ(r.stats.sink_candidates, 0u);
  EXPECT_EQ(r.stats.sink_contained, 0u);
  EXPECT_EQ(r.stats.sink_probes, 0u);
  EXPECT_EQ(r.stats.datalog_deduped, ref.stats.datalog_deduped);
}

}  // namespace
}  // namespace bddfc
