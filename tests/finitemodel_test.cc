// End-to-end tests for the Theorem 2 pipeline and the brute-force model
// finder — the headline constructions of the paper.

#include <gtest/gtest.h>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/model_search.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

Program MustParse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

ConjunctiveQuery MustQuery(const char* text, Program* p) {
  auto q = ParseQuery(text, p->theory.signature_ptr().get());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

/// Certifies a pipeline result independently.
void ExpectCertifiedCounterModel(const FiniteModelResult& r,
                                 const Program& p,
                                 const ConjunctiveQuery& q) {
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.model.ContainsAllFactsOf(p.instance));
  EXPECT_EQ(CheckModel(r.model, p.theory), std::nullopt);
  EXPECT_FALSE(Satisfies(r.model, q));
  EXPECT_GT(r.model.Domain().size(), 0u);
}

TEST(PipelineTest, Example7SelfLoopQuery) {
  Program p = Example7();
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, Example7OffDiagonalRQuery) {
  // r holds only reflexively in the chase; in the finite model off-diagonal
  // r atoms appear (Example 8's phenomenon) — but r(x, x) ∧ e(x, x) stays
  // avoidable.
  Program p = Example7();
  ConjunctiveQuery q = MustQuery("r(X, Y), e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, SuccessorTheoryAvoidsLongOddCycleQuery) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, CertainQueryIsReported) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  // ∃x, y e(x, y) is certainly true.
  ConjunctiveQuery q = MustQuery("e(X, Y)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.query_certainly_true);
}

TEST(PipelineTest, TerminatingChaseShortCircuits) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: r(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("r(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
  // The chase terminates, so the model is the chase itself: 3 elements.
  EXPECT_EQ(r.model.Domain().size(), 3u);
  EXPECT_EQ(r.n_used, 0);
}

TEST(PipelineTest, Example1TriangleQueryAvoided) {
  // Example 1's theory: the chase is an infinite E-chain with no triangle,
  // so a finite model avoiding the triangle (and hence never triggering the
  // u-rules) must exist.
  Program p = Example1();
  ConjunctiveQuery q = MustQuery("u(X, Y)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
  // In particular the model contains no E-triangle (it would derive u).
  const Signature& sig = p.theory.sig();
  PredId e = std::move(sig.FindPredicate("e")).ValueOrDie();
  ConjunctiveQuery triangle;
  triangle.atoms.push_back(Atom(e, {MakeVar(0), MakeVar(1)}));
  triangle.atoms.push_back(Atom(e, {MakeVar(1), MakeVar(2)}));
  triangle.atoms.push_back(Atom(e, {MakeVar(2), MakeVar(0)}));
  EXPECT_FALSE(Satisfies(r.model, triangle));
}

TEST(PipelineTest, RemarkThreeTheoryLoopInstance) {
  // Remark 3: D = {e(a,a), e(b,c)} under successor+transitivity. The query
  // "some element reaches itself in two hops" is true (a loops), so pick a
  // falsifiable one instead: e(c, X) — c never gains an e-successor? It
  // does (successor rule). Use u-less theory with query e(X, X), which IS
  // certain here (e(a, a) ∈ D). Check certain-query reporting.
  Program p = RemarkThreeTheory();
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_TRUE(r.query_certainly_true);
}

TEST(PipelineTest, TransitivityWithFalsifiableQuery) {
  // Successor + transitivity from a loop-free instance: e(X, X) is false in
  // the chase; the quotient must avoid self-loops... but transitive closure
  // over a finite cycle derives them. The pipeline is expected to report
  // Unknown here at small budgets (Remark 3 shows the chase of this theory
  // is NOT ptp-conservative; the conjecture does not promise a model via
  // THIS construction because the theory is not BDD).
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  PipelineOptions opts;
  opts.max_chase_depth = 16;
  FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kUnknown);
  EXPECT_FALSE(r.query_certainly_true);
}

TEST(PipelineTest, Example9BranchingTheory) {
  Program p = Example9();
  ConjunctiveQuery q = MustQuery("f(X, X)", &p);
  PipelineOptions opts;
  opts.initial_chase_depth = 8;
  opts.max_chase_depth = 16;  // 2^16 facts would explode; tree is 2^d
  opts.max_chase_facts = 100000;
  FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, ConservativityDiagnosticsAreRecorded) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  PipelineOptions opts;
  opts.check_conservativity = true;
  FiniteModelResult r =
      ConstructFiniteCounterModel(p.theory, p.instance, q, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(r.attempts.empty());
  // Diagnostics are recorded. Note the check runs against the chase
  // *prefix*: merging the frontier with interior elements grows the
  // frontier elements' prefix-types (their infinite-chase types are what
  // is preserved), so `conservative` is typically false here even for
  // certified attempts — certification, not this diagnostic, is the
  // soundness gate.
  EXPECT_TRUE(r.attempts.back().certified);
}

TEST(PipelineTest, TheoremThreeTernaryHeads) {
  // Theorem 3 scope: a non-binary theory whose TGD heads mention one body
  // variable. The pipeline binarizes the heads (§5.1) internally and still
  // certifies against the ORIGINAL ternary theory.
  Program p = MustParse(R"(
    u(X) -> exists Z1, Z2: t(X, Z1, Z2).
    t(X, Y, Z) -> u(Y).
    u(a).
  )");
  ConjunctiveQuery q = MustQuery("t(X, Y, Y)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, MultiHeadBinaryTgd) {
  Program p = MustParse(R"(
    u(X) -> e(X, Z), u(Z).
    u(a).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
}

TEST(PipelineTest, TwoFrontierHeadRejectedWithGuidance) {
  Program p = MustParse("e(X, Y) -> exists Z: t(X, Y, Z).");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("5.2"), std::string::npos);
}

TEST(PipelineTest, NonBinaryTheoryRejected) {
  Program p = Section54();
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelSearchTest, FindsExample1Cycle) {
  // Example 1: M' = 3-cycle is a homomorphic image but NOT a model; the
  // search must find a genuine model avoiding u — and no E-triangle.
  Program p = Example1();
  ConjunctiveQuery q = MustQuery("u(X, Y)", &p);
  ModelSearchOptions opts;
  opts.max_extra_elements = 2;  // a, b + 2 fresh
  ModelSearchResult r = FindFiniteModel(p.theory, p.instance, &q, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_TRUE(r.found);
  EXPECT_EQ(CheckModel(*r.model, p.theory), std::nullopt);
  EXPECT_FALSE(Satisfies(*r.model, q));
}

TEST(ModelSearchTest, Section55EveryFiniteModelSatisfiesPhi) {
  // §5.5: the theory is not FC — Φ = e(x, y) ∧ r(y, y) is false in the
  // chase but true in EVERY finite model. Verified exhaustively for
  // domains up to |D| + 1 (two binary predicates over four elements
  // already exceed the enumeration budget).
  Program p = Section55();
  ASSERT_EQ(p.queries.size(), 1u);
  ModelSearchOptions opts;
  opts.max_extra_elements = 1;
  ModelSearchResult r =
      FindFiniteModel(p.theory, p.instance, &p.queries[0], opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.found);
  // Sanity: dropping the avoidance constraint, finite models DO exist.
  ModelSearchResult any = FindFiniteModel(p.theory, p.instance, nullptr, opts);
  ASSERT_TRUE(any.status.ok());
  EXPECT_TRUE(any.found);
}

TEST(ModelSearchTest, Section55ChaseAvoidsPhi) {
  // The complementary half of the §5.5 argument: the chase never satisfies
  // Φ (checked on a deep prefix).
  Program p = Section55();
  ChaseOptions opts;
  opts.max_rounds = 12;
  ChaseResult chase = RunChase(p.theory, p.instance, opts);
  EXPECT_FALSE(Satisfies(chase.structure, p.queries[0]));
}

TEST(ModelSearchTest, AgreesWithPipelineOnTinyInput) {
  Program p = MustParse(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b).
  )");
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  ModelSearchResult search = FindFiniteModel(p.theory, p.instance, &q);
  ASSERT_TRUE(search.status.ok());
  EXPECT_TRUE(search.found);
  // Pipeline agrees that a counter-model exists.
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  EXPECT_TRUE(r.status.ok());
  // The brute-force model is no larger than the pipeline's.
  EXPECT_LE(search.model->Domain().size(), r.model.Domain().size());
}

// ---------------------------------------------------------------------------
// Golden runs: the attempt list and the certified model of the pipeline on
// Example 7 are pinned, so a faster coloring or certification step must
// reproduce them exactly. A model is pinned by its size and the FNV-1a hash
// of its sorted ToString() dump.
// ---------------------------------------------------------------------------

struct GoldenAttempt {
  size_t chase_depth;
  int n;
  size_t skeleton_facts;
  int quotient_size;
  bool certified;
  const char* failure;
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr const char* kExample7Rules =
    "e(X, Y) -> exists Z: e(Y, Z).\n"
    "e(X, Y), e(X1, Y) -> r(X, X1).\n";

void ExpectGoldenRun(const std::string& text,
                     const std::vector<GoldenAttempt>& attempts,
                     size_t model_domain, size_t model_facts,
                     size_t dump_length, uint64_t dump_hash) {
  Program p = MustParse(text.c_str());
  ConjunctiveQuery q = MustQuery("e(X, X)", &p);
  const int num_original_preds = p.theory.sig().num_predicates();
  FiniteModelResult r = ConstructFiniteCounterModel(p.theory, p.instance, q);
  ExpectCertifiedCounterModel(r, p, q);
  ASSERT_EQ(r.attempts.size(), attempts.size());
  for (size_t i = 0; i < attempts.size(); ++i) {
    const PipelineAttempt& got = r.attempts[i];
    const GoldenAttempt& want = attempts[i];
    EXPECT_EQ(got.chase_depth, want.chase_depth) << "attempt " << i;
    EXPECT_EQ(got.n, want.n) << "attempt " << i;
    EXPECT_EQ(got.skeleton_facts, want.skeleton_facts) << "attempt " << i;
    EXPECT_EQ(got.quotient_size, want.quotient_size) << "attempt " << i;
    EXPECT_EQ(got.certified, want.certified) << "attempt " << i;
    EXPECT_EQ(got.failure, want.failure) << "attempt " << i;
  }
  EXPECT_EQ(r.model.Domain().size(), model_domain);
  EXPECT_EQ(r.model.NumFacts(), model_facts);
  const std::string dump = r.model.ToString();
  EXPECT_EQ(dump.size(), dump_length);
  EXPECT_EQ(Fnv1a(dump), dump_hash);
  // Colors, the hidden-query predicate and normalization auxiliaries are
  // projected away.
  for (PredId pred = num_original_preds; pred < r.model.NumStoredPredicates();
       ++pred) {
    EXPECT_EQ(r.model.NumFacts(pred), 0u) << p.theory.sig().PredicateName(pred);
  }
}

TEST(PipelineGoldenTest, Example7OnSixteenEdgePath) {
  std::string text = kExample7Rules;
  for (int i = 0; i < 16; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) + ").\n";
  }
  ExpectGoldenRun(
      text,
      {{8, 2, 80, 66, false, "not a model: rule #0 violated by e(_q96, _q112)"},
       {8, 3, 80, 81, false, "not a model: rule #0 violated by e(_q145, _q161)"},
       {8, 4, 80, 81, false, "not a model: rule #0 violated by e(_q209, _q225)"},
       {16, 2, 144, 70, false,
        "not a model: rule #0 violated by e(_q420, _q421)"},
       {16, 3, 144, 85, false,
        "not a model: rule #0 violated by e(_q488, _q489)"},
       {16, 4, 144, 100, false,
        "not a model: rule #0 violated by e(_q571, _q572)"},
       {32, 2, 272, 70, true, ""}},
      70, 427, 6620, 0x112c6b5bd1bef385ULL);
}

TEST(PipelineGoldenTest, Example7OnSeededForest) {
  // The 128-edge, 4-root forest of the pipeline-ex7 benchmark at seed 1.
  std::string text = kExample7Rules;
  Rng rng(Rng::Mix(1, 2));
  int next = 4;
  for (int k = 0; k < 128; ++k) {
    const int parent = static_cast<int>(rng.Uniform(next));
    text += "e(c" + std::to_string(parent) + ", c" + std::to_string(next++) +
            ").\n";
  }
  ExpectGoldenRun(
      text,
      {{8, 2, 640, 517, false,
        "not a model: rule #0 violated by e(_q768, _q896)"},
       {8, 3, 640, 644, false,
        "not a model: rule #0 violated by e(_q1153, _q1281)"},
       {8, 4, 640, 644, false,
        "not a model: rule #0 violated by e(_q1665, _q1793)"},
       {16, 2, 1152, 521, false,
        "not a model: rule #0 violated by e(_q3332, _q3333)"},
       {16, 3, 1152, 648, false,
        "not a model: rule #0 violated by e(_q3848, _q3849)"},
       {16, 4, 1152, 775, false,
        "not a model: rule #0 violated by e(_q4491, _q4492)"},
       {32, 2, 2176, 521, true, ""}},
      521, 17678, 316323, 0x1e65ce1ee9bebabdULL);
}

}  // namespace
}  // namespace bddfc
