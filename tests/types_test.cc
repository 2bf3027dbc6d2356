// Tests for positive types (pebble games), quotients, colorings and
// conservativity — the machinery of §2 and §4, validated against the
// paper's Examples 2–6.

#include <gtest/gtest.h>

#include "bddfc/chase/skeleton.h"
#include "bddfc/eval/match.h"
#include "bddfc/testing/coloring_reference.h"
#include "bddfc/types/coloring.h"
#include "bddfc/types/conservativity.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

TypePartition MustPartition(const Structure& c, int n) {
  auto r = ExactPtpPartition(c, n);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(PtypeTest, Section22ExamplePositiveTypesCoincide) {
  // §2.2: C = {R(a,b), R(a,c), E(a,c), E(d,e), R(d,e)}. The positive
  // 2-types of a and d coincide although their FO 2-types differ (positive
  // queries cannot express y ≠ z).
  auto sig = std::make_shared<Signature>();
  PredId r = std::move(sig->AddPredicate("r", 2)).ValueOrDie();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  TermId a = sig->AddNull(), b = sig->AddNull(), c = sig->AddNull();
  TermId d = sig->AddNull(), e5 = sig->AddNull();
  Structure s(sig);
  s.AddFact(r, {a, b});
  s.AddFact(r, {a, c});
  s.AddFact(e, {a, c});
  s.AddFact(e, {d, e5});
  s.AddFact(r, {d, e5});

  for (int n = 2; n <= 3; ++n) {
    TypeOracleOptions opts;
    opts.num_variables = n;
    TypeOracle oracle(s, s, opts);
    EXPECT_TRUE(oracle.TypeContained(a, d)) << "n=" << n;
    EXPECT_TRUE(oracle.TypeContained(d, a)) << "n=" << n;
    // But b (a sink with an R-predecessor only) differs from a.
    EXPECT_FALSE(oracle.TypeContained(a, b)) << "n=" << n;
  }
}

TEST(PtypeTest, ChainTypeClassesMatchExample3) {
  // On a finite E-chain, ≡_n distinguishes elements by their distance to
  // either endpoint up to n-1: 2(n-1) + 1 classes (chain long enough).
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 10);
  EXPECT_EQ(MustPartition(chain, 1).num_classes, 1);
  EXPECT_EQ(MustPartition(chain, 2).num_classes, 3);
  EXPECT_EQ(MustPartition(chain, 3).num_classes, 5);
}

TEST(PtypeTest, NamedConstantsAreSingletons) {
  // Remark 1: a constant's positive 1-type contains y = c.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  TermId a = sig->AddConstant("a");
  TermId n1 = sig->AddNull(), n2 = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {a, n1});
  s.AddFact(e, {a, n2});
  TypePartition p = MustPartition(s, 2);
  // a alone; n1 and n2 equivalent.
  EXPECT_EQ(p.num_classes, 2);
  EXPECT_NE(p.ClassOf(a), p.ClassOf(n1));
  EXPECT_EQ(p.ClassOf(n1), p.ClassOf(n2));
}

TEST(PtypeTest, ConstantsInAtomsConstrainTypes) {
  // e(c, x) acts like a unary predicate on x: nulls with and without the
  // c-edge have different 1-types... detected at n >= 1.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  TermId c = sig->AddConstant("c");
  TermId x = sig->AddNull(), y = sig->AddNull(), z = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {c, x});
  s.AddFact(e, {x, y});
  s.AddFact(e, {z, y});
  // x has an edge from the constant; z does not.
  TypePartition p = MustPartition(s, 1);
  EXPECT_NE(p.ClassOf(x), p.ClassOf(z));
}

TEST(PtypeTest, TypeContainmentIsDirectional) {
  // In a chain, an interior element's type strictly contains an endpoint's.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 6, &elems);
  TypeOracleOptions opts;
  opts.num_variables = 2;
  TypeOracle oracle(chain, chain, opts);
  // Everything true at the start (only "has successor") holds at interior
  // elements; the converse fails ("has predecessor").
  EXPECT_TRUE(oracle.TypeContained(elems[0], elems[3]));
  EXPECT_FALSE(oracle.TypeContained(elems[3], elems[0]));
}

TEST(PtypeTest, SignatureRestrictionChangesTypes) {
  // Over Θ = {e} two elements agree; over Θ = {e, u} they differ.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId u = std::move(sig->AddPredicate("u", 1)).ValueOrDie();
  TermId a = sig->AddNull(), b = sig->AddNull();
  TermId c = sig->AddNull(), d = sig->AddNull();
  Structure s(sig);
  s.AddFact(e, {a, b});
  s.AddFact(e, {c, d});
  s.AddFact(u, {a});
  TypeOracleOptions over_e;
  over_e.num_variables = 2;
  over_e.predicates = {e};
  TypeOracle oracle_e(s, s, over_e);
  EXPECT_TRUE(oracle_e.TypeContained(a, c));
  TypeOracleOptions all;
  all.num_variables = 2;
  TypeOracle oracle_all(s, s, all);
  EXPECT_FALSE(oracle_all.TypeContained(a, c));
  EXPECT_TRUE(oracle_all.TypeContained(c, a));
}

TEST(PtypeTest, BallPartitionRefinesExactOnChains) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 8);
  for (int n = 2; n <= 3; ++n) {
    TypePartition exact = MustPartition(chain, n);
    TypePartition ball = BallPartition(chain, n);
    EXPECT_TRUE(IsRefinementOf(ball, exact)) << "n=" << n;
    // On chains the two coincide.
    EXPECT_EQ(ball.num_classes, exact.num_classes) << "n=" << n;
  }
}

TEST(PtypeTest, BallPartitionRefinesExactOnTrees) {
  auto sig = std::make_shared<Signature>();
  Structure tree = MakeBinaryTree(sig, 3);
  TypePartition exact = MustPartition(tree, 2);
  TypePartition ball = BallPartition(tree, 2);
  EXPECT_TRUE(IsRefinementOf(ball, exact));
}

TEST(PtypeTest, FarComponentWithoutImageBreaksContainment) {
  // A = {e(p, q), u(z)}, B = {e(p', q')}. Every pattern through p embeds
  // with p ↦ p', but the pin-free component {z} has no image in B: the CQ
  // ∃z. u(z) (with y unused) is in ptp_2(A, p) and not in ptp_2(B, p').
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  PredId u = std::move(sig->AddPredicate("u", 1)).ValueOrDie();
  TermId p = sig->AddNull(), q = sig->AddNull(), z = sig->AddNull();
  TermId p2 = sig->AddNull(), q2 = sig->AddNull();
  Structure a(sig);
  a.AddFact(e, {p, q});
  a.AddFact(u, {z});
  Structure b(sig);
  b.AddFact(e, {p2, q2});
  TypeOracleOptions opts;
  opts.num_variables = 2;
  TypeOracle oracle(a, b, opts);
  EXPECT_FALSE(oracle.TypeContained(p, p2));
  EXPECT_FALSE(oracle.budget_exhausted());
  // With one variable there is no room for a second component.
  opts.num_variables = 1;
  TypeOracle one(a, b, opts);
  EXPECT_TRUE(one.TypeContained(p, p2));
}

TEST(PtypeTest, PatternConnectedOnlyThroughTernaryAtom) {
  // A = {t(x, y, z), u(z)}: the pattern {x, y, z} is connected only by the
  // ternary atom, and its query t(y, Y, Z) ∧ u(Z) fails in B, where the
  // t-atom at x' has no u-marked third argument. No pattern of two nulls
  // sees it ({x, z} leaves t out), so containment holds at n = 2 and fails
  // at n = 3.
  auto sig = std::make_shared<Signature>();
  PredId t = std::move(sig->AddPredicate("t", 3)).ValueOrDie();
  PredId u = std::move(sig->AddPredicate("u", 1)).ValueOrDie();
  TermId x = sig->AddNull(), y = sig->AddNull(), z = sig->AddNull();
  TermId x2 = sig->AddNull(), y2 = sig->AddNull(), z2 = sig->AddNull();
  TermId w = sig->AddNull();
  Structure a(sig);
  a.AddFact(t, {x, y, z});
  a.AddFact(u, {z});
  Structure b(sig);
  b.AddFact(t, {x2, y2, z2});
  b.AddFact(u, {w});
  TypeOracleOptions opts;
  opts.num_variables = 2;
  EXPECT_TRUE(TypeOracle(a, b, opts).TypeContained(x, x2));
  opts.num_variables = 3;
  EXPECT_FALSE(TypeOracle(a, b, opts).TypeContained(x, x2));
}

TEST(PtypeTest, ExactPartitionOfLargeColoredForestAtFourVariables) {
  // ROADMAP item 5's gate: ≡_4 of a naturally colored 512-edge forest
  // finishes under the default max_patterns, and BallPartition refines it.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  Structure forest(sig);
  std::vector<TermId> nodes;
  Rng rng(512);
  for (int r = 0; r < 3; ++r) {
    nodes.push_back(sig->AddNull());
    forest.AddDomainElement(nodes.back());
  }
  for (int k = 0; k < 512; ++k) {
    const TermId parent = nodes[rng.Uniform(nodes.size())];
    nodes.push_back(sig->AddNull());
    forest.AddDomainElement(nodes.back());
    forest.AddFact(e, {parent, nodes.back()});
  }
  Result<Coloring> col = NaturalColoring(forest, 2);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  const Structure& colored = col.value().colored;
  Result<TypePartition> exact = ExactPtpPartition(colored, 4);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(IsRefinementOf(BallPartition(colored, 4), exact.value()));
  EXPECT_GT(exact.value().num_classes, 1);
}

TEST(QuotientTest, Lemma1PartitionsRefineDownward) {
  // q_n(d) = q_n(e) implies q_{n-1}(d) = q_{n-1}(e): ≡_n refines ≡_{n-1}.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 9);
  TypePartition p3 = MustPartition(chain, 3);
  TypePartition p2 = MustPartition(chain, 2);
  TypePartition p1 = MustPartition(chain, 1);
  EXPECT_TRUE(IsRefinementOf(p3, p2));
  EXPECT_TRUE(IsRefinementOf(p2, p1));
  EXPECT_FALSE(IsRefinementOf(p1, p3));  // strictly coarser here
}

TEST(QuotientTest, ProjectionIsHomomorphism) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 10);
  Quotient q = BuildQuotient(chain, MustPartition(chain, 2));
  // Every fact of C projects to a fact of M (q_n is a homomorphism).
  bool all_mapped = true;
  chain.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    std::vector<TermId> image;
    for (TermId t : row) image.push_back(q.Project(t));
    if (!q.structure.Contains(p, image)) all_mapped = false;
  });
  EXPECT_TRUE(all_mapped);
}

TEST(QuotientTest, ChainQuotientHasExample3Shape) {
  // The finite analogue of Example 3: M_2(chain) is start -> middle(loop)
  // -> end.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 10, &elems);
  Quotient q = BuildQuotient(chain, MustPartition(chain, 2));
  PredId e = std::move(sig->FindPredicate("e")).ValueOrDie();
  EXPECT_EQ(q.structure.Domain().size(), 3u);
  EXPECT_EQ(q.structure.Rows(e).size(), 3u);
  // Self-loop on the middle class — the new positive-type of Example 3.
  TermId mid = q.Project(elems[5]);
  EXPECT_TRUE(q.structure.Contains(e, {mid, mid}));
  ConjunctiveQuery loop;
  loop.atoms.push_back(Atom(e, {MakeVar(0), MakeVar(0)}));
  EXPECT_FALSE(Satisfies(chain, loop));
  EXPECT_TRUE(Satisfies(q.structure, loop));
}

TEST(ColoringTest, NaturalColoringExistsForForests) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 12);
  auto col = NaturalColoring(chain, 2);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  // Every element got exactly one color.
  EXPECT_EQ(col.value().color_of.size(), chain.Domain().size());
  EXPECT_TRUE(IsNaturalColoring(col.value(), chain, 2));
  // Hues cycle with period m+2 = 4 (plus reserve hue 0 for constants).
  EXPECT_LE(col.value().num_hues, 5);
}

TEST(ColoringTest, NaturalColoringRejectsNonForest) {
  // Example 6's obstruction: a (finite prefix of a) total order is not a
  // forest — in-degrees exceed 1.
  auto sig = std::make_shared<Signature>();
  PredId e = std::move(sig->AddPredicate("e", 2)).ValueOrDie();
  std::vector<TermId> v;
  for (int i = 0; i < 5; ++i) v.push_back(sig->AddNull());
  Structure order(sig);
  for (size_t i = 0; i < v.size(); ++i) {
    for (size_t j = i + 1; j < v.size(); ++j) order.AddFact(e, {v[i], v[j]});
  }
  auto col = NaturalColoring(order, 1);
  EXPECT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ColoringTest, TreeColoringSeparatesAncestors) {
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure tree = MakeBinaryTree(sig, 4, &elems);
  auto col = NaturalColoring(tree, 2);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(IsNaturalColoring(col.value(), tree, 2));
}

TEST(ConservativityTest, UncoloredChainQuotientIsNotConservative) {
  // Example 3: without colors, M_n(C) invents the self-loop query, so even
  // size-1 types are not preserved.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 10);
  Quotient q = BuildQuotient(chain, MustPartition(chain, 2));
  std::vector<PredId> sigma = {
      std::move(sig->FindPredicate("e")).ValueOrDie()};
  ConservativityReport rep = CheckConservativeUpTo(chain, q, 1, sigma);
  ASSERT_TRUE(rep.status.ok()) << rep.status.ToString();
  EXPECT_FALSE(rep.conservative);
  EXPECT_NE(rep.failing_element, -1);
}

TEST(ConservativityTest, ColoredChainIsConservativePerExample5) {
  // Example 5: coloring with hue window m and n = m + 2 makes the chain
  // n-conservative up to size m.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 12);
  ConservativityProbe probe = ProbeConservativity(chain, /*m=*/1, /*n=*/3);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_TRUE(probe.conservative);
  // The quotient is a bounded-size structure even though chains grow.
  EXPECT_LT(probe.quotient_size, 13);
}

TEST(ConservativityTest, TooSmallNFailsPerExample4) {
  // Example 4 (end of §2.4): with n < m the element a_n is identified with
  // too-shallow elements and long-path queries appear. m = 3, n = 2: not
  // conservative up to size 3.
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, 12);
  ConservativityProbe probe = ProbeConservativity(chain, /*m=*/3, /*n=*/2);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_FALSE(probe.conservative);
}

TEST(ConservativityTest, BinaryTreeIsPtpConservative) {
  // Lemma 2 instance: trees are ptp-conservative; probe (m=1, n=3).
  auto sig = std::make_shared<Signature>();
  Structure tree = MakeBinaryTree(sig, 3);
  ConservativityProbe probe = ProbeConservativity(tree, 1, 3);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_TRUE(probe.conservative);
}

TEST(ConservativityTest, Lemma12SuccessorTypesPropagate) {
  // Lemma 12: in a VTDAG, R(a, b), R(c, d) and b ≡_n d imply a ≡_{n-1} c.
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, 8, &elems);
  PredId e = std::move(sig->FindPredicate("e")).ValueOrDie();
  (void)e;
  for (int n = 2; n <= 3; ++n) {
    TypePartition pn = MustPartition(chain, n);
    TypePartition pn1 = MustPartition(chain, n - 1);
    for (size_t b = 1; b < elems.size(); ++b) {
      for (size_t d = 1; d < elems.size(); ++d) {
        if (pn.ClassOf(elems[b]) == pn.ClassOf(elems[d])) {
          EXPECT_EQ(pn1.ClassOf(elems[b - 1]), pn1.ClassOf(elems[d - 1]))
              << "n=" << n << " b=" << b << " d=" << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bddfc
