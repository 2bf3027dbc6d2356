// Differential property test: the indexed NaturalColoring against the
// literal full-scan reference (testing/coloring_reference.h) on seeded
// random forests of nulls with named constants, unary, binary and ternary
// atoms, self-loops on nulls, constant-only atoms, pre-existing color
// predicates and m = 1..4. Both run on equal copies of one signature (a
// coloring adds color predicates to it) and must agree byte for byte.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bddfc/chase/skeleton.h"
#include "bddfc/testing/coloring_reference.h"
#include "bddfc/types/coloring.h"
#include "bddfc/workload/generators.h"

namespace bddfc {
namespace {

constexpr uint64_t kSeeds = 400;

/// A random forest of 1–40 nulls over binary e and r, unary u and ternary
/// t, with 0–2 named constants and, on some seeds, a pre-existing color
/// predicate. Sparse extra atoms leave many nulls sharing a lightness.
Structure RandomForest(uint64_t seed) {
  Rng rng(Rng::Mix(seed, 15));
  auto sig = std::make_shared<Signature>();
  const PredId e = sig->AddPredicate("e", 2).value();
  const PredId r = sig->AddPredicate("r", 2).value();
  const PredId u = sig->AddPredicate("u", 1).value();
  const PredId t = sig->AddPredicate("t", 3).value();
  const PredId old_color =
      rng.Uniform(3) == 0 ? sig->AddColorPredicate(1, 0) : -1;
  std::vector<TermId> constants;
  const int num_constants = static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < num_constants; ++i) {
    constants.push_back(sig->AddConstant("c" + std::to_string(i)));
  }
  Structure s(sig);
  std::vector<TermId> nulls;
  const int num_nulls = 1 + static_cast<int>(rng.Uniform(40));
  for (int i = 0; i < num_nulls; ++i) {
    nulls.push_back(sig->AddNull());
    s.AddDomainElement(nulls.back());
    if (i == 0 || rng.Uniform(5) == 0) continue;  // a root
    // A forest edge from one of the last three nulls (chains and
    // branching), sometimes doubled on r.
    const TermId parent = nulls[i - 1 - rng.Uniform(std::min(i, 3))];
    s.AddFact(e, {parent, nulls.back()});
    if (rng.Uniform(4) == 0) s.AddFact(r, {parent, nulls.back()});
  }
  for (TermId c : constants) s.AddDomainElement(c);
  auto any_term = [&]() {
    if (!constants.empty() && rng.Uniform(3) == 0) {
      return constants[rng.Uniform(constants.size())];
    }
    return nulls[rng.Uniform(nulls.size())];
  };
  auto constant = [&]() { return constants[rng.Uniform(constants.size())]; };
  const int extra = static_cast<int>(rng.Uniform(num_nulls + 4));
  for (int i = 0; i < extra; ++i) {
    const TermId x = nulls[rng.Uniform(nulls.size())];
    switch (rng.Uniform(constants.empty() ? 3 : 6)) {
      case 0:
        s.AddFact(u, {x});
        break;
      case 1:  // self-loop on a null: not a forest edge
        s.AddFact(rng.Uniform(2) == 0 ? e : r, {x, x});
        break;
      case 2:  // ternary atoms never make forest edges
        s.AddFact(t, {x, any_term(), any_term()});
        break;
      case 3:  // null–constant links, either direction
        if (rng.Uniform(2) == 0) {
          s.AddFact(r, {x, constant()});
        } else {
          s.AddFact(e, {constant(), x});
        }
        break;
      case 4:  // constant-only atoms lie in every null's restriction
        if (rng.Uniform(2) == 0) {
          s.AddFact(u, {constant()});
        } else {
          s.AddFact(e, {constant(), constant()});
        }
        break;
      default:
        s.AddFact(t, {constant(), x, x});
        break;
    }
    if (old_color >= 0 && rng.Uniform(3) == 0) {
      s.AddFact(old_color, {any_term()});
    }
  }
  return s;
}

TEST(ColoringReferenceTest, IndexedKeysMatchTheLiteralReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Structure c = RandomForest(seed);
    ASSERT_TRUE(AnalyzeSkeleton(c).is_forest) << "seed " << seed;
    const int m = 1 + static_cast<int>(seed % 4);
    const Structure c_ref = CopyOnFreshSignature(c);
    Result<Coloring> got = NaturalColoring(c, m);
    Result<Coloring> want = ReferenceNaturalColoring(c_ref, m);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const Coloring& g = got.value();
    const Coloring& w = want.value();
    EXPECT_EQ(g.color_of, w.color_of) << "seed " << seed;
    EXPECT_EQ(g.color_predicates, w.color_predicates) << "seed " << seed;
    EXPECT_EQ(g.base_predicates, w.base_predicates) << "seed " << seed;
    EXPECT_EQ(g.num_lightnesses, w.num_lightnesses) << "seed " << seed;
    EXPECT_EQ(g.num_hues, w.num_hues) << "seed " << seed;
    EXPECT_EQ(g.colored.ToString(), w.colored.ToString()) << "seed " << seed;
    EXPECT_TRUE(IsNaturalColoring(g, c, m)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bddfc
