// Differential property test: the connected-pattern TypeOracle against the
// all-subsets reference (testing/ptype_reference.h) on seeded random
// structures with unary, binary and ternary predicates, cycles, self-loops,
// named constants and n = 1..4. Containment matrices and ≡_n partitions
// must be identical for A == B, for A ≠ B over one signature, and for a
// quotient checked against its own structure (the CheckConservativeUpTo
// shape).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "bddfc/testing/ptype_reference.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/generators.h"

namespace bddfc {
namespace {

constexpr uint64_t kSeeds = 300;

/// One random signature: binary e and r, unary u, ternary t, 0–2 named
/// constants.
struct World {
  SignaturePtr sig = std::make_shared<Signature>();
  std::vector<PredId> preds;
  std::vector<TermId> constants;

  explicit World(Rng& rng) {
    preds.push_back(sig->AddPredicate("e", 2).value());
    preds.push_back(sig->AddPredicate("r", 2).value());
    preds.push_back(sig->AddPredicate("u", 1).value());
    preds.push_back(sig->AddPredicate("t", 3).value());
    const int num_constants = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < num_constants; ++i) {
      constants.push_back(sig->AddConstant("c" + std::to_string(i)));
    }
  }
};

/// A random structure of 2–7 nulls: a random e-forest (so some elements
/// share types) plus random extra facts — back edges and cycles,
/// self-loops, unary marks, ternary atoms, and links to the constants.
Structure RandomStructure(const World& w, Rng& rng) {
  Structure s(w.sig);
  std::vector<TermId> nulls;
  const int num_nulls = 2 + static_cast<int>(rng.Uniform(6));
  for (int i = 0; i < num_nulls; ++i) {
    nulls.push_back(w.sig->AddNull());
    s.AddDomainElement(nulls.back());
    if (i > 0 && rng.Uniform(4) != 0) {
      s.AddFact(w.preds[0], {nulls[rng.Uniform(i)], nulls.back()});
    }
  }
  for (TermId c : w.constants) s.AddDomainElement(c);
  auto pick = [&]() {
    if (!w.constants.empty() && rng.Uniform(6) == 0) {
      return w.constants[rng.Uniform(w.constants.size())];
    }
    return nulls[rng.Uniform(nulls.size())];
  };
  const int extra = static_cast<int>(rng.Uniform(num_nulls + 2));
  for (int i = 0; i < extra; ++i) {
    const PredId p = w.preds[rng.Uniform(w.preds.size())];
    std::vector<TermId> args;
    const TermId first = pick();
    for (int k = 0; k < w.sig->arity(p); ++k) {
      // Repeat the first argument now and then: self-loops, t(x, x, y).
      args.push_back(k == 0 || rng.Uniform(4) == 0 ? first : pick());
    }
    s.AddFact(p, args);
  }
  return s;
}

/// A copy of `a` on fresh nulls with a few facts dropped and a few random
/// facts added: close enough to `a` that many containments hold, and a
/// dropped far-away fact must still be noticed.
Structure PerturbedCopy(const Structure& a, const World& w, Rng& rng) {
  std::unordered_map<TermId, TermId> rename;
  Structure s(w.sig);
  for (TermId e : a.Domain()) {
    const TermId image = w.sig->IsNull(e) ? w.sig->AddNull() : e;
    rename.emplace(e, image);
    s.AddDomainElement(image);
  }
  a.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    if (rng.Uniform(5) == 0) return;
    std::vector<TermId> image;
    for (TermId t : row) image.push_back(rename.at(t));
    s.AddFact(p, image);
  });
  Structure extra = RandomStructure(w, rng);
  extra.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    if (rng.Uniform(3) == 0) s.AddFact(p, row);
  });
  for (TermId e : extra.Domain()) s.AddDomainElement(e);
  return s;
}

/// The signature restriction Θ: all predicates, or a random nonempty
/// subset of them.
std::vector<PredId> RandomTheta(const World& w, Rng& rng) {
  std::vector<PredId> theta;
  if (rng.Uniform(3) != 0) return theta;
  for (PredId p : w.preds) {
    if (rng.Uniform(2) == 0) theta.push_back(p);
  }
  if (theta.empty()) theta.push_back(w.preds[0]);
  return theta;
}

using Matrix = std::vector<std::vector<bool>>;

/// TypeContained(x, y) for every x in `rows`, y in `cols`.
template <typename Oracle>
Matrix ContainmentMatrix(Oracle& oracle, const std::vector<TermId>& rows,
                         const std::vector<TermId>& cols) {
  Matrix m;
  for (TermId x : rows) {
    m.emplace_back();
    for (TermId y : cols) m.back().push_back(oracle.TypeContained(x, y));
  }
  return m;
}

/// The reference matrix; rerun unbudgeted when the budget trips.
Matrix ReferenceMatrix(const Structure& a, const Structure& b,
                       TypeOracleOptions opts, const std::vector<TermId>& rows,
                       const std::vector<TermId>& cols) {
  {
    ReferenceTypeOracle ref(a, b, opts);
    Matrix m = ContainmentMatrix(ref, rows, cols);
    if (!ref.budget_exhausted()) return m;
  }
  opts.max_patterns = std::numeric_limits<size_t>::max();
  ReferenceTypeOracle ref(a, b, opts);
  return ContainmentMatrix(ref, rows, cols);
}

/// Checks the oracle's matrix over rows × cols against the reference.
void ExpectSameMatrix(const Structure& a, const Structure& b,
                      const TypeOracleOptions& opts,
                      const std::vector<TermId>& rows,
                      const std::vector<TermId>& cols) {
  TypeOracle oracle(a, b, opts);
  const Matrix got = ContainmentMatrix(oracle, rows, cols);
  ASSERT_FALSE(oracle.budget_exhausted());
  const Matrix want = ReferenceMatrix(a, b, opts, rows, cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < cols.size(); ++j) {
      EXPECT_EQ(got[i][j], want[i][j])
          << "TypeContained(" << rows[i] << ", " << cols[j] << ") n="
          << opts.num_variables << "\nA:\n"
          << a.ToString() << "B:\n"
          << b.ToString();
    }
  }
}

TEST(PtypeReferenceTest, SelfOracleAndPartitionMatchReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(Rng::Mix(13, seed));
    World w(rng);
    Structure a = RandomStructure(w, rng);
    TypeOracleOptions opts;
    opts.num_variables = 1 + static_cast<int>(seed % 4);
    opts.predicates = RandomTheta(w, rng);
    ExpectSameMatrix(a, a, opts, a.Domain(), a.Domain());

    Result<TypePartition> got =
        ExactPtpPartition(a, opts.num_variables, opts.predicates);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<TypePartition> want =
        ReferenceExactPtpPartition(a, opts.num_variables, opts.predicates);
    if (!want.ok()) {
      want = ReferenceExactPtpPartition(a, opts.num_variables, opts.predicates,
                                        std::numeric_limits<size_t>::max());
    }
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got.value().class_id, want.value().class_id)
        << "n=" << opts.num_variables << "\n"
        << a.ToString();
    EXPECT_EQ(got.value().num_classes, want.value().num_classes);
  }
}

TEST(PtypeReferenceTest, CrossStructureOracleMatchesReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(Rng::Mix(17, seed));
    World w(rng);
    Structure a = RandomStructure(w, rng);
    Structure b =
        seed % 2 == 0 ? RandomStructure(w, rng) : PerturbedCopy(a, w, rng);
    TypeOracleOptions opts;
    opts.num_variables = 1 + static_cast<int>(seed % 4);
    opts.predicates = RandomTheta(w, rng);
    ExpectSameMatrix(a, b, opts, a.Domain(), b.Domain());
  }
}

TEST(PtypeReferenceTest, QuotientInStructureMatchesReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(Rng::Mix(19, seed));
    World w(rng);
    Structure c = RandomStructure(w, rng);
    // Even seeds quotient by ≡_m for a random m (the pipeline's shape);
    // odd seeds by a random partition of the nulls into 1–3 classes. Named
    // constants stay singletons (Remark 1).
    TypePartition part;
    if (seed % 2 == 0) {
      Result<TypePartition> exact =
          ExactPtpPartition(c, 1 + static_cast<int>(rng.Uniform(3)));
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();
      part = std::move(exact).value();
    } else {
      part.elements = c.Domain();
      std::vector<int> bucket_class(1 + rng.Uniform(3), -1);
      for (TermId e : part.elements) {
        int cls = part.num_classes;  // a fresh class unless a bucket has one
        if (w.sig->IsNull(e)) {
          int& bucket = bucket_class[rng.Uniform(bucket_class.size())];
          if (bucket < 0) bucket = cls;
          cls = bucket;
        }
        if (cls == part.num_classes) ++part.num_classes;
        part.class_id.push_back(cls);
      }
    }
    Quotient q = BuildQuotient(c, part);
    TypeOracleOptions opts;
    opts.num_variables = 1 + static_cast<int>(seed % 4);
    opts.predicates = RandomTheta(w, rng);
    ExpectSameMatrix(q.structure, c, opts, q.structure.Domain(), c.Domain());
  }
}

}  // namespace
}  // namespace bddfc
