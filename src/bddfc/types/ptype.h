// Positive n-types (§2.2, Def. 3–4) and their containment/equality.
//
// ptp_n(C, e, Θ) is the set of *conjunctive queries* Ψ(x̄, y) with |x̄| < n
// (at most n variables in total) that hold at e. Note the logic is CQs, not
// n-variable existential-positive FO: a CQ is a single conjunction, so its
// variables cannot be re-quantified — an unbounded pebble game would decide
// the (strictly stronger) ∃⁺FOⁿ equivalence and is NOT what Def. 3 asks
// for. (Example: on a finite E-chain, ptp_2 cannot see the distance to the
// chain's end, but ∃⁺FO² can by re-using two variables to walk the chain.)
//
// Every CQ with ≤ n variables that holds at (A, a) factors through the
// canonical query of one "valuation pattern": a set S of at most n labeled
// nulls of A (variables mapped to named constants fold into the constant
// context, since the strongest pattern adds the x = c atoms Def. 3 allows).
// A canonical query is the conjunction of its connected components, where
// nulls are connected through Θ-atoms whose nulls all lie in S (a ternary
// atom joins its three nulls only together). The pin's component must map
// with a ↦ b; every other component, of at most n−1 nulls, must only hold
// in B. Hence
//
//   ptp_n(A, a, Θ) ⊆ ptp_n(B, b, Θ)
//     ⇔  for every connected K ⊆ Nulls(A) with a ∈ K, |K| ≤ n:
//          the canonical query of A ↾ (K ∪ C_con) over Θ has a
//          homomorphism into B mapping a ↦ b and fixing named constants,
//     and for every connected K with |K| ≤ n−1:
//          that canonical query, unpinned, holds in B,
//
// plus the global conditions: constant-only atoms of A hold in B, and a
// named constant a forces b = a (the equality atom y = c of Remark 1).
//
// The oracle grows the connected patterns through the pin by whole atoms,
// so a containment query costs the number of connected ≤ n-sets around
// the pin — bounded by the degree there, not by |A|. The unpinned
// condition does not depend on (a, b): it is decided once per oracle, and
// it holds trivially when A and B are the same structure. The literal
// all-subsets enumeration is the test-only reference in
// testing/ptype_reference.h.

#ifndef BDDFC_TYPES_PTYPE_H_
#define BDDFC_TYPES_PTYPE_H_

#include <memory>
#include <vector>

#include "bddfc/base/governor.h"
#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"

namespace bddfc {

/// Options for positive-type computations.
struct TypeOracleOptions {
  /// The variable budget n of Def. 3 (y included).
  int num_variables = 2;
  /// Predicates defining the type signature Θ (empty = all). Pass the base
  /// predicates (without colors) for the Σ-types of Def. 8.
  std::vector<PredId> predicates;
  /// Safety cap on canonical-query evaluations over the oracle's lifetime.
  size_t max_patterns = 5000000;
  /// Resource governor (not owned; may be null): strided deadline/memory/
  /// cancellation probes at every containment query and every evaluated
  /// pattern; the oracle's incident index is charged to its accountant for
  /// the oracle's lifetime. A trip makes subsequent answers inconclusive —
  /// it is reported through budget_exhausted() exactly like a max_patterns
  /// trip.
  ExecutionContext* context = nullptr;
};

/// Decides positive-type containment between elements of A and B.
/// A and B must share the same Signature object (B may equal A).
class TypeOracle {
 public:
  TypeOracle(const Structure& a, const Structure& b,
             const TypeOracleOptions& options);
  ~TypeOracle();

  TypeOracle(TypeOracle&&) noexcept;
  TypeOracle& operator=(TypeOracle&&) noexcept;

  /// True iff ptp_n(A, ea, Θ) ⊆ ptp_n(B, eb, Θ).
  bool TypeContained(TermId ea, TermId eb) const;

  /// Number of canonical-query evaluations performed so far: connected
  /// patterns through a pin, plus the unpinned components the first
  /// containment query decides for the whole oracle.
  size_t patterns_checked() const;

  /// True when some containment check tripped max_patterns *or* the
  /// attached governor tripped (deadline/memory/cancel): every `false`
  /// answer given since is inconclusive. Never silently swallowed —
  /// callers must consult this before trusting a negative answer.
  bool budget_exhausted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A partition of a structure's domain by positive-n-type equality
/// (the relation ≡_n of Def. 4).
struct TypePartition {
  int n = 0;
  /// class_id[i] = class of elements[i] (aligned with Structure::Domain()).
  std::vector<int> class_id;
  std::vector<TermId> elements;
  int num_classes = 0;

  /// Class of a given element (linear scan helper for tests).
  int ClassOf(TermId e) const;
};

/// Computes ≡_n exactly via pairwise mutual type containment against class
/// representatives. Named constants always form singleton classes
/// (Remark 1).
Result<TypePartition> ExactPtpPartition(
    const Structure& c, int n, const std::vector<PredId>& predicates = {},
    size_t max_patterns = 5000000, ExecutionContext* context = nullptr);

/// Cheap refinement of ≡_n: partition by the canonical form of each
/// element's undirected radius-(n-1) neighborhood among labeled nulls
/// (named constants act as labels). Exact tree canonization is used when
/// the neighborhood is a tree — always the case on forests, hence on
/// Lemma 3 skeletons; cyclic neighborhoods fall back to a Weisfeiler–Leman
/// hash and may over-merge (downstream certification catches this).
TypePartition BallPartition(const Structure& c, int n,
                            const std::vector<PredId>& predicates = {});

/// Partition for *chase-prefix forests*: two elements are merged when their
/// colored ancestor paths of length n-1 (element labels + edge predicates,
/// truncated at roots) coincide. In the infinite chase of a (♠5)-normalized
/// theory the subtree below an element is generated deterministically from
/// the element's creation context, so equal ancestor paths imply equal
/// positive types *in the infinite chase* — this is the partition the
/// finite-model pipeline quotients by, because it correctly merges the
/// prefix frontier with interior elements (the Example 3 self-loop) instead
/// of leaving a dangling tail. Requires the nulls of `c` to form a forest.
TypePartition AncestorPathPartition(const Structure& c, int n,
                                    const std::vector<PredId>& predicates = {});

}  // namespace bddfc

#endif  // BDDFC_TYPES_PTYPE_H_
