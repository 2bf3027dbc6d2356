// The independent reference for positive n-types (Def. 3–4): the literal
// all-subsets enumeration of ptype.h's valuation patterns.
//
// ptp_n(A, a) ⊆ ptp_n(B, b) iff for every set S of at most n labeled nulls
// of A with a ∈ S, the canonical query of A ↾ (S ∪ C_con) maps into B with
// a ↦ b (named constants fixed), plus the global conditions of ptype.h.
// This class evaluates exactly that, one subset at a time, with no
// factoring into connected components. It is the types counterpart of the
// naive chase engine: slow, obviously faithful to the definition, and used
// only by the differential tests and the `ptype-reference` fuzz oracle.

#ifndef BDDFC_TESTING_PTYPE_REFERENCE_H_
#define BDDFC_TESTING_PTYPE_REFERENCE_H_

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"
#include "bddfc/types/ptype.h"

namespace bddfc {

/// All-subsets type containment. Same contract as TypeOracle, except that
/// `options.context` is ignored: the reference runs ungoverned and stops
/// only at `options.max_patterns` (counted over the oracle's lifetime).
class ReferenceTypeOracle {
 public:
  ReferenceTypeOracle(const Structure& a, const Structure& b,
                      const TypeOracleOptions& options);

  /// True iff ptp_n(A, ea, Θ) ⊆ ptp_n(B, eb, Θ).
  bool TypeContained(TermId ea, TermId eb);

  size_t patterns_checked() const { return patterns_checked_; }
  /// True once some containment tripped max_patterns: every `false`
  /// answered since is inconclusive.
  bool budget_exhausted() const { return budget_hit_; }

 private:
  std::vector<Atom> PatternQuery(const std::vector<TermId>& s) const;
  bool PatternsHold(TermId pinned, TermId eb, int extra_budget);

  const Structure& a_;
  const Structure& b_;
  TypeOracleOptions options_;
  bool const_only_ok_ = true;
  std::vector<TermId> a_nulls_;
  /// Θ-atoms of A incident to each null, as (pred, row).
  std::unordered_map<TermId, std::vector<std::pair<PredId, uint32_t>>>
      incident_;
  size_t patterns_checked_ = 0;
  bool budget_hit_ = false;
};

/// ≡_n by pairwise mutual ReferenceTypeOracle containment against class
/// representatives, numbering classes in domain order like
/// ExactPtpPartition. ResourceExhausted when max_patterns trips.
Result<TypePartition> ReferenceExactPtpPartition(
    const Structure& c, int n, const std::vector<PredId>& predicates = {},
    size_t max_patterns = 5000000);

}  // namespace bddfc

#endif  // BDDFC_TESTING_PTYPE_REFERENCE_H_
