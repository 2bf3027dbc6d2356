// Natural colorings (§2.4, Def. 6–7; §4, Def. 13–14).
//
// A coloring adds one unary color atom K_h^l(e) per element: the hue h
// separates elements that are close (within P_m) in the predecessor order,
// the lightness l records the isomorphism type of C ↾ (P(e) ∪ C_con). For
// forests — the shape of every skeleton by Lemma 3 — hue = depth mod (m+2)
// realizes Def. 14's first condition. The lightness key is built from the
// incidence of e and its parent only: one pass over C indexes, per null,
// the facts it occurs in, and the key of e encodes those of its facts and
// its parent's whose other terms are named constants. Atoms made only of
// constants lie in every null's restriction and are left out. Coloring
// costs O(Σ degree), not O(|dom| · |facts|). The literal Def. 14 check,
// IsNaturalColoring, lives with the reference implementation in
// testing/coloring_reference.h.

#ifndef BDDFC_TYPES_COLORING_H_
#define BDDFC_TYPES_COLORING_H_

#include <unordered_map>
#include <vector>

#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"

namespace bddfc {

/// A colored copy C̄ of a structure C.
struct Coloring {
  Structure colored;
  /// The base predicates Σ (everything that existed before coloring,
  /// excluding pre-existing colors).
  std::vector<PredId> base_predicates;
  /// The color predicates added by this coloring.
  std::vector<PredId> color_predicates;
  /// Color assigned to each element.
  std::unordered_map<TermId, PredId> color_of;
  int num_hues = 0;
  int num_lightnesses = 0;

  explicit Coloring(SignaturePtr sig) : colored(std::move(sig)) {}
};

/// Builds a natural coloring of `c` with hue window m (Def. 14). Requires
/// the labeled nulls of `c` to form a forest under binary atoms (Lemma 3
/// guarantees this for skeletons); fails with FailedPrecondition otherwise.
/// Lightness ids are numbered in Domain() order of first occurrence, and
/// color predicates are added to the shared signature in that order.
Result<Coloring> NaturalColoring(const Structure& c, int m);

}  // namespace bddfc

#endif  // BDDFC_TYPES_COLORING_H_
