// The independent reference for natural colorings (Def. 13–14): the
// literal construction that keys each element's lightness by scanning
// every fact of C for the atoms of C ↾ (P(e) ∪ C_con), constant-only
// atoms included. It shares no key code with types/coloring.cc, whose
// indexed keys must induce exactly the same lightness classes. Like the
// naive chase engine it is slow (O(|dom| · |facts|)) and used only by the
// differential tests and the `coloring-reference` fuzz oracle.

#ifndef BDDFC_TESTING_COLORING_REFERENCE_H_
#define BDDFC_TESTING_COLORING_REFERENCE_H_

#include "bddfc/base/status.h"
#include "bddfc/core/structure.h"
#include "bddfc/types/coloring.h"

namespace bddfc {

/// NaturalColoring's contract, computed literally: same hues, lightness
/// ids numbered in Domain() order, color predicates added in the same
/// order. On equal signatures it must return a byte-identical Coloring.
Result<Coloring> ReferenceNaturalColoring(const Structure& c, int m);

/// A copy of `c` over an equal copy of its signature: same ids, names,
/// Domain() order and row order. A coloring adds color predicates to the
/// signature it runs on; running the two colorings on two such copies
/// lets them be compared byte for byte and leaves `c`'s signature as it
/// was.
Structure CopyOnFreshSignature(const Structure& c);

/// Checks Def. 14 on an arbitrary coloring: distinct hues within each
/// P_m(e), and isomorphic C ↾ (P(e) ∪ C_con) for same-colored elements.
bool IsNaturalColoring(const Coloring& coloring, const Structure& c, int m);

}  // namespace bddfc

#endif  // BDDFC_TESTING_COLORING_REFERENCE_H_
