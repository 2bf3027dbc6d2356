// Sorting flat, row-major TermId tuples — the chase sink's one sort kernel.
//
// The round sink buffers candidate facts as flat runs of `arity` TermIds
// per tuple and must put each run in lexicographic order before it can
// collapse duplicates and probe containment in one pass (DESIGN §2.13).
// RadixSortTuples does that in place:
//
//   * an LSD radix sort over the tuple positions, last position first, so
//     each stable pass keeps the order the later positions already set;
//   * keys are the TermIds with the sign bit flipped, so the unsigned
//     digit order is the signed TermId order (variables, being negative,
//     sort before constants — the order std::sort gives);
//   * digits are taken from (key − lo) over the batch's observed range
//     [lo, hi] at each position, and their width comes from n: at most 2n
//     buckets (and at most 2^11). A position whose values are all equal
//     costs no pass at all, and neither does a digit every tuple shares;
//   * below kRadixMinTuples an insertion sort over whole rows runs instead.
//     Even allocation-free, the radix passes cost more than they save on a
//     few dozen tuples: at n = 16, arity 3, they run at ~0.85x the speed
//     of the comparator index sort the sink used before this kernel, the
//     insertion sort at ~2x. The radix passes overtake the insertion sort
//     at n ≈ 16 (arity 1), 24–32 (arity 2) and 48–96 (arity 3); 32 takes
//     them where they win 1.5–2.5x and costs arity 3 ~1.2x on n in
//     [32, 64) (bench/bench_radix_sort.cc; EXPERIMENTS E15d).
//
// Cost: per position one strided read for its range, then per digit one
// strided read for the histogram and one read and one write of n·arity
// words (every tuple moves as a whole). Digits ≤ arity·⌈32 / width⌉,
// typically one per position on chase batches (values span a few
// thousand ids at most). Nothing is allocated beyond growing `scratch`.

#ifndef BDDFC_CORE_RADIX_SORT_H_
#define BDDFC_CORE_RADIX_SORT_H_

#include <cstddef>
#include <vector>

#include "bddfc/core/term.h"

namespace bddfc {

/// Sorts the `n` tuples of `arity` TermIds at `data` into ascending
/// lexicographic order, in place. `scratch` is the caller's reusable
/// buffer: it grows to n·arity TermIds and its contents are clobbered.
/// Equal tuples end up adjacent; arity 0 and n < 2 are no-ops.
void RadixSortTuples(TermId* data, size_t n, size_t arity,
                     std::vector<TermId>* scratch);

namespace radix_internal {

/// Batches smaller than this go to InsertionSortTuples.
inline constexpr size_t kRadixMinTuples = 32;

/// The two halves of RadixSortTuples, exposed for the crossover
/// microbenchmark and the property tests: the radix path at any n, and
/// the comparison path used below kRadixMinTuples.
void LsdRadixSortTuples(TermId* data, size_t n, size_t arity,
                        std::vector<TermId>* scratch);
void InsertionSortTuples(TermId* data, size_t n, size_t arity);

}  // namespace radix_internal
}  // namespace bddfc

#endif  // BDDFC_CORE_RADIX_SORT_H_
