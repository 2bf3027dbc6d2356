// Property tests for the flat-tuple sort kernel (core/radix_sort.h): on
// seeded random batches, RadixSortTuples and both of its halves must
// produce exactly the order std::sort gives the same tuples — across
// arities 0–5, batch sizes on both sides of the insertion-sort crossover,
// heavy duplicates, and the signed extremes the sign-bit flip must order.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <random>
#include <string>
#include <vector>

#include "bddfc/core/radix_sort.h"

namespace bddfc {
namespace {

using radix_internal::InsertionSortTuples;
using radix_internal::LsdRadixSortTuples;

/// How a batch draws its values.
enum class Values {
  kWide,        // the full int32 range
  kDuplicates,  // a handful of values: large equal groups
  kExtremes,    // INT32_MIN, INT32_MAX, -1, 0, 1 and small negatives
  kNarrow,      // a few hundred non-negative ids, like chase constants
};

std::vector<TermId> RandomBatch(size_t n, size_t arity, Values values,
                                uint32_t seed) {
  std::mt19937 rng(seed);
  const TermId extremes[] = {INT32_MIN, INT32_MIN + 1, -7, -1, 0,
                             1,         7,             INT32_MAX - 1,
                             INT32_MAX};
  std::vector<TermId> flat(n * arity);
  for (TermId& v : flat) {
    switch (values) {
      case Values::kWide:
        v = static_cast<TermId>(rng());
        break;
      case Values::kDuplicates:
        v = static_cast<TermId>(rng() % 3) - 1;
        break;
      case Values::kExtremes:
        v = extremes[rng() % std::size(extremes)];
        break;
      case Values::kNarrow:
        v = static_cast<TermId>(rng() % 300);
        break;
    }
  }
  return flat;
}

/// The reference: std::sort over the tuples as vectors.
std::vector<TermId> ReferenceSort(const std::vector<TermId>& flat, size_t n,
                                  size_t arity) {
  if (arity == 0) return flat;
  std::vector<std::vector<TermId>> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.emplace_back(flat.begin() + i * arity, flat.begin() + (i + 1) * arity);
  }
  std::sort(rows.begin(), rows.end());
  std::vector<TermId> out;
  for (const auto& r : rows) out.insert(out.end(), r.begin(), r.end());
  return out;
}

TEST(RadixSortTest, MatchesStdSortAcrossAritiesSizesAndValueRanges) {
  std::vector<TermId> scratch;
  uint32_t seed = 1;
  for (size_t arity = 0; arity <= 5; ++arity) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                     size_t{4096}, size_t{70000}}) {
      for (Values values : {Values::kWide, Values::kDuplicates,
                            Values::kExtremes, Values::kNarrow}) {
        const std::vector<TermId> input =
            RandomBatch(n, arity, values, seed++);
        const std::vector<TermId> want = ReferenceSort(input, n, arity);
        const std::string label =
            "arity " + std::to_string(arity) + " n " + std::to_string(n) +
            " values " + std::to_string(static_cast<int>(values));

        std::vector<TermId> got = input;
        RadixSortTuples(got.data(), n, arity, &scratch);
        ASSERT_EQ(got, want) << "RadixSortTuples " << label;

        // The radix half alone, below its crossover too.
        got = input;
        LsdRadixSortTuples(got.data(), n, arity, &scratch);
        ASSERT_EQ(got, want) << "LsdRadixSortTuples " << label;

        if (n <= 4096) {  // quadratic: keep it to the smaller batches
          got = input;
          InsertionSortTuples(got.data(), n, arity);
          ASSERT_EQ(got, want) << "InsertionSortTuples " << label;
        }
      }
    }
  }
}

TEST(RadixSortTest, OrdersSignedExtremesAndSkipsConstantPositions) {
  // Position 0 holds the signed extremes, position 1 is constant (its pass
  // is planned away), position 2 breaks ties.
  std::vector<TermId> scratch;
  std::vector<TermId> flat;
  const TermId firsts[] = {INT32_MAX, 0, -1, INT32_MIN, 1, INT32_MIN, -1};
  for (size_t i = 0; i < 70; ++i) {
    flat.push_back(firsts[i % std::size(firsts)]);
    flat.push_back(42);
    flat.push_back(static_cast<TermId>(69 - i));
  }
  const size_t n = flat.size() / 3;
  const std::vector<TermId> want = ReferenceSort(flat, n, 3);
  RadixSortTuples(flat.data(), n, 3, &scratch);
  EXPECT_EQ(flat, want);
  EXPECT_EQ(flat.front(), INT32_MIN);
  EXPECT_EQ(flat[flat.size() - 3], INT32_MAX);
}

TEST(RadixSortTest, ScratchIsReusedAcrossCallsOfDifferentShapes) {
  // One scratch buffer serves batches of every arity and size in turn,
  // as the sink reuses it across compactions and predicates.
  std::vector<TermId> scratch;
  for (uint32_t round = 0; round < 12; ++round) {
    const size_t arity = 1 + round % 4;
    const size_t n = (round % 3 == 0) ? 5000 : 60 + round;
    const std::vector<TermId> input =
        RandomBatch(n, arity, Values::kNarrow, 1000 + round);
    std::vector<TermId> got = input;
    RadixSortTuples(got.data(), n, arity, &scratch);
    ASSERT_EQ(got, ReferenceSort(input, n, arity)) << "round " << round;
  }
}

}  // namespace
}  // namespace bddfc
