#include "bddfc/core/radix_sort.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace bddfc {

namespace {

/// Digits are at most this wide: 2^11 bucket counters stay in L1.
constexpr unsigned kMaxDigitBits = 11;

/// Sign-flipped key: unsigned order of keys == signed order of TermIds.
inline uint32_t Key(TermId v) {
  return static_cast<uint32_t>(v) ^ 0x80000000u;
}

/// Moves every tuple of `src` to the next slot of its digit's bucket in
/// `dst`; the digit of a tuple is ((key(pos) − base) >> shift) & mask. `A`
/// is the arity when known at compile time (0 = read `arity`). The tuple
/// is copied element-wise: std::copy_n of 3 TermIds compiles to a memmove
/// call, which made arity-3 passes ~1.7x slower.
template <size_t A>
void Scatter(const TermId* src, TermId* dst, size_t n, size_t arity,
             size_t pos, uint32_t base, unsigned shift, uint32_t mask,
             size_t* next) {
  const size_t w = A != 0 ? A : arity;
  for (size_t i = 0; i < n; ++i, src += w) {
    TermId* out = dst + next[((Key(src[pos]) - base) >> shift) & mask]++ * w;
    for (size_t j = 0; j < w; ++j) out[j] = src[j];
  }
}

/// Lexicographic order of two rows.
inline bool RowLess(const TermId* a, const TermId* b, size_t arity) {
  for (size_t i = 0; i < arity; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

/// Insertion sort over whole rows; `A` as in Scatter.
template <size_t A>
void InsertRows(TermId* data, size_t n, size_t arity) {
  const size_t w = A != 0 ? A : arity;
  for (size_t i = 1; i < n; ++i) {
    TermId* row = data + i * w;
    size_t j = i;
    while (j > 0 && RowLess(row, data + (j - 1) * w, w)) --j;
    if (j == i) continue;
    if constexpr (A != 0) {
      TermId tmp[A];
      for (size_t k = 0; k < A; ++k) tmp[k] = row[k];
      std::copy_backward(data + j * A, row, row + A);
      for (size_t k = 0; k < A; ++k) data[j * A + k] = tmp[k];
    } else {
      std::rotate(data + j * w, row, row + w);
    }
  }
}

}  // namespace

namespace radix_internal {

void InsertionSortTuples(TermId* data, size_t n, size_t arity) {
  switch (arity) {
    case 0: break;
    case 1: InsertRows<1>(data, n, arity); break;
    case 2: InsertRows<2>(data, n, arity); break;
    case 3: InsertRows<3>(data, n, arity); break;
    case 4: InsertRows<4>(data, n, arity); break;
    default: InsertRows<0>(data, n, arity); break;
  }
}

void LsdRadixSortTuples(TermId* data, size_t n, size_t arity,
                        std::vector<TermId>* scratch) {
  if (arity == 0 || n < 2) return;

  // Widest digit for this batch: 2^bits buckets within 2n, so clearing
  // and prefix-summing them never dominates the scatter.
  const unsigned max_bits = std::clamp(
      static_cast<unsigned>(std::bit_width(n)), 1u, kMaxDigitBits);
  size_t next[size_t{1} << kMaxDigitBits];

  if (scratch->size() < n * arity) scratch->resize(n * arity);
  TermId* src = data;
  TermId* dst = scratch->data();
  for (size_t pos = arity; pos-- > 0;) {
    // The position's observed key range; a constant position is already
    // in order and costs no pass.
    uint32_t lo = UINT32_MAX, hi = 0;
    for (const TermId* t = src + pos; t < src + n * arity; t += arity) {
      lo = std::min(lo, Key(*t));
      hi = std::max(hi, Key(*t));
    }
    const unsigned bits = static_cast<unsigned>(std::bit_width(hi - lo));
    if (bits == 0) continue;
    // ⌈bits / max_bits⌉ equal-width digits of key − lo, low digit first.
    const unsigned digits = (bits + max_bits - 1) / max_bits;
    const unsigned width = (bits + digits - 1) / digits;
    const uint32_t mask = (uint32_t{1} << width) - 1;
    const size_t buckets = size_t{mask} + 1;
    for (unsigned shift = 0; shift < bits; shift += width) {
      std::fill_n(next, buckets, 0);
      for (const TermId* t = src + pos; t < src + n * arity; t += arity) {
        ++next[((Key(*t) - lo) >> shift) & mask];
      }
      // Exclusive prefix sums; a digit every tuple shares would copy the
      // batch unchanged, so its pass is skipped.
      bool single = false;
      size_t sum = 0;
      for (size_t b = 0; b < buckets; ++b) {
        const size_t c = next[b];
        single |= c == n;
        next[b] = sum;
        sum += c;
      }
      if (single) continue;
      switch (arity) {
        case 1:
          Scatter<1>(src, dst, n, arity, pos, lo, shift, mask, next);
          break;
        case 2:
          Scatter<2>(src, dst, n, arity, pos, lo, shift, mask, next);
          break;
        case 3:
          Scatter<3>(src, dst, n, arity, pos, lo, shift, mask, next);
          break;
        case 4:
          Scatter<4>(src, dst, n, arity, pos, lo, shift, mask, next);
          break;
        default:
          Scatter<0>(src, dst, n, arity, pos, lo, shift, mask, next);
          break;
      }
      std::swap(src, dst);
    }
  }
  if (src != data) std::copy_n(src, n * arity, data);
}

}  // namespace radix_internal

void RadixSortTuples(TermId* data, size_t n, size_t arity,
                     std::vector<TermId>* scratch) {
  if (n < radix_internal::kRadixMinTuples) {
    radix_internal::InsertionSortTuples(data, n, arity);
  } else {
    radix_internal::LsdRadixSortTuples(data, n, arity, scratch);
  }
}

}  // namespace bddfc
