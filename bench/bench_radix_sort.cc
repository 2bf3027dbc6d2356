// E15d — the sink's sort kernel: RadixSortTuples (core/radix_sort.h)
// against the comparator index sort the round sink used before it (an
// index vector ordered by std::sort through an indirect lexicographic
// comparator with an index tie-break), on random row-major tuples drawn
// from a pool of n/2 distinct tuples (so duplicate groups are common) over
// values in [0, max(16, n)) — the shape of a chase batch.
//
// The first table is the acceptance check: the kernel must be no slower
// than the index sort at any listed n and arity. The second times the
// kernel's two halves (insertion sort, LSD radix passes) against the index
// sort on small batches and reports the crossover kRadixMinTuples encodes;
// its radix column is why the kernel has a comparison half at all.

#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <vector>

#include "bddfc/core/radix_sort.h"

namespace {

using bddfc::RadixSortTuples;
using bddfc::TermId;
using bddfc::radix_internal::InsertionSortTuples;
using bddfc::radix_internal::kRadixMinTuples;
using bddfc::radix_internal::LsdRadixSortTuples;

std::vector<TermId> RandomTuples(size_t n, size_t arity, uint32_t seed) {
  std::mt19937 rng(seed);
  const uint32_t range = static_cast<uint32_t>(std::max<size_t>(16, n));
  std::vector<TermId> pool((n / 2 + 1) * arity);
  for (TermId& v : pool) v = static_cast<TermId>(rng() % range);
  std::vector<TermId> flat;
  flat.reserve(n * arity);
  for (size_t i = 0; i < n; ++i) {
    const size_t pick = rng() % (n / 2 + 1);
    flat.insert(flat.end(), pool.begin() + pick * arity,
                pool.begin() + (pick + 1) * arity);
  }
  return flat;
}

/// The pre-kernel sink sort: the order of the tuples as an index vector.
void IndexSort(const TermId* tuples, size_t n, size_t arity,
               std::vector<uint32_t>* ord) {
  auto tup_less = [arity](const TermId* a, const TermId* b) {
    return std::lexicographical_compare(a, a + arity, b, b + arity);
  };
  ord->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*ord)[i] = i;
  std::sort(ord->begin(), ord->end(), [&](uint32_t a, uint32_t b) {
    const TermId* ta = tuples + static_cast<size_t>(a) * arity;
    const TermId* tb = tuples + static_cast<size_t>(b) * arity;
    return tup_less(ta, tb) || (!tup_less(tb, ta) && a < b);
  });
}

/// Median over 7 samples of the per-call time in ns; each sample repeats
/// the call enough times to span ~2 ms. `sort` gets a fresh copy of the
/// input every call (the copy is timed separately and subtracted).
template <typename Sort>
double NsPerCall(const std::vector<TermId>& input, const Sort& sort) {
  std::vector<TermId> work(input.size());
  auto run = [&](size_t reps, bool do_sort) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) {
      std::copy(input.begin(), input.end(), work.begin());
      if (do_sort) sort(work.data());
      benchmark::DoNotOptimize(work.data());
      benchmark::ClobberMemory();
    }
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  size_t reps = 1;
  while (run(reps, true) < 2e6 && reps < (size_t{1} << 24)) reps *= 2;
  std::vector<double> samples;
  for (int s = 0; s < 7; ++s) {
    samples.push_back((run(reps, true) - run(reps, false)) /
                      static_cast<double>(reps));
  }
  std::sort(samples.begin(), samples.end());
  return std::max(samples[3], 0.0);
}

void PrintKernelTable() {
  bddfc_bench::Banner(
      "E15d", "sink sort kernel: RadixSortTuples vs the comparator index "
              "sort (ns per tuple; kernel must never be slower)");
  std::printf("%-8s %-6s %-12s %-12s %-8s\n", "n", "arity", "index ns/t",
              "kernel ns/t", "speedup");
  std::vector<TermId> scratch;
  std::vector<uint32_t> ord;
  for (size_t arity : {size_t{1}, size_t{2}, size_t{3}}) {
    for (size_t n : {size_t{16}, size_t{256}, size_t{4096}, size_t{65536}}) {
      const std::vector<TermId> input = RandomTuples(n, arity, 7 + n);
      const double index_ns = NsPerCall(
          input, [&](TermId* d) { IndexSort(d, n, arity, &ord); });
      const double kernel_ns = NsPerCall(input, [&](TermId* d) {
        RadixSortTuples(d, n, arity, &scratch);
      });
      std::printf("%-8zu %-6zu %-12.2f %-12.2f %-8.2f\n", n, arity,
                  index_ns / n, kernel_ns / n,
                  index_ns / std::max(kernel_ns, 1e-9));
    }
  }

  bddfc_bench::Banner(
      "E15d", "kernel halves vs the index sort on small batches (ns per "
              "tuple); kRadixMinTuples is the insertion/radix crossover");
  std::printf("%-8s %-6s %-12s %-14s %-12s %-8s\n", "n", "arity",
              "index ns/t", "insertion ns/t", "radix ns/t", "faster");
  for (size_t arity : {size_t{1}, size_t{2}, size_t{3}}) {
    size_t crossover = 0;
    for (size_t n : {size_t{8}, size_t{16}, size_t{24}, size_t{32},
                     size_t{48}, size_t{64}, size_t{96}, size_t{128}}) {
      const std::vector<TermId> input = RandomTuples(n, arity, 11 + n);
      const double index_ns = NsPerCall(
          input, [&](TermId* d) { IndexSort(d, n, arity, &ord); });
      const double ins_ns = NsPerCall(
          input, [&](TermId* d) { InsertionSortTuples(d, n, arity); });
      const double lsd_ns = NsPerCall(input, [&](TermId* d) {
        LsdRadixSortTuples(d, n, arity, &scratch);
      });
      const bool radix_wins = lsd_ns < ins_ns;
      if (radix_wins && crossover == 0) crossover = n;
      std::printf("%-8zu %-6zu %-12.2f %-14.2f %-12.2f %-8s\n", n, arity,
                  index_ns / n, ins_ns / n, lsd_ns / n,
                  radix_wins ? "radix" : "insertion");
    }
    std::printf("arity %zu: radix first wins at n=%zu (kRadixMinTuples=%zu)\n",
                arity, crossover, kRadixMinTuples);
  }
}

void BM_RadixSortTuples(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<TermId> input = RandomTuples(n, 2, 3);
  std::vector<TermId> work, scratch;
  for (auto _ : state) {
    work = input;
    RadixSortTuples(work.data(), n, 2, &scratch);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_RadixSortTuples)->Arg(16)->Arg(4096)->Arg(65536);

void BM_IndexSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<TermId> input = RandomTuples(n, 2, 3);
  std::vector<uint32_t> ord;
  for (auto _ : state) {
    IndexSort(input.data(), n, 2, &ord);
    benchmark::DoNotOptimize(ord.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexSort)->Arg(16)->Arg(4096)->Arg(65536);

}  // namespace

BDDFC_BENCH_MAIN(PrintKernelTable)
