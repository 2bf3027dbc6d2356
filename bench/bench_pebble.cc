// E5 — Cost of deciding positive-type containment (the connected-pattern
// oracle of ptype.h) versus structure size and variable budget n.
// Expected shape: one containment query checks the connected ≤ n-sets
// through the pinned element, so its pattern count depends on the degree
// around the pin and on n, not on |C|; class counts on chains stay 2n-1.

#include "bench_common.h"

#include "bddfc/types/coloring.h"
#include "bddfc/types/ptype.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

/// One row: patterns of one containment query between two elements of `c`
/// (from `from` to `to`), and the number of ≡_n classes of `c`.
void PrintRow(const char* shape, const Structure& c, int n, TermId from,
              TermId to) {
  TypeOracleOptions opts;
  opts.num_variables = n;
  TypeOracle oracle(c, c, opts);
  oracle.TypeContained(from, to);
  auto part = ExactPtpPartition(c, n);
  std::printf("%-8s %-6zu %-4d %-14zu %-12s\n", shape, c.Domain().size(), n,
              oracle.patterns_checked(),
              part.ok() ? std::to_string(part.value().num_classes).c_str()
                        : "(budget)");
}

void PrintTable() {
  bddfc_bench::Banner("E5", "type-oracle pattern counts");
  std::printf("%-8s %-6s %-4s %-14s %-12s\n", "shape", "|C|", "n",
              "patterns", "classes");
  for (int len : {16, 64, 512}) {
    for (int n = 2; n <= 4; ++n) {
      auto sig = std::make_shared<Signature>();
      std::vector<TermId> dom;
      Structure chain = MakeChain(sig, len, &dom);
      // Between two interior elements.
      PrintRow("chain", chain, n, dom[len / 2], dom[len / 2 + 1]);
    }
  }
  for (int depth : {4, 7}) {
    for (int n = 2; n <= 4; ++n) {
      auto sig = std::make_shared<Signature>();
      std::vector<TermId> dom;
      Structure tree = MakeBinaryTree(sig, depth, &dom);
      // Between the root's two children (interior, degree 3).
      PrintRow("tree", tree, n, dom[1], dom[2]);
    }
  }
}

void BM_TypeContained(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  std::vector<TermId> elems;
  Structure chain = MakeChain(sig, static_cast<int>(state.range(0)), &elems);
  TypeOracleOptions opts;
  opts.num_variables = static_cast<int>(state.range(1));
  for (auto _ : state) {
    TypeOracle oracle(chain, chain, opts);
    benchmark::DoNotOptimize(
        oracle.TypeContained(elems[elems.size() / 2],
                             elems[elems.size() / 2 + 1]));
  }
}
BENCHMARK(BM_TypeContained)
    ->Args({16, 2})
    ->Args({64, 2})
    ->Args({16, 3})
    ->Args({64, 3});

void BM_PartitionTree(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure tree = MakeBinaryTree(sig, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = ExactPtpPartition(tree, 2);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_PartitionTree)->Arg(3)->Arg(4)->Arg(5);

void BM_AncestorPartitionColored(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, static_cast<int>(state.range(0)));
  Result<Coloring> col = NaturalColoring(chain, 2);
  for (auto _ : state) {
    TypePartition p = AncestorPathPartition(col.value().colored, 3);
    benchmark::DoNotOptimize(p.num_classes);
  }
}
BENCHMARK(BM_AncestorPartitionColored)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace

BDDFC_BENCH_MAIN(PrintTable)
