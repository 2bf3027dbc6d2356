// E4 — Quotient structures M_n(C) on the E-chain (Examples 3–5): size of
// the quotient versus n, uncolored vs naturally colored, and across the
// three partitioners (exact ≡_n, neighborhood ball, ancestor path).
// Expected shapes: uncolored quotients have 2n-1 classes regardless of
// chain length (Example 3); coloring with window m multiplies classes by
// roughly the hue period (Example 4); all partitions agree on chains.

#include "bench_common.h"

#include "bddfc/types/coloring.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

void PrintTable() {
  bddfc_bench::Banner("E4", "quotient size |M_n(chain)| vs n");
  const int kChain = 512;
  std::printf("chain length: %d edges (all three partitions)\n\n", kChain);
  std::printf("%-10s %-4s %-12s %-12s %-14s %-12s\n", "coloring", "n",
              "exact(512)", "ball(512)", "ancestor(512)", "classes==");

  for (int m : {0, 1, 2}) {  // 0 = uncolored
    auto sig = std::make_shared<Signature>();
    Structure chain = MakeChain(sig, kChain);
    Result<Coloring> col = NaturalColoring(chain, std::max(m, 1));
    const Structure& c = m > 0 ? col.value().colored : chain;

    for (int n = 2; n <= 4; ++n) {
      Result<TypePartition> exact = ExactPtpPartition(c, n, {}, 5000000);
      TypePartition ball = BallPartition(c, n);
      TypePartition anc = AncestorPathPartition(c, n);
      std::printf("%-10s %-4d %-12s %-12d %-14d %-12s\n",
                  m == 0 ? "none" : ("m=" + std::to_string(m)).c_str(), n,
                  exact.ok() ? std::to_string(exact.value().num_classes).c_str()
                             : "(budget)",
                  ball.num_classes, anc.num_classes,
                  ball.num_classes == anc.num_classes ? "ball=anc" : "differ");
    }
  }
}

void BM_ExactPartition(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = ExactPtpPartition(chain, static_cast<int>(state.range(1)));
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_ExactPartition)->Args({16, 2})->Args({32, 2})->Args({16, 3});

void BM_BallPartition(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TypePartition p = BallPartition(chain, 3);
    benchmark::DoNotOptimize(p.num_classes);
  }
}
BENCHMARK(BM_BallPartition)->Arg(128)->Arg(512)->Arg(2048);

void BM_BuildQuotient(benchmark::State& state) {
  auto sig = std::make_shared<Signature>();
  Structure chain = MakeChain(sig, static_cast<int>(state.range(0)));
  TypePartition p = BallPartition(chain, 3);
  for (auto _ : state) {
    Quotient q = BuildQuotient(chain, p);
    benchmark::DoNotOptimize(q.structure.NumFacts());
  }
}
BENCHMARK(BM_BuildQuotient)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace

BDDFC_BENCH_MAIN(PrintTable)
