// E1 — Chase growth |Chase^i(D, T)| per depth, restricted (non-oblivious)
// vs oblivious, on the paper's example theories. Expected shapes: Example 1
// and Example 7 grow linearly (one chain), Example 9 exponentially (binary
// tree); the oblivious chase never reuses witnesses so it dominates the
// restricted one wherever witnesses pre-exist.
//
// Also compares the engine against the naive full re-enumeration loop on
// generator workloads (equal outputs, wall-clock speedup), measures the
// engine's thread scaling, and exports ChaseStats counters into the
// google-benchmark counter set (visible in --benchmark_format=json
// output).

#include "bench_common.h"

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "bddfc/chase/chase.h"
#include "bddfc/workload/generators.h"
#include "bddfc/workload/paper_examples.h"

namespace {

using namespace bddfc;

/// Copies a ChaseResult's execution counters into benchmark counters so
/// they land in the JSON report.
void ExportChaseStats(benchmark::State& state, const ChaseResult& r) {
  state.counters["facts"] = static_cast<double>(r.structure.NumFacts());
  state.counters["rounds"] = static_cast<double>(r.rounds_run);
  state.counters["bindings_tried"] =
      static_cast<double>(r.stats.match.bindings_tried);
  state.counters["postings_hits"] =
      static_cast<double>(r.stats.match.postings_hits);
  state.counters["postings_misses"] =
      static_cast<double>(r.stats.match.postings_misses);
  state.counters["triggers_deduped"] =
      static_cast<double>(r.stats.triggers_deduped);
  state.counters["datalog_deduped"] =
      static_cast<double>(r.stats.datalog_deduped);
  // Governor account: all zero / absent-deadline on ungoverned runs, but
  // exported unconditionally so JSON consumers see a stable counter set.
  state.counters["peak_accounted_bytes"] =
      static_cast<double>(r.report.peak_bytes);
  state.counters["deadline_slack_ms"] =
      std::isfinite(r.report.deadline_slack_ms) ? r.report.deadline_slack_ms
                                                : 0.0;
  state.counters["cancel_checks"] =
      static_cast<double>(r.report.cancel_checks);
}

/// A weakly acyclic generator workload: RandomAcyclicBinaryTheory over a
/// random b0-graph on `nodes` named constants. TC-style datalog rules plus
/// up-pointing TGDs make the naive loop pay a full join every round.
struct GeneratorWorkload {
  SignaturePtr sig;
  Theory theory;
  Structure instance;
};

GeneratorWorkload MakeGeneratorWorkload(int nodes, int edges, uint64_t seed) {
  auto sig = std::make_shared<Signature>();
  Theory t = RandomAcyclicBinaryTheory(sig, /*preds=*/6, /*tgds=*/8,
                                       /*datalog_rules=*/10, seed);
  Structure d(sig);
  PredId b0 = std::move(sig->FindPredicate("b0")).ValueOrDie();
  Rng rng(seed * 101 + 7);
  std::vector<TermId> consts;
  consts.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    consts.push_back(sig->AddConstant("k" + std::to_string(i)));
  }
  for (int i = 0; i < edges; ++i) {
    d.AddFact(b0, {consts[rng.Uniform(nodes)], consts[rng.Uniform(nodes)]});
  }
  return {std::move(sig), std::move(t), std::move(d)};
}

/// Chases `w` with `engine` (at `threads` workers for the engine) and
/// reports the wall time in *ms.
ChaseResult TimedChase(const GeneratorWorkload& w, ChaseEngine engine,
                       double* ms, size_t threads = 1) {
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  opts.engine = engine;
  opts.threads = threads;
  auto t0 = std::chrono::steady_clock::now();
  ChaseResult r = RunChase(w.theory, w.instance, opts);
  *ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  return r;
}

void PrintEngineComparison() {
  bddfc_bench::Banner(
      "E1b", "engine (delta rounds) vs naive chase (generator workloads)");
  std::printf("%-8s %-8s %-8s %-8s %-12s %-12s %-10s %-18s %-6s\n", "nodes",
              "edges", "facts", "rounds", "naive ms", "engine ms", "speedup",
              "bindings n/e", "equal");
  const int sizes[][2] = {{50, 150}, {100, 300}, {200, 600}, {400, 1200}};
  for (auto [nodes, edges] : sizes) {
    GeneratorWorkload w = MakeGeneratorWorkload(nodes, edges, /*seed=*/42);
    double naive_ms = 0, engine_ms = 0;
    ChaseResult naive = TimedChase(w, ChaseEngine::kNaive, &naive_ms);
    ChaseResult engine = TimedChase(w, ChaseEngine::kParallel, &engine_ms);
    const bool equal = naive.structure.NumFacts() ==
                           engine.structure.NumFacts() &&
                       naive.facts_per_round == engine.facts_per_round &&
                       naive.nulls_created == engine.nulls_created &&
                       naive.fixpoint_reached == engine.fixpoint_reached;
    std::printf("%-8d %-8d %-8zu %-8zu %-12.2f %-12.2f %-10.2f %9zu/%-8zu %-6s\n",
                nodes, edges, engine.structure.NumFacts(), engine.rounds_run,
                naive_ms, engine_ms, naive_ms / std::max(engine_ms, 1e-9),
                naive.stats.match.bindings_tried,
                engine.stats.match.bindings_tried, equal ? "yes" : "NO");
  }
}

/// True iff the two results are byte-identical: same rows in the same
/// append order with the same raw TermIds (valid because each run chased
/// a freshly generated workload, so null numbering starts equal).
bool ByteIdentical(const ChaseResult& a, const ChaseResult& b) {
  if (a.structure.NumStoredPredicates() != b.structure.NumStoredPredicates())
    return false;
  for (PredId p = 0; p < a.structure.NumStoredPredicates(); ++p) {
    if (a.structure.Rows(p) != b.structure.Rows(p)) return false;
  }
  return a.facts_per_round == b.facts_per_round &&
         a.nulls_created == b.nulls_created && a.rounds_run == b.rounds_run;
}

/// Dedup counters two equivalent runs must agree on, whatever the engine.
bool DedupParity(const ChaseResult& a, const ChaseResult& b) {
  return a.stats.triggers_deduped == b.stats.triggers_deduped &&
         a.stats.datalog_deduped == b.stats.datalog_deduped;
}

/// Order-independent execution counters two runs of the engine must agree
/// on at any thread count.
bool StatsParity(const ChaseResult& a, const ChaseResult& b) {
  return a.stats.match.bindings_tried == b.stats.match.bindings_tried &&
         DedupParity(a, b);
}

/// Transitive closure of a c0 -> c1 -> ... -> c(n-1) path under the
/// composition rule e(X,Y), e(Y,Z) -> e(X,Z): the join-dominated datalog
/// saturation load (O(n^2) facts, O(n^3) bindings over ~log n rounds)
/// where per-binding evaluation cost, not sink cost, decides the wall
/// clock.
GeneratorWorkload MakeTcWorkload(int n) {
  Program p = ParseProgram("e(X, Y), e(Y, Z) -> e(X, Z).").ValueOrDie();
  PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
  TermId prev = p.theory.mutable_sig().AddConstant("c0");
  for (int i = 1; i < n; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    TermId next = p.theory.mutable_sig().AddConstant(name);
    p.instance.AddFact(e, {prev, next});
    prev = next;
  }
  return {nullptr, std::move(p.theory), std::move(p.instance)};
}

void PrintTcSaturation() {
  bddfc_bench::Banner(
      "E15b", "engine vs naive reference on datalog saturation (path "
              "transitive closure; byte-identical output and dedup "
              "counters required)");
  std::printf("%-8s %-8s %-8s %-10s %-10s %-9s %-10s %-9s\n", "n", "facts",
              "rounds", "naive ms", "t=1 ms", "speedup", "t=4 ms",
              "identical");
  for (int n : {48, 96, 144}) {
    double naive_ms = 0, t1_ms = 0, t4_ms = 0;
    GeneratorWorkload ref_w = MakeTcWorkload(n);
    ChaseResult ref = TimedChase(ref_w, ChaseEngine::kNaive, &naive_ms);
    GeneratorWorkload t1_w = MakeTcWorkload(n);
    ChaseResult t1 = TimedChase(t1_w, ChaseEngine::kParallel, &t1_ms);
    GeneratorWorkload t4_w = MakeTcWorkload(n);
    ChaseResult t4 = TimedChase(t4_w, ChaseEngine::kParallel, &t4_ms, 4);
    const bool t1_ok = ByteIdentical(t1, ref) && DedupParity(t1, ref);
    const bool t4_ok = ByteIdentical(t4, ref) && StatsParity(t4, t1) &&
                       t4.stats.sink_candidates == t1.stats.sink_candidates &&
                       t4.stats.sink_contained == t1.stats.sink_contained;
    std::printf("%-8d %-8zu %-8zu %-10.2f %-10.2f %-9.2f %-10.2f %-9s\n", n,
                ref.structure.NumFacts(), ref.rounds_run, naive_ms, t1_ms,
                naive_ms / std::max(t1_ms, 1e-9), t4_ms,
                t1_ok && t4_ok ? "yes" : "NO");
  }
}

void PrintParallelScaling() {
  bddfc_bench::Banner(
      "E15", "parallel sharded chase scaling (byte-identical and equal "
             "counters at every thread count; thread scaling needs real "
             "cores)");
  std::printf("%-8s %-8s %-8s %-8s %-8s %-8s %-8s %-8s %-9s %-9s\n",
              "nodes", "edges", "facts", "rounds", "t=1", "t=2", "t=4",
              "t=8", "speedup4", "identical");
  const int sizes[][2] = {{100, 300}, {200, 600}, {400, 1200}};
  const size_t thread_counts[] = {1, 2, 4, 8};
  for (auto [nodes, edges] : sizes) {
    // Each run chases a freshly generated workload: the chase interns
    // nulls into the workload's signature, so reusing one instance would
    // shift the TermIds of the second run and break the byte comparison.
    // Reference: the engine's serial round (t=1).
    GeneratorWorkload ref_w = MakeGeneratorWorkload(nodes, edges, 42);
    double ms[4] = {0, 0, 0, 0};
    ChaseResult ref = TimedChase(ref_w, ChaseEngine::kParallel, &ms[0]);
    bool all_identical = true;
    for (int i = 1; i < 4; ++i) {
      GeneratorWorkload w = MakeGeneratorWorkload(nodes, edges, 42);
      ChaseResult r =
          TimedChase(w, ChaseEngine::kParallel, &ms[i], thread_counts[i]);
      const bool identical = ByteIdentical(r, ref) && StatsParity(r, ref);
      all_identical = all_identical && identical;
    }
    std::printf(
        "%-8d %-8d %-8zu %-8zu %-8.2f %-8.2f %-8.2f %-8.2f %-9.2f %-9s\n",
        nodes, edges, ref.structure.NumFacts(), ref.rounds_run, ms[0], ms[1],
        ms[2], ms[3], ms[0] / std::max(ms[2], 1e-9),
        all_identical ? "yes" : "NO");
  }
}

void PrintTable() {
  bddfc_bench::Banner("E1", "chase growth per depth (facts)");
  struct Row {
    const char* name;
    Program program;
  };
  // cyclic-db: witnesses pre-exist, so the restricted chase stops at once
  // while the blind chase keeps inventing (the defining difference).
  Result<Program> cyclic = ParseProgram(R"(
    e(X, Y) -> exists Z: e(Y, Z).
    e(a, b). e(b, a).
  )");
  Row rows[] = {{"example1", Example1()},
                {"example7", Example7()},
                {"example9", Example9()},
                {"section5.5", Section55()},
                {"cyclic-db", std::move(cyclic).ValueOrDie()}};
  std::printf("%-12s %-10s", "theory", "mode");
  for (int d = 2; d <= 10; d += 2) std::printf(" d=%-6d", d);
  std::printf("\n");
  for (Row& row : rows) {
    for (bool oblivious : {false, true}) {
      std::printf("%-12s %-10s", row.name,
                  oblivious ? "oblivious" : "restricted");
      for (int d = 2; d <= 10; d += 2) {
        ChaseOptions opts;
        opts.max_rounds = static_cast<size_t>(d);
        opts.max_facts = 1000000;
        opts.oblivious = oblivious;
        ChaseResult r = RunChase(row.program.theory, row.program.instance,
                                 opts);
        std::printf(" %-8zu", r.structure.NumFacts());
      }
      std::printf("\n");
    }
  }
}

void BM_RestrictedChase(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Program p = Example9();
    state.ResumeTiming();
    ChaseOptions opts;
    opts.max_rounds = static_cast<size_t>(state.range(0));
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_RestrictedChase)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_DeltaChaseGenerator(benchmark::State& state) {
  GeneratorWorkload w =
      MakeGeneratorWorkload(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 3, 42);
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  for (auto _ : state) {
    ChaseResult r = RunChase(w.theory, w.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_DeltaChaseGenerator)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_NaiveChaseGenerator(benchmark::State& state) {
  GeneratorWorkload w =
      MakeGeneratorWorkload(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 3, 42);
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  opts.engine = ChaseEngine::kNaive;
  for (auto _ : state) {
    ChaseResult r = RunChase(w.theory, w.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_NaiveChaseGenerator)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_ParallelChaseGenerator(benchmark::State& state) {
  GeneratorWorkload w =
      MakeGeneratorWorkload(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 3, 42);
  ChaseOptions opts;
  opts.max_rounds = 256;
  opts.max_facts = 5000000;
  opts.engine = ChaseEngine::kParallel;
  opts.threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    ChaseResult r = RunChase(w.theory, w.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_ParallelChaseGenerator)
    ->Args({200, 1})
    ->Args({200, 2})
    ->Args({200, 4})
    ->Args({200, 8});

void BM_ObliviousChase(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Program p = Example9();
    state.ResumeTiming();
    ChaseOptions opts;
    opts.max_rounds = static_cast<size_t>(state.range(0));
    opts.oblivious = true;
    ChaseResult r = RunChase(p.theory, p.instance, opts);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_ObliviousChase)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_DatalogSaturation(benchmark::State& state) {
  // Transitive closure of a path: the classic datalog saturation load.
  for (auto _ : state) {
    state.PauseTiming();
    auto parsed = ParseProgram("e(X, Y), e(Y, Z) -> e(X, Z).");
    Program& p = parsed.value();
    TermId prev = p.theory.mutable_sig().AddConstant("c0");
    PredId e = std::move(p.theory.sig().FindPredicate("e")).ValueOrDie();
    for (int i = 1; i <= state.range(0); ++i) {
      TermId next = p.theory.mutable_sig().AddConstant(
          "c" + std::to_string(i));
      p.instance.AddFact(e, {prev, next});
      prev = next;
    }
    state.ResumeTiming();
    ChaseResult r = RunChase(p.theory, p.instance);
    benchmark::DoNotOptimize(r.structure.NumFacts());
    ExportChaseStats(state, r);
  }
}
BENCHMARK(BM_DatalogSaturation)->Arg(16)->Arg(32)->Arg(64);

void PrintAllTables() {
  PrintTable();
  PrintEngineComparison();
  PrintParallelScaling();
  PrintTcSaturation();
}

}  // namespace

BDDFC_BENCH_MAIN(PrintAllTables)
