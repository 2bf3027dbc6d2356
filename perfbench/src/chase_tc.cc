// chase-tc: nonlinear transitive closure t(X,Z) <- t(X,Y), t(Y,Z) over a
// seeded permutation of a 300-node path plus 30 seeded forward shortcuts,
// chased with ChaseEngine::kParallel at 4 threads.
//
// The closure of a path is independent of the shortcuts (they are
// implied), so every seed yields exactly n(n-1)/2 t facts: 44,850 at
// n = 300, plus the 329 e facts.

#include <string>

#include "bddfc/chase/chase.h"
#include "bddfc/parser/parser.h"
#include "bddfc/workload/generators.h"
#include "harness.h"

namespace perfbench {

namespace {

using namespace bddfc;

constexpr size_t kThreads = 4;

uint64_t Digest(const Structure& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  s.ForEachFact([&h](PredId p, const std::vector<TermId>& row) {
    h = Fnv1a(h, static_cast<uint64_t>(p));
    for (TermId t : row) h = Fnv1a(h, static_cast<uint64_t>(t));
  });
  return h;
}

class ChaseTc : public BatchWorkload {
 public:
  const char* name() const override { return "chase-tc"; }
  size_t chase_threads() const override { return kThreads; }

  std::string Setup(uint64_t seed, bool tiny) override {
    const int n = tiny ? 40 : 300;
    const int shortcuts = tiny ? 4 : 30;
    Rng rng(Rng::Mix(seed, 1));
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
    auto v = [&perm](int i) {
      return std::string("v") += std::to_string(perm[i]);
    };
    std::string text =
        "e(X, Y) -> t(X, Y).\n"
        "t(X, Y), t(Y, Z) -> t(X, Z).\n";
    for (int i = 0; i + 1 < n; ++i) {
      text += "e(" + v(i) + ", " + v(i + 1) + ").\n";
    }
    for (int k = 0; k < shortcuts; ++k) {
      const int i = static_cast<int>(rng.Uniform(n - 2));
      const int j = i + 2 + static_cast<int>(rng.Uniform(n - i - 2));
      text += "e(" + v(i) + ", " + v(j) + ").\n";
    }
    Result<Program> parsed = ParseProgram(text);
    if (!parsed.ok()) return "parse: " + parsed.status().ToString();
    program_ = std::make_unique<Program>(std::move(parsed).value());
    t_pred_ = program_->theory.sig().FindPredicate("t").value();
    expected_t_ = static_cast<size_t>(n) * (n - 1) / 2;
    expected_facts_ = expected_t_ + program_->instance.NumFacts();

    // The reference: one serial run of the same engine, checked as a model.
    ChaseResult ref = Chase(1, nullptr);
    std::string why = Gate(ref, /*check_digest=*/false);
    if (!why.empty()) return "reference run: " + why;
    if (CheckModel(ref.structure, program_->theory).has_value()) {
      return "reference run: CheckModel found a violated rule";
    }
    reference_ = std::make_unique<Structure>(ref.structure);
    digest_ = Digest(ref.structure);

    JobSample warm;
    RunJob(nullptr, &warm);
    return warm.ok ? "" : "warm-up job: " + warm.why;
  }

  void RunJob(const RunContext* rc, JobSample* sample) override {
    ExecutionContext ctx;
    if (rc != nullptr) ctx.SetRunContext(rc);
    ChaseResult r(program_->instance.signature_ptr());
    {
      JobTimer timer(sample);
      obs::TraceSpan span("perfbench.RunChase");
      r = Chase(kThreads, &ctx);
    }
    sample->why = Gate(r, /*check_digest=*/true);
    sample->ok = sample->why.empty();
    sample->layer["chase.cpu_util"] =
        sample->cpu_ms / (sample->wall_ms * static_cast<double>(kThreads));
    sample->layer["chase.peak_bytes"] =
        static_cast<double>(r.report.peak_bytes);
  }

  std::vector<std::string> SelfTestGates() override {
    // A dropped fact: copy the reference without its last t fact.
    ChaseResult bad(program_->instance.signature_ptr());
    bad.fixpoint_reached = true;
    const size_t drop = reference_->NumFacts(t_pred_) - 1;
    size_t seen = 0;
    reference_->ForEachFact([&](PredId p, const std::vector<TermId>& row) {
      if (p == t_pred_ && seen++ == drop) return;
      bad.structure.AddFact(p, row);
    });
    std::vector<std::string> accepted;
    if (Gate(bad, true).empty()) accepted.push_back("chase-tc: dropped fact");
    if (!CheckModel(bad.structure, program_->theory).has_value()) {
      accepted.push_back("chase-tc: CheckModel on dropped fact");
    }
    return accepted;
  }

 private:
  ChaseResult Chase(size_t threads, ExecutionContext* ctx) const {
    ChaseOptions opts;
    opts.engine = ChaseEngine::kParallel;
    opts.threads = threads;
    opts.max_rounds = 64;
    opts.max_facts = size_t{1} << 22;
    opts.context = ctx;
    return RunChase(program_->theory, program_->instance, opts);
  }

  /// Correctness of one output: fixpoint, exact fact counts and (for
  /// jobs) byte-identity with the serial reference. CheckModel ran on the
  /// reference in setup, so identity implies it holds here too.
  std::string Gate(const ChaseResult& r, bool check_digest) const {
    if (!r.status.ok()) return "status " + r.status.ToString();
    if (!r.fixpoint_reached) return "no fixpoint";
    if (r.structure.NumFacts() != expected_facts_) {
      return "facts " + std::to_string(r.structure.NumFacts()) + " != " +
             std::to_string(expected_facts_);
    }
    if (r.structure.NumFacts(t_pred_) != expected_t_) return "t fact count";
    if (check_digest && Digest(r.structure) != digest_) {
      return "not byte-identical to the threads=1 reference";
    }
    return "";
  }

  std::unique_ptr<Program> program_;
  std::unique_ptr<Structure> reference_;
  PredId t_pred_ = -1;
  size_t expected_t_ = 0, expected_facts_ = 0;
  uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakeChaseTc() {
  return std::make_unique<ChaseTc>();
}

}  // namespace perfbench
