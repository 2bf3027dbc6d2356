// pipeline-ex7: ConstructFiniteCounterModel on the paper's Example 7
// theory with query e(X, X), over a seeded random forest of 128
// named-constant edges. Runs the whole Theorem-2 pipeline, whose
// saturation uses the serial kDelta chase.

#include <string>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/workload/generators.h"
#include "harness.h"

namespace perfbench {

namespace {

using namespace bddfc;

/// Correctness of one pipeline output: a certified model of T that
/// avoids Q, contains D and has the size setup recorded (0 = not yet
/// recorded).
std::string Gate(const FiniteModelResult& r, const Program& p,
                 const ConjunctiveQuery& q, size_t expected_size,
                 double* satisfies_us) {
  if (!r.status.ok()) return "status " + r.status.ToString();
  if (CheckModel(r.model, p.theory).has_value()) {
    return "CheckModel found a violated rule";
  }
  const double t0 = NowMs();
  const bool sat = [&] {
    obs::TraceSpan span("perfbench.Satisfies");
    return Satisfies(r.model, q);
  }();
  if (satisfies_us != nullptr) *satisfies_us = (NowMs() - t0) * 1000;
  if (sat) return "model satisfies the query";
  if (!r.model.ContainsAllFactsOf(p.instance)) return "model misses facts of D";
  if (expected_size != 0 && r.model.Domain().size() != expected_size) {
    return "model size " + std::to_string(r.model.Domain().size()) +
           " != " + std::to_string(expected_size);
  }
  return "";
}

class PipelineEx7 : public BatchWorkload {
 public:
  const char* name() const override { return "pipeline-ex7"; }

  std::string Setup(uint64_t seed, bool tiny) override {
    const int edges = tiny ? 8 : 128;
    const int roots = tiny ? 1 : 4;
    Rng rng(Rng::Mix(seed, 2));
    text_ =
        "e(X, Y) -> exists Z: e(Y, Z).\n"
        "e(X, Y), e(X1, Y) -> r(X, X1).\n";
    int next = roots;
    for (int k = 0; k < edges; ++k) {
      const int parent = static_cast<int>(rng.Uniform(next));
      text_ += "e(c" + std::to_string(parent) + ", c" +
               std::to_string(next++) + ").\n";
    }
    expected_size_ = 0;
    JobSample warm;
    RunJob(nullptr, &warm);
    if (!warm.ok) return "warm-up job: " + warm.why;
    expected_size_ = last_size_;
    return "";
  }

  void RunJob(const RunContext* rc, JobSample* sample) override {
    // Each job parses afresh: the pipeline extends the signature it runs
    // on, so jobs must not share one.
    const double t0 = NowMs();
    Result<Program> parsed = [&] {
      obs::TraceSpan span("perfbench.ParseProgram");
      return ParseProgram(text_);
    }();
    sample->layer["parser.parse_ms"] = NowMs() - t0;
    if (!parsed.ok()) {
      sample->ok = false;
      sample->why = "parse: " + parsed.status().ToString();
      return;
    }
    const Program& p = parsed.value();
    Result<ConjunctiveQuery> q =
        ParseQuery("e(X, X)", p.theory.signature_ptr().get());
    ExecutionContext ctx;
    if (rc != nullptr) ctx.SetRunContext(rc);
    PipelineOptions opts;
    opts.context = &ctx;
    FiniteModelResult r(p.theory.signature_ptr());
    {
      JobTimer timer(sample);
      obs::TraceSpan span("perfbench.ConstructFiniteCounterModel");
      r = ConstructFiniteCounterModel(p.theory, p.instance, q.value(), opts);
    }
    double satisfies_us = 0;
    sample->why = Gate(r, p, q.value(), expected_size_, &satisfies_us);
    sample->ok = sample->why.empty();
    last_size_ = r.model.Domain().size();
    sample->layer["eval.satisfies_us"] = satisfies_us;
    sample->layer["finitemodel.attempts"] =
        static_cast<double>(r.attempts.size());
    sample->layer["finitemodel.model_size"] = static_cast<double>(last_size_);
    sample->layer["chase.peak_bytes"] =
        static_cast<double>(r.report.peak_bytes);
  }

  std::vector<std::string> SelfTestGates() override {
    Program p = std::move(ParseProgram(text_)).value();
    ConjunctiveQuery q =
        std::move(ParseQuery("e(X, X)", p.theory.signature_ptr().get()))
            .value();
    FiniteModelResult r =
        ConstructFiniteCounterModel(p.theory, p.instance, q);
    std::vector<std::string> accepted;
    if (!Gate(r, p, q, expected_size_, nullptr).empty()) {
      accepted.push_back("pipeline-ex7: rejects a correct model");
      return accepted;
    }
    // A model that satisfies Q: add a self-loop on one element.
    const TermId e0 = r.model.Domain().front();
    const PredId e = p.theory.sig().FindPredicate("e").value();
    r.model.AddFact(e, {e0, e0});
    if (Gate(r, p, q, expected_size_, nullptr).empty()) {
      accepted.push_back("pipeline-ex7: model satisfying Q");
    }
    return accepted;
  }

 private:
  std::string text_;
  size_t expected_size_ = 0;
  size_t last_size_ = 0;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakePipelineEx7() {
  return std::make_unique<PipelineEx7>();
}

}  // namespace perfbench
