// ptype-exact: ExactPtpPartition at n = 3 over seeded, naturally colored
// random forests of labeled nulls (the shape of a Lemma-3 skeleton). One
// job partitions every forest of the set once.

#include <string>

#include "bddfc/types/coloring.h"
#include "bddfc/types/ptype.h"
#include "bddfc/types/quotient.h"
#include "bddfc/workload/generators.h"
#include "harness.h"

namespace perfbench {

namespace {

using namespace bddfc;

constexpr int kN = 3;
constexpr size_t kMaxPatterns = 2000000;

uint64_t Fingerprint(const TypePartition& p) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int c : p.class_id) h = Fnv1a(h, static_cast<uint64_t>(c));
  return h;
}

struct Forest {
  explicit Forest(SignaturePtr sig) : coloring(std::move(sig)) {}
  Coloring coloring;
  TypePartition ball;     ///< BallPartition oracle (refines ≡_n)
  uint64_t fingerprint = 0;  ///< of the exact partition, from setup
};

/// Correctness of one exact partition against its forest's oracles.
std::string Gate(const Result<TypePartition>& exact, const Forest& f,
                 bool check_fingerprint) {
  if (!exact.ok()) return "ExactPtpPartition: " + exact.status().ToString();
  if (!IsRefinementOf(f.ball, exact.value())) {
    return "BallPartition does not refine the exact partition";
  }
  if (check_fingerprint && Fingerprint(exact.value()) != f.fingerprint) {
    return "partition differs from setup's";
  }
  return "";
}

class PtypeExact : public BatchWorkload {
 public:
  const char* name() const override { return "ptype-exact"; }
  // ~85 jobs of ~240 ms fit in a 20 s run: p90 would leave under ten
  // samples beyond it.
  double tail_pct() const override { return 75; }

  std::string Setup(uint64_t seed, bool tiny) override {
    const int forests = tiny ? 1 : 6;
    const int edges = tiny ? 8 : 40;
    const int roots = tiny ? 1 : 3;
    forests_.clear();
    Rng rng(Rng::Mix(seed, 3));
    for (int f = 0; f < forests; ++f) {
      auto sig = std::make_shared<Signature>();
      const PredId e = sig->AddPredicate("e", 2).value();
      Structure c(sig);
      std::vector<TermId> nodes;
      for (int r = 0; r < roots; ++r) {
        nodes.push_back(sig->AddNull());
        c.AddDomainElement(nodes.back());
      }
      for (int k = 0; k < edges; ++k) {
        const TermId parent = nodes[rng.Uniform(nodes.size())];
        nodes.push_back(sig->AddNull());
        c.AddDomainElement(nodes.back());
        c.AddFact(e, {parent, nodes.back()});
      }
      Result<Coloring> colored = NaturalColoring(c, /*m=*/2);
      if (!colored.ok()) return "NaturalColoring: " + colored.status().ToString();
      auto forest = std::make_unique<Forest>(sig);
      forest->coloring = std::move(colored).value();
      forest->ball = BallPartition(forest->coloring.colored, kN);
      Result<TypePartition> exact =
          ExactPtpPartition(forest->coloring.colored, kN, {}, kMaxPatterns);
      const std::string why = Gate(exact, *forest, false);
      if (!why.empty()) return why;
      forest->fingerprint = Fingerprint(exact.value());
      forests_.push_back(std::move(forest));
    }
    JobSample warm;
    RunJob(nullptr, &warm);
    return warm.ok ? "" : "warm-up job: " + warm.why;
  }

  void RunJob(const RunContext* rc, JobSample* sample) override {
    std::vector<Result<TypePartition>> out;
    ExecutionContext ctx;
    if (rc != nullptr) ctx.SetRunContext(rc);
    {
      JobTimer timer(sample);
      for (const auto& f : forests_) {
        obs::TraceSpan span("perfbench.ExactPtpPartition");
        out.push_back(ExactPtpPartition(f->coloring.colored, kN, {},
                                        kMaxPatterns, &ctx));
      }
    }
    double classes = 0;
    for (size_t i = 0; i < forests_.size() && sample->ok; ++i) {
      sample->why = Gate(out[i], *forests_[i], true);
      sample->ok = sample->why.empty();
      if (sample->ok) classes += out[i].value().num_classes;
    }
    sample->layer["types.classes"] = classes;
    sample->layer["chase.peak_bytes"] =
        static_cast<double>(ctx.memory().peak());
  }

  std::vector<std::string> SelfTestGates() override {
    const Forest& f = *forests_.front();
    Result<TypePartition> exact =
        ExactPtpPartition(f.coloring.colored, kN, {}, kMaxPatterns);
    std::vector<std::string> accepted;
    if (!Gate(exact, f, true).empty()) {
      accepted.push_back("ptype-exact: rejects a correct partition");
      return accepted;
    }
    // A partition BallPartition does not refine: move one element of a
    // non-singleton ball class into a class of its own.
    TypePartition bad = exact.value();
    std::vector<int> size(f.ball.num_classes, 0);
    for (int c : f.ball.class_id) ++size[c];
    for (size_t i = 0; i < bad.class_id.size(); ++i) {
      if (size[f.ball.class_id[i]] > 1) {
        bad.class_id[i] = bad.num_classes++;
        break;
      }
    }
    if (Gate(Result<TypePartition>(bad), f, false).empty()) {
      accepted.push_back("ptype-exact: partition that does not refine");
    }
    return accepted;
  }

 private:
  std::vector<std::unique_ptr<Forest>> forests_;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakePtypeExact() {
  return std::make_unique<PtypeExact>();
}

}  // namespace perfbench
