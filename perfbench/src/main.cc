// bddfc benchmark program. Usually started through perfbench/run.py, which
// builds it and forwards BENCHMARK.json's per-layer metric list:
//
//   perfbench --workload chase-tc --seed 1 --seconds 10 --trace 0
//   perfbench --workload chase-tc --trace 1 --layer-metrics chase.run_ms:ms,...
//   perfbench --self-test
//
// Workloads: chase-tc, pipeline-ex7, ptype-exact, serve-mix. Exit code 0
// only when every job and every gate passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using namespace perfbench;

/// "name:unit,name:unit,..." -> (name, unit) pairs; false on a malformed
/// entry.
bool ParseMetricList(const std::string& s,
                     std::vector<std::pair<std::string, std::string>>* out) {
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string entry = s.substr(pos, comma - pos);
    const size_t colon = entry.find(':');
    if (colon == 0 || colon == std::string::npos || colon + 1 == entry.size()) {
      return false;
    }
    out->emplace_back(entry.substr(0, colon), entry.substr(colon + 1));
    pos = comma + 1;
  }
  return true;
}

std::unique_ptr<BatchWorkload> MakeBatch(const std::string& name) {
  if (name == "chase-tc") return MakeChaseTc();
  if (name == "pipeline-ex7") return MakePipelineEx7();
  if (name == "ptype-exact") return MakePtypeExact();
  return nullptr;
}

/// Every gate must reject its deliberately corrupted output.
int SelfTest() {
  std::vector<std::string> accepted;
  for (const char* name : {"chase-tc", "pipeline-ex7", "ptype-exact"}) {
    std::unique_ptr<BatchWorkload> w = MakeBatch(name);
    const std::string err = w->Setup(1, /*tiny=*/true);
    if (!err.empty()) {
      accepted.push_back(std::string(name) + ": tiny setup failed: " + err);
      continue;
    }
    for (std::string& a : w->SelfTestGates()) accepted.push_back(a);
  }
  for (std::string& a : ServeMixSelfTest()) accepted.push_back(a);
  for (const std::string& a : accepted) {
    std::printf("self-test FAILED: gate accepted %s\n", a.c_str());
  }
  std::printf("self-test: %s\n", accepted.empty() ? "every gate rejected "
                                                    "its corrupted output"
                                                  : "FAILED");
  return accepted.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--layer-metrics") {
      if (!ParseMetricList(value(), &opt.layer_metrics)) {
        std::fprintf(stderr, "--layer-metrics wants name:unit,...\n");
        return 2;
      }
    } else if (a == "--self-test") {
      return SelfTest();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }

  if (opt.trace && opt.layer_metrics.empty()) {
    std::fprintf(stderr, "a traced run needs --layer-metrics\n");
    return 2;
  }

  Report report;
  size_t chase_threads = 1;
  double tail_pct = kServeMixTailPct;
  if (opt.workload == "serve-mix") {
    RunServeMix(opt, &report);
  } else if (std::unique_ptr<BatchWorkload> w = MakeBatch(opt.workload)) {
    chase_threads = w->chase_threads();
    tail_pct = w->tail_pct();
    RunBatch(*w, opt, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  report.Print(opt, chase_threads, tail_pct);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
