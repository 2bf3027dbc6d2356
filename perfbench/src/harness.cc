// Clocks, statistics, the result printer and the batch job loop.

#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

using bddfc::obs::MetricsRegistry;
using bddfc::obs::Tracer;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// -- Report -------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    if (failures_.size() < 8) failures_.push_back(why);
  }
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  if (failures_.size() < 8) failures_.push_back(why);
}

namespace {

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print(const Options& opt, size_t chase_threads,
                   double tail_pct) const {
  std::printf("\n%s  seed=%llu  trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& [name, vu] : metrics_) {
    std::printf("  %-28s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("  %-28s %14.4f (failed %llu of %llu attempted)\n", "fail_frac",
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& f : failures_) std::printf("  FAILED: %s\n", f.c_str());

  std::printf(
      "stamp: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"chase_threads\": %zu, \"tail_pct\": %s, \"nproc\": %ld, "
      "\"compiler\": %s, \"build_type\": %s}\n",
      Quote(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, chase_threads, Num(tail_pct).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN),
      Quote(PERFBENCH_COMPILER).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str());

  std::string json = "{\"correct\": ";
  json += correct_ && failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += Quote(name) + ": {\"value\": " + Num(vu.first) +
            ", \"unit\": " + Quote(vu.second) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void SetLayerMetrics(const Options& opt,
                     const std::map<std::string, double>& values,
                     Report* report) {
  std::map<std::string, double> unlisted = values;
  for (const auto& [name, unit] : opt.layer_metrics) {
    auto it = values.find(name);
    report->Set(name, it == values.end() ? 0.0 : it->second, unit);
    unlisted.erase(name);
  }
  for (const auto& kv : unlisted) {
    report->Fail("measured " + kv.first + ", which is not a per-layer metric");
  }
}

void CountersFromSnapshot(const bddfc::obs::MetricsSnapshot& snap,
                          std::map<std::string, double>* layer) {
  std::map<std::string, double> c;
  for (const auto& p : snap.counters) c[p.name] = static_cast<double>(p.value);
  auto get = [&c](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  std::map<std::string, double>& l = *layer;
  const double cand = get("bddfc.chase.sink_candidates");
  const double cont = get("bddfc.chase.sink_contained");
  const double dd = get("bddfc.chase.datalog_deduped");
  l["chase.bindings"] = get("bddfc.chase.bindings_tried");
  l["chase.rows_scanned"] = get("bddfc.chase.rows_scanned");
  l["chase.sink_candidates"] = cand;
  l["chase.sink_contained"] = cont;
  l["chase.datalog_deduped"] = dd;
  // Candidates that survive containment and in-round dedup are new facts.
  l["chase.sink_new_ratio"] = cand > 0 ? (cand - cont - dd) / cand : 0;
  const double hits = get("bddfc.chase.postings_hits");
  const double misses = get("bddfc.chase.postings_misses");
  l["core.postings_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  const double rc = get("bddfc.rewrite.candidates");
  l["rewrite.candidates"] = rc;
  l["rewrite.hom_checks"] = get("bddfc.rewrite.hom_checks");
  l["rewrite.pruned_ratio"] =
      rc > 0 ? (get("bddfc.rewrite.key_deduped") +
                get("bddfc.rewrite.subsumption_pruned")) /
                   rc
             : 0;
  l["types.patterns_checked"] = get("bddfc.ptype.patterns_checked");
}

// -- batch loop ---------------------------------------------------------------

JobTimer::JobTimer(JobSample* sample)
    : sample_(sample), wall0_(NowMs()), cpu0_(ProcessCpuMs()) {}

JobTimer::~JobTimer() {
  sample_->wall_ms = NowMs() - wall0_;
  sample_->cpu_ms = ProcessCpuMs() - cpu0_;
}

namespace {

/// Per-job values the trace gives every workload.
void LayerTimesFromTrace(const TraceTable& t, std::map<std::string, double>* l) {
  (*l)["chase.run_ms"] = t.LayerInclusiveUs("chase") / 1000;
  (*l)["chase.round_ms_max"] = t.NameMaxUs("chase.round") / 1000;
  for (const char* stage : {"kappa", "chase", "skeleton", "color", "quotient",
                            "saturate", "certify"}) {
    (*l)[std::string("finitemodel.") + stage + "_ms"] =
        t.NameTotalUs(stage) / 1000;
  }
  (*l)["types.exact_ms"] = t.LayerInclusiveUs("types") / 1000;
  (*l)["rewrite.ms"] = t.LayerInclusiveUs("rewrite") / 1000;
  for (const std::string& layer : TraceTable::Layers()) {
    (*l)[layer + ".self_ms"] = t.LayerSelfUs(layer) / 1000;
  }
  (*l)["obs.unattributed_ms"] = t.RootSelfUs() / 1000;
  (*l)["obs.job_wall_ms"] = t.RootTotalUs() / 1000;
  (*l)["obs.worker_self_ms"] = t.WorkerSelfUs() / 1000;
}

}  // namespace

void RunBatch(BatchWorkload& w, const Options& opt, Report* report) {
  // Setup, several times: setup_s is the median.
  std::vector<double> setup_ms;
  const int setups = opt.tiny ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    const double t0 = NowMs();
    const std::string err = w.Setup(opt.seed, opt.tiny);
    setup_ms.push_back(NowMs() - t0);
    if (!err.empty()) {
      report->Fail("setup: " + err);
      return;
    }
  }

  auto loop = [&](double budget_ms, const bddfc::RunContext* rc,
                  std::vector<JobSample>* out, TraceTable* table) {
    const double start = NowMs();
    const size_t min_jobs = 3;
    while (out->size() < min_jobs || NowMs() - start < budget_ms) {
      JobSample s;
      if (rc != nullptr) {
        rc->metrics->Reset();
        rc->tracer->Reset();
      }
      w.RunJob(rc, &s);
      if (rc != nullptr) {
        CountersFromSnapshot(rc->metrics->Snapshot(), &s.layer);
        TraceTable job;
        job.Add({rc->tracer->ExportChromeJson()});
        if (rc->tracer->overwritten_events() != 0) {
          s.ok = false;
          s.why = "trace ring overflowed";
        }
        // Span-derived values first; workload-supplied ones (set by
        // RunJob) win where both exist.
        std::map<std::string, double> traced;
        LayerTimesFromTrace(job, &traced);
        for (auto& [k, v] : traced) s.layer.emplace(k, v);
        table->Merge(job);
      }
      report->Attempt(s.ok, s.why);
      out->push_back(std::move(s));
    }
  };

  const double budget = opt.seconds * 1000 * (opt.trace ? 0.5 : 1.0);
  std::vector<JobSample> plain;
  loop(budget, nullptr, &plain, nullptr);
  std::vector<double> wall, cpu;
  double wall_sum = 0, cpu_sum = 0;
  for (const JobSample& s : plain) {
    wall.push_back(s.wall_ms);
    wall_sum += s.wall_ms;
    cpu_sum += s.cpu_ms;
  }
  const double p50 = Median(wall);
  std::printf("%s: %zu untraced jobs, tail = p%g\n", w.name(), wall.size(),
              w.tail_pct());

  if (!opt.trace) {
    report->Set("setup_s", Median(setup_ms) / 1000, "s");
    report->Set("job_p50_ms", p50, "ms");
    report->Set("job_tail_ms", Percentile(wall, w.tail_pct()), "ms");
    report->Set("jobs_per_s", 1000.0 * static_cast<double>(wall.size()) /
                                  wall_sum, "1/s");
    report->Set("cpu_ms_per_job", cpu_sum / static_cast<double>(wall.size()),
                "ms");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  MetricsRegistry registry;
  registry.set_enabled(true);
  Tracer& tracer = Tracer::Global();
  tracer.Enable(size_t{1} << 18);
  bddfc::RunContext rc;
  rc.metrics = &registry;
  rc.tracer = &tracer;
  std::vector<JobSample> traced;
  TraceTable table;
  loop(budget, &rc, &traced, &table);
  tracer.Disable();

  std::vector<double> traced_wall;
  std::map<std::string, std::vector<double>> per_key;
  for (const JobSample& s : traced) {
    traced_wall.push_back(s.wall_ms);
    for (const auto& [k, v] : s.layer) per_key[k].push_back(v);
  }
  std::printf("\nself-time table (%zu traced jobs, per job):\n%s",
              traced.size(),
              table.Format(static_cast<double>(traced.size())).c_str());
  const double n = static_cast<double>(traced.size());
  std::printf("reconcile: job wall %.3f ms = layer self %.3f ms + "
              "unattributed %.3f ms (root thread); worker self %.3f ms\n",
              table.RootTotalUs() / 1000 / n,
              (table.RootTotalUs() - table.RootSelfUs()) / 1000 / n,
              table.RootSelfUs() / 1000 / n, table.WorkerSelfUs() / 1000 / n);

  std::map<std::string, double> medians;
  for (const auto& [name, v] : per_key) medians[name] = Median(v);
  medians["obs.trace_overhead"] = Median(traced_wall) / p50 - 1;
  SetLayerMetrics(opt, medians, report);
}

}  // namespace perfbench
