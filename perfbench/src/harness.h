// Shared machinery of the benchmark program: clocks, order statistics, the
// per-layer trace table, the batch job loop and the result printer.
//
// A run prints a human-readable table, then one `stamp: {...}` line, then
// (as its last line) one JSON object with exactly the keys `correct`,
// `attempted`, `failed` and `metrics`. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones (see
// perfbench/plan.json for what each metric means on each workload).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bddfc/base/run_context.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace perfbench {

// -- command line -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short phases; used by --self-test.
  bool tiny = false;
  /// The per-layer metrics a traced run reports, as (name, unit):
  /// BENCHMARK.json's per_layer list, which run.py forwards.
  std::vector<std::pair<std::string, std::string>> layer_metrics;
};

// -- clocks and statistics ----------------------------------------------------

double NowMs();                 ///< steady clock, milliseconds
double ProcessCpuMs();          ///< CPU time of the whole process
double ThreadCpuMs();           ///< CPU time of the calling thread
double PeakRssMb();             ///< ru_maxrss of this process
double Median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);

// -- trace table --------------------------------------------------------------

/// Per-layer self and inclusive times accumulated from Chrome trace
/// exports. Span names map to the repository's modules (chase, eval, pool,
/// finitemodel, types, rewrite, serve, parser); the benchmark's own root
/// span ("perfbench.job" / "perfbench.session") maps to "root", so its
/// self time is the job time no layer span covers.
class TraceTable {
 public:
  /// Folds in the `Tracer::ExportChromeJson()` documents of one job or
  /// phase. A span nests under its parent span (by id, across documents,
  /// so a server's per-session rings join the process tracer's spans)
  /// when both ran on the same thread.
  void Add(const std::vector<std::string>& chrome_docs);

  /// Layer of a span name ("other" when unknown).
  static std::string LayerOf(const std::string& span_name);
  static const std::vector<std::string>& Layers();

  double LayerSelfUs(const std::string& layer) const;
  /// Time covered by the layer's outermost spans on the root span's
  /// thread (nested same-layer spans are not counted twice).
  double LayerInclusiveUs(const std::string& layer) const;
  double NameTotalUs(const std::string& name) const;
  double NameMaxUs(const std::string& name) const;
  /// Self time on threads other than the one that ran each root span.
  double WorkerSelfUs() const { return worker_self_us_; }
  double RootSelfUs() const { return LayerSelfUs("root"); }
  double RootTotalUs() const {
    return NameTotalUs("perfbench.job") + NameTotalUs("perfbench.session");
  }
  void Merge(const TraceTable& other);
  /// Per-span-name table, sorted by self time.
  std::string Format(double per) const;

 private:
  struct Acc {
    double self_us = 0, total_us = 0, max_us = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Acc> by_name_;
  std::map<std::string, double> layer_self_us_, layer_incl_us_;
  double worker_self_us_ = 0;
};

// -- results ------------------------------------------------------------------

/// The metrics of one run plus its attempt/failure tally.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Attempt(bool ok, const std::string& why = "");
  /// A setup or self-check failure that is not a job.
  void Fail(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  /// Prints the table, the stamp line and the final JSON line.
  /// `tail_pct` is the percentile job_tail_ms reports on this workload.
  void Print(const Options& opt, size_t chase_threads, double tail_pct) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
};

/// Reports every metric of opt.layer_metrics: its value when the traced
/// phase measured it, else 0 (the layer did no work on this workload). A
/// measured value whose name is not in the list fails the run, so the
/// program and BENCHMARK.json cannot drift apart unnoticed.
void SetLayerMetrics(const Options& opt,
                     const std::map<std::string, double>& values,
                     Report* report);

// -- batch workloads ----------------------------------------------------------

/// What one job measured. The workload times only its public call(s) and
/// runs its correctness gates outside that window.
struct JobSample {
  double wall_ms = 0;
  double cpu_ms = 0;
  bool ok = true;
  std::string why;
  /// Workload-specific per-layer values for this job (e.g.
  /// "finitemodel.attempts"); averaged over traced jobs.
  std::map<std::string, double> layer;
};

/// Times a job's public call: wall and process CPU, plus the benchmark's
/// root span when tracing is on.
class JobTimer {
 public:
  explicit JobTimer(JobSample* sample);
  ~JobTimer();

 private:
  bddfc::obs::TraceSpan span_{"perfbench.job"};  // no-op when untraced
  JobSample* sample_;
  double wall0_, cpu0_;
};

class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  virtual const char* name() const = 0;
  virtual size_t chase_threads() const { return 1; }
  /// The percentile job_tail_ms reports. Fixed per workload, so two
  /// commits compare the same statistic however many jobs fit in a run.
  virtual double tail_pct() const { return 90; }
  /// Builds inputs and oracles and runs one warm-up job; replaces any
  /// earlier setup. Returns an error message, or "" on success.
  virtual std::string Setup(uint64_t seed, bool tiny) = 0;
  /// Runs one job. `rc` is non-null in the traced phase (counters go to
  /// rc->metrics). Checks the gates and fills `sample`.
  virtual void RunJob(const bddfc::RunContext* rc, JobSample* sample) = 0;
  /// Feeds each gate a deliberately corrupted output; returns the names
  /// of gates that wrongly accepted one (empty = all rejected).
  virtual std::vector<std::string> SelfTestGates() = 0;
};

std::unique_ptr<BatchWorkload> MakeChaseTc();
std::unique_ptr<BatchWorkload> MakePipelineEx7();
std::unique_ptr<BatchWorkload> MakePtypeExact();

/// Runs setup (several times; the median is setup_s), the untraced job
/// loop and, with opt.trace, the traced loop.
void RunBatch(BatchWorkload& w, const Options& opt, Report* report);

/// The serve-mix open loop (serve_mix.cc). Its job_tail_ms is the p99
/// session latency.
void RunServeMix(const Options& opt, Report* report);
constexpr double kServeMixTailPct = 99;
std::vector<std::string> ServeMixSelfTest();

/// Fills the chase/core/rewrite/types counters of one job from a registry
/// snapshot (keys under bddfc.chase.*, bddfc.rewrite.*, bddfc.ptype.*).
void CountersFromSnapshot(const bddfc::obs::MetricsSnapshot& snap,
                          std::map<std::string, double>* layer);

/// Stable 64-bit digest of a fact sequence (FNV-1a over predicate and
/// row ids, in storage order) — equal digests mean byte-identical
/// structures for the workloads' purposes.
uint64_t Fnv1a(uint64_t h, uint64_t v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
