// serve-mix: an open loop through serve::ServeBuffer (no sockets).
//
// 32 seeded theories (150-node / 220-edge digraphs under recursive
// reachability r, an existential s and a join m) spread over 8 tenants;
// the artifact cache holds 8, and theories are drawn by a Zipf law, so hot
// theories hit while the tail compiles and evicts. The unit of work is a
// client session on one theory: LOAD, then 8 Boolean QUERYs of 2-5 atoms
// and one REWRITE over the non-recursive e/s/m fragment (10% / 80% / 10%
// of the requests). Four worker threads take sessions from a precomputed
// Poisson schedule; each session is timed from its due time. A client
// that gets `unknown artifact` re-LOADs and retries (up to three times).
//
// Sessions, not single requests, are the timed unit because a lone QUERY
// costs tens of microseconds, and at that scale the median moved by a
// third between runs on a shared 4-vCPU host.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/parser/parser.h"
#include "bddfc/rewrite/rewriter.h"
#include "bddfc/serve/protocol.h"
#include "bddfc/serve/server.h"
#include "bddfc/workload/generators.h"
#include "harness.h"

namespace perfbench {

namespace {

using namespace bddfc;
using serve::ReasoningServer;
using serve::ServerOptions;

constexpr int kWorkers = 4;
constexpr double kZipfS = 1.5;
constexpr int kRetries = 3;
/// The open-loop session rate. Measured on a 4-vCPU AMD EPYC (Release):
/// closed-loop capacity is 1,650-1,900 sessions/s, and at 800 sessions/s
/// the p50 moved 35% and the p99 70% between seeds; at 200 sessions/s 5%
/// and 25%. A session is 10 requests, so this is 2,000 requests/s.
constexpr double kNominalRate = 200;
/// At least this many sessions per phase leave ten beyond the p99.
constexpr double kMinNominal = 1000;

struct Sizes {
  int theories, tenants, cache, nodes, edges, queries, rewrites;
  size_t min_facts, max_facts;  // accepted size of a theory's chase
};
constexpr Sizes kFull{32, 8, 8, 150, 220, 64, 2, 6000, 8000};
constexpr Sizes kTiny{4, 2, 2, 20, 30, 3, 1, 0, 1 << 20};

struct Case {
  std::string text;
  bool answer = false;    // QUERY: the certain answer
  size_t disjuncts = 0;   // REWRITE: size of the complete UCQ rewriting
};

struct TheoryCase {
  std::string tenant, text;
  uint64_t key = 0;
  std::vector<Case> queries, rewrites;
};

/// One client session, the unit the open loop schedules and times: LOAD
/// the theory, then kAsks requests on it, one of them a REWRITE (so the
/// mix is 10% LOAD, 80% QUERY, 10% REWRITE).
constexpr int kAsks = 9;
struct Session {
  double unit_due = 0;  // arrival time at rate 1/s, in seconds
  uint16_t theory = 0;
  uint8_t rewrite_at = 0;  // which ask is the REWRITE
  uint16_t items[kAsks] = {};  // query (or rewrite) index per ask
};

/// Spin-loop hint: lets a hyperthread sibling run while a worker waits.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// -- the wire ----------------------------------------------------------------

struct Reply {
  bool ok = false;
  std::string body;
};

Reply Call(ReasoningServer& server, const std::string& input) {
  std::string out;
  serve::ServeBuffer(server, input, &out);
  Reply r;
  r.ok = out.rfind("OK ", 0) == 0;
  const size_t nl = out.find('\n');
  if (nl != std::string::npos) r.body = out.substr(nl + 1);
  return r;
}

std::string Frame(const char* verb, const std::string& tenant,
                  const std::string& key_hex, const std::string& payload) {
  std::string s = std::string(verb) + " " + tenant;
  if (!key_hex.empty()) s += " " + key_hex;
  return s + " " + std::to_string(payload.size()) + "\n" + payload + "\n";
}

// -- gates --------------------------------------------------------------------

std::string CheckLoad(const Reply& r, uint64_t key) {
  if (!r.ok) return "LOAD failed: " + r.body;
  if (r.body.rfind("key=" + serve::KeyToHex(key) + " ", 0) != 0) {
    return "LOAD returned another key: " + r.body;
  }
  return "";
}

std::string CheckQuery(const Reply& r, const Case& c) {
  if (!r.ok) return "QUERY failed: " + r.body;
  if (r.body != (c.answer ? "true" : "false")) {
    return "QUERY " + c.text + " answered " + r.body;
  }
  return "";
}

std::string CheckRewrite(const Reply& r, const Case& c) {
  if (!r.ok) return "REWRITE failed: " + r.body;
  const std::string want =
      "disjuncts=" + std::to_string(c.disjuncts) + " complete=1";
  if (r.body.rfind(want, 0) != 0) {
    return "REWRITE " + c.text + " returned " + r.body.substr(0, 40);
  }
  return "";
}

// -- one request ----------------------------------------------------------------

/// Client-side timings of one phase, split by what the server did.
struct Timings {
  /// lag: how late the schedule ran, for sessions whose worker was idle.
  std::vector<double> latency, queue, lag, service, load_hit, load_miss,
      query, rewrite;
  double cpu_ms = 0;  // thread CPU spent inside sessions (not pacing)
  uint64_t reloads = 0, failed = 0, attempted = 0;
  double span_ms = 0;  // first due time to last completion
  std::string first_failure;

  void Absorb(Timings&& o) {
    auto cat = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(latency, o.latency);
    cat(queue, o.queue);
    cat(lag, o.lag);
    cat(service, o.service);
    cat(load_hit, o.load_hit);
    cat(load_miss, o.load_miss);
    cat(query, o.query);
    cat(rewrite, o.rewrite);
    cpu_ms += o.cpu_ms;
    reloads += o.reloads;
    failed += o.failed;
    attempted += o.attempted;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

class Mix {
 public:
  std::string Setup(uint64_t seed, bool tiny);
  /// Open loop over the first `count` sessions of the schedule at `rate`
  /// sessions per second.
  Timings RunPhase(ReasoningServer& server, double rate, size_t count);
  /// The same sessions served one at a time, unpaced (deterministic).
  Timings Replay(ReasoningServer& server, size_t count);
  std::unique_ptr<ReasoningServer> StartServer() const;
  const std::vector<TheoryCase>& theories() const { return theories_; }
  std::vector<double> satisfies_us;

 private:
  std::string Execute(ReasoningServer& server, const Session& s,
                      Timings* t) const;
  std::string Ask(ReasoningServer& server, int theory, bool query, int item,
                  Timings* t) const;
  std::string LoadOnce(ReasoningServer& server, int theory, Timings* t) const;

  Sizes sz_ = kFull;
  std::vector<TheoryCase> theories_;
  std::vector<Session> schedule_;
};

std::string Mix::LoadOnce(ReasoningServer& server, int theory,
                          Timings* t) const {
  const TheoryCase& tc = theories_[theory];
  const double t0 = NowMs();
  Reply r = Call(server, Frame("LOAD", tc.tenant, "", tc.text));
  const double ms = NowMs() - t0;
  if (t != nullptr) {
    (r.body.find("cached=hit") != std::string::npos ? t->load_hit
                                                    : t->load_miss)
        .push_back(ms);
  }
  return CheckLoad(r, tc.key);
}

std::string Mix::Execute(ReasoningServer& server, const Session& s,
                         Timings* t) const {
  std::string why = LoadOnce(server, s.theory, t);
  for (int a = 0; a < kAsks && why.empty(); ++a) {
    why = Ask(server, s.theory, a != s.rewrite_at, s.items[a], t);
  }
  return why;
}

std::string Mix::Ask(ReasoningServer& server, int theory, bool query,
                     int item, Timings* t) const {
  const TheoryCase& tc = theories_[theory];
  const Case& c = query ? tc.queries[item] : tc.rewrites[item];
  const std::string input = Frame(query ? "QUERY" : "REWRITE", tc.tenant,
                                  serve::KeyToHex(tc.key), c.text);
  double t0 = NowMs();
  Reply r = Call(server, input);
  // Under LRU thrash another worker's compiles can evict the artifact
  // between a re-LOAD and the retry, so a client re-LOADs up to kRetries
  // times before the request counts as failed.
  for (int retry = 0; retry < kRetries && !r.ok && r.body == "unknown artifact";
       ++retry) {
    ++t->reloads;
    const std::string why = LoadOnce(server, theory, t);
    if (!why.empty()) return why;
    t0 = NowMs();
    r = Call(server, input);
  }
  (query ? t->query : t->rewrite).push_back(NowMs() - t0);
  return query ? CheckQuery(r, c) : CheckRewrite(r, c);
}

std::unique_ptr<ReasoningServer> Mix::StartServer() const {
  ServerOptions so;
  so.cache_capacity = static_cast<size_t>(sz_.cache);
  so.max_concurrent = 64;
  // No byte budget: a compile's chase charges its facts to the server
  // accountant and nothing releases them, so accounted bytes only grow
  // (chase.peak_bytes reports them) and any budget would end in shedding
  // every request after a few hundred compiles.
  so.memory_limit_bytes = 0;
  auto server = std::make_unique<ReasoningServer>(so);
  // Preload: every theory once (the tail evicts), then the hot set again
  // so the cache starts holding the most-drawn theories.
  for (int i = 0; i < sz_.theories; ++i) {
    if (!LoadOnce(*server, i, nullptr).empty()) return nullptr;
  }
  for (int i = sz_.cache - 1; i >= 0; --i) {
    if (!LoadOnce(*server, i, nullptr).empty()) return nullptr;
  }
  return server;
}

std::string Mix::Setup(uint64_t seed, bool tiny) {
  sz_ = tiny ? kTiny : kFull;
  theories_.clear();
  satisfies_us.clear();
  const std::string rules =
      "e(X, Y) -> r(X, Y).\n"
      "r(X, Y), e(Y, Z) -> r(X, Z).\n"
      "e(X, Y) -> exists Z: s(Y, Z).\n"
      "e(X, Y), e(Y, Z) -> m(X, Z).\n";
  auto k = [](uint64_t n) { return std::string("k") += std::to_string(n); };
  for (int i = 0; i < sz_.theories; ++i) {
    Rng rng(Rng::Mix(seed, 100 + static_cast<uint64_t>(i)));
    TheoryCase tc;
    tc.tenant = "tenant" + std::to_string(i % sz_.tenants);
    // Draw digraphs until the chase lands in the fact band, so every
    // artifact costs about the same to compile and the p99 limit is not
    // set by one outsized theory.
    std::optional<Program> program;
    std::optional<ChaseResult> chase;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 200) return "no digraph in the fact band";
      tc.text = rules;
      for (int e = 0; e < sz_.edges; ++e) {
        const uint64_t a = rng.Uniform(sz_.nodes), b = rng.Uniform(sz_.nodes);
        if (a == b) {
          --e;
          continue;
        }
        tc.text += "e(" + k(a) + ", " + k(b) + ").\n";
      }
      Result<Program> parsed = ParseProgram(tc.text);
      if (!parsed.ok()) return "parse: " + parsed.status().ToString();
      program.emplace(std::move(parsed).value());
      chase.emplace(RunChase(program->theory, program->instance));
      if (!chase->status.ok() || !chase->fixpoint_reached) {
        return "oracle chase did not reach a fixpoint";
      }
      const size_t facts = chase->structure.NumFacts();
      if (facts >= sz_.min_facts && facts <= sz_.max_facts) break;
    }
    // QUERY bodies. Three in four are cycles of 3-5 m atoms over
    // variables only: no atom is selective, so the join enumerates the
    // two-step paths, and a sparse random digraph rarely has the cycle, so
    // most are false. The rest are chains of 2-5 atoms from r of a
    // constant through e/m atoms, closed by an s atom (mostly true).
    auto em = [&rng] { return std::string(rng.Uniform(2) == 0 ? "e" : "m"); };
    auto var = [](int i) { return "A" + std::to_string(i); };
    for (int q = 0; q < sz_.queries; ++q) {
      std::string body;
      if (rng.Uniform(4) != 0) {
        const int len = 3 + static_cast<int>(rng.Uniform(3));
        for (int a = 0; a < len; ++a) {
          if (a > 0) body += ", ";
          body += "m(" + var(a) + ", " + var((a + 1) % len) + ")";
        }
      } else {
        const int len = 2 + static_cast<int>(rng.Uniform(4));
        std::string from = k(rng.Uniform(sz_.nodes));
        for (int a = 0; a + 1 < len; ++a) {
          body += (a == 0 ? std::string("r") : em()) + "(" + from + ", " +
                  var(a) + "), ";
          from = var(a);
        }
        body += "s(" + from + ", Y)";
      }
      tc.queries.push_back(Case{body});
    }
    // REWRITE bodies over the non-recursive e/s/m fragment only.
    for (int q = 0; q < sz_.rewrites; ++q) {
      const std::string a = k(rng.Uniform(sz_.nodes));
      tc.rewrites.push_back(Case{q % 2 == 0
                                     ? "m(" + a + ", X), s(X, Y)"
                                     : "e(X, " + a + "), m(" + a + ", Y)"});
    }

    // Oracles: the one-shot chase above + Satisfies per query, RewriteQuery
    // per rewrite, all outside the server.
    const Program& p = *program;
    for (Case& c : tc.queries) {
      Result<ConjunctiveQuery> q =
          ParseQuery(c.text, p.instance.signature_ptr().get());
      if (!q.ok()) return "query parse: " + c.text;
      const double t0 = NowMs();
      c.answer = Satisfies(chase->structure, q.value());
      satisfies_us.push_back((NowMs() - t0) * 1000);
    }
    for (Case& c : tc.rewrites) {
      Result<ConjunctiveQuery> q =
          ParseQuery(c.text, p.theory.signature_ptr().get());
      if (!q.ok()) return "rewrite parse: " + c.text;
      RewriteResult rr = RewriteQuery(p.theory, q.value(), RewriteOptions{});
      if (!rr.status.ok()) return "rewriting incomplete for " + c.text;
      c.disjuncts = rr.rewriting.size();
    }
    theories_.push_back(std::move(tc));
  }

  // Artifact keys: the server assigns them (canonical hash); learn them
  // from one throwaway server.
  {
    ServerOptions so;
    ReasoningServer probe(so);
    for (TheoryCase& tc : theories_) {
      Reply r = Call(probe, Frame("LOAD", tc.tenant, "", tc.text));
      const size_t eq = r.body.find("key=");
      if (!r.ok || eq != 0 ||
          !serve::KeyFromHex(r.body.substr(4, r.body.find(' ') - 4),
                             &tc.key)) {
        return "LOAD during setup failed: " + r.body;
      }
    }
  }

  // The schedule: Poisson session arrivals at unit rate, Zipf theory
  // draws.
  std::vector<double> cdf(sz_.theories);
  double sum = 0;
  for (int i = 0; i < sz_.theories; ++i) {
    sum += 1.0 / std::pow(i + 1.0, kZipfS);
    cdf[i] = sum;
  }
  Rng rng(Rng::Mix(seed, 7));
  auto unit = [&rng] {
    return (static_cast<double>(rng.Next() >> 11) + 0.5) / 9007199254740992.0;
  };
  schedule_.clear();
  double at = 0;
  const size_t n = tiny ? 500 : 40000;
  for (size_t i = 0; i < n; ++i) {
    Session r;
    at += -std::log(unit());
    r.unit_due = at;
    r.theory = static_cast<uint16_t>(
        std::lower_bound(cdf.begin(), cdf.end(), unit() * sum) - cdf.begin());
    r.theory = std::min<uint16_t>(r.theory, sz_.theories - 1);
    const TheoryCase& tc = theories_[r.theory];
    r.rewrite_at = static_cast<uint8_t>(rng.Uniform(kAsks));
    for (int a = 0; a < kAsks; ++a) {
      r.items[a] = static_cast<uint16_t>(rng.Uniform(
          a == r.rewrite_at ? tc.rewrites.size() : tc.queries.size()));
    }
    schedule_.push_back(r);
  }
  return "";
}

Timings Mix::RunPhase(ReasoningServer& server, double rate, size_t count) {
  count = std::min(count, schedule_.size());
  std::atomic<size_t> next{0};
  std::vector<Timings> per(kWorkers);
  const double t0 = NowMs() + 2;  // first due time, shared by all workers
  std::vector<double> ends(kWorkers, 0.0);
  auto worker = [&](Timings* t, double* last_end) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= count) return;
      const Session& session = schedule_[i];
      const double due = t0 + session.unit_due * 1000 / rate;
      // Spin until the due time: a sleeping worker wakes tens of
      // microseconds late, on a cold and possibly halted virtual CPU.
      double now = NowMs();
      const bool early = now < due;
      while (now < due) {
        CpuRelax();
        now = NowMs();
      }
      std::string why;
      const double cpu0 = ThreadCpuMs();
      {
        obs::TraceSpan root("perfbench.session");
        obs::TraceSpan call("perfbench.ServeBuffer");
        why = Execute(server, session, t);
      }
      const double end = NowMs();
      t->cpu_ms += ThreadCpuMs() - cpu0;
      t->service.push_back(end - now);
      t->latency.push_back(end - due);
      t->queue.push_back(now - due);
      if (early) t->lag.push_back(now - due);
      *last_end = std::max(*last_end, end);
      ++t->attempted;
      if (!why.empty()) {
        ++t->failed;
        if (t->first_failure.empty()) t->first_failure = why;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back(worker, &per[w], &ends[w]);
  }
  for (std::thread& th : threads) th.join();
  Timings all;
  for (Timings& t : per) all.Absorb(std::move(t));
  all.span_ms = *std::max_element(ends.begin(), ends.end()) - t0;
  return all;
}

Timings Mix::Replay(ReasoningServer& server, size_t count) {
  Timings t;
  count = std::min(count, schedule_.size());
  for (size_t i = 0; i < count; ++i) {
    const std::string why = Execute(server, schedule_[i], &t);
    ++t.attempted;
    if (!why.empty()) {
      ++t.failed;
      if (t.first_failure.empty()) t.first_failure = why;
    }
  }
  return t;
}

void Tally(const Timings& t, Report* report) {
  for (uint64_t i = 0; i < t.attempted; ++i) {
    report->Attempt(i >= t.failed, t.first_failure);
  }
}

}  // namespace

void RunServeMix(const Options& opt, Report* report) {
  Mix mix;
  std::unique_ptr<ReasoningServer> server;
  std::vector<double> setup_ms;
  const int setups = opt.tiny ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    const double t0 = NowMs();
    std::string err = mix.Setup(opt.seed, opt.tiny);
    if (err.empty()) {
      server = mix.StartServer();
      if (server == nullptr) err = "server preload failed";
    }
    if (err.empty()) {
      // Warm-up: a short paced segment at the nominal rate.
      Timings warm = mix.RunPhase(*server, kNominalRate, 20);
      if (warm.failed != 0) err = "warm-up: " + warm.first_failure;
    }
    setup_ms.push_back(NowMs() - t0);
    if (!err.empty()) {
      report->Fail("setup: " + err);
      return;
    }
  }

  // Untraced runs spend the whole budget at the nominal rate; traced runs
  // split it between an untraced and a traced nominal phase.
  const double nominal_s = opt.seconds * (opt.trace ? 0.5 : 1.0);
  const size_t nominal_count = static_cast<size_t>(
      std::max(opt.tiny ? 20 : kMinNominal, kNominalRate * nominal_s));
  Timings nominal = mix.RunPhase(*server, kNominalRate, nominal_count);
  const double rss_mb = PeakRssMb();
  Tally(nominal, report);
  const double n_nominal = static_cast<double>(nominal.latency.size());
  const double p50 = Percentile(nominal.latency, 50);
  const double tail = Percentile(nominal.latency, kServeMixTailPct);
  double service_ms = 0;
  for (double v : nominal.service) service_ms += v;
  std::printf("serve-mix: nominal %.0f sessions/s (achieved %.0f/s), %zu "
              "sessions, p50 %.3f ms, p99 %.3f ms, reloads %llu, load-miss "
              "p50 %.3f ms\n",
              kNominalRate, 1000.0 * n_nominal / nominal.span_ms,
              nominal.latency.size(), p50, tail,
              static_cast<unsigned long long>(nominal.reloads),
              Median(nominal.load_miss));

  if (!opt.trace) {
    report->Set("setup_s", Median(setup_ms) / 1000, "s");
    report->Set("job_p50_ms", p50, "ms");
    report->Set("job_tail_ms", tail, "ms");
    report->Set("jobs_per_s", 1000.0 * n_nominal / service_ms, "1/s");
    report->Set("cpu_ms_per_job", nominal.cpu_ms / n_nominal, "ms");
    report->Set("peak_rss_mb", rss_mb, "MB");
    return;
  }

  // Traced: the same nominal phase with spans on, then a deterministic
  // serial replay for the cache counters, then direct probes of the
  // parser, the evaluator and the rewriter. The server records its own
  // spans (serve.compile, serve.query, serve.rewrite and the chase and
  // rewriter spans under them) in each tenant's session ring; the
  // benchmark's spans and the plan.exec / chase.sink spans go to the
  // process tracer. Both are folded into one table. Ring sizes: about
  // 42 process-tracer events per session, and about 25 per session of the
  // busiest tenant (the hottest theory's), which serves ~45% of them.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(64 * nominal_count);
  const std::vector<std::string> tenants = server->Tenants();
  for (const std::string& t : tenants) {
    server->GetSession(t).tracer.Enable(32 * nominal_count);
  }
  Timings traced = mix.RunPhase(*server, kNominalRate, nominal_count);
  tracer.Disable();
  Tally(traced, report);
  std::vector<std::string> docs = {tracer.ExportChromeJson()};
  bool overflowed = tracer.overwritten_events() != 0;
  tracer.Reset();
  for (const std::string& t : tenants) {
    obs::Tracer& ring = server->GetSession(t).tracer;
    ring.Disable();
    docs.push_back(ring.ExportChromeJson());
    overflowed |= ring.overwritten_events() != 0;
    ring.Reset();
  }
  if (overflowed) report->Fail("trace ring overflowed");
  TraceTable table;
  table.Add(docs);
  const double n = static_cast<double>(traced.latency.size());
  std::printf("\nself-time table (%zu traced sessions, per session):\n%s",
              traced.latency.size(), table.Format(n).c_str());
  std::printf("reconcile: session wall %.4f ms = layer self %.4f ms + "
              "unattributed %.4f ms (root thread); worker self %.4f ms\n",
              table.RootTotalUs() / 1000 / n,
              (table.RootTotalUs() - table.RootSelfUs()) / 1000 / n,
              table.RootSelfUs() / 1000 / n, table.WorkerSelfUs() / 1000 / n);

  std::map<std::string, double> l;
  for (const std::string& layer : TraceTable::Layers()) {
    l[layer + ".self_ms"] = table.LayerSelfUs(layer) / 1000 / n;
  }
  l["chase.run_ms"] = table.LayerInclusiveUs("chase") / 1000 / n;
  l["chase.round_ms_max"] = table.NameMaxUs("chase.round") / 1000;
  l["obs.unattributed_ms"] = table.RootSelfUs() / 1000 / n;
  l["obs.job_wall_ms"] = table.RootTotalUs() / 1000 / n;
  l["obs.worker_self_ms"] = table.WorkerSelfUs() / 1000 / n;
  l["obs.trace_overhead"] = Percentile(traced.latency, 50) / p50 - 1;
  l["serve.load_hit_ms"] = Median(nominal.load_hit);
  l["serve.load_miss_ms"] = Median(nominal.load_miss);
  l["serve.compile_ms_p99"] = Percentile(nominal.load_miss, 99);
  l["serve.query_ms"] = Median(nominal.query);
  l["serve.rewrite_ms"] = Median(nominal.rewrite);
  l["serve.queue_wait_ms"] = Percentile(nominal.queue, 99);
  l["loadgen.lag_ms"] = Percentile(nominal.lag, 99);
  l["chase.peak_bytes"] = static_cast<double>(server->memory().peak());

  // Cache counters from a fixed schedule served serially on a fresh,
  // identically preloaded server: they repeat exactly for a given seed.
  std::unique_ptr<ReasoningServer> fresh = mix.StartServer();
  if (fresh == nullptr) {
    report->Fail("replay server preload failed");
    return;
  }
  std::map<std::string, double> now;
  for (const auto& p : fresh->ServerSnapshot().counters) {
    now[p.name] = -static_cast<double>(p.value);
  }
  Timings replay = mix.Replay(*fresh, opt.tiny ? 10 : 150);
  Tally(replay, report);
  for (const auto& p : fresh->ServerSnapshot().counters) {
    now[p.name] += static_cast<double>(p.value);
  }
  const double hits = now["bddfc.serve.cache_hits"];
  const double misses = now["bddfc.serve.cache_misses"];
  l["serve.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  l["serve.compiles"] = now["bddfc.serve.compiles"];
  l["serve.evictions"] = now["bddfc.serve.evictions"];
  l["serve.shed"] = now["bddfc.serve.shed"];
  l["serve.reloads"] = static_cast<double>(replay.reloads);
  {
    obs::MetricsSnapshot snap;
    for (const auto& [name, v] : now) {
      snap.counters.push_back({name, static_cast<uint64_t>(v)});
    }
    std::map<std::string, double> chase;
    CountersFromSnapshot(snap, &chase);
    for (const char* k : {"chase.bindings", "chase.rows_scanned",
                          "chase.sink_candidates", "chase.sink_contained",
                          "chase.datalog_deduped", "chase.sink_new_ratio",
                          "core.postings_hit_ratio"}) {
      l[k] = chase[k];
    }
  }

  // Direct probes of the layers under the server.
  std::vector<double> parse_ms, rewrite_ms;
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  RunContext rc;
  rc.metrics = &registry;
  for (const TheoryCase& tc : mix.theories()) {
    const double t0 = NowMs();
    Result<Program> p = ParseProgram(tc.text);
    parse_ms.push_back(NowMs() - t0);
    if (!p.ok()) continue;
    for (const Case& c : tc.rewrites) {
      Result<ConjunctiveQuery> q =
          ParseQuery(c.text, p.value().theory.signature_ptr().get());
      ExecutionContext ctx;
      ctx.SetRunContext(&rc);
      RewriteOptions ro;
      ro.context = &ctx;
      const double r0 = NowMs();
      RewriteResult rr = RewriteQuery(p.value().theory, q.value(), ro);
      rewrite_ms.push_back(NowMs() - r0);
      if (rr.rewriting.size() != c.disjuncts) {
        report->Fail("rewrite probe disagrees with setup for " + c.text);
      }
    }
  }
  std::map<std::string, double> rw;
  CountersFromSnapshot(registry.Snapshot(), &rw);
  l["rewrite.candidates"] = rw["rewrite.candidates"];
  l["rewrite.hom_checks"] = rw["rewrite.hom_checks"];
  l["rewrite.pruned_ratio"] = rw["rewrite.pruned_ratio"];
  l["rewrite.ms"] = Median(rewrite_ms);
  l["parser.parse_ms"] = Median(parse_ms);
  l["eval.satisfies_us"] = Median(mix.satisfies_us);

  SetLayerMetrics(opt, l, report);
}

std::vector<std::string> ServeMixSelfTest() {
  Mix mix;
  std::vector<std::string> accepted;
  if (!mix.Setup(1, true).empty()) return {"serve-mix: setup failed"};
  const TheoryCase& tc = mix.theories().front();
  const Case& q = tc.queries.front();
  Reply flipped{true, q.answer ? "false" : "true"};
  if (CheckQuery(flipped, q).empty()) accepted.push_back("serve-mix: flipped answer");
  const Case& rw = tc.rewrites.front();
  Reply partial{true, "disjuncts=" + std::to_string(rw.disjuncts) +
                          " complete=0\n"};
  if (CheckRewrite(partial, rw).empty()) {
    accepted.push_back("serve-mix: incomplete rewriting");
  }
  Reply fewer{true, "disjuncts=" + std::to_string(rw.disjuncts + 1) +
                        " complete=1\n"};
  if (CheckRewrite(fewer, rw).empty()) {
    accepted.push_back("serve-mix: wrong disjunct count");
  }
  Reply other_key{true, "key=" + serve::KeyToHex(tc.key ^ 1) + " facts=1"};
  if (CheckLoad(other_key, tc.key).empty()) {
    accepted.push_back("serve-mix: LOAD with another key");
  }
  return accepted;
}

}  // namespace perfbench

