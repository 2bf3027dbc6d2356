// Self-time table over Chrome trace exports (see harness.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <unordered_map>

#include "harness.h"

namespace perfbench {

namespace {

// One event of a Tracer::ExportChromeJson() document. The exporter writes
// a fixed key order and names are string literals without quotes, so a
// field scan is enough; `detail` strings are escaped and never contain an
// unescaped `"name":"`.
struct Event {
  std::string name;
  char ph = 'B';
  int64_t ts = 0;
  int64_t tid = 0;
  int64_t span = 0, parent = 0;
};

bool ScanInt(const std::string& s, size_t from, const char* key,
             int64_t* out, size_t* end) {
  const size_t k = s.find(key, from);
  if (k == std::string::npos) return false;
  const char* p = s.c_str() + k + std::char_traits<char>::length(key);
  char* stop = nullptr;
  *out = std::strtoll(p, &stop, 10);
  *end = static_cast<size_t>(stop - s.c_str());
  return true;
}

std::vector<Event> ParseEvents(const std::string& json) {
  std::vector<Event> out;
  size_t pos = 0;
  static const std::string kName = "{\"name\":\"";
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    Event e;
    const size_t start = pos + kName.size();
    const size_t stop = json.find('"', start);
    if (stop == std::string::npos) break;
    e.name = json.substr(start, stop - start);
    const size_t ph = json.find("\"ph\":\"", stop);
    if (ph == std::string::npos) break;
    e.ph = json[ph + 6];
    size_t end = ph;
    if (!ScanInt(json, end, "\"ts\":", &e.ts, &end)) break;
    if (!ScanInt(json, end, "\"tid\":", &e.tid, &end)) break;
    if (!ScanInt(json, end, "\"span\":", &e.span, &end)) break;
    if (!ScanInt(json, end, "\"parent\":", &e.parent, &end)) break;
    out.push_back(std::move(e));
    pos = end;
  }
  return out;
}

bool IsStage(const std::string& n) {
  static const std::set<std::string> kStages = {
      "hide",     "normalize", "kappa",    "chase",  "skeleton",
      "color",    "quotient",  "saturate", "certify"};
  return kStages.count(n) != 0;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

const std::vector<std::string>& TraceTable::Layers() {
  static const std::vector<std::string> kLayers = {
      "chase", "eval", "pool", "finitemodel", "types", "rewrite", "serve",
      "parser"};
  return kLayers;
}

std::string TraceTable::LayerOf(const std::string& n) {
  if (StartsWith(n, "perfbench.")) {
    static const std::map<std::string, std::string> kBench = {
        {"perfbench.job", "root"},
        {"perfbench.session", "root"},
        {"perfbench.RunChase", "chase"},
        {"perfbench.ConstructFiniteCounterModel", "finitemodel"},
        {"perfbench.ExactPtpPartition", "types"},
        {"perfbench.ServeBuffer", "serve"},
        {"perfbench.Satisfies", "eval"},
        {"perfbench.RewriteQuery", "rewrite"},
        {"perfbench.ParseProgram", "parser"},
    };
    auto it = kBench.find(n);
    return it == kBench.end() ? "other" : it->second;
  }
  if (StartsWith(n, "chase.") || StartsWith(n, "saturate.") ||
      StartsWith(n, "supervisor.")) {
    return "chase";
  }
  if (StartsWith(n, "plan.")) return "eval";
  if (StartsWith(n, "pool.")) return "pool";
  if (StartsWith(n, "ptype.") || StartsWith(n, "types.")) return "types";
  if (StartsWith(n, "rewrite.")) return "rewrite";
  if (StartsWith(n, "serve.")) return "serve";
  if (StartsWith(n, "pipeline.") || StartsWith(n, "model_search.") ||
      IsStage(n)) {
    return "finitemodel";
  }
  return "other";
}

void TraceTable::Add(const std::vector<std::string>& chrome_docs) {
  struct Span {
    std::string name, layer;
    int64_t tid = 0, parent = 0;
    double dur = 0, child_us = 0;
  };
  // Pair each document's B/E events by span id. Ids are unique across
  // tracers, so parent links hold across documents.
  std::unordered_map<int64_t, Span> spans;
  for (const std::string& doc : chrome_docs) {
    std::unordered_map<int64_t, int64_t> begin_ts;
    for (const Event& e : ParseEvents(doc)) {
      if (e.ph == 'B') {
        begin_ts[e.span] = e.ts;
        continue;
      }
      auto it = begin_ts.find(e.span);
      if (it == begin_ts.end()) continue;  // unbalanced
      spans[e.span] = Span{e.name, LayerOf(e.name), e.tid, e.parent,
                           static_cast<double>(e.ts - it->second)};
      begin_ts.erase(it);
    }
  }
  // A span nests under its parent only on the parent's thread; a pool task
  // re-parented from another thread runs beside its parent, not inside it.
  auto parent_of = [&spans](const Span& s) -> Span* {
    auto it = spans.find(s.parent);
    return it != spans.end() && it->second.tid == s.tid ? &it->second
                                                        : nullptr;
  };
  // Threads that ran a root span: self time elsewhere is worker time.
  std::set<int64_t> root_tids;
  for (auto& [id, s] : spans) {
    if (s.layer == "root") root_tids.insert(s.tid);
    if (Span* up = parent_of(s)) up->child_us += s.dur;
  }
  for (const auto& [id, s] : spans) {
    const double self = std::max(0.0, s.dur - s.child_us);
    Acc& a = by_name_[s.name];
    a.self_us += self;
    a.total_us += s.dur;
    a.max_us = std::max(a.max_us, s.dur);
    ++a.count;
    layer_self_us_[s.layer] += self;
    if (root_tids.count(s.tid) == 0) {
      worker_self_us_ += self;
      continue;
    }
    // Inclusive time counts on the root span's thread only, where the
    // layer blocks the job, and once per outermost span of the layer.
    bool nested_in_layer = false;
    for (Span* up = parent_of(s); up != nullptr && !nested_in_layer;
         up = parent_of(*up)) {
      nested_in_layer = up->layer == s.layer;
    }
    if (!nested_in_layer) layer_incl_us_[s.layer] += s.dur;
  }
}

void TraceTable::Merge(const TraceTable& o) {
  for (const auto& [n, a] : o.by_name_) {
    Acc& m = by_name_[n];
    m.self_us += a.self_us;
    m.total_us += a.total_us;
    m.max_us = std::max(m.max_us, a.max_us);
    m.count += a.count;
  }
  for (const auto& [l, v] : o.layer_self_us_) layer_self_us_[l] += v;
  for (const auto& [l, v] : o.layer_incl_us_) layer_incl_us_[l] += v;
  worker_self_us_ += o.worker_self_us_;
}

double TraceTable::LayerSelfUs(const std::string& layer) const {
  auto it = layer_self_us_.find(layer);
  return it == layer_self_us_.end() ? 0 : it->second;
}

double TraceTable::LayerInclusiveUs(const std::string& layer) const {
  auto it = layer_incl_us_.find(layer);
  return it == layer_incl_us_.end() ? 0 : it->second;
}

double TraceTable::NameTotalUs(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.total_us;
}

double TraceTable::NameMaxUs(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.max_us;
}

std::string TraceTable::Format(double per) const {
  std::vector<std::pair<std::string, Acc>> rows(by_name_.begin(),
                                                by_name_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "  %-40s %-12s %12s %12s %10s\n", "span",
                "layer", "self_ms/job", "total_ms/job", "count/job");
  out += line;
  for (const auto& [name, a] : rows) {
    std::snprintf(line, sizeof(line), "  %-40s %-12s %12.3f %12.3f %10.1f\n",
                  name.c_str(), LayerOf(name).c_str(), a.self_us / 1000 / per,
                  a.total_us / 1000 / per, static_cast<double>(a.count) / per);
    out += line;
  }
  return out;
}

}  // namespace perfbench
