#include "bddfc/types/ptype.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bddfc/base/interner.h"
#include "bddfc/chase/skeleton.h"
#include "bddfc/eval/match.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

struct TypeOracle::Impl {
  const Structure& a;
  const Structure& b;
  TypeOracleOptions options;

  /// Ungoverned oracles fall back to a local (limitless) context so the
  /// pattern loop has one code path.
  ExecutionContext local_ctx;
  ExecutionContext* ctx = nullptr;
  size_t charged_bytes = 0;  // incident-index estimate, released in ~Impl

  /// A Θ-atom of A with at least one labeled null; `nulls` are its distinct
  /// nulls, ascending — the pattern vertices the atom joins.
  struct NullAtom {
    PredId pred;
    uint32_t row;
    std::vector<TermId> nulls;
  };

  std::vector<char> in_theta;   // indexed by PredId
  bool const_only_ok = true;    // constant-only atoms of A hold in B
  std::vector<NullAtom> atoms;
  /// Indexes into `atoms` of the atoms incident to each null.
  std::unordered_map<TermId, std::vector<uint32_t>> incident;
  /// The keys of `incident`, ascending: the roots of the pin-free
  /// enumeration.
  std::vector<TermId> roots;
  mutable size_t patterns_checked = 0;
  mutable bool budget_hit = false;
  /// Cached ComponentsHold() answer: -1 until a run that did not trip
  /// decides it. A and B being one structure decides it up front (the
  /// identity map embeds every pattern).
  mutable int components_hold = -1;

  Impl(const Structure& a_, const Structure& b_,
       const TypeOracleOptions& opts)
      : a(a_), b(b_), options(opts) {
    ctx = options.context != nullptr ? options.context : &local_ctx;
    assert(a.signature_ptr().get() == b.signature_ptr().get() &&
           "type oracle requires a shared signature");
    in_theta.assign(a.sig().num_predicates(), 0);
    if (options.predicates.empty()) {
      std::fill(in_theta.begin(), in_theta.end(), 1);
    } else {
      for (PredId p : options.predicates) in_theta[p] = 1;
    }
    for (PredId p = 0; p < a.sig().num_predicates(); ++p) {
      if (!in_theta[p]) continue;
      const auto& rows = a.Rows(p);
      for (uint32_t r = 0; r < rows.size(); ++r) {
        std::vector<TermId> nulls;
        for (TermId t : rows[r]) {
          if (a.sig().IsNull(t)) nulls.push_back(t);
        }
        if (nulls.empty()) {
          if (!b.Contains(p, rows[r])) const_only_ok = false;
          continue;
        }
        std::sort(nulls.begin(), nulls.end());
        nulls.erase(std::unique(nulls.begin(), nulls.end()), nulls.end());
        for (TermId t : nulls) {
          incident[t].push_back(static_cast<uint32_t>(atoms.size()));
        }
        atoms.push_back({p, r, std::move(nulls)});
      }
    }
    for (const auto& [e, ids] : incident) {
      (void)ids;
      roots.push_back(e);
    }
    std::sort(roots.begin(), roots.end());
    if (&a == &b) components_hold = 1;
    // Account the incident index (the oracle's dominant allocation) for
    // the oracle's lifetime when a governor is attached.
    if (options.context != nullptr) {
      for (const auto& [e, ids] : incident) {
        (void)e;
        charged_bytes += 64 + ids.size() * sizeof(ids[0]);
      }
      for (const NullAtom& atom : atoms) {
        charged_bytes += sizeof(atom) + atom.nulls.size() * sizeof(TermId);
      }
      ctx->memory().Charge(charged_bytes);
    }
  }

  ~Impl() {
    if (charged_bytes != 0) ctx->memory().Release(charged_bytes);
  }

  /// Builds the canonical query of A ↾ (K ∪ C_con) over Θ: every atom whose
  /// nulls all lie in K, with K[i] as variable i.
  std::vector<Atom> PatternQuery(const std::vector<TermId>& k) const {
    auto position = [&](TermId t) {
      return static_cast<size_t>(std::find(k.begin(), k.end(), t) -
                                 k.begin());
    };
    std::vector<Atom> query;
    for (size_t i = 0; i < k.size(); ++i) {
      auto it = incident.find(k[i]);
      if (it == incident.end()) continue;
      for (uint32_t id : it->second) {
        // Emit each atom once, from its first null in K, and only when
        // the atom stays inside K ∪ C_con.
        bool emit = true;
        for (TermId t : atoms[id].nulls) {
          const size_t pos = position(t);
          if (pos == k.size() || pos < i) {
            emit = false;
            break;
          }
        }
        if (!emit) continue;
        Atom atom;
        atom.pred = atoms[id].pred;
        for (TermId t : a.Rows(atom.pred)[atoms[id].row]) {
          atom.args.push_back(
              a.sig().IsNull(t) ? MakeVar(static_cast<int32_t>(position(t)))
                                : t);  // named constant context
        }
        query.push_back(std::move(atom));
      }
    }
    return query;
  }

  /// Evaluates K's canonical query in B, with K[0] ↦ eb when eb >= 0 and
  /// unpinned otherwise. Every evaluation probes the governor and counts
  /// against max_patterns; a trip latches budget_hit and answers false.
  bool PatternHolds(const Matcher& matcher, const std::vector<TermId>& k,
                    TermId eb) const {
    if (ctx->ShouldStop("ptype patterns")) {
      budget_hit = true;  // governor trip: answers become inconclusive
      return false;
    }
    ++patterns_checked;
    if (patterns_checked >= options.max_patterns) {
      budget_hit = true;
      return false;
    }
    Binding pin;
    if (eb >= 0) pin.emplace(MakeVar(0), eb);
    return matcher.Exists(PatternQuery(k), pin);
  }

  /// Visits every connected pattern K ∋ root with |K| ≤ limit, once each,
  /// smallest first, with K[0] == root. Connected means connected through
  /// Θ-atoms whose nulls all lie in K, so K grows by whole atoms: a ternary
  /// atom joins its three nulls only together. Atoms with a null below
  /// `floor` are not followed. Returns false as soon as `visit` does.
  template <typename Visit>
  bool ForEachConnected(TermId root, size_t limit, TermId floor,
                        const Visit& visit) const {
    std::vector<std::vector<TermId>> queue = {{root}};
    if (!visit(queue.front())) return false;
    std::unordered_set<std::vector<TermId>, TupleHash> seen;
    for (size_t head = 0; head < queue.size(); ++head) {
      const std::vector<TermId> k = queue[head];
      for (TermId x : k) {
        auto it = incident.find(x);
        if (it == incident.end()) continue;
        for (uint32_t id : it->second) {
          const std::vector<TermId>& nulls = atoms[id].nulls;
          if (nulls.front() < floor) continue;
          std::vector<TermId> grown = k;
          for (TermId t : nulls) {
            if (std::find(k.begin(), k.end(), t) == k.end()) {
              grown.push_back(t);
            }
          }
          if (grown.size() == k.size() || grown.size() > limit) continue;
          std::vector<TermId> key = grown;
          std::sort(key.begin(), key.end());
          if (!seen.insert(std::move(key)).second) continue;
          if (!visit(grown)) return false;
          queue.push_back(std::move(grown));
        }
      }
    }
    return true;
  }

  /// The pin-free half of containment: every connected pattern K with
  /// |K| ≤ n−1 has a Boolean canonical query that holds in B. It does not
  /// depend on the pinned pair, so it is decided once per oracle; each K
  /// is enumerated from its least null only.
  bool ComponentsHold() const {
    if (components_hold >= 0) return components_hold == 1;
    const int limit = options.num_variables - 1;
    Matcher matcher(b);
    bool holds = true;
    for (size_t i = 0; limit > 0 && holds && i < roots.size(); ++i) {
      holds = ForEachConnected(
          roots[i], static_cast<size_t>(limit), roots[i],
          [&](const std::vector<TermId>& k) {
            return PatternHolds(matcher, k, -1);
          });
    }
    // A tripped run proves nothing either way: leave the cache unfilled.
    if (!budget_hit) components_hold = holds ? 1 : 0;
    return holds;
  }

  /// The pinned half: every connected pattern K ∋ ea with |K| ≤ n has a
  /// canonical query that holds in B with ea ↦ eb.
  bool PinnedHold(TermId ea, TermId eb) const {
    Matcher matcher(b);
    const size_t limit =
        static_cast<size_t>(std::max(options.num_variables, 1));
    return ForEachConnected(
        ea, limit, std::numeric_limits<TermId>::min(),
        [&](const std::vector<TermId>& k) {
          return PatternHolds(matcher, k, eb);
        });
  }

 private:
  struct TupleHash {
    size_t operator()(const std::vector<TermId>& v) const {
      return HashRange(v.begin(), v.end());
    }
  };
};

TypeOracle::TypeOracle(const Structure& a, const Structure& b,
                       const TypeOracleOptions& options)
    : impl_(std::make_unique<Impl>(a, b, options)) {}

TypeOracle::~TypeOracle() {
  // Bridge the oracle's run-scoped tally into the registry once, at the
  // end of its life (a moved-from oracle has no impl and publishes nothing).
  if (impl_ == nullptr) return;
  // The run's registry, resolved through the context the oracle was built
  // with (callers keep it alive for the oracle's lifetime).
  obs::MetricsRegistry& reg = impl_->ctx->metrics_registry();
  if (reg.enabled()) {
    reg.GetCounter("bddfc.ptype.oracles")->Add(1);
    reg.GetCounter("bddfc.ptype.patterns_checked")->Add(
        impl_->patterns_checked);
  }
}
TypeOracle::TypeOracle(TypeOracle&&) noexcept = default;
TypeOracle& TypeOracle::operator=(TypeOracle&&) noexcept = default;

bool TypeOracle::TypeContained(TermId ea, TermId eb) const {
  const Impl& im = *impl_;
  // One probe per call, so a trip is observed even by a call that
  // evaluates no pattern (a named constant against a self-oracle).
  if (im.ctx->ShouldStop("ptype containment")) {
    im.budget_hit = true;
    return false;
  }
  if (!im.const_only_ok) return false;
  // A CQ's canonical query factors over the connected components of its
  // variables: the pin's component must map with ea ↦ eb, every other
  // component (at most n−1 nulls) must merely hold in B.
  if (!im.a.sig().IsNull(ea)) {
    // Named constant: the query y = ea (allowed by Def. 3) forces eb == ea.
    // The remaining queries fold y into the constant context, leaving only
    // the pin-free components.
    if (eb != ea) return false;
    return im.ComponentsHold();
  }
  return im.ComponentsHold() && im.PinnedHold(ea, eb);
}

size_t TypeOracle::patterns_checked() const {
  return impl_->patterns_checked;
}

bool TypeOracle::budget_exhausted() const { return impl_->budget_hit; }

int TypePartition::ClassOf(TermId e) const {
  for (size_t i = 0; i < elements.size(); ++i) {
    if (elements[i] == e) return class_id[i];
  }
  return -1;
}

Result<TypePartition> ExactPtpPartition(const Structure& c, int n,
                                        const std::vector<PredId>& predicates,
                                        size_t max_patterns,
                                        ExecutionContext* context) {
  obs::TraceSpan span(&ContextTracer(context), "ptype.exact_partition");
  TypeOracleOptions opts;
  opts.num_variables = n;
  opts.predicates = predicates;
  opts.max_patterns = max_patterns;
  opts.context = context;
  TypeOracle oracle(c, c, opts);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::vector<TermId> reps;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    TermId e = out.elements[i];
    int found = -1;
    for (size_t r = 0; r < reps.size(); ++r) {
      if (!c.sig().IsNull(e) || !c.sig().IsNull(reps[r])) {
        if (e == reps[r]) found = static_cast<int>(r);
        continue;
      }
      if (oracle.TypeContained(e, reps[r]) &&
          oracle.TypeContained(reps[r], e)) {
        found = static_cast<int>(r);
        break;
      }
    }
    if (found < 0) {
      found = static_cast<int>(reps.size());
      reps.push_back(e);
    }
    out.class_id[i] = found;
    if (oracle.budget_exhausted()) {
      // Inconclusive containments make the whole partition unusable, so no
      // partial result is returned. Record the trip on the governor (a
      // governed trip is already latched; RecordExhaustion keeps it).
      std::string detail = "type partition exceeded max_patterns=" +
                           std::to_string(max_patterns);
      if (context != nullptr) {
        return context->RecordExhaustion(ResourceKind::kPatterns,
                                         std::move(detail));
      }
      return Status::ResourceExhausted(std::move(detail));
    }
  }
  out.num_classes = static_cast<int>(reps.size());
  return out;
}

namespace {

/// Neighborhood canonicalization for BallPartition.
struct BallCanon {
  const Structure& c;
  const std::vector<char>& in_theta;

  /// Undirected adjacency among nulls: neighbor -> concatenated edge labels.
  std::unordered_map<TermId, std::map<TermId, std::string>> adj;
  /// Per-element local label: unary atoms + links to named constants.
  std::unordered_map<TermId, std::string> label;

  BallCanon(const Structure& s, const std::vector<char>& theta)
      : c(s), in_theta(theta) {
    c.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
      if (!in_theta[p]) return;
      std::string pname = std::to_string(p);
      if (row.size() == 1) {
        label[row[0]] += "u" + pname + ";";
        return;
      }
      if (row.size() != 2) return;  // BallPartition targets binary structures
      bool n0 = c.sig().IsNull(row[0]);
      bool n1 = c.sig().IsNull(row[1]);
      if (n0 && n1) {
        if (row[0] == row[1]) {
          label[row[0]] += "l" + pname + ";";  // self-loop as a label
        } else {
          adj[row[0]][row[1]] += ">" + pname + ";";
          adj[row[1]][row[0]] += "<" + pname + ";";
        }
      } else if (n0) {
        label[row[0]] += "c>" + pname + "," + std::to_string(row[1]) + ";";
      } else if (n1) {
        label[row[1]] += "c<" + pname + "," + std::to_string(row[0]) + ";";
      }
    });
    for (auto& [e, l] : label) {
      (void)e;
      l = SortSegments(l);
    }
  }

  static std::string SortSegments(const std::string& s) {
    std::vector<std::string> parts;
    std::string cur;
    for (char ch : s) {
      cur += ch;
      if (ch == ';') {
        parts.push_back(cur);
        cur.clear();
      }
    }
    std::sort(parts.begin(), parts.end());
    std::string out;
    for (auto& p : parts) out += p;
    return out;
  }

  std::string LabelOf(TermId e) const {
    auto it = label.find(e);
    return it == label.end() ? std::string() : it->second;
  }

  std::unordered_map<TermId, int> Ball(TermId e, int r) const {
    std::unordered_map<TermId, int> dist = {{e, 0}};
    std::deque<TermId> q = {e};
    while (!q.empty()) {
      TermId u = q.front();
      q.pop_front();
      if (dist[u] == r) continue;
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (auto& [v, lbl] : it->second) {
        (void)lbl;
        if (!dist.count(v)) {
          dist[v] = dist[u] + 1;
          q.push_back(v);
        }
      }
    }
    return dist;
  }

  bool BallIsTree(const std::unordered_map<TermId, int>& ball) const {
    size_t edges = 0;
    for (auto& [u, d] : ball) {
      (void)d;
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (auto& [v, lbl] : it->second) {
        (void)lbl;
        if (ball.count(v)) ++edges;
      }
    }
    edges /= 2;
    return edges + 1 == ball.size();
  }

  std::string TreeCanon(TermId e, const std::unordered_map<TermId, int>& ball,
                        TermId parent) const {
    std::vector<std::string> children;
    auto it = adj.find(e);
    if (it != adj.end()) {
      for (auto& [v, lbl] : it->second) {
        if (v == parent || !ball.count(v)) continue;
        children.push_back("(" + lbl + TreeCanon(v, ball, e) + ")");
      }
    }
    std::sort(children.begin(), children.end());
    std::string s = "[" + LabelOf(e) + "]";
    for (auto& ch : children) s += ch;
    return s;
  }

  std::string WlCanon(TermId e,
                      const std::unordered_map<TermId, int>& ball) const {
    std::unordered_map<TermId, std::string> color;
    for (auto& [u, d] : ball) {
      (void)d;
      color[u] = LabelOf(u);
    }
    for (size_t round = 0; round < ball.size(); ++round) {
      std::unordered_map<TermId, std::string> next;
      for (auto& [u, cu] : color) {
        std::vector<std::string> neigh;
        auto it = adj.find(u);
        if (it != adj.end()) {
          for (auto& [v, lbl] : it->second) {
            if (ball.count(v)) neigh.push_back(lbl + "|" + color[v]);
          }
        }
        std::sort(neigh.begin(), neigh.end());
        std::string combined = cu + "#";
        for (auto& x : neigh) combined += x + "&";
        next[u] =
            std::to_string(HashRange(combined.begin(), combined.end()));
      }
      color = std::move(next);
    }
    std::vector<std::string> all;
    for (auto& [u, cu] : color) {
      (void)u;
      all.push_back(cu);
    }
    std::sort(all.begin(), all.end());
    std::string s = "WL:" + color[e] + "/";
    for (auto& x : all) s += x + ",";
    return s;
  }

  std::string Canon(TermId e, int radius) const {
    auto ball = Ball(e, radius);
    if (BallIsTree(ball)) return "T:" + TreeCanon(e, ball, -1);
    return WlCanon(e, ball);
  }
};

}  // namespace

TypePartition AncestorPathPartition(const Structure& c, int n,
                                    const std::vector<PredId>& predicates) {
  std::vector<char> in_theta(c.sig().num_predicates(), 0);
  if (predicates.empty()) {
    std::fill(in_theta.begin(), in_theta.end(), 1);
  } else {
    for (PredId p : predicates) in_theta[p] = 1;
  }
  BallCanon canon(c, in_theta);
  SkeletonAnalysis forest = AnalyzeSkeleton(c);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::unordered_map<std::string, int> key_to_class;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    TermId e = out.elements[i];
    std::string key;
    if (!c.sig().IsNull(e)) {
      key = "const:" + std::to_string(e);  // Remark 1: singletons
    } else {
      key = canon.LabelOf(e);
      TermId cur = e;
      for (int step = 1; step < n; ++step) {
        auto pit = forest.parent.find(cur);
        if (pit == forest.parent.end()) {
          key += "^ROOT";
          break;
        }
        TermId parent = pit->second;
        auto ait = canon.adj.find(cur);
        std::string edge;
        if (ait != canon.adj.end()) {
          auto eit = ait->second.find(parent);
          if (eit != ait->second.end()) edge = eit->second;
        }
        key += "^" + edge + "|" + canon.LabelOf(parent);
        cur = parent;
      }
    }
    auto [it, inserted] =
        key_to_class.emplace(std::move(key), out.num_classes);
    if (inserted) ++out.num_classes;
    out.class_id[i] = it->second;
  }
  return out;
}

TypePartition BallPartition(const Structure& c, int n,
                            const std::vector<PredId>& predicates) {
  std::vector<char> in_theta(c.sig().num_predicates(), 0);
  if (predicates.empty()) {
    std::fill(in_theta.begin(), in_theta.end(), 1);
  } else {
    for (PredId p : predicates) in_theta[p] = 1;
  }
  BallCanon canon(c, in_theta);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::unordered_map<std::string, int> key_to_class;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    TermId e = out.elements[i];
    std::string key;
    if (!c.sig().IsNull(e)) {
      key = "const:" + std::to_string(e);  // Remark 1: singletons
    } else {
      key = canon.Canon(e, n - 1);
    }
    auto [it, inserted] =
        key_to_class.emplace(std::move(key), out.num_classes);
    if (inserted) ++out.num_classes;
    out.class_id[i] = it->second;
  }
  return out;
}

}  // namespace bddfc
