#include "bddfc/testing/ptype_reference.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bddfc/eval/match.h"

namespace bddfc {

ReferenceTypeOracle::ReferenceTypeOracle(const Structure& a,
                                         const Structure& b,
                                         const TypeOracleOptions& options)
    : a_(a), b_(b), options_(options) {
  std::vector<char> in_theta(a.sig().num_predicates(), 0);
  if (options.predicates.empty()) {
    std::fill(in_theta.begin(), in_theta.end(), 1);
  } else {
    for (PredId p : options.predicates) in_theta[p] = 1;
  }
  for (PredId p = 0; p < a.sig().num_predicates(); ++p) {
    if (!in_theta[p]) continue;
    const auto& rows = a.Rows(p);
    for (uint32_t r = 0; r < rows.size(); ++r) {
      bool has_null = false;
      std::unordered_set<TermId> elems(rows[r].begin(), rows[r].end());
      for (TermId t : elems) {
        if (a.sig().IsNull(t)) {
          incident_[t].emplace_back(p, r);
          has_null = true;
        }
      }
      if (!has_null && !b.Contains(p, rows[r])) const_only_ok_ = false;
    }
  }
  for (TermId e : a.Domain()) {
    if (a.sig().IsNull(e)) a_nulls_.push_back(e);
  }
}

/// The canonical query of A ↾ (S ∪ C_con) over Θ, with s[i] as variable i.
std::vector<Atom> ReferenceTypeOracle::PatternQuery(
    const std::vector<TermId>& s) const {
  std::unordered_map<TermId, TermId> var_of;
  for (size_t i = 0; i < s.size(); ++i) {
    var_of.emplace(s[i], MakeVar(static_cast<int32_t>(i)));
  }
  std::vector<Atom> atoms;
  std::unordered_set<int64_t> seen_rows;
  for (TermId e : s) {
    auto it = incident_.find(e);
    if (it == incident_.end()) continue;
    for (auto [pred, row] : it->second) {
      if (!seen_rows.insert((int64_t(pred) << 32) | row).second) continue;
      const std::vector<TermId>& args = a_.Rows(pred)[row];
      Atom atom;
      atom.pred = pred;
      bool inside = true;
      for (TermId t : args) {
        auto vit = var_of.find(t);
        if (vit != var_of.end()) {
          atom.args.push_back(vit->second);
        } else if (!a_.sig().IsNull(t)) {
          atom.args.push_back(t);  // named constant context
        } else {
          inside = false;  // atom leaves S ∪ C_con
          break;
        }
      }
      if (inside) atoms.push_back(std::move(atom));
    }
  }
  return atoms;
}

/// Checks every subset S of A's nulls: with `pinned` >= 0, S contains
/// `pinned` and the query is evaluated with pinned ↦ eb; with `pinned` < 0,
/// S starts empty and the query is evaluated unpinned. `extra_budget`
/// bounds the nulls added on top of the pin.
bool ReferenceTypeOracle::PatternsHold(TermId pinned, TermId eb,
                                       int extra_budget) {
  Matcher matcher(b_);
  std::vector<TermId> s;
  if (pinned >= 0) s.push_back(pinned);
  std::vector<size_t> stack;  // indexes into a_nulls_ (combination DFS)
  auto check_current = [&]() {
    ++patterns_checked_;
    if (patterns_checked_ >= options_.max_patterns) {
      budget_hit_ = true;
      return false;
    }
    Binding pin;
    if (pinned >= 0) pin.emplace(MakeVar(0), eb);
    return matcher.Exists(PatternQuery(s), pin);
  };
  if (!check_current()) return false;

  size_t next = 0;
  while (true) {
    if (static_cast<int>(stack.size()) < extra_budget &&
        next < a_nulls_.size()) {
      TermId cand = a_nulls_[next];
      // Skip the pin and candidates with no Θ-atoms at all: an isolated
      // variable never constrains satisfaction.
      if (cand != pinned && incident_.count(cand)) {
        stack.push_back(next);
        s.push_back(cand);
        if (!check_current()) return false;
        next = next + 1;
        continue;
      }
      ++next;
      continue;
    }
    if (stack.empty()) break;
    next = stack.back() + 1;
    stack.pop_back();
    s.pop_back();
  }
  return true;
}

bool ReferenceTypeOracle::TypeContained(TermId ea, TermId eb) {
  if (!const_only_ok_) return false;
  if (!a_.sig().IsNull(ea)) {
    // Named constant: y = ea forces eb == ea; the other queries fold y
    // into the constant context, leaving unpinned patterns.
    if (eb != ea) return false;
    return PatternsHold(-1, -1, options_.num_variables - 1);
  }
  return PatternsHold(ea, eb, options_.num_variables - 1);
}

Result<TypePartition> ReferenceExactPtpPartition(
    const Structure& c, int n, const std::vector<PredId>& predicates,
    size_t max_patterns) {
  TypeOracleOptions opts;
  opts.num_variables = n;
  opts.predicates = predicates;
  opts.max_patterns = max_patterns;
  ReferenceTypeOracle oracle(c, c, opts);

  TypePartition out;
  out.n = n;
  out.elements = c.Domain();
  out.class_id.assign(out.elements.size(), -1);
  std::vector<TermId> reps;
  for (size_t i = 0; i < out.elements.size(); ++i) {
    const TermId e = out.elements[i];
    int found = -1;
    for (size_t r = 0; r < reps.size() && found < 0; ++r) {
      if (!c.sig().IsNull(e) || !c.sig().IsNull(reps[r])) continue;
      if (oracle.TypeContained(e, reps[r]) &&
          oracle.TypeContained(reps[r], e)) {
        found = static_cast<int>(r);
      }
    }
    if (oracle.budget_exhausted()) {
      return Status::ResourceExhausted(
          "reference type partition exceeded max_patterns=" +
          std::to_string(max_patterns));
    }
    if (found < 0) {
      found = static_cast<int>(reps.size());
      reps.push_back(e);
    }
    out.class_id[i] = found;
  }
  out.num_classes = static_cast<int>(reps.size());
  return out;
}

}  // namespace bddfc
