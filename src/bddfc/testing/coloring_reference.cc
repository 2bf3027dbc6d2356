#include "bddfc/testing/coloring_reference.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bddfc/chase/skeleton.h"
#include "bddfc/classes/vtdag.h"

namespace bddfc {

namespace {

/// Canonical encoding of C ↾ (P(e) ∪ C_con) with e and its parent
/// anonymized ("E"/"P") and constants by name. Equal strings <=> isomorphic
/// restrictions (with the P-roles distinguished).
std::string LocalIsoKey(const Structure& c, TermId e, TermId parent) {
  auto name = [&](TermId t) -> std::string {
    if (t == e) return "@E";
    if (t == parent) return "@P";
    if (!c.sig().IsNull(t)) return "c" + std::to_string(t);
    return "";  // outside P(e) ∪ C_con
  };
  std::vector<std::string> atoms;
  c.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    if (c.sig().IsColor(p)) return;
    std::string s = std::to_string(p) + "(";
    for (TermId t : row) {
      std::string nm = name(t);
      if (nm.empty()) return;  // atom leaves the restriction
      s += nm + ",";
    }
    atoms.push_back(s + ")");
  });
  std::sort(atoms.begin(), atoms.end());
  std::string out;
  for (const auto& a : atoms) out += a + ";";
  return out;
}

}  // namespace

Result<Coloring> ReferenceNaturalColoring(const Structure& c, int m) {
  SkeletonAnalysis forest = AnalyzeSkeleton(c);
  if (!forest.is_forest) {
    return Status::FailedPrecondition(
        "natural coloring requires the nulls of C to form a forest");
  }

  Coloring out(c.signature_ptr());
  c.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    out.colored.AddFact(p, row);
  });
  for (TermId e : c.Domain()) out.colored.AddDomainElement(e);

  // Lightness table: canonical local-iso string -> id.
  std::map<std::string, int> lightness_of;
  // (hue, lightness) -> color predicate.
  std::map<std::pair<int, int>, PredId> color_pred;
  int hue_period = m + 2;  // P_m(e) reaches ancestors within m+1 steps

  for (TermId e : c.Domain()) {
    int hue;
    TermId parent = -1;
    std::string iso_key;
    if (!c.sig().IsNull(e)) {
      // Constants: P(e) = {e}; their name makes the local type unique.
      hue = 0;
      iso_key = "const:" + std::to_string(e);
    } else {
      auto dit = forest.depth.find(e);
      hue = 1 + (dit == forest.depth.end() ? 0 : dit->second % hue_period);
      auto pit = forest.parent.find(e);
      if (pit != forest.parent.end()) parent = pit->second;
      iso_key = LocalIsoKey(c, e, parent);
    }
    int lightness =
        lightness_of.emplace(iso_key, static_cast<int>(lightness_of.size()))
            .first->second;
    auto key = std::make_pair(hue, lightness);
    auto cit = color_pred.find(key);
    if (cit == color_pred.end()) {
      PredId k = out.colored.mutable_sig().AddColorPredicate(hue, lightness);
      cit = color_pred.emplace(key, k).first;
      out.color_predicates.push_back(k);
    }
    out.colored.AddFact(cit->second, {e});
    out.color_of.emplace(e, cit->second);
    out.num_hues = std::max(out.num_hues, hue + 1);
  }
  out.num_lightnesses = static_cast<int>(lightness_of.size());

  for (PredId p = 0; p < c.sig().num_predicates(); ++p) {
    if (!c.sig().IsColor(p)) out.base_predicates.push_back(p);
  }
  return out;
}

Structure CopyOnFreshSignature(const Structure& c) {
  Structure out(std::make_shared<Signature>(c.sig()));
  for (TermId e : c.Domain()) out.AddDomainElement(e);
  c.ForEachFact([&](PredId p, const std::vector<TermId>& row) {
    out.AddFact(p, row);
  });
  return out;
}

bool IsNaturalColoring(const Coloring& coloring, const Structure& c, int m) {
  const Signature& sig = coloring.colored.sig();
  // Condition 1: distinct hues within P_m(e) (excluding e itself).
  for (TermId e : c.Domain()) {
    if (!sig.IsNull(e)) continue;
    auto it = coloring.color_of.find(e);
    if (it == coloring.color_of.end()) return false;
    int hue_e = sig.predicate(it->second).hue;
    for (TermId d : PkSet(c, e, m)) {
      if (d == e || !sig.IsNull(d)) continue;
      auto dit = coloring.color_of.find(d);
      if (dit == coloring.color_of.end()) return false;
      if (sig.predicate(dit->second).hue == hue_e) return false;
    }
  }
  // Condition 2: same color => isomorphic C ↾ (P(e) ∪ C_con).
  SkeletonAnalysis forest = AnalyzeSkeleton(c);
  std::map<PredId, std::string> seen;
  for (TermId e : c.Domain()) {
    auto it = coloring.color_of.find(e);
    if (it == coloring.color_of.end()) return false;
    TermId parent = -1;
    auto pit = forest.parent.find(e);
    if (pit != forest.parent.end()) parent = pit->second;
    std::string key = c.sig().IsNull(e)
                          ? LocalIsoKey(c, e, parent)
                          : "const:" + std::to_string(e);
    auto [sit, inserted] = seen.emplace(it->second, key);
    if (!inserted && sit->second != key) return false;
  }
  return true;
}

}  // namespace bddfc
