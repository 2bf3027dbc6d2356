#include "bddfc/types/coloring.h"

#include <algorithm>
#include <map>
#include <span>

#include "bddfc/chase/skeleton.h"

namespace bddfc {

namespace {

/// Placeholders of the local encodings: the null being keyed, its parent,
/// and the leading tag that keeps constants' keys apart from nulls'.
constexpr TermId kSelf = -1;
constexpr TermId kParent = -2;
constexpr TermId kConstantKey = -3;

/// Flat CSR incidence index of C's non-color facts: for each null, the
/// facts it occurs in, each listed once however often the null repeats in
/// it. Indexed by TermId; named constants have empty lists.
class NullIncidence {
 public:
  explicit NullIncidence(const Structure& c)
      : offset_(c.sig().num_constants() + 1, 0) {
    ForEachIncidence(c, [&](TermId x, FactHandle) { ++offset_[x + 1]; });
    for (size_t i = 1; i < offset_.size(); ++i) offset_[i] += offset_[i - 1];
    refs_.resize(offset_.back());
    std::vector<uint32_t> fill(offset_.begin(), offset_.end() - 1);
    ForEachIncidence(c, [&](TermId x, FactHandle h) { refs_[fill[x]++] = h; });
  }

  std::span<const FactHandle> Of(TermId x) const {
    return {refs_.data() + offset_[x], refs_.data() + offset_[x + 1]};
  }

 private:
  template <typename Fn>
  static void ForEachIncidence(const Structure& c, Fn&& fn) {
    const Signature& sig = c.sig();
    for (PredId p = 0; p < c.NumStoredPredicates(); ++p) {
      if (sig.IsColor(p)) continue;
      const std::vector<std::vector<TermId>>& rows = c.Rows(p);
      for (uint32_t r = 0; r < rows.size(); ++r) {
        const std::vector<TermId>& row = rows[r];
        for (auto it = row.begin(); it != row.end(); ++it) {
          if (sig.IsNull(*it) && std::find(row.begin(), it, *it) == it) {
            fn(*it, FactHandle{p, r});
          }
        }
      }
    }
  }

  std::vector<uint32_t> offset_;
  std::vector<FactHandle> refs_;
};

/// Appends to `out` the atoms of `facts` that lie in C ↾ ({x, y} ∪ C_con)
/// and, when `need_y`, contain y — each as [pred, args...] with x ↦ kSelf,
/// y ↦ kParent and named constants by id, sorted. A predicate fixes its
/// arity, so equal outputs mean equal atom sets.
void AppendLocalAtoms(const Structure& c, std::span<const FactHandle> facts,
                      TermId x, TermId y, bool need_y,
                      std::vector<TermId>* out) {
  std::vector<std::vector<TermId>> atoms;
  for (FactHandle h : facts) {
    const std::vector<TermId>& row = c.Tuple(h);
    std::vector<TermId> atom{h.pred};
    bool has_y = false;
    bool inside = true;
    for (TermId t : row) {
      if (t == x) {
        atom.push_back(kSelf);
      } else if (t == y) {
        atom.push_back(kParent);
        has_y = true;
      } else if (!c.sig().IsNull(t)) {
        atom.push_back(t);
      } else {
        inside = false;
        break;
      }
    }
    if (inside && (has_y || !need_y)) atoms.push_back(std::move(atom));
  }
  std::sort(atoms.begin(), atoms.end());
  for (const auto& a : atoms) out->insert(out->end(), a.begin(), a.end());
}

/// Interns `key` into `ids`, numbering keys by first occurrence.
int Intern(std::map<std::vector<TermId>, int>* ids, std::vector<TermId> key) {
  return ids->emplace(std::move(key), static_cast<int>(ids->size()))
      .first->second;
}

}  // namespace

Result<Coloring> NaturalColoring(const Structure& c, int m) {
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

  // C ↾ (P(e) ∪ C_con) splits into the atoms over {e} ∪ C_con with e,
  // those over {parent} ∪ C_con with the parent, those with both, and the
  // constant-only atoms. The last are the same for every null and are
  // omitted. The first two are a null's "own" atoms: intern each null's
  // once, so a parent with many children is encoded once.
  const NullIncidence incidence(c);
  std::map<std::vector<TermId>, int> own_ids;
  const int no_parent = Intern(&own_ids, {});
  std::vector<int> own_id(c.sig().num_constants(), no_parent);
  for (TermId e : c.Domain()) {
    if (!c.sig().IsNull(e)) continue;
    std::vector<TermId> own;
    AppendLocalAtoms(c, incidence.Of(e), e, -1, false, &own);
    own_id[e] = Intern(&own_ids, std::move(own));
  }

  // Lightness table: local key -> id, numbered in Domain() order.
  std::map<std::vector<TermId>, int> lightness_of;
  // (hue, lightness) -> color predicate.
  std::map<std::pair<int, int>, PredId> color_pred;
  int hue_period = m + 2;  // P_m(e) reaches ancestors within m+1 steps

  for (TermId e : c.Domain()) {
    int hue;
    std::vector<TermId> key;
    if (!c.sig().IsNull(e)) {
      // Constants: P(e) = {e}; their name makes the local type unique.
      hue = 0;
      key = {kConstantKey, e};
    } else {
      auto dit = forest.depth.find(e);
      hue = 1 + (dit == forest.depth.end() ? 0 : dit->second % hue_period);
      auto pit = forest.parent.find(e);
      const TermId parent = pit != forest.parent.end() ? pit->second : -1;
      key = {parent >= 0 ? own_id[parent] : no_parent, own_id[e]};
      if (parent >= 0) {
        AppendLocalAtoms(c, incidence.Of(e), e, parent, true, &key);
      }
    }
    const int lightness = Intern(&lightness_of, std::move(key));
    auto hl = std::make_pair(hue, lightness);
    auto cit = color_pred.find(hl);
    if (cit == color_pred.end()) {
      PredId k = out.colored.mutable_sig().AddColorPredicate(hue, lightness);
      cit = color_pred.emplace(hl, k).first;
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

}  // namespace bddfc
