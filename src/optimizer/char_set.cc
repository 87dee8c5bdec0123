#include "optimizer/char_set.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace rdftx::optimizer {

void CharSetCatalog::Build(const std::vector<TemporalTriple>& triples,
                           size_t max_sets) {
  total_triples_ += triples.size();
  {
    std::vector<TermId> objects;
    objects.reserve(triples.size());
    for (const TemporalTriple& tt : triples) objects.push_back(tt.triple.o);
    std::sort(objects.begin(), objects.end());
    total_objects_ = static_cast<uint64_t>(
        std::unique(objects.begin(), objects.end()) - objects.begin());
  }

  // Every other statistic is a walk over sorted (key, value) pairs; one
  // buffer is refilled for the (p,o), (p,s) and (s,p) pairings.
  std::vector<std::pair<TermId, TermId>> pairs(triples.size());
  auto sort_pairs = [&](auto key, auto value) {
    for (size_t i = 0; i < triples.size(); ++i) {
      pairs[i] = {key(triples[i].triple), value(triples[i].triple)};
    }
    std::sort(pairs.begin(), pairs.end());
  };
  // Calls fn(key, i, j) for each run [i, j) of pairs with equal keys.
  auto for_each_run = [&](auto&& fn) {
    for (size_t i = 0; i < pairs.size();) {
      size_t j = i + 1;
      while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
      fn(pairs[i].first, i, j);
      i = j;
    }
  };
  auto is_new_value = [&](size_t i, size_t k) {
    return k == i || pairs[k].second != pairs[k - 1].second;
  };
  auto distinct_values = [&](size_t i, size_t j) {
    uint64_t n = 0;
    for (size_t k = i; k < j; ++k) n += is_new_value(i, k) ? 1 : 0;
    return n;
  };
  auto subject = [](const Triple& t) { return t.s; };
  auto predicate = [](const Triple& t) { return t.p; };
  auto object = [](const Triple& t) { return t.o; };

  sort_pairs(predicate, object);
  for_each_run([&](TermId p, size_t i, size_t j) {
    pred_stats_[p].distinct_objects = distinct_values(i, j);
  });
  sort_pairs(predicate, subject);
  for_each_run([&](TermId p, size_t i, size_t j) {
    pred_stats_[p].distinct_subjects = distinct_values(i, j);
  });

  // Group subjects by distinct predicate set and rank sets by
  // popularity; only the top `max_sets` stay distinct.
  std::map<std::vector<TermId>, std::vector<TermId>> groups;  // -> subjects
  sort_pairs(subject, predicate);
  std::vector<TermId> preds;
  size_t subjects = 0;
  for_each_run([&](TermId s, size_t i, size_t j) {
    ++subjects;
    preds.clear();
    for (size_t k = i; k < j; ++k) {
      if (is_new_value(i, k)) preds.push_back(pairs[k].second);
    }
    groups[preds].push_back(s);
  });
  subject_to_set_.reserve(subjects);
  pairs.clear();
  pairs.shrink_to_fit();

  using GroupEntry = std::pair<const std::vector<TermId>, std::vector<TermId>>;
  std::vector<const GroupEntry*> ranked;
  ranked.reserve(groups.size());
  for (const auto& g : groups) ranked.push_back(&g);
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    return a->second.size() > b->second.size();
  });

  // Sets past `kept` merge into one overflow set holding the union of
  // their predicates.
  const size_t kept = std::min(max_sets, ranked.size());
  sets_.resize(kept + (kept < ranked.size() ? 1 : 0));
  std::set<TermId> overflow_preds;
  for (size_t i = 0; i < ranked.size(); ++i) {
    const CharSetId id = static_cast<CharSetId>(std::min(i, kept));
    for (TermId s : ranked[i]->second) subject_to_set_.emplace(s, id);
    if (i < kept) {
      sets_[id] = ranked[i]->first;
    } else {
      overflow_preds.insert(ranked[i]->first.begin(), ranked[i]->first.end());
    }
  }
  if (kept < ranked.size()) {
    sets_[kept].assign(overflow_preds.begin(), overflow_preds.end());
  }
  for (CharSetId id = 0; id < sets_.size(); ++id) {
    for (TermId p : sets_[id]) pred_to_sets_[p].push_back(id);
  }
}

CharSetId CharSetCatalog::SetOf(TermId subject) const {
  auto it = subject_to_set_.find(subject);
  return it == subject_to_set_.end() ? kNoCharSet : it->second;
}

const std::vector<CharSetId>& CharSetCatalog::SetsWithPredicate(
    TermId p) const {
  auto it = pred_to_sets_.find(p);
  return it == pred_to_sets_.end() ? empty_ : it->second;
}

const CharSetCatalog::PredStats* CharSetCatalog::pred_stats(TermId p) const {
  auto it = pred_stats_.find(p);
  return it == pred_stats_.end() ? nullptr : &it->second;
}

size_t CharSetCatalog::MemoryUsage() const {
  size_t bytes = sizeof(*this);
  for (const std::vector<TermId>& preds : sets_) {
    bytes += preds.capacity() * sizeof(TermId);
  }
  bytes += subject_to_set_.size() * (sizeof(TermId) + sizeof(CharSetId) +
                                     2 * sizeof(void*));
  for (const auto& entry : pred_to_sets_) {
    bytes += entry.second.capacity() * sizeof(CharSetId) + 2 * sizeof(void*);
  }
  bytes += pred_stats_.size() * (sizeof(TermId) + sizeof(PredStats) +
                                 2 * sizeof(void*));
  return bytes;
}

}  // namespace rdftx::optimizer
