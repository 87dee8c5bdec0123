#include "optimizer/char_set.h"

#include <algorithm>
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
    PredStats& stats = pred_stats_[p];
    stats.occurrences += j - i;
    stats.distinct_objects = distinct_values(i, j);
  });
  sort_pairs(predicate, subject);
  for_each_run([&](TermId p, size_t i, size_t j) {
    pred_stats_[p].distinct_subjects = distinct_values(i, j);
  });

  // Group subjects by distinct predicate set, with per-predicate
  // occurrence totals aligned with the set, and rank sets by popularity;
  // only the top `max_sets` stay distinct.
  struct Group {
    std::vector<TermId> subjects;
    std::vector<uint64_t> occurrences;
  };
  std::map<std::vector<TermId>, Group> groups;
  sort_pairs(subject, predicate);
  std::vector<TermId> preds;
  std::vector<uint64_t> occ;
  size_t subjects = 0;
  for_each_run([&](TermId s, size_t i, size_t j) {
    ++subjects;
    preds.clear();
    occ.clear();
    for (size_t k = i; k < j; ++k) {
      if (is_new_value(i, k)) {
        preds.push_back(pairs[k].second);
        occ.push_back(0);
      }
      ++occ.back();
    }
    Group& g = groups[preds];
    g.subjects.push_back(s);
    g.occurrences.resize(occ.size());
    for (size_t k = 0; k < occ.size(); ++k) g.occurrences[k] += occ[k];
  });
  subject_to_set_.reserve(subjects);
  pairs.clear();
  pairs.shrink_to_fit();

  using GroupEntry = std::pair<const std::vector<TermId>, Group>;
  std::vector<const GroupEntry*> ranked;
  ranked.reserve(groups.size());
  for (const auto& g : groups) ranked.push_back(&g);
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    return a->second.subjects.size() > b->second.subjects.size();
  });

  const size_t kept = std::min(max_sets, ranked.size());
  const bool has_overflow = kept < ranked.size();
  sets_.resize(kept + (has_overflow ? 1 : 0));
  std::set<TermId> overflow_preds;

  auto account = [&](CharSetId id, const GroupEntry& g) {
    SetStats& stats = sets_[id];
    for (TermId s : g.second.subjects) subject_to_set_.emplace(s, id);
    stats.distinct_subjects += g.second.subjects.size();
    for (size_t k = 0; k < g.first.size(); ++k) {
      stats.occurrences[g.first[k]] += g.second.occurrences[k];
    }
  };

  for (size_t i = 0; i < kept; ++i) {
    const CharSetId id = static_cast<CharSetId>(i);
    sets_[id].predicates = ranked[i]->first;
    for (TermId p : ranked[i]->first) pred_to_sets_[p].push_back(id);
    account(id, *ranked[i]);
  }
  if (has_overflow) {
    const CharSetId overflow = static_cast<CharSetId>(kept);
    for (size_t i = kept; i < ranked.size(); ++i) {
      overflow_preds.insert(ranked[i]->first.begin(), ranked[i]->first.end());
      account(overflow, *ranked[i]);
    }
    sets_[overflow].predicates.assign(overflow_preds.begin(),
                                      overflow_preds.end());
    for (TermId p : sets_[overflow].predicates) {
      pred_to_sets_[p].push_back(overflow);
    }
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
  for (const SetStats& s : sets_) {
    bytes += s.predicates.capacity() * sizeof(TermId) +
             s.occurrences.size() * (sizeof(TermId) + sizeof(uint64_t) +
                                     3 * sizeof(void*));
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
