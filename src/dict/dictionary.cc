#include "dict/dictionary.h"

namespace rdftx {

TermId Dictionary::Intern(std::string_view term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  terms_.emplace_back(term);
  TermId id = terms_.size() - 1;
  // Deque elements are never moved, so a view into the stored string is
  // a stable hash key.
  index_.emplace(std::string_view(terms_.back()), id);
  return id;
}

TermId Dictionary::Lookup(std::string_view term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTerm : it->second;
}

Result<std::string> Dictionary::SafeDecode(TermId id) const {
  if (id == kInvalidTerm || id >= terms_.size()) {
    return Status::NotFound("term id out of range");
  }
  return terms_[id];
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = terms_.size() * sizeof(std::string);
  for (const std::string& s : terms_) {
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity() + 1;
  }
  // Hash map: buckets + nodes (approximate node model).
  bytes += index_.bucket_count() * sizeof(void*);
  bytes += index_.size() *
           (sizeof(std::string_view) + sizeof(TermId) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace rdftx
