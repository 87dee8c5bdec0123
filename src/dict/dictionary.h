// Dictionary encoding (paper §4.1.2): URIs/literals are replaced with
// dense uint64 ids before indexing, avoiding long string comparisons and
// shrinking index entries. The mapping is kept in memory for query
// evaluation and index update.
#ifndef RDFTX_DICT_DICTIONARY_H_
#define RDFTX_DICT_DICTIONARY_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

namespace rdftx {

/// A dictionary-encoded term id. 0 is reserved (invalid / unbound).
using TermId = uint64_t;

inline constexpr TermId kInvalidTerm = 0;

/// Bidirectional string <-> id mapping. Ids are assigned densely in
/// first-seen order starting at 1. Strings live in a deque, so references
/// and views remain stable as the dictionary grows.
class Dictionary {
 public:
  Dictionary() { terms_.emplace_back(); }  // slot 0 = invalid

  /// Returns the id for `term`, interning it if new.
  TermId Intern(std::string_view term);

  /// Returns the id for `term` or kInvalidTerm if absent (const lookup).
  TermId Lookup(std::string_view term) const;

  /// Returns the string for a valid id; asserts on invalid ids in debug.
  const std::string& Decode(TermId id) const {
    assert(id != kInvalidTerm && id < terms_.size());
    return terms_[id];
  }

  /// Starts loading the string of `id` (a valid id or kInvalidTerm)
  /// into the cache, so a loop that decodes ids in random order can
  /// overlap its misses: prefetch a few ids ahead of each Decode.
  void Prefetch(TermId id) const { __builtin_prefetch(&terms_[id]); }

  /// Decode that returns an error instead of asserting.
  Result<std::string> SafeDecode(TermId id) const;

  /// Number of interned terms (excluding the reserved slot).
  size_t size() const { return terms_.size() - 1; }

  /// Pre-sizes the lookup table for `term_count` upcoming Interns; used
  /// by the snapshot loader, which knows the final size up front.
  void Reserve(size_t term_count) { index_.reserve(term_count); }

  /// Approximate heap footprint in bytes, for the Fig 8 size accounting.
  size_t MemoryUsage() const;

 private:
  std::deque<std::string> terms_;
  std::unordered_map<std::string_view, TermId> index_;
};

}  // namespace rdftx

#endif  // RDFTX_DICT_DICTIONARY_H_
