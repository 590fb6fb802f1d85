#include "index/phrase_posting_index.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace phrasemine {

PhrasePostingIndex PhrasePostingIndex::Build(const ForwardIndex& forward,
                                             const PhraseDictionary& dict) {
  PM_CHECK_MSG(forward.storage() == ForwardStorage::kFull,
               "phrase postings are built from the full forward index");
  PhrasePostingIndex index;
  index.postings_.resize(dict.size());
  for (DocId d = 0; d < forward.num_docs(); ++d) {
    for (PhraseId p : forward.stored(d)) {
      index.postings_[p].push_back(d);
    }
  }
  index.by_cardinality_.resize(dict.size());
  std::iota(index.by_cardinality_.begin(), index.by_cardinality_.end(), 0u);
  std::sort(index.by_cardinality_.begin(), index.by_cardinality_.end(),
            [&](PhraseId a, PhraseId b) {
              const std::size_t ca = index.postings_[a].size();
              const std::size_t cb = index.postings_[b].size();
              if (ca != cb) return ca > cb;
              return a < b;
            });
  return index;
}

std::span<const DocId> PhrasePostingIndex::docs(PhraseId p) const {
  PM_CHECK(p < postings_.size());
  return postings_[p];
}

std::size_t PhrasePostingIndex::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& list : postings_) total += list.size();
  return total;
}

}  // namespace phrasemine
