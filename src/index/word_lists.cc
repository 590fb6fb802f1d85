#include "index/word_lists.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace phrasemine {

namespace {

/// Per-thread scratch of the score-list builder: a dictionary-sized
/// co-occurrence count array (all zero between builds, grow-only across
/// engines), the ids touched by the current build, and the radix sort's
/// second buffer.
struct BuildScratch {
  std::vector<uint32_t> counts;
  std::vector<PhraseId> touched;
  std::vector<ListEntry> buffer;
};

/// The radix sort key is (~bits(prob), phrase) in bytes: digits 0-3 are
/// the phrase-id bytes (least significant first), digits 4-11 the bytes
/// of ~bits(prob). Probabilities are positive, where the bit pattern
/// orders like the value and equal values have equal bits, so ascending
/// key order is exactly (prob desc, phrase asc).
constexpr int kIdDigits = sizeof(PhraseId);
constexpr int kKeyDigits = kIdDigits + sizeof(uint64_t);

/// Byte `d` of an entry's sort key.
uint32_t Digit(const ListEntry& e, int d) {
  if (d < kIdDigits) return (e.phrase >> (8 * d)) & 0xff;
  return (~std::bit_cast<uint64_t>(e.prob) >> (8 * (d - kIdDigits))) & 0xff;
}

/// Stable LSD radix sort of `list` into (prob desc, phrase asc) order,
/// using `buffer` as the second array. All digit histograms come from one
/// read of the list, and a digit every entry shares is skipped, so the
/// cost is O(list length) per pass that can move anything.
void RadixSortByScore(std::vector<ListEntry>* list,
                      std::vector<ListEntry>* buffer) {
  const std::size_t n = list->size();
  if (n < 2) return;
  std::array<std::array<uint32_t, 256>, kKeyDigits> hist{};
  for (const ListEntry& e : *list) {
    for (int d = 0; d < kKeyDigits; ++d) ++hist[d][Digit(e, d)];
  }
  buffer->resize(n);
  ListEntry* src = list->data();
  ListEntry* dst = buffer->data();
  for (int d = 0; d < kKeyDigits; ++d) {
    std::array<uint32_t, 256>& slot = hist[d];
    if (slot[Digit(src[0], d)] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : slot) {
      const uint32_t count = c;
      c = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) dst[slot[Digit(src[i], d)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != list->data()) std::copy(src, src + n, list->data());
}

/// Entries in the partial-list prefix of a `size`-entry list: the top
/// `fraction` (clamped to [0, 1]) with ceil rounding.
std::size_t PrefixLength(std::size_t size, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  return static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(size)));
}

}  // namespace

WordScoreLists WordScoreLists::Build(const InvertedIndex& inverted,
                                     const ForwardIndex& forward,
                                     const PhraseDictionary& dict,
                                     std::span<const TermId> terms) {
  WordScoreLists result;
  for (TermId t : terms) {
    if (result.lists_.contains(t)) continue;
    result.lists_.emplace(t, BuildOne(inverted, forward, dict, t));
  }
  return result;
}

WordScoreLists WordScoreLists::BuildAll(const InvertedIndex& inverted,
                                        const ForwardIndex& forward,
                                        const PhraseDictionary& dict,
                                        uint32_t min_term_df) {
  WordScoreLists result;
  for (TermId t = 0; t < inverted.num_terms(); ++t) {
    if (inverted.df(t) < min_term_df) continue;
    result.lists_.emplace(t, BuildOne(inverted, forward, dict, t));
  }
  return result;
}

// The one score-list builder: count phrase co-occurrences over docs(term)
// in the dense per-thread array, normalize by df(p), and radix-sort by
// (prob desc, id asc). The touched list supplies the ids, so the cost is
// O(co-occurrences + list length), independent of the dictionary size.
SharedWordList WordScoreLists::BuildOne(const InvertedIndex& inverted,
                                        const ForwardIndex& forward,
                                        const PhraseDictionary& dict,
                                        TermId term) {
  PM_CHECK_MSG(forward.storage() == ForwardStorage::kFull,
               "word lists are built from the full forward index");
  thread_local BuildScratch scratch;
  std::vector<uint32_t>& counts = scratch.counts;
  if (counts.size() < dict.size()) counts.resize(dict.size(), 0);
  scratch.touched.clear();
  for (DocId d : inverted.docs(term)) {
    for (PhraseId p : forward.stored(d)) {
      if (counts[p]++ == 0) scratch.touched.push_back(p);
    }
  }
  // Zero scores are omitted (Section 4.2.2): only touched phrases enter.
  std::vector<ListEntry> list;
  list.reserve(scratch.touched.size());
  for (PhraseId p : scratch.touched) {
    const uint32_t df = dict.df(p);
    PM_CHECK_MSG(counts[p] <= df, "co-occurrence count exceeds phrase df");
    list.push_back(ListEntry{p, static_cast<double>(counts[p]) / df});
    counts[p] = 0;  // Keep the array all-zero for the next build.
  }
  RadixSortByScore(&list, &scratch.buffer);
  return std::make_shared<const std::vector<ListEntry>>(std::move(list));
}

std::span<const ListEntry> WordScoreLists::list(TermId term) const {
  auto it = lists_.find(term);
  if (it == lists_.end()) return {};
  return *it->second;
}

SharedWordList WordScoreLists::shared(TermId term) const {
  auto it = lists_.find(term);
  if (it == lists_.end()) return nullptr;
  return it->second;
}

void WordScoreLists::Insert(TermId term, SharedWordList list) {
  PM_CHECK_MSG(list != nullptr, "Insert requires a non-null list");
  lists_.try_emplace(term, std::move(list));
}

std::span<const ListEntry> WordScoreLists::Partial(TermId term,
                                                   double fraction) const {
  std::span<const ListEntry> full = list(term);
  return full.subspan(0, PrefixLength(full.size(), fraction));
}

std::size_t WordScoreLists::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& [term, list] : lists_) total += list->size();
  return total;
}

std::size_t WordScoreLists::EntriesAt(double fraction) const {
  std::size_t total = 0;
  for (const auto& [term, list] : lists_) {
    total += PrefixLength(list->size(), fraction);
  }
  return total;
}

std::size_t WordScoreLists::SizeBytes(double fraction) const {
  return EntriesAt(fraction) * kListEntryBytes;
}

std::size_t WordScoreLists::InMemoryBytes(double fraction) const {
  return EntriesAt(fraction) * kListEntryInMemoryBytes;
}

std::vector<TermId> WordScoreLists::Terms() const {
  std::vector<TermId> terms;
  terms.reserve(lists_.size());
  for (const auto& [term, list] : lists_) terms.push_back(term);
  return terms;
}

void WordScoreLists::Serialize(BinaryWriter* writer) const {
  // Terms in ascending id order: iteration over the unordered_map is not
  // deterministic, and the serialized bytes feed checksummed index file
  // sections where the same lists must always hash the same.
  std::vector<TermId> terms = Terms();
  std::sort(terms.begin(), terms.end());
  writer->PutU32(static_cast<uint32_t>(terms.size()));
  for (TermId term : terms) {
    const auto& list = lists_.at(term);
    writer->PutU32(term);
    writer->PutU64(list->size());
    for (const ListEntry& e : *list) {
      writer->PutU32(e.phrase);
      writer->PutDouble(e.prob);
    }
  }
}

Result<WordScoreLists> WordScoreLists::Deserialize(BinaryReader* reader,
                                                   SerializedLayout* layout) {
  const std::size_t origin = reader->position();
  uint32_t num_terms = 0;
  Status s = reader->GetU32(&num_terms);
  if (!s.ok()) return s;
  WordScoreLists result;
  for (uint32_t i = 0; i < num_terms; ++i) {
    uint32_t term = 0;
    uint64_t len = 0;
    s = reader->GetU32(&term);
    if (!s.ok()) return s;
    s = reader->GetU64(&len);
    if (!s.ok()) return s;
    // Oversize guard before allocating: each entry consumes kListEntryBytes
    // of payload, so a length prefix beyond the remaining bytes is corrupt.
    if (len > reader->Remaining() / kListEntryBytes) {
      return Status::Corruption("word list length exceeds remaining bytes");
    }
    if (layout != nullptr) {
      layout->entry_runs[term] = {reader->position() - origin, len};
    }
    std::vector<ListEntry> list(static_cast<std::size_t>(len));
    for (ListEntry& e : list) {
      s = reader->GetU32(&e.phrase);
      if (!s.ok()) return s;
      s = reader->GetDouble(&e.prob);
      if (!s.ok()) return s;
    }
    result.lists_.emplace(
        term, std::make_shared<const std::vector<ListEntry>>(std::move(list)));
  }
  return result;
}

WordIdOrderedLists::WordIdOrderedLists(double fraction)
    : fraction_(std::clamp(fraction, 0.0, 1.0)) {}

WordIdOrderedLists WordIdOrderedLists::Build(const WordScoreLists& score_lists,
                                             double fraction) {
  WordIdOrderedLists result(fraction);
  for (TermId t : score_lists.Terms()) {
    result.lists_.emplace(t, BuildRecord(score_lists.list(t), fraction));
  }
  return result;
}

WordIdOrderedLists::Record WordIdOrderedLists::BuildRecord(
    std::span<const ListEntry> score_list, double fraction) {
  const std::span<const ListEntry> prefix =
      score_list.subspan(0, PrefixLength(score_list.size(), fraction));
  std::vector<ListEntry> run(prefix.begin(), prefix.end());
  std::sort(run.begin(), run.end(),
            [](const ListEntry& a, const ListEntry& b) {
              return a.phrase < b.phrase;
            });
  auto soa = std::make_shared<const SoABlockList>(
      SoABlockList::FromIdOrdered(std::span<const ListEntry>(run)));
  return Record{std::make_shared<const std::vector<ListEntry>>(std::move(run)),
                std::move(soa)};
}

SharedWordList WordIdOrderedLists::MergeById(std::span<const ListEntry> base,
                                             std::span<const ListEntry> extras) {
  std::vector<ListEntry> merged;
  merged.reserve(base.size() + extras.size());
  std::merge(base.begin(), base.end(), extras.begin(), extras.end(),
             std::back_inserter(merged),
             [](const ListEntry& a, const ListEntry& b) {
               return a.phrase < b.phrase;
             });
  return std::make_shared<const std::vector<ListEntry>>(std::move(merged));
}

std::span<const ListEntry> WordIdOrderedLists::list(TermId term) const {
  auto it = lists_.find(term);
  if (it == lists_.end()) return {};
  return *it->second.entries;
}

const SoABlockList* WordIdOrderedLists::soa(TermId term) const {
  auto it = lists_.find(term);
  if (it == lists_.end()) return nullptr;
  return it->second.soa.get();
}

WordIdOrderedLists::Record WordIdOrderedLists::record(TermId term) const {
  auto it = lists_.find(term);
  if (it == lists_.end()) return {};
  return it->second;
}

void WordIdOrderedLists::Insert(TermId term, SharedWordList list,
                                SharedSoAList soa) {
  PM_CHECK_MSG(list != nullptr, "Insert requires a non-null list");
  if (soa == nullptr) {
    soa = std::make_shared<const SoABlockList>(
        SoABlockList::FromIdOrdered(std::span<const ListEntry>(*list)));
  }
  lists_.try_emplace(term, Record{std::move(list), std::move(soa)});
}

std::size_t WordIdOrderedLists::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& [term, stored] : lists_) total += stored.entries->size();
  return total;
}

}  // namespace phrasemine
