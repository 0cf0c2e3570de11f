#include "shapcq/data/column_store.h"

#include <algorithm>

#include "shapcq/util/check.h"

namespace shapcq {

namespace {
const std::vector<FactId> kEmptyPostings;
}  // namespace

RelationId ColumnStore::AddRelation(int arity) {
  SHAPCQ_CHECK(arity >= 0);
  Relation relation;
  relation.arity = arity;
  relation.columns.resize(static_cast<size_t>(arity));
  relation.postings.resize(static_cast<size_t>(arity));
  relations_.push_back(std::move(relation));
  return static_cast<RelationId>(relations_.size() - 1);
}

int ColumnStore::arity(RelationId relation) const {
  SHAPCQ_CHECK(relation >= 0 && relation < num_relations());
  return relations_[static_cast<size_t>(relation)].arity;
}

void ColumnStore::AddFact(RelationId relation, FactId fact,
                          const ValueId* args, int arity) {
  SHAPCQ_CHECK(relation >= 0 && relation < num_relations());
  Relation& rel = relations_[static_cast<size_t>(relation)];
  SHAPCQ_CHECK(arity == rel.arity);
  SHAPCQ_CHECK(rel.facts.empty() || rel.facts.back() < fact);
  rel.facts.push_back(fact);
  for (int position = 0; position < arity; ++position) {
    const ValueId value = args[position];
    rel.columns[static_cast<size_t>(position)].push_back(value);
    auto& by_value = rel.postings[static_cast<size_t>(position)];
    if (by_value.size() <= value) by_value.resize(value + 1);
    by_value[value].push_back(fact);
  }
}

const std::vector<FactId>& ColumnStore::Facts(RelationId relation) const {
  SHAPCQ_CHECK(relation >= 0 && relation < num_relations());
  return relations_[static_cast<size_t>(relation)].facts;
}

const std::vector<FactId>& ColumnStore::Postings(RelationId relation,
                                                 int position,
                                                 ValueId value) const {
  SHAPCQ_CHECK(relation >= 0 && relation < num_relations());
  const Relation& rel = relations_[static_cast<size_t>(relation)];
  SHAPCQ_CHECK(position >= 0 && position < rel.arity);
  const auto& by_value = rel.postings[static_cast<size_t>(position)];
  if (value >= by_value.size()) return kEmptyPostings;
  return by_value[value];
}

const std::vector<ValueId>& ColumnStore::Column(RelationId relation,
                                                int position) const {
  SHAPCQ_CHECK(relation >= 0 && relation < num_relations());
  const Relation& rel = relations_[static_cast<size_t>(relation)];
  SHAPCQ_CHECK(position >= 0 && position < rel.arity);
  return rel.columns[static_cast<size_t>(position)];
}

namespace {

bool IsDead(const std::vector<char>& dead, FactId fact) {
  return static_cast<size_t>(fact) < dead.size() &&
         dead[static_cast<size_t>(fact)] != 0;
}

}  // namespace

void ColumnStore::Compact(const std::vector<char>& dead,
                          std::vector<int32_t>* fact_row) {
  for (Relation& rel : relations_) {
    size_t write = 0;
    for (size_t row = 0; row < rel.facts.size(); ++row) {
      const FactId fact = rel.facts[row];
      if (IsDead(dead, fact)) continue;
      rel.facts[write] = fact;
      for (int position = 0; position < rel.arity; ++position) {
        auto& column = rel.columns[static_cast<size_t>(position)];
        column[write] = column[row];
      }
      if (fact_row != nullptr) {
        (*fact_row)[static_cast<size_t>(fact)] =
            static_cast<int32_t>(write);
      }
      ++write;
    }
    rel.facts.resize(write);
    for (int position = 0; position < rel.arity; ++position) {
      rel.columns[static_cast<size_t>(position)].resize(write);
    }
    for (auto& by_value : rel.postings) {
      for (std::vector<FactId>& list : by_value) {
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&dead](FactId fact) {
                                    return IsDead(dead, fact);
                                  }),
                   list.end());
      }
    }
  }
  if (fact_row != nullptr) {
    for (size_t fact = 0; fact < dead.size(); ++fact) {
      if (dead[fact] != 0) (*fact_row)[fact] = -1;
    }
  }
}

namespace {

// First index in [lo, list.size()) with list[index] >= target, found by
// galloping from `lo` then binary-searching the bracketed range.
size_t GallopTo(const std::vector<FactId>& list, size_t lo, FactId target) {
  size_t stride = 1;
  size_t hi = lo;
  while (hi < list.size() && list[hi] < target) {
    lo = hi + 1;
    hi += stride;
    stride *= 2;
  }
  hi = std::min(hi, list.size());
  return static_cast<size_t>(
      std::lower_bound(list.begin() + static_cast<long>(lo),
                       list.begin() + static_cast<long>(hi), target) -
      list.begin());
}

}  // namespace

std::vector<FactId> IntersectPostings(
    std::vector<const std::vector<FactId>*> lists) {
  SHAPCQ_CHECK(!lists.empty());
  // Smallest list first: it drives the galloping probes into the others.
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<FactId>* a, const std::vector<FactId>* b) {
              return a->size() < b->size();
            });
  std::vector<FactId> result;
  const std::vector<FactId>& smallest = *lists.front();
  result.reserve(smallest.size());
  std::vector<size_t> cursors(lists.size(), 0);
  for (FactId candidate : smallest) {
    bool in_all = true;
    for (size_t i = 1; i < lists.size(); ++i) {
      const std::vector<FactId>& list = *lists[i];
      size_t at = GallopTo(list, cursors[i], candidate);
      cursors[i] = at;
      if (at == list.size() || list[at] != candidate) {
        in_all = false;
        break;
      }
    }
    if (in_all) result.push_back(candidate);
  }
  return result;
}

std::vector<FactId> IntersectPostingsLive(
    std::vector<const std::vector<FactId>*> lists,
    const std::vector<char>& dead) {
  std::vector<FactId> result = IntersectPostings(std::move(lists));
  if (!dead.empty()) {
    result.erase(std::remove_if(result.begin(), result.end(),
                                [&dead](FactId fact) {
                                  return IsDead(dead, fact);
                                }),
                 result.end());
  }
  return result;
}

}  // namespace shapcq
