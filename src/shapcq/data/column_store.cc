#include "shapcq/data/column_store.h"

#include <algorithm>

#include "shapcq/util/check.h"

// Instruction-set detection for the SIMD intersection kernel. SSE2 is part
// of the x86-64 baseline and NEON of the AArch64 baseline, so neither needs
// -march flags; anything else falls back to the scalar galloping path.
#if defined(SHAPCQ_SIMD)
#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define SHAPCQ_SIMD_SSE2 1
#include <emmintrin.h>
// AVX2 widens the block kernel to 8 lanes. It needs no -march flag: the
// kernel is compiled with a per-function target attribute and selected at
// runtime via cpuid, so the same binary runs on pre-AVX2 machines (GCC and
// Clang only; other compilers keep the SSE2 kernel).
#if defined(__GNUC__) || defined(__clang__)
#define SHAPCQ_SIMD_AVX2_DISPATCH 1
#include <immintrin.h>
#endif
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define SHAPCQ_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

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

int ColumnStore::num_delta_rows(RelationId relation) const {
  SHAPCQ_CHECK(relation >= 0 && relation < num_relations());
  const Relation& rel = relations_[static_cast<size_t>(relation)];
  return static_cast<int>(rel.facts.size() - rel.sealed_rows);
}

void ColumnStore::Seal() {
  for (Relation& rel : relations_) {
    rel.sealed_rows = rel.facts.size();
  }
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
    rel.sealed_rows = rel.facts.size();
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

#if defined(SHAPCQ_SIMD_SSE2) || defined(SHAPCQ_SIMD_NEON)

// Pairwise a ∩ b by galloping, a the smaller (driving) list.
std::vector<FactId> IntersectPairGallop(const std::vector<FactId>& a,
                                        const std::vector<FactId>& b) {
  std::vector<FactId> out;
  out.reserve(a.size());
  size_t cursor = 0;
  for (FactId candidate : a) {
    const size_t at = GallopTo(b, cursor, candidate);
    cursor = at;
    if (at == b.size()) break;
    if (b[at] == candidate) out.push_back(candidate);
  }
  return out;
}

// Length skew beyond which galloping beats the block compare even with
// SIMD: the block kernel is linear in |b|, galloping is |a|·log|b|.
constexpr size_t kSimdSkewLimit = 32;

// Pairwise a ∩ b for comparable lengths: broadcast the next candidate of
// `a` against a block of four elements of `b`. The inner step is
// branch-light — one compare + movemask per block — and both streams
// advance monotonically. Correctness of the block advance: ib += 4 only
// when b[ib+3] < x, so a candidate x present in b at position >= ib is
// never skipped; when b[ib+3] >= x and x is not in the block, x is not in
// b at all (b ascending), so the candidate advances instead.
std::vector<FactId> IntersectPairSimd(const std::vector<FactId>& a,
                                      const std::vector<FactId>& b) {
  static_assert(sizeof(FactId) == 4, "block kernel assumes 32-bit FactId");
  std::vector<FactId> out;
  out.reserve(std::min(a.size(), b.size()));
  size_t ia = 0;
  size_t ib = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (ia < na && ib + 4 <= nb) {
    const FactId x = a[ia];
#if defined(SHAPCQ_SIMD_SSE2)
    const __m128i xv = _mm_set1_epi32(x);
    const __m128i bv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + ib));
    const int mask = _mm_movemask_epi8(_mm_cmpeq_epi32(xv, bv));
    const bool hit = mask != 0;
#else  // SHAPCQ_SIMD_NEON
    const int32x4_t xv = vdupq_n_s32(x);
    const int32x4_t bv = vld1q_s32(b.data() + ib);
    const bool hit = vmaxvq_u32(vceqq_s32(xv, bv)) != 0;
#endif
    if (hit) {
      out.push_back(x);
      // Matches are rare relative to block steps; a short scalar scan
      // finds the lane and advances past it.
      while (b[ib] != x) ++ib;
      ++ib;
      ++ia;
    } else if (b[ib + 3] < x) {
      ib += 4;
    } else {
      ++ia;
    }
  }
  // Scalar merge tail for the last < 4 elements of b.
  while (ia < na && ib < nb) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      out.push_back(a[ia]);
      ++ia;
      ++ib;
    }
  }
  return out;
}

#if defined(SHAPCQ_SIMD_AVX2_DISPATCH)

// 8-lane widening of IntersectPairSimd. Same advance argument with block
// width 8: ib += 8 only when b[ib+7] < x, so no candidate present at a
// position >= ib is ever skipped.
__attribute__((target("avx2"))) std::vector<FactId> IntersectPairAvx2(
    const std::vector<FactId>& a, const std::vector<FactId>& b) {
  static_assert(sizeof(FactId) == 4, "block kernel assumes 32-bit FactId");
  std::vector<FactId> out;
  out.reserve(std::min(a.size(), b.size()));
  size_t ia = 0;
  size_t ib = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (ia < na && ib + 8 <= nb) {
    const FactId x = a[ia];
    const __m256i xv = _mm256_set1_epi32(x);
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + ib));
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi32(xv, bv));
    if (mask != 0) {
      out.push_back(x);
      while (b[ib] != x) ++ib;
      ++ib;
      ++ia;
    } else if (b[ib + 7] < x) {
      ib += 8;
    } else {
      ++ia;
    }
  }
  // Scalar merge tail for the last < 8 elements of b.
  while (ia < na && ib < nb) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      out.push_back(a[ia]);
      ++ia;
      ++ib;
    }
  }
  return out;
}

#endif  // SHAPCQ_SIMD_AVX2_DISPATCH

// The block-kernel entry point: the widest kernel this machine supports.
// The cpuid probe is cached in a function-local static, so the per-call
// cost is one predictable branch.
std::vector<FactId> IntersectPairBlock(const std::vector<FactId>& a,
                                       const std::vector<FactId>& b) {
#if defined(SHAPCQ_SIMD_AVX2_DISPATCH)
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) return IntersectPairAvx2(a, b);
#endif
  return IntersectPairSimd(a, b);
}

#endif  // SHAPCQ_SIMD_SSE2 || SHAPCQ_SIMD_NEON

}  // namespace

std::vector<FactId> IntersectPostingsScalar(
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

bool SimdIntersectionAvailable() {
#if defined(SHAPCQ_SIMD_SSE2) || defined(SHAPCQ_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

const char* SimdIntersectionKernelName() {
#if defined(SHAPCQ_SIMD_AVX2_DISPATCH)
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "sse2";
#elif defined(SHAPCQ_SIMD_SSE2)
  return "sse2";
#elif defined(SHAPCQ_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
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

std::vector<FactId> IntersectPostings(
    std::vector<const std::vector<FactId>*> lists) {
#if defined(SHAPCQ_SIMD_SSE2) || defined(SHAPCQ_SIMD_NEON)
  SHAPCQ_CHECK(!lists.empty());
  if (lists.size() == 1) return *lists.front();
  // Smallest-first pairwise reduction; intersection is associative and
  // each kernel produces the ascending set intersection, so the result is
  // identical to the multiway scalar path.
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<FactId>* a, const std::vector<FactId>* b) {
              return a->size() < b->size();
            });
  std::vector<FactId> current = [&] {
    const std::vector<FactId>& a = *lists[0];
    const std::vector<FactId>& b = *lists[1];
    if (a.empty() || b.size() / std::max<size_t>(a.size(), 1) >=
                         kSimdSkewLimit) {
      return IntersectPairGallop(a, b);
    }
    return IntersectPairBlock(a, b);
  }();
  for (size_t i = 2; i < lists.size() && !current.empty(); ++i) {
    const std::vector<FactId>& next = *lists[i];
    if (next.size() / current.size() >= kSimdSkewLimit) {
      current = IntersectPairGallop(current, next);
    } else {
      current = IntersectPairBlock(current, next);
    }
  }
  return current;
#else
  return IntersectPostingsScalar(std::move(lists));
#endif
}

}  // namespace shapcq
