#include "shapcq/shapley/dp_util.h"

#include "shapcq/util/check.h"

namespace shapcq {

std::vector<BigInt> Convolve(const std::vector<BigInt>& a,
                             const std::vector<BigInt>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<BigInt> out(a.size() + b.size() - 1);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_zero()) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      if (b[j].is_zero()) continue;
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<BigInt> BinomialVector(int m, Combinatorics* comb) {
  SHAPCQ_CHECK(m >= 0);
  return comb->BinomialRow(m);
}

std::vector<BigInt> PadCounts(const std::vector<BigInt>& counts, int pad,
                              Combinatorics* comb) {
  if (pad == 0) return counts;
  return Convolve(counts, comb->BinomialRow(pad));
}

std::vector<BigInt> SubtractCounts(const std::vector<BigInt>& a,
                                   const std::vector<BigInt>& b) {
  SHAPCQ_CHECK(a.size() == b.size());
  std::vector<BigInt> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<BigInt> DivideCounts(const std::vector<BigInt>& counts,
                                 const std::vector<BigInt>& divisor) {
  SHAPCQ_CHECK(!divisor.empty() && divisor[0] == BigInt(1));
  SHAPCQ_CHECK(counts.size() >= divisor.size());
  std::vector<BigInt> quotient(counts.size() - divisor.size() + 1);
  for (size_t k = 0; k < quotient.size(); ++k) {
    BigInt rest = counts[k];
    for (size_t j = 1; j < divisor.size() && j <= k; ++j) {
      if (!divisor[j].is_zero()) rest -= divisor[j] * quotient[k - j];
    }
    quotient[k] = std::move(rest);
  }
  return quotient;
}

}  // namespace shapcq
