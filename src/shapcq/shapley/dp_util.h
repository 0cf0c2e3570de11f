// Shared helpers for the subset-counting dynamic programs.

#ifndef SHAPCQ_SHAPLEY_DP_UTIL_H_
#define SHAPCQ_SHAPLEY_DP_UTIL_H_

#include <vector>

#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

// Polynomial (convolution) product of two count vectors:
// out[k] = Σ_j a[j]·b[k−j]. Empty inputs are treated as the zero polynomial.
std::vector<BigInt> Convolve(const std::vector<BigInt>& a,
                             const std::vector<BigInt>& b);

// [C(m,0), C(m,1), ..., C(m,m)].
std::vector<BigInt> BinomialVector(int m, Combinatorics* comb);

// Counts after adding `pad` endogenous facts that never affect the query:
// out[k] = Σ_j c[j]·C(pad, k−j).
std::vector<BigInt> PadCounts(const std::vector<BigInt>& counts, int pad,
                              Combinatorics* comb);

// Element-wise difference a − b (same length).
std::vector<BigInt> SubtractCounts(const std::vector<BigInt>& a,
                                   const std::vector<BigInt>& b);

// The quotient q with Convolve(q, divisor) == counts, for a divisor with
// divisor[0] == 1 that divides counts exactly — counts is a product of
// subset-count polynomials and divisor one of its factors. Long division
// from k = 0: q[k] = counts[k] − Σ_{j≥1} divisor[j]·q[k−j].
std::vector<BigInt> DivideCounts(const std::vector<BigInt>& counts,
                                 const std::vector<BigInt>& divisor);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_DP_UTIL_H_
