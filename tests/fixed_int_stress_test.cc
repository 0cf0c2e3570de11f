// Differential stress tests for FixedInt and CountValue against the BigInt
// oracle: random add/sub/mul chains, overflow detection at the 256-bit
// boundary (including exact ±2^(64k) edges), the CountValue escape
// protocol, and the binomial recurrence ops. The counting core routes all
// of its hot arithmetic through these types, so any divergence from BigInt
// would silently corrupt Shapley scores.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/fixed_int.h"

namespace shapcq {
namespace {

// A random BigInt of roughly `bits` magnitude bits (possibly negative).
BigInt RandomBigInt(std::mt19937_64* rng, int bits) {
  BigInt value;
  for (int produced = 0; produced < bits; produced += 32) {
    value = value * BigInt::TwoPow(32) +
            BigInt(static_cast<int64_t>((*rng)() & 0xffffffffu));
  }
  if ((*rng)() & 1) value.Negate();
  return value;
}

// The oracle bound: a FixedInt holds magnitudes below 2^256.
const BigInt& FixedLimit() {
  static const BigInt limit = BigInt::TwoPow(64 * FixedInt::kLimbs);
  return limit;
}

bool FitsFixed(const BigInt& v) {
  return BigInt::Compare(v, FixedLimit()) < 0 &&
         BigInt::Compare(v, -FixedLimit()) > 0;
}

TEST(FixedIntStressTest, RoundTripThroughBigInt) {
  std::mt19937_64 rng(811);
  for (int trial = 0; trial < 2000; ++trial) {
    const int bits = static_cast<int>(rng() % 256);
    BigInt value = RandomBigInt(&rng, bits);
    FixedInt fixed;
    ASSERT_TRUE(FixedInt::FromBigInt(value, &fixed)) << value.ToString();
    EXPECT_EQ(fixed.ToBigInt(), value);
  }
}

TEST(FixedIntStressTest, FromBigIntRejectsOnlyOutOfRange) {
  std::mt19937_64 rng(822);
  for (int k = 1; k <= 2 * FixedInt::kLimbs + 2; ++k) {
    // Exact ±2^(64k) edges: 2^256 is the first magnitude that must fail.
    for (int sign : {1, -1}) {
      BigInt edge = BigInt::TwoPow(static_cast<uint64_t>(64 * k));
      if (sign < 0) edge.Negate();
      BigInt inside = sign > 0 ? edge - BigInt(1) : edge + BigInt(1);
      FixedInt fixed;
      EXPECT_EQ(FixedInt::FromBigInt(edge, &fixed), FitsFixed(edge))
          << "k=" << k << " sign=" << sign;
      ASSERT_TRUE(FitsFixed(inside) ==
                  FixedInt::FromBigInt(inside, &fixed));
      if (FitsFixed(inside)) {
        EXPECT_EQ(fixed.ToBigInt(), inside);
      }
    }
  }
  for (int trial = 0; trial < 500; ++trial) {
    BigInt big = RandomBigInt(&rng, 257 + static_cast<int>(rng() % 128));
    FixedInt fixed;
    EXPECT_EQ(FixedInt::FromBigInt(big, &fixed), FitsFixed(big));
  }
}

TEST(FixedIntStressTest, AddSubMulAgreeWithBigIntIncludingOverflow) {
  std::mt19937_64 rng(833);
  for (int trial = 0; trial < 4000; ++trial) {
    // Bias sizes toward the 256-bit boundary so overflow paths fire often.
    const int bits_a = static_cast<int>(rng() % 280);
    const int bits_b = static_cast<int>(rng() % 280);
    BigInt a = RandomBigInt(&rng, bits_a);
    BigInt b = RandomBigInt(&rng, bits_b);
    FixedInt fa;
    FixedInt fb;
    if (!FixedInt::FromBigInt(a, &fa) || !FixedInt::FromBigInt(b, &fb)) {
      continue;
    }
    FixedInt out;
    const BigInt sum = a + b;
    if (FixedInt::Add(fa, fb, &out)) {
      EXPECT_EQ(out.ToBigInt(), sum);
    } else {
      EXPECT_FALSE(FitsFixed(sum)) << a.ToString() << " + " << b.ToString();
    }
    const BigInt diff = a - b;
    if (FixedInt::Sub(fa, fb, &out)) {
      EXPECT_EQ(out.ToBigInt(), diff);
    } else {
      EXPECT_FALSE(FitsFixed(diff));
    }
    const BigInt product = a * b;
    if (FixedInt::Mul(fa, fb, &out)) {
      EXPECT_EQ(out.ToBigInt(), product);
    } else {
      EXPECT_FALSE(FitsFixed(product));
    }
  }
}

TEST(FixedIntStressTest, AliasingSafeInPlaceOps) {
  std::mt19937_64 rng(844);
  for (int trial = 0; trial < 2000; ++trial) {
    BigInt a = RandomBigInt(&rng, static_cast<int>(rng() % 250));
    BigInt b = RandomBigInt(&rng, static_cast<int>(rng() % 250));
    FixedInt fa;
    FixedInt fb;
    ASSERT_TRUE(FixedInt::FromBigInt(a, &fa));
    ASSERT_TRUE(FixedInt::FromBigInt(b, &fb));
    // out aliases the first, then the second operand.
    FixedInt alias = fa;
    if (FixedInt::Add(alias, fb, &alias)) {
      EXPECT_EQ(alias.ToBigInt(), a + b);
    }
    alias = fb;
    if (FixedInt::Sub(fa, alias, &alias)) {
      EXPECT_EQ(alias.ToBigInt(), a - b);
    }
    alias = fa;
    if (FixedInt::Mul(alias, alias, &alias)) {
      EXPECT_EQ(alias.ToBigInt(), a * a);
    }
  }
}

TEST(FixedIntStressTest, MulSmallAndExactDivision) {
  std::mt19937_64 rng(855);
  for (int trial = 0; trial < 2000; ++trial) {
    BigInt a = RandomBigInt(&rng, static_cast<int>(rng() % 260));
    const uint32_t m = static_cast<uint32_t>(rng() % 1000 + 1);
    FixedInt fa;
    if (!FixedInt::FromBigInt(a, &fa)) continue;
    FixedInt product;
    const BigInt expected = a * BigInt(static_cast<int64_t>(m));
    if (FixedInt::MulSmall(fa, m, &product)) {
      EXPECT_EQ(product.ToBigInt(), expected);
      // The product is divisible by m by construction; division must
      // invert the multiplication exactly.
      product.DivSmallExact(m);
      EXPECT_EQ(product.ToBigInt(), a);
    } else {
      EXPECT_FALSE(FitsFixed(expected));
    }
  }
}

// CountValue: long random accumulation chains crossing the escape
// boundary in both directions of magnitude, checked against a pure-BigInt
// shadow at every step.
TEST(CountValueStressTest, AccumulationChainsMatchBigIntOracle) {
  std::mt19937_64 rng(866);
  for (int chain = 0; chain < 200; ++chain) {
    CountValue acc;
    BigInt shadow;
    for (int step = 0; step < 60; ++step) {
      const int op = static_cast<int>(rng() % 4);
      // Operand sizes up to ~300 bits force escapes mid-chain.
      BigInt operand = RandomBigInt(&rng, static_cast<int>(rng() % 300));
      switch (op) {
        case 0:
          acc += CountValue(operand);
          shadow += operand;
          break;
        case 1:
          acc -= CountValue(operand);
          shadow -= operand;
          break;
        case 2: {
          BigInt factor = RandomBigInt(&rng, static_cast<int>(rng() % 150));
          acc.AddProduct(CountValue(operand), CountValue(factor));
          shadow += operand * factor;
          break;
        }
        case 3: {
          BigInt factor = RandomBigInt(&rng, static_cast<int>(rng() % 150));
          acc.AddProduct(CountValue(operand), factor);
          shadow += operand * factor;
          break;
        }
      }
      ASSERT_EQ(acc.ToBigInt(), shadow) << "chain " << chain << " step "
                                        << step;
    }
  }
}

TEST(CountValueStressTest, EscapeIsMonotoneAndExactAtTheBoundary) {
  // Walk an accumulator across 2^256 by repeated doubling: values stay
  // exact through the promotion, and the representation never demotes.
  CountValue acc(1);
  BigInt shadow(1);
  bool seen_big = false;
  for (int step = 0; step < 300; ++step) {
    acc.AddProduct(acc, CountValue(1));  // acc += acc  (doubling)
    shadow += shadow;
    ASSERT_EQ(acc.ToBigInt(), shadow);
    if (seen_big) {
      EXPECT_TRUE(acc.is_big());
    }
    seen_big = seen_big || acc.is_big();
  }
  EXPECT_TRUE(seen_big);
  // ±2^(64k) edges through the CountValue constructor.
  for (int k = 0; k <= 5; ++k) {
    BigInt edge = BigInt::TwoPow(static_cast<uint64_t>(64 * k));
    for (int sign : {1, -1}) {
      BigInt value = sign > 0 ? edge : -edge;
      CountValue cv(value);
      EXPECT_EQ(cv.ToBigInt(), value);
      EXPECT_EQ(cv.is_big(), k >= FixedInt::kLimbs);
    }
  }
}

TEST(CountValueStressTest, CountRowMatchesBinomialRow) {
  Combinatorics comb;
  // n = 300 crosses the 256-bit boundary near the middle of the row
  // (C(300, 150) has ~296 bits), so both representations are exercised.
  for (int64_t n : {0, 1, 2, 7, 33, 64, 257, 300}) {
    const std::vector<BigInt>& reference = comb.BinomialRow(n);
    const std::vector<CountValue>& row = comb.CountRow(n);
    ASSERT_EQ(row.size(), reference.size()) << "n=" << n;
    for (size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k].ToBigInt(), reference[k]) << "n=" << n << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace shapcq
