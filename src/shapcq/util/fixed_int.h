// Fixed-width counting integers: the allocation-free fast path of the
// counting core.
//
// The circuit model-counting passes, the Avg/Quantile DP, and the
// binomial rows they smooth with spend almost all of their time on
// integers that fit comfortably in a couple of machine words — BigInt pays
// a heap allocation per temporary anyway. FixedInt is a sign-magnitude
// integer with kLimbs inline 64-bit limbs (256 bits of magnitude) whose
// every operation DETECTS overflow instead of wrapping: each op reports
// whether the exact result still fits, so callers can escape to arbitrary
// precision instead of losing bits.
//
// CountValue packages that escape protocol. It starts as a FixedInt and
// promotes itself to a heap BigInt the first time an operation would
// overflow; once promoted it stays big (monotone escape — no oscillation).
// All arithmetic is exact in either representation, so a computation
// routed through CountValue produces values identical to a pure-BigInt
// computation — the final ToBigInt()/Rational conversion is canonical and
// scores stay bitwise-identical.

#ifndef SHAPCQ_UTIL_FIXED_INT_H_
#define SHAPCQ_UTIL_FIXED_INT_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "shapcq/util/bigint.h"
#include "shapcq/util/check.h"

namespace shapcq {

class FixedInt {
 public:
  static constexpr int kLimbs = 4;  // 256-bit magnitude

  constexpr FixedInt() : sign_(0), limbs_{} {}
  explicit FixedInt(int64_t value) : sign_(0), limbs_{} {
    if (value != 0) {
      sign_ = value < 0 ? -1 : 1;
      // Two's-complement-safe |value| (INT64_MIN included).
      limbs_[0] = value < 0
                      ? static_cast<uint64_t>(-(value + 1)) + 1
                      : static_cast<uint64_t>(value);
    }
  }

  int sign() const { return sign_; }
  bool is_zero() const { return sign_ == 0; }
  void Negate() { sign_ = -sign_; }

  // out = a ± b / a · b. Return false when the exact magnitude needs a
  // fifth limb; *out is unspecified then (callers keep the inputs and
  // escape to BigInt). Aliasing out with a or b is allowed.
  static bool Add(const FixedInt& a, const FixedInt& b, FixedInt* out) {
    if (a.sign_ == 0) {
      *out = b;
      return true;
    }
    if (b.sign_ == 0) {
      *out = a;
      return true;
    }
    if (a.sign_ == b.sign_) {
      const int sign = a.sign_;
      if (!AddMagnitude(a, b, out)) return false;
      out->sign_ = sign;
      return true;
    }
    const int cmp = CompareMagnitude(a, b);
    if (cmp == 0) {
      *out = FixedInt();
      return true;
    }
    const int sign = cmp > 0 ? a.sign_ : b.sign_;
    if (cmp > 0) {
      SubMagnitude(a, b, out);
    } else {
      SubMagnitude(b, a, out);
    }
    out->sign_ = sign;
    return true;
  }

  static bool Sub(const FixedInt& a, const FixedInt& b, FixedInt* out) {
    FixedInt negated = b;
    negated.sign_ = -negated.sign_;
    return Add(a, negated, out);
  }

  static bool Mul(const FixedInt& a, const FixedInt& b, FixedInt* out) {
    if (a.sign_ == 0 || b.sign_ == 0) {
      *out = FixedInt();
      return true;
    }
    uint64_t wide[2 * kLimbs] = {};
    for (int i = 0; i < kLimbs; ++i) {
      uint64_t carry = 0;
      for (int j = 0; j < kLimbs; ++j) {
        const unsigned __int128 cur =
            static_cast<unsigned __int128>(a.limbs_[i]) * b.limbs_[j] +
            wide[i + j] + carry;
        wide[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      wide[i + kLimbs] = carry;
    }
    for (int i = kLimbs; i < 2 * kLimbs; ++i) {
      if (wide[i] != 0) return false;
    }
    const int sign = a.sign_ * b.sign_;
    std::memcpy(out->limbs_, wide, sizeof(out->limbs_));
    out->sign_ = sign;
    return true;
  }

  // out = a · m for a small factor.
  static bool MulSmall(const FixedInt& a, uint32_t m, FixedInt* out) {
    if (a.sign_ == 0 || m == 0) {
      *out = FixedInt();
      return true;
    }
    uint64_t carry = 0;
    for (int i = 0; i < kLimbs; ++i) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limbs_[i]) * m + carry;
      out->limbs_[i] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out->sign_ = a.sign_;
    return carry == 0;
  }

  // In-place exact division by a small divisor (the binomial recurrence);
  // aborts if the division leaves a remainder. Never overflows.
  void DivSmallExact(uint32_t divisor) {
    SHAPCQ_CHECK(divisor != 0);
    uint64_t remainder = 0;
    for (int i = kLimbs - 1; i >= 0; --i) {
      const unsigned __int128 cur =
          (static_cast<unsigned __int128>(remainder) << 64) | limbs_[i];
      limbs_[i] = static_cast<uint64_t>(cur / divisor);
      remainder = static_cast<uint64_t>(cur % divisor);
    }
    SHAPCQ_CHECK(remainder == 0);
    if (sign_ != 0) {
      bool zero = true;
      for (int i = 0; i < kLimbs; ++i) zero = zero && limbs_[i] == 0;
      if (zero) sign_ = 0;
    }
  }

  BigInt ToBigInt() const {
    return BigInt::FromMagnitude64(limbs_, kLimbs, sign_);
  }

  // Packs `value` into *out when its magnitude fits kLimbs limbs.
  static bool FromBigInt(const BigInt& value, FixedInt* out) {
    const int limbs32 = value.num_limbs32();
    if (limbs32 > 2 * kLimbs) return false;
    *out = FixedInt();
    for (int i = 0; i < limbs32; ++i) {
      out->limbs_[i / 2] |= static_cast<uint64_t>(value.limb32(i))
                            << (32 * (i % 2));
    }
    out->sign_ = value.sign();
    return true;
  }

  // Exact equality; the unused high limbs are always zero, so the
  // representation is canonical and memcmp-comparable.
  friend bool operator==(const FixedInt& a, const FixedInt& b) {
    return a.sign_ == b.sign_ &&
           std::memcmp(a.limbs_, b.limbs_, sizeof(a.limbs_)) == 0;
  }
  friend bool operator!=(const FixedInt& a, const FixedInt& b) {
    return !(a == b);
  }

 private:
  // -1 / 0 / +1 as |a| <=> |b|.
  static int CompareMagnitude(const FixedInt& a, const FixedInt& b) {
    for (int i = kLimbs - 1; i >= 0; --i) {
      if (a.limbs_[i] != b.limbs_[i]) {
        return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
      }
    }
    return 0;
  }

  // |out| = |a| + |b|; false on carry out of the top limb. Elementwise, so
  // aliasing out with an input is safe.
  static bool AddMagnitude(const FixedInt& a, const FixedInt& b,
                           FixedInt* out) {
    uint64_t carry = 0;
    for (int i = 0; i < kLimbs; ++i) {
      const unsigned __int128 sum =
          static_cast<unsigned __int128>(a.limbs_[i]) + b.limbs_[i] + carry;
      out->limbs_[i] = static_cast<uint64_t>(sum);
      carry = static_cast<uint64_t>(sum >> 64);
    }
    return carry == 0;
  }

  // |out| = |big| − |small|; requires |big| >= |small|.
  static void SubMagnitude(const FixedInt& big, const FixedInt& small,
                           FixedInt* out) {
    uint64_t borrow = 0;
    for (int i = 0; i < kLimbs; ++i) {
      const uint64_t subtrahend = small.limbs_[i];
      const uint64_t minuend = big.limbs_[i];
      const uint64_t diff = minuend - subtrahend - borrow;
      borrow = (minuend < subtrahend || (borrow && minuend == subtrahend))
                   ? 1
                   : 0;
      out->limbs_[i] = diff;
    }
  }

  int sign_;                 // -1, 0, +1; zero iff all limbs are zero
  uint64_t limbs_[kLimbs];   // little-endian magnitude
};

// An exact counter that starts fixed-width and escapes to a heap BigInt
// on the first overflow. The hot counting loops (polynomial convolution,
// delta-series accumulation, binomial recurrences) run entirely inline in
// the common case; values past 2^256 stay exact through the big path.
class CountValue {
 public:
  CountValue() = default;
  // Intentionally implicit, mirroring BigInt: integer literals work
  // wherever counts are expected.
  CountValue(int64_t value) : small_(value) {}  // NOLINT
  CountValue(int value) : small_(static_cast<int64_t>(value)) {}  // NOLINT
  explicit CountValue(const BigInt& value) {
    if (!FixedInt::FromBigInt(value, &small_)) {
      big_ = std::make_unique<BigInt>(value);
    }
  }

  CountValue(const CountValue& other) : small_(other.small_) {
    if (other.big_) big_ = std::make_unique<BigInt>(*other.big_);
  }
  CountValue& operator=(const CountValue& other) {
    if (this != &other) {
      small_ = other.small_;
      big_ = other.big_ ? std::make_unique<BigInt>(*other.big_) : nullptr;
    }
    return *this;
  }
  CountValue(CountValue&&) = default;
  CountValue& operator=(CountValue&&) = default;

  bool is_big() const { return big_ != nullptr; }
  bool is_zero() const { return big_ ? big_->is_zero() : small_.is_zero(); }

  CountValue& operator+=(const CountValue& other) {
    if (!big_ && !other.big_) {
      FixedInt sum;
      if (FixedInt::Add(small_, other.small_, &sum)) {
        small_ = sum;
        return *this;
      }
    }
    MakeBig();
    *big_ += other.big_ ? *other.big_ : other.small_.ToBigInt();
    return *this;
  }

  CountValue& operator-=(const CountValue& other) {
    if (!big_ && !other.big_) {
      FixedInt diff;
      if (FixedInt::Sub(small_, other.small_, &diff)) {
        small_ = diff;
        return *this;
      }
    }
    MakeBig();
    *big_ -= other.big_ ? *other.big_ : other.small_.ToBigInt();
    return *this;
  }

  // this += a · b — the convolution kernel's fused op: no temporaries and
  // no allocation while everything fits.
  void AddProduct(const CountValue& a, const CountValue& b) {
    if (!big_ && !a.big_ && !b.big_) {
      FixedInt product;
      FixedInt sum;
      if (FixedInt::Mul(a.small_, b.small_, &product) &&
          FixedInt::Add(small_, product, &sum)) {
        small_ = sum;
        return;
      }
    }
    MakeBig();
    *big_ += (a.big_ ? *a.big_ : a.small_.ToBigInt()) *
             (b.big_ ? *b.big_ : b.small_.ToBigInt());
  }

  // this += a · b for a BigInt factor (the delta-series accumulation,
  // where satisfaction counts arrive as BigInt).
  void AddProduct(const CountValue& a, const BigInt& b) {
    if (!big_ && !a.big_) {
      FixedInt fixed_b;
      FixedInt product;
      FixedInt sum;
      if (FixedInt::FromBigInt(b, &fixed_b) &&
          FixedInt::Mul(a.small_, fixed_b, &product) &&
          FixedInt::Add(small_, product, &sum)) {
        small_ = sum;
        return;
      }
    }
    MakeBig();
    *big_ += (a.big_ ? *a.big_ : a.small_.ToBigInt()) * b;
  }

  // The binomial-row recurrence ops: multiply by a small factor, divide
  // exactly by a small divisor.
  void MulSmall(uint32_t m) {
    if (!big_) {
      FixedInt product;
      if (FixedInt::MulSmall(small_, m, &product)) {
        small_ = product;
        return;
      }
      MakeBig();
    }
    *big_ *= BigInt(static_cast<int64_t>(m));
  }
  void DivSmallExact(uint32_t divisor) {
    if (!big_) {
      small_.DivSmallExact(divisor);
      return;
    }
    *big_ /= BigInt(static_cast<int64_t>(divisor));
  }

  BigInt ToBigInt() const { return big_ ? *big_ : small_.ToBigInt(); }
  std::string ToString() const { return ToBigInt().ToString(); }

  // Numeric equality across representations.
  friend bool operator==(const CountValue& x, const CountValue& y) {
    if (!x.big_ && !y.big_) return x.small_ == y.small_;
    return x.ToBigInt() == y.ToBigInt();
  }
  friend bool operator!=(const CountValue& x, const CountValue& y) {
    return !(x == y);
  }

 private:
  void MakeBig() {
    if (!big_) big_ = std::make_unique<BigInt>(small_.ToBigInt());
  }

  // small_ is authoritative iff big_ is null; after promotion it is stale
  // and never read.
  FixedInt small_;
  std::unique_ptr<BigInt> big_;
};

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_FIXED_INT_H_
