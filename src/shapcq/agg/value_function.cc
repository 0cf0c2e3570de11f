#include "shapcq/agg/value_function.h"

#include <algorithm>
#include <atomic>

#include "shapcq/util/check.h"

namespace shapcq {

namespace {

uint64_t NextValueFunctionId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ValueFunction::ValueFunction() : instance_id_(NextValueFunctionId()) {}

std::string ValueFunction::FingerprintToken() const {
  // Opaque functions get an identity-based token so a plan cache never
  // conflates two distinct callbacks that happen to share a display name.
  // The id is monotonic for the process lifetime — unlike a raw address,
  // it cannot recur after the object is destroyed.
  return ToString() + "@" + std::to_string(instance_id_);
}

namespace {

class ConstantTau : public ValueFunction {
 public:
  explicit ConstantTau(Rational c) : c_(std::move(c)) {}
  Rational Evaluate(const Tuple&) const override { return c_; }
  std::vector<int> DependsOn() const override { return {}; }
  std::string ToString() const override {
    return "const(" + c_.ToString() + ")";
  }
  std::string FingerprintToken() const override { return ToString(); }
  bool HasCanonicalFingerprint() const override { return true; }

 private:
  Rational c_;
};

class TauId : public ValueFunction {
 public:
  explicit TauId(int head_index) : head_index_(head_index) {
    SHAPCQ_CHECK(head_index >= 0);
  }
  Rational Evaluate(const Tuple& answer) const override {
    SHAPCQ_CHECK(head_index_ < static_cast<int>(answer.size()));
    return answer[static_cast<size_t>(head_index_)].AsRational();
  }
  std::vector<int> DependsOn() const override { return {head_index_}; }
  bool is_injective() const override { return true; }
  std::string ToString() const override {
    return "tau_id^" + std::to_string(head_index_ + 1);
  }
  std::string FingerprintToken() const override { return ToString(); }
  bool HasCanonicalFingerprint() const override { return true; }

 private:
  int head_index_;
};

class TauGreaterThan : public ValueFunction {
 public:
  TauGreaterThan(int head_index, Rational b)
      : head_index_(head_index), b_(std::move(b)) {
    SHAPCQ_CHECK(head_index >= 0);
  }
  Rational Evaluate(const Tuple& answer) const override {
    SHAPCQ_CHECK(head_index_ < static_cast<int>(answer.size()));
    return answer[static_cast<size_t>(head_index_)].AsRational() > b_
               ? Rational(1)
               : Rational(0);
  }
  std::vector<int> DependsOn() const override { return {head_index_}; }
  std::string ToString() const override {
    return "tau_>" + b_.ToString() + "^" + std::to_string(head_index_ + 1);
  }
  std::string FingerprintToken() const override { return ToString(); }
  bool HasCanonicalFingerprint() const override { return true; }

 private:
  int head_index_;
  Rational b_;
};

class TauReLU : public ValueFunction {
 public:
  explicit TauReLU(int head_index) : head_index_(head_index) {
    SHAPCQ_CHECK(head_index >= 0);
  }
  Rational Evaluate(const Tuple& answer) const override {
    SHAPCQ_CHECK(head_index_ < static_cast<int>(answer.size()));
    Rational v = answer[static_cast<size_t>(head_index_)].AsRational();
    return v > Rational(0) ? v : Rational(0);
  }
  std::vector<int> DependsOn() const override { return {head_index_}; }
  std::string ToString() const override {
    return "tau_ReLU^" + std::to_string(head_index_ + 1);
  }
  std::string FingerprintToken() const override { return ToString(); }
  bool HasCanonicalFingerprint() const override { return true; }

 private:
  int head_index_;
};

// Token names of the monoids: tau_<name>^<positions>, and <name>:<positions>
// in the text grammar (agg/spec.h).
const char* MonoidName(MonoidKind kind) {
  switch (kind) {
    case MonoidKind::kPlus:
      return "plus";
    case MonoidKind::kMax:
      return "maxof";
    case MonoidKind::kMin:
      return "minof";
  }
  SHAPCQ_UNREACHABLE();
}

class MonoidTau : public ValueFunction {
 public:
  MonoidTau(MonoidKind kind, std::vector<int> positions)
      : kind_(kind), positions_(std::move(positions)) {
    SHAPCQ_CHECK(!positions_.empty());
    for (int position : positions_) SHAPCQ_CHECK(position >= 0);
  }
  Rational Evaluate(const Tuple& answer) const override {
    Rational acc;
    for (size_t i = 0; i < positions_.size(); ++i) {
      SHAPCQ_CHECK(positions_[i] < static_cast<int>(answer.size()));
      Rational value = answer[static_cast<size_t>(positions_[i])].AsRational();
      acc = i == 0 ? std::move(value) : ApplyMonoid(kind_, acc, value);
    }
    return acc;
  }
  std::vector<int> DependsOn() const override { return positions_; }
  std::optional<MonoidKind> monoid() const override { return kind_; }
  std::string ToString() const override {
    std::string out = std::string("tau_") + MonoidName(kind_) + "^";
    for (size_t i = 0; i < positions_.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(positions_[i] + 1);
    }
    return out;
  }
  std::string FingerprintToken() const override { return ToString(); }
  bool HasCanonicalFingerprint() const override { return true; }

 private:
  MonoidKind kind_;
  std::vector<int> positions_;
};

class ComposedTau : public ValueFunction {
 public:
  ComposedTau(std::function<Rational(const Rational&)> gamma,
              ValueFunctionPtr inner, std::string name)
      : gamma_(std::move(gamma)), inner_(std::move(inner)),
        name_(std::move(name)) {
    SHAPCQ_CHECK(inner_ != nullptr);
  }
  Rational Evaluate(const Tuple& answer) const override {
    return gamma_(inner_->Evaluate(answer));
  }
  std::vector<int> DependsOn() const override { return inner_->DependsOn(); }
  std::string ToString() const override {
    return name_ + " o " + inner_->ToString();
  }

 private:
  std::function<Rational(const Rational&)> gamma_;
  ValueFunctionPtr inner_;
  std::string name_;
};

class CallbackTau : public ValueFunction {
 public:
  CallbackTau(std::function<Rational(const Tuple&)> fn,
              std::vector<int> depends_on, std::string name)
      : fn_(std::move(fn)), depends_on_(std::move(depends_on)),
        name_(std::move(name)) {}
  Rational Evaluate(const Tuple& answer) const override { return fn_(answer); }
  std::vector<int> DependsOn() const override { return depends_on_; }
  std::string ToString() const override { return name_; }

 private:
  std::function<Rational(const Tuple&)> fn_;
  std::vector<int> depends_on_;
  std::string name_;
};

}  // namespace

Rational ApplyMonoid(MonoidKind kind, const Rational& a, const Rational& b) {
  switch (kind) {
    case MonoidKind::kPlus:
      return a + b;
    case MonoidKind::kMax:
      return a > b ? a : b;
    case MonoidKind::kMin:
      return a < b ? a : b;
  }
  SHAPCQ_UNREACHABLE();
}

ValueFunctionPtr MakeConstantTau(Rational c) {
  return std::make_shared<ConstantTau>(std::move(c));
}

ValueFunctionPtr MakeTauId(int head_index) {
  return std::make_shared<TauId>(head_index);
}

ValueFunctionPtr MakeTauGreaterThan(int head_index, Rational b) {
  return std::make_shared<TauGreaterThan>(head_index, std::move(b));
}

ValueFunctionPtr MakeTauReLU(int head_index) {
  return std::make_shared<TauReLU>(head_index);
}

ValueFunctionPtr MakeMonoidTau(MonoidKind kind, std::vector<int> positions) {
  return std::make_shared<MonoidTau>(kind, std::move(positions));
}

ValueFunctionPtr MakeComposedTau(
    std::function<Rational(const Rational&)> gamma, ValueFunctionPtr inner,
    std::string name) {
  return std::make_shared<ComposedTau>(std::move(gamma), std::move(inner),
                                       std::move(name));
}

ValueFunctionPtr MakeCallbackTau(std::function<Rational(const Tuple&)> fn,
                                 std::vector<int> depends_on,
                                 std::string name) {
  return std::make_shared<CallbackTau>(std::move(fn), std::move(depends_on),
                                       std::move(name));
}

StatusOr<int> ParseHeadIndexSuffix(std::string_view digits) {
  if (digits.empty()) return InvalidArgumentError("missing head index");
  int value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9' || value > 100000000) {
      return InvalidArgumentError("bad head index in tau token");
    }
    value = value * 10 + (c - '0');
  }
  if (value > 100000000) {
    return InvalidArgumentError("bad head index in tau token");
  }
  if (value < 1) return InvalidArgumentError("head index must be >= 1");
  return value - 1;
}

namespace {

// Parses a non-empty comma-separated list of 1-based head indices.
StatusOr<std::vector<int>> ParseHeadIndexList(std::string_view text) {
  std::vector<int> positions;
  while (true) {
    const size_t comma = text.find(',');
    StatusOr<int> index = ParseHeadIndexSuffix(text.substr(0, comma));
    if (!index.ok()) return index.status();
    positions.push_back(*index);
    if (comma == std::string_view::npos) return positions;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace

StatusOr<ValueFunctionPtr> ParseCanonicalTauToken(std::string_view token) {
  constexpr std::string_view kConstPrefix = "const(";
  constexpr std::string_view kIdPrefix = "tau_id^";
  constexpr std::string_view kGreaterPrefix = "tau_>";
  constexpr std::string_view kReluPrefix = "tau_ReLU^";
  if (token.substr(0, kConstPrefix.size()) == kConstPrefix &&
      !token.empty() && token.back() == ')') {
    StatusOr<Rational> c = Rational::FromString(token.substr(
        kConstPrefix.size(), token.size() - kConstPrefix.size() - 1));
    if (!c.ok()) return c.status();
    return MakeConstantTau(std::move(c).value());
  }
  if (token.substr(0, kIdPrefix.size()) == kIdPrefix) {
    StatusOr<int> index =
        ParseHeadIndexSuffix(token.substr(kIdPrefix.size()));
    if (!index.ok()) return index.status();
    return MakeTauId(*index);
  }
  if (token.substr(0, kReluPrefix.size()) == kReluPrefix) {
    StatusOr<int> index =
        ParseHeadIndexSuffix(token.substr(kReluPrefix.size()));
    if (!index.ok()) return index.status();
    return MakeTauReLU(*index);
  }
  if (token.substr(0, kGreaterPrefix.size()) == kGreaterPrefix) {
    // The threshold may not contain '^' (rational rendering), so the last
    // '^' separates it from the head index.
    size_t caret = token.rfind('^');
    if (caret == std::string_view::npos || caret <= kGreaterPrefix.size()) {
      return InvalidArgumentError("malformed tau_> token");
    }
    StatusOr<Rational> b = Rational::FromString(
        token.substr(kGreaterPrefix.size(), caret - kGreaterPrefix.size()));
    if (!b.ok()) return b.status();
    StatusOr<int> index = ParseHeadIndexSuffix(token.substr(caret + 1));
    if (!index.ok()) return index.status();
    return MakeTauGreaterThan(*index, std::move(b).value());
  }
  for (MonoidKind kind :
       {MonoidKind::kPlus, MonoidKind::kMax, MonoidKind::kMin}) {
    const std::string prefix = std::string("tau_") + MonoidName(kind) + "^";
    if (token.substr(0, prefix.size()) != prefix) continue;
    StatusOr<std::vector<int>> positions =
        ParseHeadIndexList(token.substr(prefix.size()));
    if (!positions.ok()) return positions.status();
    return MakeMonoidTau(kind, std::move(positions).value());
  }
  return InvalidArgumentError("not a canonical tau token: " +
                              std::string(token));
}

std::vector<int> LocalizationAtoms(const ConjunctiveQuery& q,
                                   const ValueFunction& tau) {
  std::vector<int> depends_on = tau.DependsOn();
  std::vector<int> result;
  for (int a = 0; a < static_cast<int>(q.atoms().size()); ++a) {
    const Atom& atom = q.atoms()[static_cast<size_t>(a)];
    bool covers_all = true;
    for (int position : depends_on) {
      SHAPCQ_CHECK(position >= 0 && position < q.arity());
      const std::string& head_var = q.head()[static_cast<size_t>(position)];
      if (!atom.ContainsVariable(head_var)) {
        covers_all = false;
        break;
      }
    }
    if (covers_all) result.push_back(a);
  }
  return result;
}

Rational EvaluateTauOnFact(const ConjunctiveQuery& q, int atom_index,
                           const ValueFunction& tau, const Tuple& fact_args) {
  SHAPCQ_CHECK(atom_index >= 0 &&
               atom_index < static_cast<int>(q.atoms().size()));
  const Atom& atom = q.atoms()[static_cast<size_t>(atom_index)];
  SHAPCQ_CHECK(static_cast<int>(fact_args.size()) == atom.arity());
  Tuple answer(static_cast<size_t>(q.arity()), Value(0));
  for (int position : tau.DependsOn()) {
    const std::string& head_var = q.head()[static_cast<size_t>(position)];
    std::vector<int> atom_positions = atom.PositionsOf(head_var);
    SHAPCQ_CHECK(!atom_positions.empty() &&
                 "tau is not localized on this atom");
    answer[static_cast<size_t>(position)] =
        fact_args[static_cast<size_t>(atom_positions[0])];
  }
  return tau.Evaluate(answer);
}

}  // namespace shapcq
