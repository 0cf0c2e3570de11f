// Experiment E10: the counting core, microbenched layer by layer.
//
// (a) Circuit model counting: the production CountModelsBySize (arena
//     spans + fixed-width CountValue integers) against an in-bench
//     baseline that replays the pre-arena design — one heap vector per
//     node and pure-BigInt weight polynomials. Both run on the *same*
//     compiled circuit and the results are asserted bitwise identical, so
//     the table isolates the memory-layout/arithmetic win with zero
//     algorithmic difference. Target: >= 2x.
//
// (b) Posting-list intersection: IntersectPostings (galloping from the
//     smaller list) on three length skews, each result checked against
//     std::set_intersection.
//
// Alloc telemetry (bench_util.h's counting operator new) shows how many
// heap bytes each side touches — the arena/fixed-width point is that the
// fast path allocates orders of magnitude less.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <random>
#include <vector>

#include "bench_util.h"
#include "shapcq/data/column_store.h"
#include "shapcq/lineage/circuit.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"

using namespace shapcq;  // NOLINT

namespace {

// --- the pre-arena baseline, replayed ------------------------------------
//
// Same algorithm as CountModelsBySize, but with the old data layout: each
// node owns std::vector<int> vars/children, and every polynomial entry is
// a heap BigInt. Built from the production circuit so both sides count the
// same DAG.

struct BaselineNode {
  LineageCircuit::NodeKind kind;
  int var = -1;
  int hi = -1;
  int lo = -1;
  std::vector<int> vars;
  std::vector<int> children;
};

std::vector<BaselineNode> ToPointerNodes(const LineageCircuit& circuit) {
  std::vector<BaselineNode> nodes;
  nodes.reserve(circuit.nodes.size());
  for (const LineageCircuit::Node& node : circuit.nodes) {
    BaselineNode b;
    b.kind = node.kind;
    b.var = node.var;
    b.hi = node.hi;
    b.lo = node.lo;
    b.vars.assign(circuit.vars(node).begin(), circuit.vars(node).end());
    b.children.assign(circuit.children(node).begin(),
                      circuit.children(node).end());
    nodes.push_back(std::move(b));
  }
  return nodes;
}

using BPoly = std::vector<BigInt>;

BPoly BConv(const BPoly& a, const BPoly& b, size_t max_len) {
  if (a.empty() || b.empty()) return {};
  size_t len = std::min(a.size() + b.size() - 1, max_len);
  BPoly c(len);
  for (size_t i = 0; i < a.size() && i < len; ++i) {
    if (a[i].is_zero()) continue;
    for (size_t j = 0; j < b.size() && i + j < len; ++j) {
      if (b[j].is_zero()) continue;
      c[i + j] += a[i] * b[j];
    }
  }
  return c;
}

BPoly BShift1(const BPoly& p, size_t max_len) {
  if (p.empty()) return {};
  BPoly shifted(std::min(p.size() + 1, max_len));
  for (size_t i = 0; i + 1 < max_len && i < p.size(); ++i) {
    shifted[i + 1] = p[i];
  }
  return shifted;
}

void BAddInto(BPoly* acc, const BPoly& add) {
  if (add.empty()) return;
  if (acc->size() < add.size()) acc->resize(add.size());
  for (size_t i = 0; i < add.size(); ++i) {
    if (!add[i].is_zero()) (*acc)[i] += add[i];
  }
}

std::vector<int> BGapVars(const std::vector<int>& parent,
                          const std::vector<int>& child, int skip_var) {
  std::vector<int> gap;
  std::set_difference(parent.begin(), parent.end(), child.begin(),
                      child.end(), std::back_inserter(gap));
  auto pos = std::lower_bound(gap.begin(), gap.end(), skip_var);
  if (pos != gap.end() && *pos == skip_var) gap.erase(pos);
  return gap;
}

CircuitModelCounts BaselineCountModelsBySize(
    const std::vector<BaselineNode>& nodes, int num_vars, int root_index,
    Combinatorics* comb) {
  const size_t max_len = static_cast<size_t>(num_vars) + 1;

  std::vector<BPoly> counts(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const BaselineNode& node = nodes[i];
    switch (node.kind) {
      case LineageCircuit::NodeKind::kFalse:
        break;
      case LineageCircuit::NodeKind::kTrue:
        counts[i] = {BigInt(1)};
        break;
      case LineageCircuit::NodeKind::kDecision: {
        const size_t len = node.vars.size() + 1;
        const BaselineNode& hi = nodes[static_cast<size_t>(node.hi)];
        const BaselineNode& lo = nodes[static_cast<size_t>(node.lo)];
        int64_t gap_hi = static_cast<int64_t>(node.vars.size()) - 1 -
                         static_cast<int64_t>(hi.vars.size());
        int64_t gap_lo = static_cast<int64_t>(node.vars.size()) - 1 -
                         static_cast<int64_t>(lo.vars.size());
        BPoly result =
            BConv(BShift1(counts[static_cast<size_t>(node.hi)], len),
                  comb->BinomialRow(gap_hi), len);
        BAddInto(&result, BConv(counts[static_cast<size_t>(node.lo)],
                                comb->BinomialRow(gap_lo), len));
        counts[i] = std::move(result);
        break;
      }
      case LineageCircuit::NodeKind::kAnd: {
        BPoly result = {BigInt(1)};
        for (int child : node.children) {
          result = BConv(result, counts[static_cast<size_t>(child)], max_len);
        }
        counts[i] = std::move(result);
        break;
      }
    }
  }

  CircuitModelCounts result;
  result.by_size.assign(max_len, BigInt());
  result.containing.resize(static_cast<size_t>(num_vars));
  auto add_containing = [&result, max_len](int v, const BPoly& add) {
    BPoly& acc = result.containing[static_cast<size_t>(v)];
    if (acc.empty()) acc.assign(max_len, BigInt());
    for (size_t i = 0; i < add.size(); ++i) {
      if (!add[i].is_zero()) acc[i] += add[i];
    }
  };

  const size_t root = static_cast<size_t>(root_index);
  std::vector<BPoly> ctx(nodes.size());
  {
    std::vector<int> all(static_cast<size_t>(num_vars));
    for (int v = 0; v < num_vars; ++v) all[static_cast<size_t>(v)] = v;
    std::vector<int> gap = BGapVars(all, nodes[root].vars, -1);
    const int64_t g = static_cast<int64_t>(gap.size());
    ctx[root] = comb->BinomialRow(g);
    BPoly total = BConv(counts[root], ctx[root], max_len);
    for (size_t k = 0; k < total.size(); ++k) result.by_size[k] = total[k];
    if (g > 0) {
      BPoly gap_models = BShift1(
          BConv(counts[root], comb->BinomialRow(g - 1), max_len), max_len);
      for (int u : gap) add_containing(u, gap_models);
    }
  }

  for (size_t i = root + 1; i-- > 2;) {
    if (i >= nodes.size() || ctx[i].empty()) continue;
    const BaselineNode& node = nodes[i];
    if (node.kind == LineageCircuit::NodeKind::kDecision) {
      const BaselineNode& hi = nodes[static_cast<size_t>(node.hi)];
      const BaselineNode& lo = nodes[static_cast<size_t>(node.lo)];
      std::vector<int> gap_hi = BGapVars(node.vars, hi.vars, node.var);
      std::vector<int> gap_lo = BGapVars(node.vars, lo.vars, node.var);
      const int64_t gh = static_cast<int64_t>(gap_hi.size());
      const int64_t gl = static_cast<int64_t>(gap_lo.size());
      BPoly through_hi = BShift1(
          BConv(ctx[i], counts[static_cast<size_t>(node.hi)], max_len),
          max_len);
      add_containing(node.var,
                     BConv(through_hi, comb->BinomialRow(gh), max_len));
      if (gh > 0) {
        BPoly gap_models = BConv(BShift1(through_hi, max_len),
                                 comb->BinomialRow(gh - 1), max_len);
        for (int u : gap_hi) add_containing(u, gap_models);
      }
      BAddInto(&ctx[static_cast<size_t>(node.hi)],
               BConv(BShift1(ctx[i], max_len), comb->BinomialRow(gh),
                     max_len));
      if (gl > 0) {
        BPoly through_lo =
            BConv(ctx[i], counts[static_cast<size_t>(node.lo)], max_len);
        BPoly gap_models = BConv(BShift1(through_lo, max_len),
                                 comb->BinomialRow(gl - 1), max_len);
        for (int u : gap_lo) add_containing(u, gap_models);
      }
      BAddInto(&ctx[static_cast<size_t>(node.lo)],
               BConv(ctx[i], comb->BinomialRow(gl), max_len));
    } else if (node.kind == LineageCircuit::NodeKind::kAnd) {
      const size_t r = node.children.size();
      std::vector<BPoly> prefix(r + 1);
      std::vector<BPoly> suffix(r + 1);
      prefix[0] = {BigInt(1)};
      suffix[r] = {BigInt(1)};
      for (size_t c = 0; c < r; ++c) {
        prefix[c + 1] = BConv(
            prefix[c], counts[static_cast<size_t>(node.children[c])], max_len);
      }
      for (size_t c = r; c-- > 0;) {
        suffix[c] = BConv(suffix[c + 1],
                          counts[static_cast<size_t>(node.children[c])],
                          max_len);
      }
      for (size_t c = 0; c < r; ++c) {
        BAddInto(&ctx[static_cast<size_t>(node.children[c])],
                 BConv(ctx[i], BConv(prefix[c], suffix[c + 1], max_len),
                       max_len));
      }
    }
  }

  for (auto& row : result.containing) {
    if (row.empty()) row.assign(max_len, BigInt());
  }
  return result;
}

bool SameCounts(const CircuitModelCounts& a, const CircuitModelCounts& b) {
  auto same_row = [](const std::vector<BigInt>& x,
                     const std::vector<BigInt>& y) {
    size_t len = std::max(x.size(), y.size());
    for (size_t i = 0; i < len; ++i) {
      const BigInt& xv = i < x.size() ? x[i] : BigInt();
      const BigInt& yv = i < y.size() ? y[i] : BigInt();
      if (!(xv == yv)) return false;
    }
    return true;
  };
  if (!same_row(a.by_size, b.by_size)) return false;
  if (a.containing.size() != b.containing.size()) return false;
  for (size_t v = 0; v < a.containing.size(); ++v) {
    if (!same_row(a.containing[v], b.containing[v])) return false;
  }
  return true;
}

// Block-chain lineage: clauses {r_i, s_{i,j}, t_j} over `groups` blocks —
// the structure the chain query Q(z) <- R(z,x), S(x,y), T(y) produces,
// which compiles into a decomposable circuit with real AND fan-in.
std::vector<std::vector<int>> BlockChainDnf(int groups, int block,
                                            int* num_vars) {
  std::vector<std::vector<int>> clauses;
  int next = 0;
  std::vector<int> r(static_cast<size_t>(groups * block));
  std::vector<int> t(static_cast<size_t>(groups * block));
  for (int& v : r) v = next++;
  for (int& v : t) v = next++;
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < block; ++i) {
      for (int j = 0; j < block; ++j) {
        int s = next++;
        clauses.push_back({r[static_cast<size_t>(g * block + i)], s,
                           t[static_cast<size_t>(g * block + j)]});
      }
    }
  }
  *num_vars = next;
  return clauses;
}

std::vector<FactId> MakePostings(int len, int stride, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<FactId> out;
  out.reserve(static_cast<size_t>(len));
  FactId v = 0;
  for (int i = 0; i < len; ++i) {
    v += 1 + static_cast<FactId>(rng() % static_cast<uint32_t>(stride));
    out.push_back(v);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  std::printf("E10: counting-core microbench — arena + fixed-width ints vs "
              "pointer/BigInt baseline\n");
  bench::Rule('=');
  std::printf("%8s %8s %12s %14s %10s %14s %14s\n", "vars", "nodes",
              "arena (ms)", "baseline (ms)", "speedup", "arena allocs",
              "base allocs");
  bench::Rule();

  const std::vector<std::pair<int, int>> configs =
      args.smoke ? std::vector<std::pair<int, int>>{{2, 2}, {3, 2}}
                 : std::vector<std::pair<int, int>>{
                       {1, 4}, {1, 5}, {2, 3}, {1, 6}};
  double worst_speedup = 1e300;
  for (const auto& [groups, block] : configs) {
    int num_vars = 0;
    std::vector<std::vector<int>> clauses =
        BlockChainDnf(groups, block, &num_vars);
    StatusOr<LineageCircuit> circuit = CompileDnf(clauses, num_vars);
    if (!circuit.ok()) {
      std::printf("compile failed for groups=%d block=%d vars=%d: %s\n",
                  groups, block, num_vars,
                  circuit.status().ToString().c_str());
      std::abort();
    }
    std::vector<BaselineNode> pointer_nodes = ToPointerNodes(*circuit);

    // Warm both binomial caches outside the timed region so neither side
    // pays first-touch cache building.
    Combinatorics comb;
    comb.BinomialRow(num_vars);
    comb.CountRow(num_vars);

    const int reps = args.smoke ? 1 : 3;
    CircuitModelCounts arena_counts;
    bench::AllocDelta arena_alloc;
    double arena_ms = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      double ms = bench::TimeMs([&] {
        arena_alloc = bench::MeasureAlloc(
            [&] { arena_counts = CountModelsBySize(*circuit, &comb); });
      });
      arena_ms = std::min(arena_ms, ms);
    }
    CircuitModelCounts baseline_counts;
    bench::AllocDelta baseline_alloc;
    double baseline_ms = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      double ms = bench::TimeMs([&] {
        baseline_alloc = bench::MeasureAlloc([&] {
          baseline_counts = BaselineCountModelsBySize(
              pointer_nodes, circuit->num_vars, circuit->root, &comb);
        });
      });
      baseline_ms = std::min(baseline_ms, ms);
    }
    // The whole point is a pure layout/arithmetic change: the two passes
    // must agree bit for bit.
    if (!SameCounts(arena_counts, baseline_counts)) std::abort();

    double speedup = baseline_ms / arena_ms;
    worst_speedup = std::min(worst_speedup, speedup);
    std::printf("%8d %8lld %12.2f %14.2f %9.2fx %14llu %14llu\n", num_vars,
                static_cast<long long>(circuit->num_nodes()), arena_ms,
                baseline_ms, speedup, arena_alloc.calls,
                baseline_alloc.calls);
    bench::JsonLine("counting_core_circuit")
        .Int("vars", num_vars)
        .Int("nodes", circuit->num_nodes())
        .Num("arena_ms", arena_ms)
        .Num("baseline_ms", baseline_ms)
        .Num("speedup", speedup)
        .Int("arena_alloc_bytes", static_cast<long long>(arena_alloc.bytes))
        .Int("arena_alloc_calls", static_cast<long long>(arena_alloc.calls))
        .Int("baseline_alloc_bytes",
             static_cast<long long>(baseline_alloc.bytes))
        .Int("baseline_alloc_calls",
             static_cast<long long>(baseline_alloc.calls))
        .Bool("bitwise_identical", true)
        .Int("peak_rss_bytes", static_cast<long long>(bench::PeakRssBytes()))
        .Emit();
  }
  bench::Rule();
  std::printf("worst-case speedup across configs: %.2fx (target >= 2x)\n\n",
              worst_speedup);

  // --- posting intersection ----------------------------------------------
  std::printf("posting intersection: IntersectPostings, checked against "
              "std::set_intersection\n");
  bench::Rule('=');
  std::printf("%22s %12s %12s\n", "shape", "ms", "result len");
  bench::Rule();
  struct Shape {
    const char* name;
    int len_a, stride_a, len_b, stride_b;
  };
  const int scale = args.smoke ? 1 : 64;
  const std::vector<Shape> shapes = {
      {"dense/dense", 4000 * scale, 2, 4000 * scale, 2},
      {"dense/sparse 8:1", 500 * scale, 16, 4000 * scale, 2},
      {"skewed 100:1", 40 * scale, 200, 4000 * scale, 2},
  };
  const int irepetitions = args.smoke ? 2 : 20;
  for (const Shape& shape : shapes) {
    std::vector<FactId> a = MakePostings(shape.len_a, shape.stride_a, 101);
    std::vector<FactId> b = MakePostings(shape.len_b, shape.stride_b, 202);
    std::vector<const std::vector<FactId>*> lists = {&a, &b};
    std::vector<FactId> result;
    double ms = bench::TimeMs([&] {
      for (int r = 0; r < irepetitions; ++r) {
        result = IntersectPostings(lists);
      }
    });
    std::vector<FactId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    if (result != expected) std::abort();  // oracle disagreement
    std::printf("%22s %12.3f %12zu\n", shape.name, ms, result.size());
    bench::JsonLine("counting_core_intersection")
        .Str("shape", shape.name)
        .Int("result_len", static_cast<long long>(result.size()))
        .Num("ms", ms)
        .Emit();
  }
  bench::Rule('=');
  std::printf("E10 result: the arena + fixed-width counting pass should be "
              ">= 2x the pointer/BigInt baseline with a fraction of the "
              "heap traffic.\n");
  return 0;
}
