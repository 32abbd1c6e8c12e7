#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "parpp/core/gram.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/core/msdt.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "parpp/tensor/mttv.hpp"
#include "parpp/tensor/transpose.hpp"
#include "parpp/tensor/ttm.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

/// Reference pair operator: contract every mode except {i, j} one at a
/// time, highest mode first, tracking positions.
tensor::DenseTensor ref_pair_op(const tensor::DenseTensor& t,
                                const std::vector<la::Matrix>& factors, int i,
                                int j, std::vector<int>* modes_out) {
  const int n = t.order();
  std::vector<int> contract;
  for (int m = n - 1; m >= 0; --m)
    if (m != i && m != j) contract.push_back(m);
  tensor::DenseTensor cur =
      tensor::ttm_first(t, contract[0],
                        factors[static_cast<std::size_t>(contract[0])]);
  std::vector<int> modes;
  for (int m = 0; m < n; ++m)
    if (m != contract[0]) modes.push_back(m);
  for (std::size_t k = 1; k < contract.size(); ++k) {
    const int m = contract[k];
    const auto it = std::find(modes.begin(), modes.end(), m);
    const int pos = static_cast<int>(it - modes.begin());
    cur = tensor::mttv(cur, pos, factors[static_cast<std::size_t>(m)]);
    modes.erase(modes.begin() + pos);
  }
  if (modes_out) *modes_out = modes;
  return cur;
}

class PpOpOrders : public ::testing::TestWithParam<int> {};

TEST_P(PpOpOrders, PairOperatorsMatchReference) {
  const int n = GetParam();
  std::vector<index_t> shape;
  for (int m = 0; m < n; ++m) shape.push_back(4 + m);
  const auto t = test::random_tensor(shape, 301);
  const auto factors = test::random_factors(shape, 3, 302);
  PpOperators ops(t, factors);
  ops.build();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::vector<int> ref_modes;
      const auto want = ref_pair_op(t, factors, i, j, &ref_modes);
      const auto& got = ops.pair_op(i, j);
      ASSERT_EQ(got.modes.size(), 2u);
      // Storage order may differ between implementations; compare after
      // aligning.
      tensor::DenseTensor got_aligned = got.data;
      if (got.modes != ref_modes)
        got_aligned = tensor::transpose(got.data, {1, 0, 2});
      ASSERT_LE(got_aligned.max_abs_diff(want),
                1e-9 * want.frobenius_norm() + 1e-12)
          << "pair (" << i << "," << j << ") order " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, PpOpOrders, ::testing::Values(3, 4, 5));

/// A node of the canonical chain: data with its modes in storage order.
struct ChainNode {
  tensor::DenseTensor data;
  std::vector<int> modes;
};

/// The canonical chain, set by set: the donor's node when the donor holds
/// exactly `set`; else, for all modes but c, the TTM on c; else the mTTV of
/// the parent that re-adds the smallest missing mode, so a chain contracts
/// the missing modes largest first.
ChainNode chain_node(const tensor::DenseTensor& t,
                     const std::vector<la::Matrix>& factors, int c,
                     const std::vector<int>& set,
                     const TreeEngineBase* donor) {
  if (donor) {
    if (auto d = donor->find_current_superset(set);
        d && d->modes.size() == set.size())
      return {d->data, d->modes};
  }
  std::vector<int> full;
  for (int m = 0; m < t.order(); ++m)
    if (m != c) full.push_back(m);
  if (set == full)
    return {tensor::ttm_first(t, c, factors[static_cast<std::size_t>(c)]),
            full};
  int q = -1;
  for (int m : full)
    if (q < 0 && !std::binary_search(set.begin(), set.end(), m)) q = m;
  std::vector<int> parent_set = set;
  parent_set.insert(std::upper_bound(parent_set.begin(), parent_set.end(), q),
                    q);
  ChainNode parent = chain_node(t, factors, c, parent_set, donor);
  const auto it = std::find(parent.modes.begin(), parent.modes.end(), q);
  const auto pos = static_cast<int>(it - parent.modes.begin());
  parent.modes.erase(it);
  return {tensor::mttv(parent.data, pos, factors[static_cast<std::size_t>(q)]),
          parent.modes};
}

bool same_bits(const double* a, const double* b, index_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(double)) == 0;
}

/// Every pair operator and leaf of `ops` has the canonical chain's bits.
void expect_canonical(const PpOperators& ops, const tensor::DenseTensor& t,
                      const std::vector<la::Matrix>& factors,
                      const TreeEngineBase* donor, const std::string& what) {
  const int n = t.order();
  std::map<std::pair<int, int>, ChainNode> pairs;
  test::with_threads(1, [&] {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        int c = 0;
        if (i == 0) c = j == n - 1 ? n - 2 : n - 1;
        pairs[{i, j}] = chain_node(t, factors, c, {i, j}, donor);
      }
    }
  });
  for (const auto& [key, want] : pairs) {
    const auto& got = ops.pair_op(key.first, key.second);
    EXPECT_EQ(got.modes, want.modes) << what;
    ASSERT_EQ(got.data.shape(), want.data.shape()) << what;
    EXPECT_TRUE(same_bits(got.data.data(), want.data.data(), want.data.size()))
        << what << ": pair (" << key.first << "," << key.second << ")";
  }
  for (int m = 0; m < n; ++m) {
    const int partner = m == 0 ? 1 : 0;
    const ChainNode& op = pairs.at({std::min(m, partner), std::max(m, partner)});
    const auto it = std::find(op.modes.begin(), op.modes.end(), partner);
    tensor::DenseTensor leaf;
    test::with_threads(1, [&] {
      leaf = tensor::mttv(op.data, static_cast<int>(it - op.modes.begin()),
                          factors[static_cast<std::size_t>(partner)]);
    });
    const la::Matrix& got = ops.mttkrp_p(m);
    ASSERT_EQ(got.size(), leaf.size()) << what;
    EXPECT_TRUE(same_bits(got.data(), leaf.data(), leaf.size()))
        << what << ": leaf " << m;
  }
}

std::vector<index_t> pp_shape(int n) {
  std::vector<index_t> shape;
  for (int m = 0; m < n; ++m) shape.push_back(n == 5 ? 5 + m : 6 + 2 * m);
  return shape;
}

/// Steps one ALS sweep of `engine` over `factors`, calling `at_mode` after
/// each update (the engine's cache then holds a different mix of nodes).
template <class AtMode>
void als_sweep(MttkrpEngine& engine, std::vector<la::Matrix>& factors,
               std::vector<la::Matrix>& grams, AtMode&& at_mode) {
  for (int i = 0; i < static_cast<int>(factors.size()); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    factors[ui] = update_factor(gamma_chain(grams, i), engine.mttkrp(i));
    engine.notify_update(i);
    grams[ui] = la::gram(factors[ui]);
    at_mode(i);
  }
}

TEST_P(PpOpOrders, BuildGivesTheCanonicalChainBits) {
  const int n = GetParam();
  const auto shape = pp_shape(n);
  const auto t = test::random_tensor(shape, 321);
  for (int threads : {1, 4}) {
    test::with_threads(threads, [&] {
      for (EngineKind kind : {EngineKind::kMsdt, EngineKind::kDt}) {
        auto factors = test::random_factors(shape, 3, 322);
        auto grams = all_grams(factors);
        auto engine = make_engine(kind, t, factors, nullptr, {});
        const auto* donor = dynamic_cast<const TreeEngineBase*>(engine.get());
        PpOperators with_donor(t, factors);
        PpOperators without(t, factors);
        for (int sweep = 0; sweep < 2; ++sweep) {
          als_sweep(*engine, factors, grams, [&](int i) {
            const std::string what = std::string(engine_kind_name(kind)) +
                                     " threads " + std::to_string(threads) +
                                     " sweep " + std::to_string(sweep) +
                                     " mode " + std::to_string(i);
            with_donor.build(donor);
            expect_canonical(with_donor, t, factors, donor, what + " donor");
            without.build();
            expect_canonical(without, t, factors, nullptr, what);
          });
        }
      }
    });
  }
}

/// Bytes of the build arena: one first-level node (the largest root's),
/// the intermediates below a root (every set of 3 .. N-2 modes under it),
/// the pair operators, the leaf scratch, and one allocation granule of
/// rounding per buffer. Three coexisting first-level nodes exceed it.
std::size_t pp_workspace_bound(const std::vector<index_t>& shape, index_t r) {
  const int n = static_cast<int>(shape.size());
  const auto size_of = [&](unsigned mask) {
    index_t s = r;
    for (int m = 0; m < n; ++m)
      if (mask & (1u << m)) s *= shape[static_cast<std::size_t>(m)];
    return s;
  };
  const unsigned all = (1u << n) - 1;
  index_t first = 0, chain = 0;
  for (int c : {0, n - 1, n - 2}) {
    const unsigned full = all & ~(1u << c);
    first = std::max(first, size_of(full));
    index_t below = 0;
    for (unsigned mask = 1; mask < full; ++mask) {
      const int bits = __builtin_popcount(mask);
      if ((mask & ~full) == 0 && bits >= 3 && bits <= n - 2)
        below += size_of(mask);
    }
    chain = std::max(chain, below);
  }
  index_t pairs = 0, leaf = 0;
  for (int i = 0; i < n; ++i) {
    leaf = std::max(leaf, size_of(1u << i));
    for (int j = i + 1; j < n; ++j) pairs += size_of((1u << i) | (1u << j));
  }
  constexpr index_t kGranule = 512;  // KernelWorkspace capacity rounding
  const index_t buffers = 2 + (1 << (n - 1));
  return static_cast<std::size_t>(first + chain + pairs + leaf +
                                  kGranule * buffers) *
         sizeof(double);
}

TEST_P(PpOpOrders, WorkspaceHoldsOneFirstLevelNode) {
  const int n = GetParam();
  std::vector<index_t> shape;
  for (int m = 0; m < n; ++m) shape.push_back(n == 5 ? 9 + m : 16 + 2 * m);
  const index_t r = 8;
  const auto t = test::random_tensor(shape, 331);
  const std::size_t bound = pp_workspace_bound(shape, r);
  for (EngineKind kind : {EngineKind::kMsdt, EngineKind::kDt}) {
    auto factors = test::random_factors(shape, r, 332);
    auto grams = all_grams(factors);
    auto engine = make_engine(kind, t, factors, nullptr, {});
    const auto* donor = dynamic_cast<const TreeEngineBase*>(engine.get());
    PpOperators ops(t, factors);
    ops.build();
    EXPECT_LE(ops.workspace_bytes(), bound) << "no donor, order " << n;
    for (int sweep = 0; sweep < 2; ++sweep) {
      als_sweep(*engine, factors, grams, [&](int i) {
        ops.build(i % 2 == 0 ? donor : nullptr);
        EXPECT_LE(ops.workspace_bytes(), bound)
            << engine_kind_name(kind) << " order " << n << " sweep " << sweep
            << " mode " << i;
      });
    }
  }
}

TEST(PpOperators, LeavesMatchMttkrp) {
  const std::vector<index_t> shape{5, 6, 7, 4};
  const auto t = test::random_tensor(shape, 303);
  const auto factors = test::random_factors(shape, 3, 304);
  PpOperators ops(t, factors);
  ops.build();
  for (int m = 0; m < 4; ++m) {
    const la::Matrix want = tensor::mttkrp_krp(t, factors, m);
    test::expect_matrix_near(ops.mttkrp_p(m), want,
                             1e-9 * want.frobenius_norm() + 1e-12,
                             "M_p(n) == MTTKRP");
  }
}

TEST(PpOperators, DonorAmortizesOneFirstLevelTtm) {
  // After a regular MSDT sweep the engine cache holds a current first-level
  // intermediate; the PP build should then need only 2 fresh TTMs
  // (footnote 1 of the paper).
  const std::vector<index_t> shape{6, 6, 6};
  const auto t = test::random_tensor(shape, 305);
  auto factors = test::random_factors(shape, 3, 306);
  auto grams = all_grams(factors);
  MsdtEngine engine(t, factors, nullptr, {});
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int i = 0; i < 3; ++i) {
      const la::Matrix gamma = gamma_chain(grams, i);
      factors[static_cast<std::size_t>(i)] =
          update_factor(gamma, engine.mttkrp(i));
      engine.notify_update(i);
      grams[static_cast<std::size_t>(i)] =
          la::gram(factors[static_cast<std::size_t>(i)]);
    }
  }
  PpOperators with_donor(t, factors);
  with_donor.build(&engine);
  PpOperators without(t, factors);
  without.build();
  EXPECT_LT(with_donor.last_build_ttms(), without.last_build_ttms());
  EXPECT_EQ(without.last_build_ttms(), 3);
  EXPECT_EQ(with_donor.last_build_ttms(), 2);
  // And the donated build is still exact.
  for (int m = 0; m < 3; ++m) {
    test::expect_matrix_near(with_donor.mttkrp_p(m), without.mttkrp_p(m),
                             1e-9, "donated build exactness");
  }
}

TEST(PpOperators, OperatorMemoryMatchesTableOne) {
  // Pair operators hold sum_{i<j} s_i s_j R elements.
  const std::vector<index_t> shape{4, 5, 6};
  const auto t = test::random_tensor(shape, 307);
  const auto factors = test::random_factors(shape, 2, 308);
  PpOperators ops(t, factors);
  ops.build();
  EXPECT_EQ(ops.operator_elements(), (4 * 5 + 4 * 6 + 5 * 6) * 2);
}

TEST(PpOperators, RejectsOrderTwo) {
  const auto t = test::random_tensor({4, 4}, 309);
  const auto factors = test::random_factors({4, 4}, 2, 310);
  EXPECT_THROW(PpOperators(t, factors), error);
}

TEST(PpOperators, AccessBeforeBuildThrows) {
  const auto t = test::random_tensor({4, 4, 4}, 311);
  const auto factors = test::random_factors({4, 4, 4}, 2, 312);
  PpOperators ops(t, factors);
  EXPECT_THROW((void)ops.pair_op(0, 1), error);
  EXPECT_THROW((void)ops.mttkrp_p(0), error);
}

}  // namespace
}  // namespace parpp::core
