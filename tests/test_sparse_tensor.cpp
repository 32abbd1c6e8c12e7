// CooTensor / CsfTensor storage and FROSTT .tns round-trip tests.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/util/serialize.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

TEST(CooTensor, PushCoalesceMergesDuplicatesAndDropsZeros) {
  tensor::CooTensor t({3, 4, 5});
  const std::vector<index_t> a{2, 1, 0}, b{0, 0, 0}, c{1, 3, 4};
  t.push(a, 1.5);
  t.push(b, 2.0);
  t.push(a, 0.25);   // duplicate of a: sums to 1.75
  t.push(c, 3.0);
  t.push(c, -3.0);   // cancels exactly: dropped
  EXPECT_FALSE(t.coalesced());
  EXPECT_EQ(t.nnz(), 5);

  t.coalesce();
  EXPECT_TRUE(t.coalesced());
  ASSERT_EQ(t.nnz(), 2);
  // Lexicographic order: (0,0,0) then (2,1,0).
  EXPECT_EQ(t.index(0, 0), 0);
  EXPECT_DOUBLE_EQ(t.value(0), 2.0);
  EXPECT_EQ(t.index(1, 0), 2);
  EXPECT_EQ(t.index(1, 1), 1);
  EXPECT_DOUBLE_EQ(t.value(1), 1.75);

  EXPECT_DOUBLE_EQ(t.squared_norm(), 2.0 * 2.0 + 1.75 * 1.75);
}

/// coalesce() as a comparator sort, the way it was written before its
/// counting passes, kept as the oracle: stable_sort a permutation, then
/// sum each run of equal coordinates in push order and drop zero sums.
std::pair<std::vector<index_t>, std::vector<double>> comparator_coalesce(
    const tensor::CooTensor& t) {
  std::vector<std::vector<index_t>> tuple(static_cast<std::size_t>(t.nnz()));
  std::vector<index_t> perm(tuple.size());
  for (std::size_t e = 0; e < tuple.size(); ++e) {
    for (int m = 0; m < t.order(); ++m)
      tuple[e].push_back(t.index(static_cast<index_t>(e), m));
    perm[e] = static_cast<index_t>(e);
  }
  const auto key = [&](index_t e) -> const std::vector<index_t>& {
    return tuple[static_cast<std::size_t>(e)];
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](index_t a, index_t b) { return key(a) < key(b); });
  std::vector<index_t> idx;
  std::vector<double> vals;
  for (std::size_t p = 0; p < perm.size();) {
    const std::vector<index_t>& k = key(perm[p]);
    double v = t.value(perm[p]);
    while (++p < perm.size() && key(perm[p]) == k) v += t.value(perm[p]);
    if (v == 0.0) continue;
    idx.insert(idx.end(), k.begin(), k.end());
    vals.push_back(v);
  }
  return {idx, vals};
}

/// `entries` random pushes into `shape` (small extents, so coordinates
/// collide) with values drawn from a set holding zeros, exact
/// cancellations and sums whose bits depend on their order.
tensor::CooTensor random_pushes(std::vector<index_t> shape, index_t entries,
                                std::uint64_t seed) {
  static constexpr double kValues[] = {1e16, 1.0, -1e16, 0.0, 0.1, 0.2, -0.2};
  constexpr auto kCount = static_cast<index_t>(std::size(kValues));
  tensor::CooTensor t(shape);
  Rng rng(seed);
  std::vector<index_t> idx(shape.size());
  for (index_t e = 0; e < entries; ++e) {
    for (std::size_t m = 0; m < shape.size(); ++m)
      idx[m] = rng.uniform_index(shape[m]);
    t.push(idx, kValues[rng.uniform_index(kCount)]);
  }
  return t;
}

void expect_coalesce_matches_comparator_sort(const tensor::CooTensor& input,
                                             const std::string& label) {
  const auto [want_idx, want_vals] = comparator_coalesce(input);
  for (int threads = 1; threads <= 4; ++threads) {
    tensor::CooTensor got = input;
    test::with_threads(threads, [&] { got.coalesce(); });
    const std::string where =
        label + ", " + std::to_string(threads) + " threads";
    ASSERT_TRUE(got.coalesced()) << where;
    ASSERT_EQ(got.nnz(), static_cast<index_t>(want_vals.size())) << where;
    for (index_t e = 0; e < got.nnz(); ++e) {
      for (int m = 0; m < got.order(); ++m)
        ASSERT_EQ(got.index(e, m),
                  want_idx[static_cast<std::size_t>(e * got.order() + m)])
            << where << ", entry " << e;
      const double v = got.value(e);
      const double w = want_vals[static_cast<std::size_t>(e)];
      ASSERT_EQ(std::memcmp(&v, &w, sizeof v), 0) << where << ", entry " << e;
    }
  }
}

TEST(CooTensor, CoalesceEqualsTheStableComparatorSort) {
  // Push order decides the sum: 1e16 + 1 rounds back to 1e16, so the
  // first group sums to 0 (dropped) and the second to 1.
  tensor::CooTensor order_matters({3, 2});
  const std::vector<index_t> a{2, 1}, b{0, 1}, c{1, 0};
  for (const double v : {1e16, 1.0, -1e16}) order_matters.push(a, v);
  for (const double v : {1e16, -1e16, 1.0}) order_matters.push(b, v);
  order_matters.push(c, 0.0);  // explicit zero
  order_matters.push(c, 0.0);
  expect_coalesce_matches_comparator_sort(order_matters, "push order");
  {
    tensor::CooTensor t = order_matters;
    t.coalesce();
    ASSERT_EQ(t.nnz(), 1);
    EXPECT_EQ(t.value(0), 1.0);
  }

  // Orders 1-6, with extent-1 modes leading, inside and trailing.
  const std::vector<std::vector<index_t>> shapes{{9},
                                                 {1, 7},
                                                 {5, 1, 6},
                                                 {4, 3, 1, 5},
                                                 {3, 1, 4, 2, 3},
                                                 {2, 3, 2, 1, 3, 2}};
  for (std::size_t s = 0; s < shapes.size(); ++s)
    expect_coalesce_matches_comparator_sort(
        random_pushes(shapes[s], 400, 70 + s),
        "order " + std::to_string(shapes[s].size()));

  // Already sorted and duplicate-free: the fast path keeps it as is.
  tensor::CooTensor sorted({4, 5});
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 5; j += 2)
      sorted.push(std::vector<index_t>{i, j}, 1.0 + static_cast<double>(i * j));
  expect_coalesce_matches_comparator_sort(sorted, "sorted");

  // Above kParallelSortMin, with the count table capped by nnz on the long
  // mode.
  const index_t big = 3 * tensor::CooTensor::kParallelSortMin + 17;
  expect_coalesce_matches_comparator_sort(random_pushes({40, 7, 30}, big, 78),
                                          "parallel order 3");
  expect_coalesce_matches_comparator_sort(
      random_pushes({3, 200000, 2}, big, 79), "parallel, long mode");
}

TEST(CooTensor, DensifyAccumulatesDuplicates) {
  tensor::CooTensor t({2, 2});
  const std::vector<index_t> a{1, 0};
  t.push(a, 1.0);
  t.push(a, 2.5);
  const tensor::DenseTensor d = t.densify();
  EXPECT_DOUBLE_EQ(d.at(std::vector<index_t>{1, 0}), 3.5);
  EXPECT_DOUBLE_EQ(d.at(std::vector<index_t>{0, 0}), 0.0);
}

TEST(CooTensor, FromDenseRoundTrip) {
  const tensor::DenseTensor dense = test::random_tensor({4, 3, 5}, 11);
  const tensor::CooTensor coo = tensor::CooTensor::from_dense(dense);
  EXPECT_TRUE(coo.coalesced());
  EXPECT_EQ(coo.nnz(), dense.size());  // uniform [0,1): no exact zeros
  test::expect_tensor_near(coo.densify(), dense, 0.0, "from_dense round trip");
  EXPECT_NEAR(coo.squared_norm(), dense.squared_norm(), 1e-12);
}

TEST(CsfTensor, RequiresCoalescedInput) {
  tensor::CooTensor t({2, 2});
  const std::vector<index_t> a{0, 1};
  t.push(a, 1.0);
  EXPECT_THROW((void)tensor::CsfTensor(t), parpp::error);
  t.coalesce();
  EXPECT_NO_THROW((void)tensor::CsfTensor(t));
}

TEST(CsfTensor, TreeStructureMatchesPattern) {
  // 2x3x2 tensor with nonzeros (0,0,0) (0,0,1) (0,2,0) (1,1,1).
  tensor::CooTensor coo({2, 3, 2});
  for (const auto& e : std::vector<std::vector<index_t>>{
           {0, 0, 0}, {0, 0, 1}, {0, 2, 0}, {1, 1, 1}}) {
    coo.push(e, 1.0);
  }
  coo.coalesce();
  const tensor::CsfTensor csf(coo);
  EXPECT_EQ(csf.nnz(), 4);

  const auto& tr0 = csf.tree(0);
  ASSERT_EQ(tr0.mode_order, (std::vector<int>{0, 1, 2}));
  // Root slices: i=0 (3 nnz, fibers (0,0),(0,2)) and i=1 (1 nnz).
  EXPECT_EQ(tr0.root_count(), 2);
  EXPECT_EQ(tr0.fids[1].size(), 3u);  // fibers (0,0) (0,2) (1,1)
  EXPECT_EQ(tr0.vals.size(), 4u);
  EXPECT_EQ(tr0.fptr[0], (std::vector<index_t>{0, 2, 3}));
  EXPECT_EQ(tr0.fptr[1], (std::vector<index_t>{0, 2, 3, 4}));
  EXPECT_EQ(tr0.internal_nodes, 3);

  // Tree rooted at mode 2: slices k=0 (2 nnz) and k=1 (2 nnz).
  const auto& tr2 = csf.tree(2);
  ASSERT_EQ(tr2.mode_order, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(tr2.root_count(), 2);
  EXPECT_EQ(tr2.fids[0], (std::vector<index_t>{0, 1}));
}

// Reference fiber tree, built without CsfTensor: comparator-sort the
// entries by mode_order, deduplicate each level's coordinate prefixes, and
// link every prefix to its first extension one level down.
tensor::CsfTensor::Tree reference_tree(const tensor::CooTensor& coo,
                                       const std::vector<int>& mode_order) {
  using Prefix = std::vector<index_t>;
  const auto n = mode_order.size();
  std::vector<std::pair<Prefix, double>> entries;
  for (index_t e = 0; e < coo.nnz(); ++e) {
    Prefix key;
    for (int m : mode_order) key.push_back(coo.index(e, m));
    entries.emplace_back(std::move(key), coo.value(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::vector<Prefix>> prefixes(n);
  for (std::size_t l = 0; l < n; ++l) {
    for (const auto& [key, v] : entries)
      prefixes[l].emplace_back(key.begin(), key.begin() + l + 1);
    prefixes[l].erase(std::unique(prefixes[l].begin(), prefixes[l].end()),
                      prefixes[l].end());
  }

  tensor::CsfTensor::Tree tree;
  tree.mode_order = mode_order;
  tree.fids.resize(n);
  tree.fptr.resize(n - 1);
  for (std::size_t l = 0; l < n; ++l) {
    for (const Prefix& p : prefixes[l]) {
      tree.fids[l].push_back(p.back());
      // A prefix sorts before all of its extensions, so lower_bound finds
      // its first child.
      if (l + 1 < n)
        tree.fptr[l].push_back(std::lower_bound(prefixes[l + 1].begin(),
                                                prefixes[l + 1].end(), p) -
                               prefixes[l + 1].begin());
    }
    if (l + 1 < n)
      tree.fptr[l].push_back(static_cast<index_t>(prefixes[l + 1].size()));
    if (l > 0 && l + 1 < n)
      tree.internal_nodes += static_cast<index_t>(prefixes[l].size());
  }
  for (const auto& [key, v] : entries) tree.vals.push_back(v);

  // Tiles: greedy runs of level-1 nodes holding >= kTileLeafTarget leaves
  // (the last may hold fewer), each with the root fibers it intersects.
  const auto root_of = [&](const Prefix& p) {
    return std::lower_bound(prefixes[0].begin(), prefixes[0].end(),
                            Prefix{p.front()}) -
           prefixes[0].begin();
  };
  std::vector<index_t> leaves(prefixes[1].size(), 0);
  std::size_t k = 0;
  for (const auto& [key, v] : entries) {
    while (!std::equal(key.begin(), key.begin() + 2, prefixes[1][k].begin()))
      ++k;
    ++leaves[k];
  }
  const auto n1 = static_cast<index_t>(prefixes[1].size());
  tree.tile_ptr.push_back(0);
  index_t acc = 0;
  for (index_t j = 0; j < n1; ++j) {
    acc += leaves[static_cast<std::size_t>(j)];
    if (acc >= tensor::CsfTensor::kTileLeafTarget || j + 1 == n1) {
      tree.tile_ptr.push_back(j + 1);
      acc = 0;
    }
  }
  for (std::size_t t = 0; t + 1 < tree.tile_ptr.size(); ++t) {
    const auto first = static_cast<std::size_t>(tree.tile_ptr[t]);
    const auto last = static_cast<std::size_t>(tree.tile_ptr[t + 1] - 1);
    tree.tile_root.push_back(root_of(prefixes[1][first]));
    tree.tile_root_end.push_back(root_of(prefixes[1][last]) + 1);
  }
  return tree;
}

// Tree t's mode order as the layouts document it: all-modes trees are the
// root then the other modes ascending; a half-layout tree m ends in leaf
// mode n-1-m, except the middle tree of an odd order.
std::vector<int> documented_mode_order(int n, int t, tensor::CsfLayout layout) {
  const int leaf = layout == tensor::CsfLayout::kHalf ? n - 1 - t : t;
  std::vector<int> order{t};
  for (int m = 0; m < n; ++m)
    if (m != t && m != leaf) order.push_back(m);
  if (leaf != t) order.push_back(leaf);
  return order;
}

/// Builds both layouts of `coo` and compares every tree with
/// reference_tree. `teams` lists the OpenMP team sizes to build at (0: the
/// ambient one); each reference tree is built once.
void expect_trees_match_reference(const tensor::CooTensor& coo,
                                  const std::string& label,
                                  const std::vector<int>& teams = {0}) {
  ASSERT_TRUE(coo.coalesced()) << label;
  const int n = coo.order();
  for (const auto layout :
       {tensor::CsfLayout::kAllModes, tensor::CsfLayout::kHalf}) {
    const bool half = layout == tensor::CsfLayout::kHalf;
    std::vector<tensor::CsfTensor::Tree> want;
    for (int t = 0; t < (half ? (n + 1) / 2 : n); ++t)
      want.push_back(reference_tree(coo, documented_mode_order(n, t, layout)));
    for (const int team : teams) {
      std::optional<tensor::CsfTensor> csf;
      test::with_threads(team > 0 ? team : omp_get_max_threads(),
                         [&] { csf.emplace(coo, tensor::CsfOptions{layout}); });
      ASSERT_EQ(csf->tree_count(), static_cast<int>(want.size())) << label;
      for (std::size_t t = 0; t < want.size(); ++t) {
        const std::string where =
            label + (half ? " half" : " all-modes") + " tree " +
            std::to_string(t) +
            (team > 0 ? ", team " + std::to_string(team) : std::string());
        const auto& got = csf->tree(static_cast<int>(t));
        EXPECT_EQ(got.mode_order, want[t].mode_order) << where;
        EXPECT_EQ(got.fptr, want[t].fptr) << where;
        EXPECT_EQ(got.fids, want[t].fids) << where;
        EXPECT_EQ(got.vals, want[t].vals) << where;
        EXPECT_EQ(got.internal_nodes, want[t].internal_nodes) << where;
        EXPECT_EQ(got.tile_ptr, want[t].tile_ptr) << where;
        EXPECT_EQ(got.tile_root, want[t].tile_root) << where;
        EXPECT_EQ(got.tile_root_end, want[t].tile_root_end) << where;
      }
    }
  }
}

tensor::CooTensor coo_from(std::vector<index_t> shape,
                           const std::vector<std::vector<index_t>>& idx) {
  tensor::CooTensor coo(std::move(shape));
  double v = 1.0;
  for (const auto& i : idx) coo.push(i, v += 0.25);
  coo.coalesce();
  return coo;
}

TEST(CsfTensor, TreesEqualReferenceAtOrdersTwoToSix) {
  const std::vector<std::vector<index_t>> shapes{{40, 30},
                                                 {20, 15, 18},
                                                 {9, 7, 8, 6},
                                                 {6, 5, 7, 4, 5},
                                                 {5, 4, 3, 5, 4, 3}};
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto coo = data::make_sparse_random(shapes[s], 0.08, 500 + s);
    ASSERT_GT(coo.nnz(), 0);
    expect_trees_match_reference(coo, "order " + std::to_string(s + 2));
  }
}

TEST(CsfTensor, TreesEqualReferenceOnDegenerateInputs) {
  for (int order = 2; order <= 6; ++order) {
    const std::vector<index_t> shape(static_cast<std::size_t>(order), 4);
    const std::string o = " order " + std::to_string(order);
    expect_trees_match_reference(tensor::CooTensor(shape), "nnz 0" + o);
    const std::vector<index_t> one(static_cast<std::size_t>(order), 2);
    expect_trees_match_reference(coo_from(shape, {one}), "one nonzero" + o);
  }
  // Every nonzero in one slice: of a root mode, and of a middle mode.
  std::vector<std::vector<index_t>> slice;
  for (index_t i = 0; i < 6; ++i)
    for (index_t k = 0; k < 7; k += 1 + i % 3)
      slice.push_back({i, 3, k, (i + k) % 4});
  expect_trees_match_reference(coo_from({6, 5, 7, 4}, slice),
                               "one mode-1 slice");
  for (auto& i : slice) std::swap(i[0], i[1]);
  expect_trees_match_reference(coo_from({5, 6, 7, 4}, slice),
                               "one mode-0 slice");
  // Extent-1 modes: leading, middle and trailing.
  const std::vector<std::vector<index_t>> thin{
      {1, 9, 8}, {7, 1, 6, 5}, {6, 5, 4, 3, 1}};
  for (std::size_t s = 0; s < thin.size(); ++s)
    expect_trees_match_reference(data::make_sparse_random(thin[s], 0.2, 41 + s),
                                 "extent-1 case " + std::to_string(s));
  // Level-1 fibers longer than a tile: tree 0's tiles hold one fiber each.
  const auto fibers = data::make_sparse_random({2, 3, 8000}, 0.5, 45);
  ASSERT_GT(fibers.nnz(), 6 * tensor::CsfTensor::kTileLeafTarget);
  expect_trees_match_reference(fibers, "long fibers");
}

TEST(CsfTensor, TreesEqualReferenceOnPowerlawSkew) {
  // A few head slices hold most of the nonzeros, and every tree spans
  // several tiles.
  const auto gen3 = data::make_sparse_powerlaw({80, 70, 60}, 0.03, 1.2, 7);
  expect_trees_match_reference(gen3.tensor, "powerlaw order 3");
  EXPECT_GT(tensor::CsfTensor(gen3.tensor).tree(2).tile_count(), 2);
  const auto gen4 = data::make_sparse_powerlaw({20, 18, 16, 14}, 0.05, 1.0, 8);
  expect_trees_match_reference(gen4.tensor, "powerlaw order 4");
}

TEST(CsfTensor, TreesOnTheParallelPathEqualReference) {
  // Above kParallelBuildMin nonzeros the sort passes, the level count and
  // the fill run by blocks on the team; the trees must not change with it.
  const std::vector<int> teams{1, 2, 3, 4};
  const auto random3 = data::make_sparse_random({80, 70, 60}, 0.3, 61);
  ASSERT_GT(random3.nnz(), tensor::CsfTensor::kParallelBuildMin);
  expect_trees_match_reference(random3, "random order 3", teams);

  // Order 4: half tree 1 is [1,0,3,2] and takes three sort passes.
  const auto random4 = data::make_sparse_random({26, 24, 22, 20}, 0.4, 62);
  ASSERT_GT(random4.nnz(), tensor::CsfTensor::kParallelBuildMin);
  const tensor::CsfTensor half(random4,
                               tensor::CsfOptions{tensor::CsfLayout::kHalf});
  ASSERT_EQ(half.tree(1).mode_order, (std::vector<int>{1, 0, 3, 2}));
  expect_trees_match_reference(random4, "random order 4", teams);

  // Power law: the head root fiber's leaves run past the first block, so
  // its nodes are filled by two blocks.
  const auto skew = data::make_sparse_powerlaw({6, 800, 800}, 0.03, 0.8, 63);
  ASSERT_GT(skew.tensor.nnz(), tensor::CsfTensor::kParallelBuildMin);
  const tensor::CsfTensor skew_csf(skew.tensor);
  const auto& tree0 = skew_csf.tree(0);
  ASSERT_GT(tree0.fptr[1][static_cast<std::size_t>(tree0.fptr[0][1])],
            tensor::CsfTensor::kBuildBlock);
  expect_trees_match_reference(skew.tensor, "powerlaw order 3", teams);
}

TEST(CsfTensor, RejectsOrderAbove255) {
  // Construction keeps each entry's first new level in one byte.
  for (const std::size_t order : {255u, 256u}) {
    const tensor::CooTensor coo = coo_from(std::vector<index_t>(order, 1),
                                           {std::vector<index_t>(order, 0)});
    if (order == 255u) {
      EXPECT_EQ(tensor::CsfTensor(coo).tree(254).vals.size(), 1u);
    } else {
      EXPECT_THROW((void)tensor::CsfTensor(coo), parpp::error);
    }
  }
}

TEST(CsfTensor, HalfTreeWithUnsortedTailEqualsReference) {
  // Order 4, tree 1 = [1,0,3,2]: its mode-order tail is not ascending, so
  // ordering it takes more than one counting pass.
  const auto coo = data::make_sparse_random({6, 7, 5, 8}, 0.1, 44);
  const tensor::CsfTensor half(coo,
                               tensor::CsfOptions{tensor::CsfLayout::kHalf});
  ASSERT_EQ(half.tree(1).mode_order, (std::vector<int>{1, 0, 3, 2}));
  expect_trees_match_reference(coo, "order 4 half");
}

TEST(CsfTensor, StatsMatchCoo) {
  const tensor::CooTensor coo =
      data::make_sparse_random({6, 7, 5, 4}, 0.07, 3);
  const tensor::CsfTensor csf(coo);
  EXPECT_EQ(csf.order(), 4);
  EXPECT_EQ(csf.nnz(), coo.nnz());
  EXPECT_DOUBLE_EQ(csf.squared_norm(), coo.squared_norm());
  for (int m = 0; m < 4; ++m) {
    const auto& tree = csf.tree(m);
    EXPECT_EQ(tree.mode_order.front(), m);
    EXPECT_EQ(static_cast<index_t>(tree.vals.size()), coo.nnz());
    // Every level is weakly smaller than the one below (prefix counts).
    for (std::size_t l = 1; l < tree.fids.size(); ++l)
      EXPECT_LE(tree.fids[l - 1].size(), tree.fids[l].size());
  }
}

TEST(SerializeTns, FileRoundTrip) {
  const tensor::CooTensor original =
      data::make_sparse_random({9, 5, 12}, 0.05, 21);
  const std::string path = "/tmp/parpp_test_tensor.tns";
  io::save_tns_file(path, original);
  const tensor::CooTensor loaded = io::load_tns_file(path);
  std::remove(path.c_str());

  // The dims header preserves the exact shape even if trailing slices are
  // empty; entries and values round-trip bit-for-bit via %.17g.
  EXPECT_EQ(loaded.shape(), original.shape());
  ASSERT_EQ(loaded.nnz(), original.nnz());
  for (index_t e = 0; e < original.nnz(); ++e) {
    for (int m = 0; m < original.order(); ++m)
      EXPECT_EQ(loaded.index(e, m), original.index(e, m));
    EXPECT_DOUBLE_EQ(loaded.value(e), original.value(e));
  }
}

TEST(SerializeTns, IrrationalValuesRoundTripBitExactly) {
  // Regression: the writer must emit max_digits10 significant digits, not
  // the default stream precision — otherwise irrational and denormal-ish
  // values come back off by up to 5e-7 relative and save/load is lossy.
  const std::vector<double> values{
      M_PI,          std::sqrt(2.0),     1.0 / 3.0,      std::exp(1.0),
      -7.1,          6.02214076e23,      1.0e-300,       -M_PI * 1e-17,
      std::nextafter(1.0, 2.0)};
  tensor::CooTensor original({4, 3, static_cast<index_t>(values.size())});
  for (std::size_t k = 0; k < values.size(); ++k) {
    const std::vector<index_t> idx{static_cast<index_t>(k % 4),
                                   static_cast<index_t>(k % 3),
                                   static_cast<index_t>(k)};
    original.push(idx, values[k]);
  }
  original.coalesce();

  std::ostringstream os;
  io::save_tns(os, original);
  std::istringstream is(os.str());
  const tensor::CooTensor loaded = io::load_tns(is);

  ASSERT_EQ(loaded.nnz(), original.nnz());
  for (index_t e = 0; e < original.nnz(); ++e) {
    const double want = original.value(e), got = loaded.value(e);
    // Bit-exact, not merely close: compare the representations.
    std::uint64_t wbits = 0, gbits = 0;
    std::memcpy(&wbits, &want, sizeof(want));
    std::memcpy(&gbits, &got, sizeof(got));
    EXPECT_EQ(gbits, wbits) << "entry " << e << " value " << want;
  }
}

TEST(SerializeTns, ToleratesCommentsDuplicatesAndInfersShape) {
  // FROSTT-style: 1-indexed, '#' comments anywhere, duplicates sum.
  std::istringstream is(
      "# a comment line\n"
      "1 1 1 2.0\n"
      "\n"
      "3 2 1 -1.5\n"
      "# another comment\n"
      "1 1 1 0.5\n");
  const tensor::CooTensor t = io::load_tns(is);
  EXPECT_EQ(t.shape(), (std::vector<index_t>{3, 2, 1}));
  ASSERT_EQ(t.nnz(), 2);
  EXPECT_TRUE(t.coalesced());
  EXPECT_DOUBLE_EQ(t.value(0), 2.5);   // (0,0,0): 2.0 + 0.5
  EXPECT_DOUBLE_EQ(t.value(1), -1.5);  // (2,1,0)
}

TEST(SerializeTns, EmptyTensorRoundTripsViaDimsHeader) {
  const tensor::CooTensor empty({3, 4, 5});
  std::ostringstream os;
  io::save_tns(os, empty);
  std::istringstream is(os.str());
  const tensor::CooTensor loaded = io::load_tns(is);
  EXPECT_EQ(loaded.shape(), empty.shape());
  EXPECT_EQ(loaded.nnz(), 0);
}

TEST(SerializeTns, RejectsMalformedInput) {
  std::istringstream zero_indexed("0 1 1.0\n");
  EXPECT_THROW((void)io::load_tns(zero_indexed), parpp::error);
  std::istringstream ragged("1 1 1 2.0\n1 1 3.0\n");
  EXPECT_THROW((void)io::load_tns(ragged), parpp::error);
  std::istringstream empty("# nothing here\n");
  EXPECT_THROW((void)io::load_tns(empty), parpp::error);
}

TEST(SparseSynthetic, LowRankMatchesExplicitReconstruction) {
  const auto gen = data::make_sparse_lowrank({8, 9, 7}, 4, 0.1, 17);
  EXPECT_TRUE(gen.tensor.coalesced());
  ASSERT_EQ(gen.factors.size(), 3u);
  // The COO is exactly [[A]]: densifying must reproduce the dense
  // reconstruction of the generating factors.
  test::expect_tensor_near(gen.tensor.densify(),
                           tensor::reconstruct(gen.factors), 1e-12,
                           "sparse lowrank == [[A]]");
}

}  // namespace
}  // namespace parpp
