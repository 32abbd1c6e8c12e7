// CooTensor / CsfTensor storage and FROSTT .tns round-trip tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
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

void expect_trees_match_reference(const tensor::CooTensor& coo,
                                  const std::string& label) {
  ASSERT_TRUE(coo.coalesced()) << label;
  const int n = coo.order();
  for (const auto layout :
       {tensor::CsfLayout::kAllModes, tensor::CsfLayout::kHalf}) {
    const tensor::CsfTensor csf(coo, tensor::CsfOptions{layout});
    const bool half = layout == tensor::CsfLayout::kHalf;
    ASSERT_EQ(csf.tree_count(), half ? (n + 1) / 2 : n) << label;
    for (int t = 0; t < csf.tree_count(); ++t) {
      const std::string where = label + (half ? " half" : " all-modes") +
                                " tree " + std::to_string(t);
      const auto& got = csf.tree(t);
      const auto want =
          reference_tree(coo, documented_mode_order(n, t, layout));
      EXPECT_EQ(got.mode_order, want.mode_order) << where;
      EXPECT_EQ(got.fptr, want.fptr) << where;
      EXPECT_EQ(got.fids, want.fids) << where;
      EXPECT_EQ(got.vals, want.vals) << where;
      EXPECT_EQ(got.internal_nodes, want.internal_nodes) << where;
      EXPECT_EQ(got.tile_ptr, want.tile_ptr) << where;
      EXPECT_EQ(got.tile_root, want.tile_root) << where;
      EXPECT_EQ(got.tile_root_end, want.tile_root_end) << where;
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
