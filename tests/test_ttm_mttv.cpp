#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "parpp/tensor/mttv.hpp"
#include "parpp/tensor/ttm.hpp"
#include "test_util.hpp"

namespace parpp::tensor {
namespace {

/// Reference first-level contraction, elementwise.
DenseTensor ref_ttm_first(const DenseTensor& t, int mode, const la::Matrix& a) {
  const int n = t.order();
  std::vector<index_t> out_shape;
  for (int m = 0; m < n; ++m)
    if (m != mode) out_shape.push_back(t.extent(m));
  out_shape.push_back(a.cols());
  DenseTensor out(out_shape);
  std::vector<index_t> idx(static_cast<std::size_t>(n), 0);
  do {
    const double tv = t.at(idx);
    std::vector<index_t> oidx;
    for (int m = 0; m < n; ++m)
      if (m != mode) oidx.push_back(idx[static_cast<std::size_t>(m)]);
    oidx.push_back(0);
    for (index_t r = 0; r < a.cols(); ++r) {
      oidx.back() = r;
      out.at(oidx) += tv * a(idx[static_cast<std::size_t>(mode)], r);
    }
  } while (next_index(t.shape(), idx));
  return out;
}

/// Reference mTTV, elementwise.
DenseTensor ref_mttv(const DenseTensor& k, int pos, const la::Matrix& a) {
  const int n = k.order();
  std::vector<index_t> out_shape;
  for (int m = 0; m < n - 1; ++m)
    if (m != pos) out_shape.push_back(k.extent(m));
  out_shape.push_back(k.extent(n - 1));
  DenseTensor out(out_shape);
  std::vector<index_t> idx(static_cast<std::size_t>(n), 0);
  do {
    std::vector<index_t> oidx;
    for (int m = 0; m < n - 1; ++m)
      if (m != pos) oidx.push_back(idx[static_cast<std::size_t>(m)]);
    oidx.push_back(idx[static_cast<std::size_t>(n - 1)]);
    out.at(oidx) += k.at(idx) * a(idx[static_cast<std::size_t>(pos)],
                                  idx[static_cast<std::size_t>(n - 1)]);
  } while (next_index(k.shape(), idx));
  return out;
}

class TtmAllModes : public ::testing::TestWithParam<int> {};

TEST_P(TtmAllModes, MatchesReferenceOrder3) {
  const int mode = GetParam();
  const DenseTensor t = test::random_tensor({5, 6, 7}, 11);
  const la::Matrix a = test::random_matrix(t.extent(mode), 4, 12);
  test::expect_tensor_near(ttm_first(t, mode, a), ref_ttm_first(t, mode, a),
                           1e-12, "ttm order 3");
}

INSTANTIATE_TEST_SUITE_P(Modes, TtmAllModes, ::testing::Values(0, 1, 2));

TEST(Ttm, MatchesReferenceOrder4AllModes) {
  const DenseTensor t = test::random_tensor({3, 4, 5, 2}, 13);
  for (int mode = 0; mode < 4; ++mode) {
    const la::Matrix a = test::random_matrix(t.extent(mode), 3, 14 + mode);
    test::expect_tensor_near(ttm_first(t, mode, a), ref_ttm_first(t, mode, a),
                             1e-12, "ttm order 4");
  }
}

/// Register-tile sizes: R of 8, 16 and 20 fills the narrow, full and
/// full-plus-edge column tiles, and the extents sit on both sides of the
/// 4- and 8-row tiles and the 64-row block, so every interior and leading
/// mode packs full and ragged transposed panels (k of 300 also crosses the
/// 256-step k chunk).
TEST(Ttm, MatchesReferenceAtRegisterTileSizes) {
  const std::vector<std::vector<index_t>> shapes = {
      {9, 17, 70}, {5, 300, 9}, {8, 8, 66, 3}, {3, 9, 5, 4, 7}};
  std::uint64_t seed = 40;
  for (const auto& shape : shapes) {
    const DenseTensor t = test::random_tensor(shape, ++seed);
    for (index_t r : {8, 16, 20}) {
      for (int mode = 0; mode < t.order(); ++mode) {
        const la::Matrix a = test::random_matrix(t.extent(mode), r, ++seed);
        const DenseTensor want = ref_ttm_first(t, mode, a);
        double scale = 0.0;
        for (index_t i = 0; i < want.size(); ++i)
          scale = std::max(scale, std::abs(want[i]));
        std::ostringstream what;
        test::print_dims(shape, &what);
        what << " R " << r << " mode " << mode;
        test::expect_tensor_near(ttm_first(t, mode, a), want, 1e-12 * scale,
                                 what.str().c_str());
      }
    }
  }
}

TEST(Ttm, OutputShapeAppendsRankLast) {
  const DenseTensor t = test::random_tensor({3, 4, 5}, 15);
  const la::Matrix a = test::random_matrix(4, 6, 16);
  const DenseTensor out = ttm_first(t, 1, a);
  const std::vector<index_t> want{3, 5, 6};
  EXPECT_EQ(out.shape(), want);
}

TEST(Ttm, ShapeMismatchThrows) {
  const DenseTensor t = test::random_tensor({3, 4}, 17);
  const la::Matrix a = test::random_matrix(5, 2, 18);
  EXPECT_THROW((void)ttm_first(t, 0, a), error);
}

TEST(Mttv, MatchesReferenceAllPositions) {
  const DenseTensor k = test::random_tensor({4, 5, 6, 3}, 21);  // last = rank
  for (int pos = 0; pos < 3; ++pos) {
    const la::Matrix a = test::random_matrix(k.extent(pos), 3, 22 + pos);
    test::expect_tensor_near(mttv(k, pos, a), ref_mttv(k, pos, a), 1e-12,
                             "mttv");
  }
}

TEST(Mttv, SingleSlabPosZero) {
  // left == 1 exercises the rt-range parallel path.
  const DenseTensor k = test::random_tensor({64, 10, 5}, 23);
  const la::Matrix a = test::random_matrix(64, 5, 24);
  test::expect_tensor_near(mttv(k, 0, a), ref_mttv(k, 0, a), 1e-10,
                           "mttv pos 0");
}

TEST(Mttv, FinalLeafContraction) {
  // (s, R) contracted at pos 0 -> (R): the per-thread-reduction path.
  const DenseTensor k = test::random_tensor({50, 6}, 25);
  const la::Matrix a = test::random_matrix(50, 6, 26);
  const DenseTensor got = mttv(k, 0, a);
  const DenseTensor want = ref_mttv(k, 0, a);
  test::expect_tensor_near(got, want, 1e-10, "leaf mttv");
}

bool same_bits(const DenseTensor& a, const DenseTensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(Mttv, FinalLeafBitsIndependentOfRunAndTeam) {
  // (1, s, R) at pos 1 and (s, R) at pos 0 reach the final-leaf branch; the
  // longer s span several fixed reduction blocks.
  const std::vector<std::vector<index_t>> shapes = {
      {1, 5000, 7}, {3000, 16}, {1, 300, 5}};
  for (const auto& shape : shapes) {
    const DenseTensor k = test::random_tensor(shape, 41);
    const int pos = static_cast<int>(shape.size()) - 2;
    const la::Matrix a = test::random_matrix(
        shape[static_cast<std::size_t>(pos)], shape.back(), 42);
    DenseTensor want;
    test::with_threads(1, [&] { mttv_into(k, pos, a, want); });
    test::expect_tensor_near(want, ref_mttv(k, pos, a), 1e-9, "leaf mttv");
    for (int rep = 0; rep < 20; ++rep) {
      DenseTensor got;
      test::with_threads(4, [&] { mttv_into(k, pos, a, got); });
      EXPECT_TRUE(same_bits(got, want)) << "run " << rep << " s " << shape[1];
    }
    for (int threads = 1; threads <= 4; ++threads) {
      DenseTensor got;
      test::with_threads(threads, [&] { mttv_into(k, pos, a, got); });
      EXPECT_TRUE(same_bits(got, want)) << threads << " threads";
    }
  }
}

TEST(Mttv, MultiTargetGivesSeparateCallBits) {
  // Nodes of 2-4 tensor modes, all targets with and without the leading
  // mode, at teams 1-4: one thread runs the pass, a team hands every target
  // to mttv_into. The last node's pos-2 target is a final-leaf contraction
  // longer than one reduction block, which the pass leaves to mttv_into.
  const std::vector<std::vector<index_t>> shapes = {
      {9, 10, 5}, {6, 7, 8, 5}, {5, 6, 4, 7, 3}, {1, 5, 6, 4}, {1, 1, 1500, 3}};
  for (const auto& shape : shapes) {
    const DenseTensor k = test::random_tensor(shape, 51);
    const int modes = static_cast<int>(shape.size()) - 1;
    std::vector<la::Matrix> as;
    for (int p = 0; p < modes; ++p)
      as.push_back(test::random_matrix(shape[static_cast<std::size_t>(p)],
                                       shape.back(), 52 + p));
    std::vector<DenseTensor> want(static_cast<std::size_t>(modes));
    for (int p = 0; p < modes; ++p)
      test::with_threads(1, [&] {
        mttv_into(k, p, as[static_cast<std::size_t>(p)],
                  want[static_cast<std::size_t>(p)]);
      });
    for (int first : {0, 1}) {
      for (int threads = 1; threads <= 4; ++threads) {
        std::vector<DenseTensor> got(static_cast<std::size_t>(modes));
        std::vector<MttvTarget> targets;
        for (int p = first; p < modes; ++p)
          targets.push_back({p, &as[static_cast<std::size_t>(p)],
                             &got[static_cast<std::size_t>(p)]});
        test::with_threads(threads, [&] { mttv_multi_into(k, targets); });
        for (int p = first; p < modes; ++p)
          EXPECT_TRUE(same_bits(got[static_cast<std::size_t>(p)],
                                want[static_cast<std::size_t>(p)]))
              << "order " << modes << " pos " << p << " threads " << threads;
      }
    }
  }
}

TEST(Mttv, RankColumnMismatchThrows) {
  const DenseTensor k = test::random_tensor({4, 5, 3}, 27);
  const la::Matrix a = test::random_matrix(4, 2, 28);  // wrong rank cols
  EXPECT_THROW((void)mttv(k, 0, a), error);
}

TEST(TtmMttvChain, OrderIndependentContraction) {
  // Contracting modes {1, 2} of an order-3 tensor in either order gives the
  // same leaf, the core property dimension trees rely on.
  const DenseTensor t = test::random_tensor({6, 5, 4}, 31);
  const la::Matrix a1 = test::random_matrix(5, 3, 32);
  const la::Matrix a2 = test::random_matrix(4, 3, 33);
  // Path A: TTM mode 2, then mTTV former mode 1 (now position 1).
  const DenseTensor pa = mttv(ttm_first(t, 2, a2), 1, a1);
  // Path B: TTM mode 1, then mTTV former mode 2 (now position 1).
  const DenseTensor pb = mttv(ttm_first(t, 1, a1), 1, a2);
  test::expect_tensor_near(pa, pb, 1e-11, "contraction order independence");
}

}  // namespace
}  // namespace parpp::tensor
