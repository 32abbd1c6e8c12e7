#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "parpp/la/gemm.hpp"
#include "test_util.hpp"

namespace parpp::la {
namespace {

/// Naive reference GEMM.
Matrix ref_matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  const index_t m = ta == Trans::kNo ? a.rows() : a.cols();
  const index_t k = ta == Trans::kNo ? a.cols() : a.rows();
  const index_t n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = ta == Trans::kNo ? a(i, l) : a(l, i);
        const double bv = tb == Trans::kNo ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = s;
    }
  return c;
}

using Shape = std::tuple<index_t, index_t, index_t>;  // m, n, k

// GemmShapes' cases; the bitwise transposed-A test below reuses them.
const std::vector<Shape> kGemmShapes = {
    Shape{1, 1, 1},    Shape{3, 5, 7},     Shape{16, 16, 16},
    Shape{65, 33, 17}, Shape{128, 70, 300}, Shape{1, 64, 64},
    Shape{64, 1, 64},  Shape{64, 64, 1},    Shape{257, 129, 5}};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, AllTransposeCombosMatchReference) {
  const auto [m, n, k] = GetParam();
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      const Matrix a = ta == Trans::kNo ? test::random_matrix(m, k, 1)
                                        : test::random_matrix(k, m, 1);
      const Matrix b = tb == Trans::kNo ? test::random_matrix(k, n, 2)
                                        : test::random_matrix(n, k, 2);
      const Matrix got = matmul(a, b, ta, tb);
      const Matrix want = ref_matmul(a, b, ta, tb);
      test::expect_matrix_near(got, want, 1e-10 * static_cast<double>(k + 1),
                               "gemm transpose combo");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::ValuesIn(kGemmShapes));

/// A transposed A is packed before the register tiles read it, a plain A is
/// read in place. Both calls share m, n and k, so the same kernel computes
/// each C element over the same k chunks in the same order: the packed path
/// must give the in-place path's bits. The shapes straddle the register
/// tile (m around 4 and 8, n around 8 and 16), the row block (m around 64)
/// and the k chunk (k around 256).
TEST(Gemm, TransposedAMatchesExplicitTransposeBitwise) {
  std::vector<Shape> shapes = kGemmShapes;
  for (index_t m : {1, 7, 8, 9, 63, 64, 65, 200})
    for (index_t n : {1, 8, 15, 16, 17, 130})
      for (index_t k : {1, 255, 256, 257, 600}) shapes.emplace_back(m, n, k);
  for (const auto& [m, n, k] : shapes) {
    const Matrix at = test::random_matrix(k, m, 31);  // stored A^T
    Matrix a(m, k);
    for (index_t i = 0; i < m; ++i)
      for (index_t l = 0; l < k; ++l) a(i, l) = at(l, i);
    const Matrix b = test::random_matrix(k, n, 32);
    const Matrix c0 = test::random_matrix(m, n, 33);
    for (double alpha : {1.0, -0.5}) {
      for (double beta : {0.0, 1.0}) {
        SCOPED_TRACE(::testing::Message() << "m " << m << " n " << n << " k "
                                          << k << " alpha " << alpha
                                          << " beta " << beta);
        Matrix packed = c0, in_place = c0;
        gemm_raw(Trans::kYes, Trans::kNo, m, n, k, alpha, at.data(), m,
                 b.data(), n, beta, packed.data(), n);
        gemm_raw(Trans::kNo, Trans::kNo, m, n, k, alpha, a.data(), k,
                 b.data(), n, beta, in_place.data(), n);
        for (index_t i = 0; i < m * n; ++i)
          EXPECT_EQ(bits(packed.data()[i]), bits(in_place.data()[i]))
              << "element " << i;
      }
    }
  }
}

TEST(Gemm, BetaAccumulates) {
  const Matrix a = test::random_matrix(8, 4, 3);
  const Matrix b = test::random_matrix(4, 6, 4);
  Matrix c = test::random_matrix(8, 6, 5);
  const Matrix c0 = c;
  gemm_raw(Trans::kNo, Trans::kNo, 8, 6, 4, 2.0, a.data(), 4, b.data(), 6, 3.0,
           c.data(), 6);
  const Matrix ab = ref_matmul(a, b, Trans::kNo, Trans::kNo);
  for (index_t i = 0; i < 8; ++i)
    for (index_t j = 0; j < 6; ++j)
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) + 3.0 * c0(i, j), 1e-12);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  const Matrix a = test::random_matrix(4, 4, 6);
  const Matrix b = test::random_matrix(4, 4, 7);
  Matrix c(4, 4);
  c.fill(std::nan(""));
  gemm_raw(Trans::kNo, Trans::kNo, 4, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0,
           c.data(), 4);
  const Matrix want = ref_matmul(a, b, Trans::kNo, Trans::kNo);
  test::expect_matrix_near(c, want, 1e-12, "beta=0 overwrite");
}

/// beta = 0 never reads C: each tile's first k block writes 0 + alpha * acc.
/// A NaN-filled C must then give the bits of accumulating (beta = 1) onto a
/// zeroed C, in every transpose pair, across k chunks.
TEST(Gemm, BetaZeroWritesTheZeroedCBits) {
  std::vector<Shape> shapes = kGemmShapes;
  for (index_t k : {257, 600}) shapes.emplace_back(65, 130, k);
  for (const auto& [m, n, k] : shapes) {
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      for (Trans tb : {Trans::kNo, Trans::kYes}) {
        const Matrix a = test::random_matrix(m, k, 41);
        const Matrix b = test::random_matrix(k, n, 42);
        const index_t lda = ta == Trans::kNo ? k : m;
        const index_t ldb = tb == Trans::kNo ? n : k;
        for (double alpha : {1.0, -0.5}) {
          SCOPED_TRACE(::testing::Message()
                       << "m " << m << " n " << n << " k " << k << " alpha "
                       << alpha);
          Matrix nan_c(m, n), zero_c(m, n);
          nan_c.fill(std::nan(""));
          gemm_raw(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, 0.0,
                   nan_c.data(), n);
          gemm_raw(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, 1.0,
                   zero_c.data(), n);
          for (index_t i = 0; i < m * n; ++i)
            ASSERT_EQ(bits(nan_c.data()[i]), bits(zero_c.data()[i]))
                << "element " << i;
        }
      }
    }
  }
}

/// Few 64-row M blocks and a long n split over (M block, N block) pairs;
/// each C element keeps its kernel and k order, so every team gives the
/// one-thread bits.
TEST(Gemm, ShortMSplitsNWithTheSameBits) {
  for (index_t m : {1, 7, 64}) {
    for (index_t n : {130, 4096}) {
      for (index_t k : {16, 300}) {
        const Matrix a = test::random_matrix(m, k, 43);
        const Matrix at = test::random_matrix(k, m, 44);
        const Matrix b = test::random_matrix(k, n, 45);
        Matrix want(m, n), want_t(m, n);
        test::with_threads(1, [&] {
          gemm_raw(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), k,
                   b.data(), n, 0.0, want.data(), n);
          gemm_raw(Trans::kYes, Trans::kNo, m, n, k, 1.0, at.data(), m,
                   b.data(), n, 0.0, want_t.data(), n);
        });
        for (int threads = 2; threads <= 4; ++threads) {
          Matrix got(m, n), got_t(m, n);
          test::with_threads(threads, [&] {
            gemm_raw(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), k,
                     b.data(), n, 0.0, got.data(), n);
            gemm_raw(Trans::kYes, Trans::kNo, m, n, k, 1.0, at.data(), m,
                     b.data(), n, 0.0, got_t.data(), n);
          });
          for (index_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(bits(got.data()[i]), bits(want.data()[i]))
                << "m " << m << " n " << n << " k " << k << " threads "
                << threads << " element " << i;
            ASSERT_EQ(bits(got_t.data()[i]), bits(want_t.data()[i]))
                << "A^T m " << m << " n " << n << " k " << k << " threads "
                << threads << " element " << i;
          }
        }
      }
    }
  }
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  const Matrix a(3, 4);
  const Matrix b(5, 6);
  EXPECT_THROW((void)matmul(a, b), error);
}

TEST(Gemm, EmptyResultIsNoop) {
  const Matrix a(0, 4);
  const Matrix b(4, 3);
  const Matrix c = matmul(a, b);
  EXPECT_EQ(c.rows(), 0);
  EXPECT_EQ(c.cols(), 3);
}

TEST(Gram, MatchesTransposeProduct) {
  for (index_t rows : {1, 7, 64, 333}) {
    for (index_t cols : {1, 5, 40}) {
      const Matrix a = test::random_matrix(rows, cols, 11 + rows);
      const Matrix s = gram(a);
      const Matrix want = matmul(a, a, Trans::kYes, Trans::kNo);
      test::expect_matrix_near(s, want, 1e-10 * static_cast<double>(rows),
                               "gram");
      // Symmetry is exact by construction.
      for (index_t i = 0; i < cols; ++i)
        for (index_t j = 0; j < cols; ++j)
          EXPECT_DOUBLE_EQ(s(i, j), s(j, i));
    }
  }
}

}  // namespace
}  // namespace parpp::la
