#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "parpp/tensor/dense_tensor.hpp"
#include "test_util.hpp"

namespace parpp::tensor {
namespace {

TEST(DenseTensor, ShapeAndStrides) {
  DenseTensor t({2, 3, 4});
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.extent(0), 2);
  EXPECT_EQ(t.extent(2), 4);
  const std::vector<index_t> want{12, 4, 1};
  EXPECT_EQ(t.strides(), want);
}

TEST(DenseTensor, LinearizeRowMajor) {
  DenseTensor t({2, 3, 4});
  const std::array<index_t, 3> idx{1, 2, 3};
  EXPECT_EQ(t.linearize(idx), 12 + 8 + 3);
}

TEST(DenseTensor, AtAccessesElements) {
  DenseTensor t({2, 2});
  const std::array<index_t, 2> idx{1, 0};
  t.at(idx) = 7.5;
  EXPECT_DOUBLE_EQ(t[2], 7.5);
}

TEST(DenseTensor, NextIndexOdometer) {
  const std::vector<index_t> shape{2, 3};
  std::vector<index_t> idx{0, 0};
  int count = 1;
  while (next_index(shape, idx)) ++count;
  EXPECT_EQ(count, 6);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(idx[1], 0);
}

TEST(DenseTensor, NormMatchesDefinition) {
  DenseTensor t({3, 3});
  t.fill(2.0);
  EXPECT_DOUBLE_EQ(t.squared_norm(), 36.0);
  EXPECT_DOUBLE_EQ(t.frobenius_norm(), 6.0);
}

TEST(DenseTensor, SquaredNormIsIndependentOfThreadCount) {
  // Above the serial threshold the norm is summed by the OpenMP team; the
  // value feeds ||T||^2 in the Eq. (3) residual, so reruns and thread
  // counts must not change its bits.
  const DenseTensor t = test::random_tensor({64, 64, 128}, 47);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const double serial = t.squared_norm();
  omp_set_num_threads(4);
  for (int call = 0; call < 50; ++call)
    ASSERT_EQ(t.squared_norm(), serial) << "call " << call;
  omp_set_num_threads(saved);
}

/// True when every entry of `t` is +0.0, bit for bit.
bool all_positive_zero(const DenseTensor& t) {
  return std::all_of(t.data(), t.data() + t.size(), [](double v) {
    return v == 0.0 && !std::signbit(v);
  });
}

TEST(DenseTensor, OwnedStorageStartsZeroAtEveryTeamSize) {
  // Below kParallelZeroMin one thread zeroes the blocks, from it the team.
  const index_t t = DenseTensor::kParallelZeroMin;
  for (const index_t n : {index_t{1}, index_t{1000}, t - 1, t, t + 1, 5 * t}) {
    for (int threads = 1; threads <= 4; ++threads) {
      {
        // Dirty the heap so a recycled block that skipped zeroing shows.
        std::vector<double> junk(static_cast<std::size_t>(n), -3.5);
      }
      test::with_threads(threads, [&] {
        const DenseTensor z({n});
        ASSERT_EQ(z.size(), n);
        EXPECT_TRUE(all_positive_zero(z))
            << n << " entries, " << threads << " threads";
      });
    }
  }
}

TEST(DenseTensor, ReshapeGrowthAndCopiesKeepTheirValues) {
  const index_t big = 2 * DenseTensor::kParallelZeroMin;
  const auto bytes = static_cast<std::size_t>(big) * sizeof(double);
  DenseTensor a({3, 4});
  a.fill(2.5);
  a.reshape({big});  // growth keeps the old prefix and zeroes the rest
  for (index_t i = 0; i < big; ++i)
    ASSERT_EQ(a[i], i < 12 ? 2.5 : 0.0) << "entry " << i;

  for (index_t i = 0; i < big; ++i) a[i] = static_cast<double>(i) - 0.5;
  const DenseTensor copy(a);
  ASSERT_EQ(copy.shape(), a.shape());
  EXPECT_EQ(std::memcmp(copy.data(), a.data(), bytes), 0);
  DenseTensor smaller({5});
  smaller.fill(9.0);
  smaller = a;  // copy-assignment that grows
  EXPECT_EQ(std::memcmp(smaller.data(), a.data(), bytes), 0);
  DenseTensor larger({big + 10});
  larger.fill(9.0);
  const DenseTensor zeros({2, 2});
  larger = zeros;  // copy-assignment that shrinks
  EXPECT_EQ(larger.size(), 4);
  EXPECT_TRUE(all_positive_zero(larger));
}

TEST(DenseTensor, AxpyAndMaxAbsDiff) {
  DenseTensor a({4}), b({4});
  a.fill(1.0);
  b.fill(3.0);
  a.axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  DenseTensor c({4});
  c.fill(7.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(c), 0.0);
}

TEST(DenseTensor, ExtentProduct) {
  DenseTensor t({2, 3, 4, 5});
  EXPECT_EQ(t.extent_product(0, 4), 120);
  EXPECT_EQ(t.extent_product(1, 3), 12);
  EXPECT_EQ(t.extent_product(2, 2), 1);
}

TEST(DenseTensor, ZeroExtentIsEmpty) {
  DenseTensor t({3, 0, 4});
  EXPECT_EQ(t.size(), 0);
  EXPECT_DOUBLE_EQ(t.frobenius_norm(), 0.0);
}

TEST(DenseTensor, OrderOneBehavesAsVector) {
  DenseTensor t({5});
  t[3] = 2.0;
  EXPECT_DOUBLE_EQ(t.frobenius_norm(), 2.0);
}

TEST(DenseTensor, FillUniformDeterministic) {
  Rng r1(5), r2(5);
  DenseTensor a({10, 10}), b({10, 10});
  a.fill_uniform(r1);
  b.fill_uniform(r2);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

}  // namespace
}  // namespace parpp::tensor
