#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "parpp/data/chemistry.hpp"
#include "parpp/data/coil.hpp"
#include "parpp/data/collinearity.hpp"
#include "parpp/data/hyperspectral.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "test_util.hpp"

namespace parpp::data {
namespace {

TEST(Collinearity, FactorColumnsHavePrescribedCosine) {
  Rng rng(1101);
  for (double c : {0.0, 0.3, 0.7, 0.95}) {
    const la::Matrix a = collinear_factor(40, 6, c, rng);
    for (index_t i = 0; i < 6; ++i) {
      for (index_t j = 0; j < 6; ++j) {
        double dij = 0.0, dii = 0.0, djj = 0.0;
        for (index_t r = 0; r < 40; ++r) {
          dij += a(r, i) * a(r, j);
          dii += a(r, i) * a(r, i);
          djj += a(r, j) * a(r, j);
        }
        const double cosine = dij / std::sqrt(dii * djj);
        EXPECT_NEAR(cosine, i == j ? 1.0 : c, 1e-10)
            << "c=" << c << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Collinearity, TensorShapeAndRange) {
  const auto gen = make_collinear_tensor({10, 12, 11}, 4, 0.4, 0.6, 1102);
  EXPECT_EQ(gen.tensor.shape(), (std::vector<index_t>{10, 12, 11}));
  EXPECT_GE(gen.collinearity, 0.4);
  EXPECT_LT(gen.collinearity, 0.6);
  EXPECT_GT(gen.tensor.frobenius_norm(), 0.0);
  ASSERT_EQ(gen.factors.size(), 3u);
}

TEST(Collinearity, TensorHasExactCpRank) {
  // The generated tensor is exactly rank R: its residual against its own
  // factors is zero.
  const auto gen = make_collinear_tensor({8, 8, 8}, 3, 0.5, 0.6, 1103);
  EXPECT_NEAR(test::explicit_residual(gen.tensor, gen.factors), 0.0, 1e-10);
}

TEST(Collinearity, DeterministicInSeed) {
  const auto a = make_collinear_tensor({6, 6, 6}, 2, 0.2, 0.4, 7);
  const auto b = make_collinear_tensor({6, 6, 6}, 2, 0.2, 0.4, 7);
  EXPECT_DOUBLE_EQ(a.tensor.max_abs_diff(b.tensor), 0.0);
}

/// add_normal_noise against the loop it replaces, kept as its oracle, at
/// sizes around and across the chunk boundary (the largest runs on the
/// team) and at team sizes 1-4.
void expect_noise_matches_serial_loop(const std::string& name, Rng rng) {
  const index_t c = kNoiseChunk;
  const std::vector<index_t> sizes{1, 2, 3, c - 1, c, c + 1, 3 * c + 1};
  for (const index_t n : sizes) {
    std::vector<double> want(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < want.size(); ++i)
      want[i] = 0.5 * static_cast<double>(i % 7) - 1.0;
    const std::vector<double> base = want;
    Rng serial = rng;
    for (double& v : want) v += 0.25 * serial.normal();
    for (int threads = 1; threads <= 4; ++threads) {
      std::vector<double> got = base;
      test::with_threads(threads, [&] { add_normal_noise(got, 0.25, rng); });
      const std::size_t bytes = got.size() * sizeof(double);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
          << name << ", " << n << " entries, " << threads << " threads";
    }
  }
}

TEST(Collinearity, NoiseEqualsTheSerialStreamBitForBit) {
  expect_noise_matches_serial_loop("split", Rng(1102).split(4242));
  // With s[1] == 0 the first output is 0, so normal()'s first u1 is
  // rejected and its pair takes three draws: every chunk after the first
  // starts one draw later than a replay that ignored the rejection.
  Rng crafted;
  crafted.set_state({0x0123456789ABCDEFull, 0, 0x5DEECE66Dull, 42});
  Rng first = crafted;
  ASSERT_EQ(first.next_u64(), 0u);
  expect_noise_matches_serial_loop("crafted", crafted);
  // Mid-pair: the first entry takes the cached spare.
  Rng spare(77);
  (void)spare.normal();
  ASSERT_TRUE(spare.has_spare_normal());
  expect_noise_matches_serial_loop("spare", spare);
}

TEST(Chemistry, ShapeAndSymmetry) {
  ChemistryOptions opt;
  opt.naux = 40;
  opt.norb = 16;
  opt.terms = 20;
  opt.noise = 0.0;
  const auto d = make_density_fitting_tensor(opt);
  EXPECT_EQ(d.shape(), (std::vector<index_t>{40, 16, 16}));
  // Orbital symmetry D(e,p,q) == D(e,q,p) without noise.
  for (index_t e = 0; e < 40; e += 7)
    for (index_t p = 0; p < 16; ++p)
      for (index_t q = 0; q < p; ++q) {
        const std::array<index_t, 3> a{e, p, q}, b{e, q, p};
        EXPECT_NEAR(d.at(a), d.at(b), 1e-12);
      }
}

TEST(Chemistry, CompressibleAtModerateRank) {
  ChemistryOptions opt;
  opt.naux = 30;
  opt.norb = 12;
  opt.terms = 12;
  opt.noise = 1e-5;
  const auto d = make_density_fitting_tensor(opt);
  solver::SolverSpec als;
  als.rank = 16;
  als.stopping.max_sweeps = 80;
  als.stopping.fitness_tol = 1e-7;
  als.engine = core::EngineKind::kDt;
  const auto result = parpp::solve(d, als);
  EXPECT_GT(result.fitness, 0.9) << "density-fitting tensor should compress";
}

TEST(Coil, ShapeAndVariationAcrossPoses) {
  CoilOptions opt;
  opt.height = 12;
  opt.width = 12;
  opt.objects = 3;
  opt.poses = 5;
  const auto t = make_coil_tensor(opt);
  EXPECT_EQ(t.shape(), (std::vector<index_t>{12, 12, 3, 15}));
  // Different poses of the same object differ but are correlated.
  double diff = 0.0;
  for (index_t y = 0; y < 12; ++y)
    for (index_t x = 0; x < 12; ++x) {
      const std::array<index_t, 4> a{y, x, 0, 0}, b{y, x, 0, 1};
      diff += std::abs(t.at(a) - t.at(b));
    }
  EXPECT_GT(diff, 0.0);
}

TEST(Coil, LowRankCompressible) {
  CoilOptions opt;
  opt.height = 10;
  opt.width = 10;
  opt.objects = 2;
  opt.poses = 6;
  opt.patterns_per_object = 3;
  const auto t = make_coil_tensor(opt);
  solver::SolverSpec als;
  als.rank = 16;
  als.stopping.max_sweeps = 60;
  als.stopping.fitness_tol = 1e-7;
  als.engine = core::EngineKind::kDt;
  const auto result = parpp::solve(t, als);
  EXPECT_GT(result.fitness, 0.8);
}

TEST(Hyperspectral, ShapeAndSmoothness) {
  HyperspectralOptions opt;
  opt.height = 16;
  opt.width = 20;
  opt.bands = 8;
  opt.frames = 4;
  const auto t = make_hyperspectral_tensor(opt);
  EXPECT_EQ(t.shape(), (std::vector<index_t>{16, 20, 8, 4}));
  EXPECT_GT(t.frobenius_norm(), 0.0);
  // Spatial smoothness: neighbouring pixels are close relative to range.
  double max_jump = 0.0, max_val = 0.0;
  for (index_t y = 0; y + 1 < 16; ++y)
    for (index_t x = 0; x < 20; ++x) {
      const std::array<index_t, 4> a{y, x, 0, 0}, b{y + 1, x, 0, 0};
      max_jump = std::max(max_jump, std::abs(t.at(a) - t.at(b)));
      max_val = std::max(max_val, std::abs(t.at(a)));
    }
  EXPECT_LT(max_jump, 0.7 * max_val + 1e-12);
}

TEST(Hyperspectral, Deterministic) {
  HyperspectralOptions opt;
  opt.height = 8;
  opt.width = 8;
  opt.bands = 4;
  opt.frames = 3;
  const auto a = make_hyperspectral_tensor(opt);
  const auto b = make_hyperspectral_tensor(opt);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

/// Per-mode slice nnz counts of a COO tensor.
std::vector<std::vector<index_t>> slice_histograms(
    const tensor::CooTensor& t) {
  std::vector<std::vector<index_t>> h(static_cast<std::size_t>(t.order()));
  for (int m = 0; m < t.order(); ++m)
    h[static_cast<std::size_t>(m)].assign(
        static_cast<std::size_t>(t.extent(m)), 0);
  for (index_t e = 0; e < t.nnz(); ++e)
    for (int m = 0; m < t.order(); ++m)
      ++h[static_cast<std::size_t>(m)][static_cast<std::size_t>(t.index(e, m))];
  return h;
}

TEST(SparsePowerlaw, SlicesAreHeadHeavyOnEveryMode) {
  const auto gen = make_sparse_powerlaw({40, 32, 24}, 0.05, 1.5, 17, 0);
  const tensor::CooTensor& t = gen.tensor;
  EXPECT_TRUE(t.coalesced());
  EXPECT_TRUE(gen.factors.empty());
  EXPECT_GT(t.nnz(), 0);
  const auto hist = slice_histograms(t);
  for (int m = 0; m < 3; ++m) {
    const auto& h = hist[static_cast<std::size_t>(m)];
    // Zipf head: the first quarter of the slices must dominate the last
    // quarter by a wide margin.
    index_t head = 0, tail = 0;
    const std::size_t quarter = h.size() / 4;
    for (std::size_t i = 0; i < quarter; ++i) head += h[i];
    for (std::size_t i = h.size() - quarter; i < h.size(); ++i) tail += h[i];
    EXPECT_GT(head, 4 * tail) << "mode " << m;
  }
}

TEST(SparsePowerlaw, ZeroExponentMatchesUniformSkewProfile) {
  // exponent 0 means every slice is equally likely: head and tail quarters
  // must be statistically comparable (within 2x of each other).
  const auto gen = make_sparse_powerlaw({40, 40, 40}, 0.03, 0.0, 19, 0);
  const auto hist = slice_histograms(gen.tensor);
  for (int m = 0; m < 3; ++m) {
    const auto& h = hist[static_cast<std::size_t>(m)];
    index_t head = 0, tail = 0;
    for (std::size_t i = 0; i < 10; ++i) head += h[i];
    for (std::size_t i = 30; i < 40; ++i) tail += h[i];
    EXPECT_LT(head, 2 * tail) << "mode " << m;
    EXPECT_LT(tail, 2 * head) << "mode " << m;
  }
}

TEST(SparsePowerlaw, DeterministicInSeed) {
  const auto a = make_sparse_powerlaw({12, 10, 8}, 0.1, 1.2, 23, 0);
  const auto b = make_sparse_powerlaw({12, 10, 8}, 0.1, 1.2, 23, 0);
  ASSERT_EQ(a.tensor.nnz(), b.tensor.nnz());
  for (index_t e = 0; e < a.tensor.nnz(); ++e) {
    for (int m = 0; m < 3; ++m)
      EXPECT_EQ(a.tensor.index(e, m), b.tensor.index(e, m));
    EXPECT_DOUBLE_EQ(a.tensor.value(e), b.tensor.value(e));
  }
  const auto c = make_sparse_powerlaw({12, 10, 8}, 0.1, 1.2, 24, 0);
  EXPECT_FALSE(c.tensor.nnz() == a.tensor.nnz() &&
               c.tensor.squared_norm() == a.tensor.squared_norm());
}

TEST(SparsePowerlaw, ExactRankOptionIsTheReconstruction) {
  // With exact_rank > 0 the tensor must equal the planted factors'
  // reconstruction on its support — and stay skewed.
  const auto gen = make_sparse_powerlaw({14, 12, 10}, 0.08, 1.3, 29, 4);
  ASSERT_EQ(gen.factors.size(), 3u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(gen.factors[static_cast<std::size_t>(m)].rows(),
              gen.tensor.extent(m));
    EXPECT_EQ(gen.factors[static_cast<std::size_t>(m)].cols(), 4);
  }
  const tensor::DenseTensor full = tensor::reconstruct(gen.factors);
  const tensor::DenseTensor dense = gen.tensor.densify();
  for (index_t e = 0; e < gen.tensor.nnz(); ++e) {
    std::vector<index_t> idx(3);
    for (int m = 0; m < 3; ++m) idx[static_cast<std::size_t>(m)] =
        gen.tensor.index(e, m);
    EXPECT_NEAR(dense.at(idx), full.at(idx), 1e-12) << "entry " << e;
  }
}

}  // namespace
}  // namespace parpp::data
