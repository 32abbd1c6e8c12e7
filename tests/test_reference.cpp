// A 1-rank solve against the brute-force reference sweeps of test_util.hpp:
// the baseline the k-rank parity suites compare with is itself checked
// against code that shares no engine, sweep-loop or distribution logic.
#include <gtest/gtest.h>

#include <string>

#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

constexpr int kSweeps = 6;
constexpr index_t kRank = 3;
constexpr std::uint64_t kSeed = 29;

solver::SolverSpec reference_spec(solver::Method method,
                                  core::EngineKind engine) {
  solver::SolverSpec spec;
  spec.method = method;
  spec.engine = engine;
  spec.rank = kRank;
  spec.seed = kSeed;
  spec.stopping.max_sweeps = kSweeps;
  spec.stopping.fitness_tol = -1.0;  // every sweep runs
  return spec;
}

void expect_matches_reference(const tensor::DenseTensor& dense,
                              const solver::SolveReport& r, bool hals) {
  const std::vector<la::Matrix> ref =
      test::reference_sweeps(dense, kRank, kSeed, kSweeps, hals);
  ASSERT_EQ(r.sweeps, kSweeps);
  ASSERT_EQ(r.factors.size(), ref.size());
  for (std::size_t m = 0; m < ref.size(); ++m)
    test::expect_matrix_near(r.factors[m], ref[m], 1e-6, "factor");
  EXPECT_NEAR(r.fitness, 1.0 - test::explicit_residual(dense, ref), 1e-8);
}

TEST(ReferenceSweep, DenseOneRankSolveMatchesBruteForce) {
  const std::vector<std::vector<index_t>> shapes{{9, 8, 7}, {6, 5, 4, 5}};
  for (const auto& shape : shapes) {
    const tensor::DenseTensor t = test::random_tensor(shape, 31);
    for (const bool hals : {false, true}) {
      for (const core::EngineKind engine :
           {core::EngineKind::kNaive, core::EngineKind::kDt,
            core::EngineKind::kMsdt}) {
        SCOPED_TRACE("order " + std::to_string(shape.size()) + " " +
                     (hals ? "nncp " : "als ") +
                     core::engine_kind_name(engine));
        const auto spec = reference_spec(
            hals ? solver::Method::kNncpHals : solver::Method::kAls, engine);
        expect_matches_reference(t, parpp::solve(t, spec), hals);
      }
    }
  }
}

TEST(ReferenceSweep, SparseOneRankSolveMatchesBruteForce) {
  const auto gen = data::make_sparse_lowrank({11, 10, 9}, 3, 0.2, 37);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();
  for (const bool hals : {false, true}) {
    SCOPED_TRACE(hals ? "nncp" : "als");
    const auto spec =
        reference_spec(hals ? solver::Method::kNncpHals : solver::Method::kAls,
                       core::EngineKind::kSparse);
    expect_matches_reference(dense, parpp::solve(csf, spec), hals);
  }
}

}  // namespace
}  // namespace parpp
