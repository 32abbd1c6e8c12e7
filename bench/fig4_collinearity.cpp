// Figure 4 + Table III: PP speed-up vs exact-factor collinearity buckets.
//
// Paper setting: s = 1600, R = 400, 4x4x4 grid, PP tolerance 0.2, stopping
// tolerance 1e-5, <= 300 sweeps, 5 seeds per bucket. Scaled default:
// s = 72, R = 16, sequential solves (the speed-up ratio is what matters),
// 3 seeds per bucket.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "parpp/data/collinearity.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

namespace {

struct RunStat {
  double seconds;
  double fitness;
  int n_als, n_pp_init, n_pp_approx;
};

RunStat time_solver(const tensor::DenseTensor& t, index_t rank, double tol,
                    int max_sweeps, core::EngineKind engine, bool use_pp,
                    double pp_tol) {
  solver::SolverSpec spec;
  spec.method = use_pp ? solver::Method::kPp : solver::Method::kAls;
  spec.rank = rank;
  spec.engine = use_pp ? core::EngineKind::kMsdt : engine;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  spec.pp.pp_tol = pp_tol;
  WallTimer timer;
  const solver::SolveReport r = parpp::solve(t, spec);
  return {timer.seconds(), r.fitness, r.num_als_sweeps, r.num_pp_init,
          r.num_pp_approx};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t s = args.get_long("--size", 72);
  const index_t rank = args.get_long("--rank", 16);
  const int seeds = static_cast<int>(args.get_long("--seeds", 3));
  const int max_sweeps = static_cast<int>(args.get_long("--max-sweeps", 300));
  const double tol = args.get_double("--tol", 1e-5);
  const double pp_tol = args.get_double("--pp-tol", 0.2);
  // Small noise floor so convergence has the slow tail of the paper's
  // large instances (exact tiny rank-R tensors converge in a handful of
  // sweeps and nothing would differentiate the methods).
  const double args_noise = args.get_double("--noise", 1e-3);

  bench::print_header(
      "Figure 4 + Table III — PP/MSDT speed-up vs factor collinearity",
      "Ma & Solomonik, IPDPS 2021, Fig. 4 & Table III (s=1600, R=400, "
      "4x4x4 grid; scaled down, sequential timing)");
  std::printf("s=%lld R=%lld seeds=%d tol=%.0e pp_tol=%.2f\n\n",
              static_cast<long long>(s), static_cast<long long>(rank), seeds,
              tol, pp_tol);
  std::printf("%-12s %9s %9s %8s %8s %11s %11s\n", "collinearity",
              "PP-speedup", "MSDT-spd", "N-ALS", "N-PPinit", "N-PPapprox",
              "fitness-PP");

  const std::vector<std::pair<double, double>> buckets{
      {0.0, 0.2}, {0.2, 0.4}, {0.4, 0.6}, {0.6, 0.8}, {0.8, 1.0}};

  for (const auto& [lo, hi] : buckets) {
    double pp_speedup = 0.0, msdt_speedup = 0.0, fit = 0.0;
    double n_als = 0.0, n_init = 0.0, n_approx = 0.0;
    for (int seed = 0; seed < seeds; ++seed) {
      const auto gen = data::make_collinear_tensor(
          {s, s, s}, rank, lo, hi, 1000 + seed * 37 + static_cast<int>(lo * 10),
          args_noise);
      const RunStat dt = time_solver(gen.tensor, rank, tol, max_sweeps,
                                     core::EngineKind::kDt, false, pp_tol);
      const RunStat msdt = time_solver(gen.tensor, rank, tol, max_sweeps,
                                       core::EngineKind::kMsdt, false, pp_tol);
      const RunStat pp = time_solver(gen.tensor, rank, tol, max_sweeps,
                                     core::EngineKind::kMsdt, true, pp_tol);
      pp_speedup += dt.seconds / pp.seconds;
      msdt_speedup += dt.seconds / msdt.seconds;
      fit += pp.fitness;
      n_als += pp.n_als;
      n_init += pp.n_pp_init;
      n_approx += pp.n_pp_approx;
    }
    const double inv = 1.0 / seeds;
    std::printf("[%.1f, %.1f)   %9.2f %9.2f %8.1f %8.1f %11.1f %11.4f\n", lo,
                hi, pp_speedup * inv, msdt_speedup * inv, n_als * inv,
                n_init * inv, n_approx * inv, fit * inv);
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): PP speed-up peaks for collinearity in\n"
      "[0.4, 0.8) where ALS needs many sweeps and many PP-approximated\n"
      "sweeps activate (Table III); low/high collinearity converges in few\n"
      "sweeps and benefits less.\n");
  return 0;
}
