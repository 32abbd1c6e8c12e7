// Figure 3b: weak scaling of per-sweep time on order-4 synthetic tensors.
//
// Paper setting: s_local = 75, R = 200, grids 1x1x1x1 .. 4x4x8x8. Scaled
// default: s_local = 16, R = 24, up to --max-procs simulated ranks.
#include <cstdio>

#include "bench_util.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/util/rng.hpp"

using namespace parpp;

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t slocal = args.get_long("--slocal", 16);
  const index_t rank = args.get_long("--rank", 24);
  const int max_procs = static_cast<int>(args.get_long("--max-procs", 16));
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 3));

  bench::print_header(
      "Figure 3b — order-4 weak scaling, per-ALS-sweep time (seconds)",
      "Ma & Solomonik, IPDPS 2021, Fig. 3b (s_local=75, R=200 on KNL; "
      "scaled down here)");
  std::printf("s_local=%lld rank=%lld sweeps=%d\n\n",
              static_cast<long long>(slocal), static_cast<long long>(rank),
              sweeps);
  std::printf("%-12s %8s %8s %8s %8s %9s %12s\n", "grid", "PLANC", "DT",
              "MSDT", "PP-init", "PP-approx", "comm-words");

  for (const auto& grid : bench::grid_ladder(4, max_procs)) {
    int procs = 1;
    std::vector<index_t> shape;
    for (int d : grid) {
      procs *= d;
      shape.push_back(slocal * d);
    }
    tensor::DenseTensor t(shape);
    Rng rng(19);
    t.fill_uniform(rng);

    solver::SolverSpec spec = bench::fixed_sweeps_spec(rank, sweeps, grid);
    spec.engine = core::EngineKind::kDt;
    const double dt = parpp::solve(t, spec).mean_sweep_seconds;
    const double planc =
        parpp::solve(t, bench::planc_preset(spec)).mean_sweep_seconds;
    spec.engine = core::EngineKind::kMsdt;
    const double msdt = parpp::solve(t, spec).mean_sweep_seconds;

    const par::PpKernelTimings pp = par::time_pp_kernels(
        t, procs, solver::par_options(spec, t.order()), sweeps);

    std::printf("%-12s %8.4f %8.4f %8.4f %8.4f %9.4f %12.3e\n",
                bench::grid_to_string(grid).c_str(), planc, dt, msdt,
                pp.init_seconds, pp.approx_sweep_seconds,
                pp.comm_cost.total().words_horizontal);
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): MSDT < DT; PP-init is *slower* relative to\n"
      "DT than in the order-3 case (tensor transposes in the PP tree); the\n"
      "PP-approx speed-up is smaller than for order 3.\n");
  return 0;
}
