// Figure 3a: weak scaling of per-sweep time on order-3 synthetic tensors.
//
// Paper setting: s_local = 400, R = 400, grids 1x1x1 .. 8x8x16 on
// Stampede2. Scaled-down default: s_local = 48, R = 32, grids up to
// --max-procs (default 16) simulated thread-ranks. For each grid we report
// the mean per-sweep wall time of PLANC (DT + sequential solve), our DT,
// MSDT, the PP initialization step and the PP approximated step, plus the
// modeled horizontal-communication words of the busiest rank.
#include <cstdio>

#include "bench_util.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/util/rng.hpp"

using namespace parpp;

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t slocal = args.get_long("--slocal", 48);
  const index_t rank = args.get_long("--rank", 32);
  const int max_procs = static_cast<int>(args.get_long("--max-procs", 16));
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 3));

  bench::print_header(
      "Figure 3a — order-3 weak scaling, per-ALS-sweep time (seconds)",
      "Ma & Solomonik, IPDPS 2021, Fig. 3a (s_local=400, R=400 on KNL; "
      "scaled down here)");
  std::printf("s_local=%lld rank=%lld sweeps=%d\n\n",
              static_cast<long long>(slocal), static_cast<long long>(rank),
              sweeps);
  std::printf("%-10s %8s %8s %8s %8s %9s %12s\n", "grid", "PLANC", "DT",
              "MSDT", "PP-init", "PP-approx", "comm-words");

  for (const auto& grid : bench::grid_ladder(3, max_procs)) {
    std::vector<index_t> shape;
    for (int d : grid) shape.push_back(slocal * d);
    tensor::DenseTensor t(shape);
    Rng rng(17);
    t.fill_uniform(rng);

    solver::SolverSpec spec = bench::fixed_sweeps_spec(rank, sweeps, grid);
    spec.engine = core::EngineKind::kDt;
    const double dt = parpp::solve(t, spec).mean_sweep_seconds;
    const double planc =
        parpp::solve(t, bench::planc_preset(spec)).mean_sweep_seconds;
    spec.engine = core::EngineKind::kMsdt;
    const double msdt = parpp::solve(t, spec).mean_sweep_seconds;

    const par::PpKernelTimings pp = par::time_pp_kernels(t, spec, sweeps);

    std::printf("%-10s %8.4f %8.4f %8.4f %8.4f %9.4f %12.3e\n",
                bench::grid_to_string(grid).c_str(), planc, dt, msdt,
                pp.init_seconds, pp.approx_sweep_seconds,
                pp.comm_cost.total().words_horizontal);
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): MSDT < DT consistently; PP-approx is the\n"
      "fastest per-sweep kernel; PP-init is comparable to one DT sweep.\n");
  return 0;
}
