// Figure 3c-f: per-sweep time breakdown into TTM / mTTV / hadamard / solve /
// others (+ comm, which the paper folds into the kernels it delays).
//
// Paper grids: 2x4x4 and 8x8x8 for order 3 (s_local=400, R=400), 2x2x2x2 and
// 4x4x4x4 for order 4 (s_local=75, R=200). Scaled default grids: 2x2x2 and
// 2x2x4 (order 3), 2x2x2x2 (order 4), with s_local=48/16.
#include <cstdio>

#include "bench_util.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/util/rng.hpp"

using namespace parpp;

namespace {

void print_profile_row(const char* method, const Profile& p) {
  std::printf("%-10s %8.4f %8.4f %9.4f %8.4f %8.4f %8.4f | total %8.4f\n",
              method, p.seconds(Kernel::kTTM), p.seconds(Kernel::kMTTV),
              p.seconds(Kernel::kHadamard), p.seconds(Kernel::kSolve),
              p.seconds(Kernel::kComm), p.seconds(Kernel::kOther),
              p.total_seconds());
}

Profile mean_sweep_profile(const std::vector<Profile>& sweeps) {
  Profile mean;
  if (sweeps.empty()) return mean;
  for (const auto& p : sweeps) mean.accumulate(p);
  Profile scaled;
  for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k) {
    scaled.add(static_cast<Kernel>(k),
               mean.seconds(static_cast<Kernel>(k)) /
                   static_cast<double>(sweeps.size()),
               mean.flops(static_cast<Kernel>(k)) /
                   static_cast<double>(sweeps.size()));
  }
  return scaled;
}

void run_case(const char* label, const std::vector<int>& grid, index_t slocal,
              index_t rank, int sweeps) {
  std::vector<index_t> shape;
  for (int d : grid) shape.push_back(slocal * d);
  tensor::DenseTensor t(shape);
  Rng rng(23);
  t.fill_uniform(rng);

  std::printf("\n--- %s: grid %s (s_local=%lld, R=%lld) ---\n", label,
              bench::grid_to_string(grid).c_str(),
              static_cast<long long>(slocal), static_cast<long long>(rank));
  std::printf("%-10s %8s %8s %9s %8s %8s %8s\n", "method", "TTM", "mTTV",
              "hadamard", "solve", "comm", "others");

  solver::SolverSpec spec = bench::fixed_sweeps_spec(rank, sweeps, grid);
  spec.engine = core::EngineKind::kDt;

  const auto planc = parpp::solve(t, bench::planc_preset(spec));
  print_profile_row("PLANC", mean_sweep_profile(planc.sweep_profiles));

  const auto dt = parpp::solve(t, spec);
  print_profile_row("DT", mean_sweep_profile(dt.sweep_profiles));

  spec.engine = core::EngineKind::kMsdt;
  const auto msdt = parpp::solve(t, spec);
  print_profile_row("MSDT", mean_sweep_profile(msdt.sweep_profiles));

  const auto pp = par::time_pp_kernels(t, spec, sweeps);
  print_profile_row("PP-init", pp.init_profile);
  Profile approx = mean_sweep_profile({pp.approx_profile});
  // approx_profile is summed over `sweeps`; normalize.
  Profile approx_mean;
  for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k)
    approx_mean.add(static_cast<Kernel>(k),
                    approx.seconds(static_cast<Kernel>(k)) / sweeps,
                    approx.flops(static_cast<Kernel>(k)) / sweeps);
  print_profile_row("PP-approx", approx_mean);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t slocal3 = args.get_long("--slocal3", 48);
  const index_t rank3 = args.get_long("--rank3", 32);
  const index_t slocal4 = args.get_long("--slocal4", 16);
  const index_t rank4 = args.get_long("--rank4", 24);
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 3));

  bench::print_header(
      "Figure 3c-f — per-sweep time breakdown by kernel (seconds)",
      "Ma & Solomonik, IPDPS 2021, Fig. 3c/3d (order 3, grids 2x4x4 & 8x8x8) "
      "and Fig. 3e/3f (order 4, grids 2x2x2x2 & 4x4x4x4); scaled down here");

  run_case("Fig 3c analogue (order 3, small grid)", {2, 2, 2}, slocal3, rank3,
           sweeps);
  run_case("Fig 3d analogue (order 3, large grid)", {4, 2, 2}, slocal3, rank3,
           sweeps);
  run_case("Fig 3e analogue (order 4, small grid)", {2, 2, 2, 1}, slocal4,
           rank4, sweeps);
  run_case("Fig 3f analogue (order 4, large grid)", {2, 2, 2, 2}, slocal4,
           rank4, sweeps);

  std::printf(
      "\nExpected shape (paper): TTM dominates every kernel except\n"
      "PP-approx, which is mTTV-bound (memory-bandwidth bound); solve time\n"
      "is visible for PLANC on the larger grids (sequential solve).\n");
  return 0;
}
