// Table II: per-sweep MTTKRP time of our PP kernels vs the reference PP
// implementation (CTF-style general contractions with global reductions).
//
// Paper grids: 2x4x4 / 4x4x4 / 4x4x8 / 4x8x8 (order 3, s_local=400, R=400)
// and 2x2x2x4 / 2x2x4x4 / 2x4x4x4 / 4x4x4x4 (order 4, s_local=75, R=200).
// Scaled default: grids up to 16 ranks, s_local=40/14.
#include <cstdio>

#include "bench_util.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/par/ref_pp.hpp"
#include "parpp/util/rng.hpp"

using namespace parpp;

namespace {

void run_grid(const std::vector<int>& grid, index_t slocal, index_t rank,
              int sweeps) {
  std::vector<index_t> shape;
  for (int d : grid) shape.push_back(slocal * d);
  tensor::DenseTensor t(shape);
  Rng rng(29);
  t.fill_uniform(rng);

  const solver::SolverSpec spec = bench::fixed_sweeps_spec(rank, sweeps, grid);
  const auto ours = par::time_pp_kernels(t, spec, sweeps);
  const auto ref = par::time_ref_pp_kernels(t, spec, sweeps);

  std::printf("%-12s %9.4f %12.4f %10.4f %13.4f %11.3e %11.3e\n",
              bench::grid_to_string(grid).c_str(), ours.init_seconds,
              ref.init_seconds, ours.approx_sweep_seconds,
              ref.approx_sweep_seconds,
              ours.comm_cost.total().words_horizontal,
              ref.comm_cost.total().words_horizontal);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t slocal3 = args.get_long("--slocal3", 40);
  const index_t rank3 = args.get_long("--rank3", 32);
  const index_t slocal4 = args.get_long("--slocal4", 14);
  const index_t rank4 = args.get_long("--rank4", 24);
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 3));

  // The paper measures on a real interconnect at up to 1024 ranks; in the
  // shared-memory simulator the collectives are nearly free, so by default
  // we inject the alpha-beta modeled delay of a congested fat-tree so the
  // communication-bound behaviour shows up in wall time (disable with
  // --no-network-model; the comm-words columns carry the comparison either
  // way).
  if (!args.has("--no-network-model")) {
    CostParams net;
    net.alpha = 1.0e-5;
    net.beta = 2.0e-8;
    mpsim::NetworkModel::enable(net);
  }

  bench::print_header(
      "Table II — PP kernels vs reference PP implementation (seconds)",
      "Ma & Solomonik, IPDPS 2021, Table II; scaled down here");
  std::printf("%-12s %9s %12s %10s %13s %11s %11s\n", "grid", "PP-init",
              "PP-init-ref", "PP-approx", "PP-approx-ref", "words", "words-ref");

  for (const auto& grid : std::vector<std::vector<int>>{
           {2, 2, 2}, {4, 2, 2}, {4, 4, 1}, {4, 2, 1}}) {
    run_grid(grid, slocal3, rank3, sweeps);
  }
  for (const auto& grid : std::vector<std::vector<int>>{
           {2, 2, 2, 1}, {2, 2, 2, 2}, {2, 2, 1, 1}, {4, 2, 2, 1}}) {
    run_grid(grid, slocal4, rank4, sweeps);
  }

  std::printf(
      "\nExpected shape (paper): both reference kernels are several times\n"
      "slower, dominated by the global reductions of the full PP operators\n"
      "(init) and the per-correction collectives (approx).\n");
  return 0;
}
