// Sparse backend benchmark: CSF MTTKRP and ALS sweep throughput versus the
// naive-densified baseline over a density sweep at fixed shape, emitting
// BENCH_sparse.json for cross-PR perf tracking.
//
//   bench_sparse [--size 64] [--rank 16] [--reps 5] [--sweeps 10]
//                [--out BENCH_sparse.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "parpp/util/timer.hpp"
#include "parpp/util/workspace.hpp"

using namespace parpp;

namespace {

struct Row {
  double density_requested = 0.0;
  long long nnz = 0;
  double density = 0.0;
  double csf_mttkrp_ms = 0.0;    ///< all modes, per rep
  double csf_gflops = 0.0;       ///< useful sparse flops 2R(nnz+interior)
  double csf_gbs = 0.0;          ///< bytes-moved model (values + rows + out)
  double dense_mttkrp_ms = 0.0;  ///< densified fused path, all modes
  double dense_gflops = 0.0;     ///< dense flops 2|T|R per mode
  double dense_gbs = 0.0;
  double sparse_sweeps_per_sec = 0.0;
  double densified_sweeps_per_sec = 0.0;
};

/// Bytes the root walk of `mode` streams: one value + one gathered leaf
/// row per nonzero and one row per interior node, plus the output.
double csf_walk_bytes(const tensor::CsfTensor& t, int mode, index_t rank) {
  return (static_cast<double>(t.nnz()) * (1.0 + static_cast<double>(rank)) +
          static_cast<double>(t.tree(mode).internal_nodes) *
              static_cast<double>(rank) +
          static_cast<double>(t.extent(mode)) * static_cast<double>(rank)) *
         8.0;
}

double run_sweeps_per_sec(const solver::TensorSource& t, int rank,
                          int sweeps, core::EngineKind engine) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kAls;
  spec.rank = rank;
  spec.engine = engine;
  spec.stopping.max_sweeps = sweeps;
  spec.stopping.fitness_tol = 0.0;  // run the full sweep budget
  spec.record_history = false;
  WallTimer timer;
  const solver::SolveReport r = parpp::solve(t, spec);
  const double s = timer.seconds();
  return s > 0.0 ? static_cast<double>(r.sweeps) / s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t size = args.get_long("--size", 64);
  const index_t rank = args.get_long("--rank", 16);
  const int reps = static_cast<int>(args.get_long("--reps", 5));
  const int sweeps = static_cast<int>(args.get_long("--sweeps", 10));
  const std::string out_path = args.get_string("--out", "BENCH_sparse.json");
  const std::vector<double> densities{1e-4, 1e-3, 1e-2, 1e-1};

  bench::print_header(
      "Sparse backend — CSF MTTKRP + ALS sweeps vs naive-densified",
      "density sweep at fixed shape (storage-polymorphic tensor layer)");
  std::printf("s=%lld R=%lld reps=%d sweeps=%d\n\n",
              static_cast<long long>(size), static_cast<long long>(rank),
              reps, sweeps);

  const std::vector<index_t> shape{size, size, size};
  std::vector<Row> rows;
  std::printf("%10s %9s %12s %9s %9s %12s %9s %11s %11s\n", "density",
              "nnz", "csf-mtt(ms)", "csf-GF/s", "csf-GB/s", "dns-mtt(ms)",
              "dns-GF/s", "sp-swp/s", "dn-swp/s");
  for (double density : densities) {
    const tensor::CooTensor coo = data::make_sparse_random(shape, density, 7);
    const tensor::CsfTensor csf(coo);
    const tensor::DenseTensor dense = coo.densify();
    const int order = csf.order();

    std::vector<la::Matrix> factors;
    for (int m = 0; m < order; ++m) {
      Rng rng(100 + static_cast<std::uint64_t>(m));
      la::Matrix a(csf.extent(m), rank);
      a.fill_uniform(rng);
      factors.push_back(std::move(a));
    }

    Row row;
    row.density_requested = density;
    row.nnz = static_cast<long long>(csf.nnz());
    row.density = csf.density();

    util::KernelWorkspace ws;
    la::Matrix out;
    double sparse_flops = 0.0;
    for (int m = 0; m < order; ++m) {
      sparse_flops += 2.0 * static_cast<double>(rank) *
                      static_cast<double>(csf.nnz() +
                                          csf.tree(m).internal_nodes);
    }
    // Warm the workspace so the timed reps are steady-state.
    for (int m = 0; m < order; ++m)
      tensor::mttkrp_csf_into(csf, factors, m, out, nullptr, &ws);
    WallTimer timer;
    for (int rep = 0; rep < reps; ++rep)
      for (int m = 0; m < order; ++m)
        tensor::mttkrp_csf_into(csf, factors, m, out, nullptr, &ws);
    row.csf_mttkrp_ms = timer.seconds() / reps * 1e3;
    row.csf_gflops = sparse_flops / (timer.seconds() / reps) * 1e-9;
    double csf_bytes = 0.0;
    for (int m = 0; m < order; ++m) csf_bytes += csf_walk_bytes(csf, m, rank);
    row.csf_gbs = csf_bytes / (timer.seconds() / reps) / (1 << 30);

    const double dense_flops = static_cast<double>(order) * 2.0 *
                               static_cast<double>(dense.size()) *
                               static_cast<double>(rank);
    for (int m = 0; m < order; ++m)
      tensor::mttkrp_into(dense, factors, m, out, nullptr, &ws);
    timer.reset();
    for (int rep = 0; rep < reps; ++rep)
      for (int m = 0; m < order; ++m)
        tensor::mttkrp_into(dense, factors, m, out, nullptr, &ws);
    row.dense_mttkrp_ms = timer.seconds() / reps * 1e3;
    row.dense_gflops = dense_flops / (timer.seconds() / reps) * 1e-9;
    const double dense_bytes =
        static_cast<double>(order) *
        (static_cast<double>(dense.size()) +
         static_cast<double>(size) * static_cast<double>(rank)) *
        8.0;
    row.dense_gbs = dense_bytes / (timer.seconds() / reps) / (1 << 30);

    row.sparse_sweeps_per_sec = run_sweeps_per_sec(
        csf, static_cast<int>(rank), sweeps, core::EngineKind::kSparse);
    row.densified_sweeps_per_sec = run_sweeps_per_sec(
        dense, static_cast<int>(rank), sweeps, core::EngineKind::kNaive);

    rows.push_back(row);
    std::printf(
        "%10.1e %9lld %12.3f %9.2f %9.2f %12.3f %9.2f %11.1f %11.1f\n",
        row.density_requested, row.nnz, row.csf_mttkrp_ms, row.csf_gflops,
        row.csf_gbs, row.dense_mttkrp_ms, row.dense_gflops,
        row.sparse_sweeps_per_sec, row.densified_sweeps_per_sec);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"sparse\",\n  \"size\": %lld,\n"
               "  \"rank\": %lld,\n  \"sweeps\": %d,\n  \"rows\": [\n",
               static_cast<long long>(size), static_cast<long long>(rank),
               sweeps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"density_requested\": %g, \"nnz\": %lld, \"density\": %g, "
        "\"csf_mttkrp_ms\": %.6f, \"csf_gflops\": %.4f, "
        "\"csf_gbs\": %.4f, "
        "\"dense_mttkrp_ms\": %.6f, \"dense_gflops\": %.4f, "
        "\"dense_gbs\": %.4f, "
        "\"sparse_sweeps_per_sec\": %.3f, "
        "\"densified_sweeps_per_sec\": %.3f}%s\n",
        r.density_requested, r.nnz, r.density, r.csf_mttkrp_ms, r.csf_gflops,
        r.csf_gbs, r.dense_mttkrp_ms, r.dense_gflops, r.dense_gbs,
        r.sparse_sweeps_per_sec,
        r.densified_sweeps_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
