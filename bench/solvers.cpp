// Solver-level benchmark: every registered method x engine through the
// parpp::solve() facade, emitting BENCH_solvers.json (sweeps/sec and
// time-to-fitness per cell) for cross-PR perf tracking.
//
//   bench_solvers [--size 40] [--rank 12] [--target 0.9] [--procs 1]
//                 [--max-sweeps 200] [--tol 1e-6] [--out BENCH_solvers.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "parpp/data/collinearity.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

namespace {

struct Cell {
  std::string method;
  std::string engine;
  double fitness = 0.0;
  int sweeps = 0;
  int regular_sweeps = 0, pp_init = 0, pp_approx = 0;
  double seconds = 0.0;
  double sweeps_per_sec = 0.0;
  double time_to_target = -1.0;  ///< seconds; -1 when never reached
};

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const index_t size = args.get_long("--size", 40);
  const index_t rank = args.get_long("--rank", 12);
  const int procs = static_cast<int>(args.get_long("--procs", 1));
  const int max_sweeps = static_cast<int>(args.get_long("--max-sweeps", 200));
  const double tol = args.get_double("--tol", 1e-6);
  const double target = args.get_double("--target", 0.9);
  const std::string out_path =
      args.get_string("--out", "BENCH_solvers.json");

  bench::print_header(
      "Solver matrix — method x engine through parpp::solve()",
      "facade-level sweeps/sec and time-to-fitness (collinearity tensor)");
  std::printf("s=%lld R=%lld procs=%d target=%.2f tol=%.0e\n\n",
              static_cast<long long>(size), static_cast<long long>(rank),
              procs, target, tol);

  const auto gen = data::make_collinear_tensor({size, size, size}, rank, 0.5,
                                               0.9, 97, 1e-3);

  std::vector<Cell> cells;
  std::printf("%-8s %-6s %10s %7s %9s %11s %13s\n", "method", "engine",
              "fitness", "sweeps", "time(s)", "sweeps/sec", "t-to-target");
  for (const solver::Method method :
       {solver::Method::kAls, solver::Method::kPp, solver::Method::kNncpHals,
        solver::Method::kPpNncp}) {
    for (core::EngineKind engine :
         {core::EngineKind::kDt, core::EngineKind::kMsdt}) {
      solver::SolverSpec spec;
      spec.method = method;
      spec.rank = rank;
      spec.engine = engine;
      spec.stopping.max_sweeps = max_sweeps;
      spec.stopping.fitness_tol = tol;
      spec.pp.pp_tol = 0.2;
      if (procs > 1)
        spec.execution = solver::Execution::simulated_parallel(procs);

      WallTimer timer;
      const solver::SolveReport r = parpp::solve(gen.tensor, spec);
      Cell c;
      c.method = std::string(solver::to_string(method));
      c.engine = std::string(solver::to_string(engine));
      c.fitness = r.fitness;
      c.sweeps = r.sweeps;
      c.regular_sweeps = r.num_als_sweeps;
      c.pp_init = r.num_pp_init;
      c.pp_approx = r.num_pp_approx;
      c.seconds = timer.seconds();
      c.sweeps_per_sec =
          c.seconds > 0.0 ? static_cast<double>(c.sweeps) / c.seconds : 0.0;
      for (const core::SweepRecord& rec : r.history) {
        if (rec.fitness >= target) {
          c.time_to_target = rec.seconds;
          break;
        }
      }
      cells.push_back(c);
      std::printf("%-8s %-6s %10.6f %7d %9.3f %11.1f %13.3f\n",
                  c.method.c_str(), c.engine.c_str(), c.fitness, c.sweeps,
                  c.seconds, c.sweeps_per_sec, c.time_to_target);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"solvers\",\n  \"size\": %lld,\n"
               "  \"rank\": %lld,\n  \"procs\": %d,\n"
               "  \"target_fitness\": %g,\n  \"cells\": [\n",
               static_cast<long long>(size), static_cast<long long>(rank),
               procs, target);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"engine\": \"%s\", \"fitness\": %.8f, "
        "\"sweeps\": %d, \"regular_sweeps\": %d, \"pp_init\": %d, "
        "\"pp_approx\": %d, \"seconds\": %.6f, \"sweeps_per_sec\": %.3f, "
        "\"time_to_target\": %.6f}%s\n",
        c.method.c_str(), c.engine.c_str(), c.fitness, c.sweeps,
        c.regular_sweeps, c.pp_init, c.pp_approx, c.seconds,
        c.sweeps_per_sec, c.time_to_target,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu cells)\n", out_path.c_str(), cells.size());
  return 0;
}
