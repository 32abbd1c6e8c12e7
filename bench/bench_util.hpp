// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper at
// scaled-down default sizes (each bench's header lists the paper's); pass
// --scale N to grow the workload, --help for per-bench flags.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "parpp/solver/spec.hpp"
#include "parpp/util/common.hpp"

namespace parpp::bench {

/// Minimal command-line flag reader: --name value.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] long get_long(const char* name, long fallback) const {
    const char* v = find(name);
    return v ? std::atol(v) : fallback;
  }
  [[nodiscard]] double get_double(const char* name, double fallback) const {
    const char* v = find(name);
    return v ? std::atof(v) : fallback;
  }
  [[nodiscard]] std::string get_string(const char* name,
                                       const std::string& fallback) const {
    const char* v = find(name);
    return v ? std::string(v) : fallback;
  }
  [[nodiscard]] bool has(const char* name) const {
    for (int i = 1; i < argc_; ++i)
      if (std::strcmp(argv_[i], name) == 0) return true;
    return false;
  }

 private:
  [[nodiscard]] const char* find(const char* name) const {
    for (int i = 1; i + 1 < argc_; ++i)
      if (std::strcmp(argv_[i], name) == 0) return argv_[i + 1];
    return nullptr;
  }
  int argc_;
  char** argv_;
};

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline std::string grid_to_string(const std::vector<int>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) s += "x";
    s += std::to_string(dims[i]);
  }
  return s;
}

/// Weak-scaling grid ladder for order-N tensors: doubles one dimension at a
/// time, mirroring the paper's 1x1x1 .. 8x8x16 progression.
inline std::vector<std::vector<int>> grid_ladder(int order, int max_procs) {
  std::vector<std::vector<int>> grids;
  std::vector<int> g(static_cast<std::size_t>(order), 1);
  grids.push_back(g);
  int procs = 1;
  std::size_t next = g.size();  // double the last dim first, paper-style
  while (procs * 2 <= max_procs) {
    next = next == 0 ? g.size() - 1 : next - 1;
    g[next] *= 2;
    procs *= 2;
    grids.push_back(g);
  }
  return grids;
}

/// ALS at a fixed sweep count (tolerance 0) on the ranks of `grid`; a
/// 1-rank grid runs sequentially.
inline solver::SolverSpec fixed_sweeps_spec(index_t rank, int sweeps,
                                            const std::vector<int>& grid) {
  int procs = 1;
  for (int d : grid) procs *= d;
  solver::SolverSpec spec;
  spec.rank = rank;
  spec.stopping.max_sweeps = sweeps;
  spec.stopping.fitness_tol = 0.0;
  spec.execution = solver::Execution::simulated_parallel(procs, grid);
  return spec;
}

/// The PLANC baseline (paper Sec. II-E): Algorithm 3 with the standard
/// dimension tree and the normal equations solved sequentially on
/// replicated data after gathering the MTTKRP output.
inline solver::SolverSpec planc_preset(solver::SolverSpec spec) {
  spec.engine = core::EngineKind::kDt;
  spec.execution.solve_mode = par::SolveMode::kReplicatedSequential;
  return spec;
}

}  // namespace parpp::bench
