// parpp_cli — command-line front end for the parpp library.
//
// Decomposes a built-in synthetic dataset (or a tensor file written with
// parpp::io) through the parpp::solve() facade: any method (als, pp, nncp,
// pp-nncp) x any engine x sequential or simulated-parallel execution.
//
//   parpp_cli --dataset lowrank --size 64 --rank 16 --engine msdt
//   parpp_cli --dataset chem --rank 32 --pp --save factors.bin
//   parpp_cli --dataset collinear --ranks 8 --engine dt
//   parpp_cli --load tensor.bin --rank 8 --nonneg
//   parpp_cli --dataset timelapse --pp --nonneg          # PP x NNCP
//   parpp_cli --input amazon.tns --rank 16               # sparse (FROSTT)
//   parpp_cli --density 0.01 --size 64 --engine sparse   # synthetic sparse
//   parpp_cli --density 0.01 --ranks 4 --threads-per-rank 2 --pp
//                                             # distributed sparse PP
#include <omp.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "parpp/core/normalize.hpp"
#include "parpp/data/chemistry.hpp"
#include "parpp/data/coil.hpp"
#include "parpp/data/collinearity.hpp"
#include "parpp/data/hyperspectral.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "parpp/util/serialize.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

namespace {

struct Cli {
  std::string dataset = "lowrank";
  std::string load_path;
  std::string input_path;  ///< FROSTT .tns (sparse path)
  std::string save_path;
  double density = 0.0;  ///< selects the synthetic sparse generator
  bool density_set = false;
  bool dataset_set = false;
  std::string engine = "msdt";
  std::string method;  ///< empty: derived from --pp / --nonneg
  std::string partition = "uniform";
  std::string csf_layout = "all-modes";
  index_t size = 64;
  index_t rank = 16;
  int procs = 1;
  int threads_per_rank = 1;
  bool threads_set = false;
  int max_sweeps = 200;
  double tol = 1e-6;
  double pp_tol = 0.1;
  double max_seconds = 0.0;
  std::uint64_t seed = 42;
  bool pp = false;
  bool nonneg = false;
  bool help = false;

  // Chaos / resilience knobs.
  std::string fault = "none";
  int fault_rank = 0;
  int fault_nth = 1;
  std::string fault_collective;  ///< empty: any collective class
  double fault_delay = 0.05;
  int fault_repeat = 1;
  int fault_period = 1;
  double comm_timeout = 0.0;
  std::string elastic = "off";
  std::string checkpoint_path;
  int checkpoint_every = 0;
  bool resume = false;
};

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--dataset") { cli.dataset = next(); cli.dataset_set = true; }
    else if (flag == "--load") cli.load_path = next();
    else if (flag == "--input") cli.input_path = next();
    else if (flag == "--density") {
      cli.density = std::atof(next());
      cli.density_set = true;
    }
    else if (flag == "--save") cli.save_path = next();
    else if (flag == "--engine") cli.engine = next();
    else if (flag == "--csf-layout") cli.csf_layout = next();
    else if (flag == "--method") cli.method = next();
    else if (flag == "--size") cli.size = std::atol(next());
    else if (flag == "--rank") cli.rank = std::atol(next());
    else if (flag == "--procs" || flag == "--ranks")
      cli.procs = std::atoi(next());
    else if (flag == "--partition") cli.partition = next();
    else if (flag == "--threads-per-rank") {
      cli.threads_per_rank = std::atoi(next());
      cli.threads_set = true;
    }
    else if (flag == "--max-sweeps") cli.max_sweeps = std::atoi(next());
    else if (flag == "--tol") cli.tol = std::atof(next());
    else if (flag == "--pp-tol") cli.pp_tol = std::atof(next());
    else if (flag == "--max-seconds") cli.max_seconds = std::atof(next());
    else if (flag == "--seed") cli.seed = std::strtoull(next(), nullptr, 10);
    else if (flag == "--pp") cli.pp = true;
    else if (flag == "--nonneg") cli.nonneg = true;
    else if (flag == "--fault") cli.fault = next();
    else if (flag == "--fault-rank") cli.fault_rank = std::atoi(next());
    else if (flag == "--fault-nth") cli.fault_nth = std::atoi(next());
    else if (flag == "--fault-collective") cli.fault_collective = next();
    else if (flag == "--fault-delay") cli.fault_delay = std::atof(next());
    else if (flag == "--fault-repeat") cli.fault_repeat = std::atoi(next());
    else if (flag == "--fault-period") cli.fault_period = std::atoi(next());
    else if (flag == "--comm-timeout") cli.comm_timeout = std::atof(next());
    else if (flag == "--elastic") cli.elastic = next();
    else if (flag == "--checkpoint") cli.checkpoint_path = next();
    else if (flag == "--checkpoint-every")
      cli.checkpoint_every = std::atoi(next());
    else if (flag == "--resume") cli.resume = true;
    else if (flag == "--help" || flag == "-h") cli.help = true;
    else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", flag.c_str());
      std::exit(2);
    }
  }
  return cli;
}

void usage() {
  std::printf(
      "parpp_cli — CP decomposition with dimension trees and pairwise "
      "perturbation\n\n"
      "  --dataset D     lowrank | random | collinear | chem | coil | "
      "timelapse (default lowrank)\n"
      "  --load FILE     read a tensor written with parpp::io instead\n"
      "  --input FILE    read a sparse FROSTT .tns tensor (CSF storage,\n"
      "                  sparse engine; every method and execution)\n"
      "  --density D     synthetic sparse low-rank tensor at density D\n"
      "                  (same sparse path as --input)\n"
      "  --save FILE     write the resulting factors (parpp::io format)\n"
      "  --method M      als | pp | nncp | pp-nncp (default als; --pp and\n"
      "                  --nonneg compose to the same four methods)\n"
      "  --engine E      naive | dt | msdt | sparse (default msdt; sparse\n"
      "                  inputs always run the sparse engine)\n"
      "  --csf-layout L  all-modes | half — CSF trees kept for sparse\n"
      "                  inputs (half keeps ceil(N/2) trees, halving\n"
      "                  pattern memory; PP needs all-modes; default\n"
      "                  all-modes)\n"
      "  --size S        synthetic mode size (default 64)\n"
      "  --rank R        CP rank (default 16)\n"
      "  --ranks N       simulated ranks (alias --procs); N > 1 runs\n"
      "                  Algorithm 3/4, dense or sparse\n"
      "  --partition P   uniform | balanced — how sparse nonzeros are\n"
      "                  split over the grid (balanced equalizes per-rank\n"
      "                  nnz on skewed tensors; default uniform)\n"
      "  --threads-per-rank T  OpenMP threads inside each rank's kernels\n"
      "                  (parallel default 1; sequential default: ambient)\n"
      "  --pp            use the pairwise-perturbation driver\n"
      "  --nonneg        nonnegative CP via HALS\n"
      "  --max-sweeps N  (default 200)   --tol T (default 1e-6)\n"
      "  --pp-tol E      PP tolerance epsilon (default 0.1)\n"
      "  --max-seconds S wall-clock budget, 0 = unlimited (default 0)\n"
      "  --seed N        RNG seed (default 42)\n\n"
      "resilience (chaos runs need --ranks N > 1):\n"
      "  --fault K       inject a deterministic communication fault:\n"
      "                  delay | timeout | rank-abort | corruption\n"
      "  --fault-rank R  world rank that misbehaves (default 0)\n"
      "  --fault-nth N   fire at rank R's Nth collective (default 1)\n"
      "  --fault-collective C  restrict to one collective class:\n"
      "                  allgather | reduce-scatter | allreduce | bcast |\n"
      "                  alltoall (default: any)\n"
      "  --fault-delay S sleep length for --fault delay (default 0.05)\n"
      "  --fault-repeat N  fire the fault N times (default 1)\n"
      "  --fault-period P  matching collectives between repeats (default 1)\n"
      "  --comm-timeout S  collective timeout; 0 = runtime default\n"
      "  --elastic M     off | shrink — shrink-and-continue recovery:\n"
      "                  survivors rebuild a smaller communicator,\n"
      "                  repartition, and resume from the replicated\n"
      "                  snapshot (status recovered-shrunk; default off)\n"
      "  --checkpoint FILE  crash-consistent checkpoint file\n"
      "  --checkpoint-every K  checkpoint period in sweeps (default 0 = "
      "off)\n"
      "  --resume        warm-start from --checkpoint FILE when it exists\n");
}

tensor::DenseTensor make_dataset(const Cli& cli) {
  if (!cli.load_path.empty()) return io::load_tensor_file(cli.load_path);
  if (cli.dataset == "lowrank") {
    return tensor::reconstruct(
        core::init_factors({cli.size, cli.size, cli.size}, cli.rank, cli.seed));
  }
  if (cli.dataset == "random") {
    tensor::DenseTensor t({cli.size, cli.size, cli.size});
    Rng rng(cli.seed);
    t.fill_uniform(rng);
    return t;
  }
  if (cli.dataset == "collinear") {
    return data::make_collinear_tensor({cli.size, cli.size, cli.size},
                                       cli.rank, 0.5, 0.9, cli.seed, 1e-3)
        .tensor;
  }
  if (cli.dataset == "chem") {
    data::ChemistryOptions opt;
    opt.naux = 2 * cli.size;
    opt.norb = cli.size;
    opt.seed = cli.seed;
    return data::make_density_fitting_tensor(opt);
  }
  if (cli.dataset == "coil") {
    data::CoilOptions opt;
    opt.height = cli.size / 2;
    opt.width = cli.size / 2;
    opt.seed = cli.seed;
    return data::make_coil_tensor(opt);
  }
  if (cli.dataset == "timelapse") {
    data::HyperspectralOptions opt;
    opt.height = cli.size;
    opt.width = cli.size;
    opt.seed = cli.seed;
    return data::make_hyperspectral_tensor(opt);
  }
  std::fprintf(stderr, "unknown dataset %s\n", cli.dataset.c_str());
  std::exit(2);
}

solver::Method method_of(const Cli& cli) {
  if (!cli.method.empty()) {
    if (cli.pp || cli.nonneg) {
      std::fprintf(stderr,
                   "--method cannot be combined with --pp/--nonneg (pick "
                   "one way to select the method)\n");
      std::exit(2);
    }
    const auto m = solver::method_from_string(cli.method);
    if (!m) {
      std::fprintf(stderr, "unknown method %s\n", cli.method.c_str());
      std::exit(2);
    }
    return *m;
  }
  if (cli.pp && cli.nonneg) return solver::Method::kPpNncp;
  if (cli.pp) return solver::Method::kPp;
  if (cli.nonneg) return solver::Method::kNncpHals;
  return solver::Method::kAls;
}

std::optional<mpsim::Collective> collective_of(const std::string& s) {
  if (s == "allgather") return mpsim::Collective::kAllGather;
  if (s == "reduce-scatter") return mpsim::Collective::kReduceScatter;
  if (s == "allreduce") return mpsim::Collective::kAllReduce;
  if (s == "bcast") return mpsim::Collective::kBcast;
  if (s == "alltoall") return mpsim::Collective::kAllToAll;
  return std::nullopt;
}

int run(const Cli& cli) {
  // Validate flag combinations before the (possibly expensive) dataset.
  if (cli.density_set && !(cli.density > 0.0 && cli.density <= 1.0)) {
    std::fprintf(stderr, "--density must be in (0, 1]\n");
    return 2;
  }
  const bool sparse_mode = !cli.input_path.empty() || cli.density_set;
  if (sparse_mode && (!cli.load_path.empty() || cli.dataset_set)) {
    std::fprintf(stderr,
                 "--input/--density selects the sparse path; it cannot be "
                 "combined with --load or --dataset\n");
    return 2;
  }
  if (!cli.input_path.empty() && cli.density_set) {
    std::fprintf(stderr, "pick one of --input and --density\n");
    return 2;
  }
  const solver::Method method = method_of(cli);
  const auto engine = solver::engine_from_string(cli.engine);
  if (!engine) {
    std::fprintf(stderr, "unknown engine %s\n", cli.engine.c_str());
    return 2;
  }
  if (*engine == core::EngineKind::kSparse && !sparse_mode) {
    std::fprintf(stderr,
                 "--engine sparse needs sparse storage: pass --input "
                 "FILE.tns or --density D\n");
    return 2;
  }
  const auto csf_layout = solver::csf_layout_from_string(cli.csf_layout);
  if (!csf_layout) {
    std::fprintf(stderr, "unknown csf layout %s (all-modes | half)\n",
                 cli.csf_layout.c_str());
    return 2;
  }
  if (*csf_layout == tensor::CsfLayout::kHalf && !sparse_mode) {
    std::fprintf(stderr,
                 "--csf-layout applies to sparse storage: pass --input "
                 "FILE.tns or --density D\n");
    return 2;
  }
  if (cli.procs < 1 || cli.threads_per_rank < 1) {
    std::fprintf(stderr, "--ranks and --threads-per-rank must be >= 1\n");
    return 2;
  }
  const auto partition = solver::partition_from_string(cli.partition);
  if (!partition) {
    std::fprintf(stderr, "unknown partition %s (uniform | balanced)\n",
                 cli.partition.c_str());
    return 2;
  }
  if (*partition == dist::PartitionKind::kBalancedNnz && !sparse_mode) {
    std::fprintf(stderr,
                 "--partition balanced needs sparse storage: pass --input "
                 "FILE.tns or --density D\n");
    return 2;
  }
  if (*partition == dist::PartitionKind::kBalancedNnz && cli.procs <= 1) {
    std::fprintf(stderr,
                 "--partition balanced needs a parallel run: pass --ranks "
                 "N > 1 (a single rank has nothing to balance)\n");
    return 2;
  }
  const auto fault_kind = solver::fault_kind_from_string(cli.fault);
  if (!fault_kind) {
    std::fprintf(stderr,
                 "unknown fault %s (none | delay | timeout | rank-abort | "
                 "corruption)\n",
                 cli.fault.c_str());
    return 2;
  }
  if (*fault_kind != mpsim::FaultKind::kNone && cli.procs <= 1) {
    std::fprintf(stderr,
                 "--fault injects communication faults; pass --ranks N > 1\n");
    return 2;
  }
  std::optional<mpsim::Collective> fault_coll;
  if (!cli.fault_collective.empty()) {
    fault_coll = collective_of(cli.fault_collective);
    if (!fault_coll) {
      std::fprintf(stderr,
                   "unknown collective %s (allgather | reduce-scatter | "
                   "allreduce | bcast | alltoall)\n",
                   cli.fault_collective.c_str());
      return 2;
    }
  }
  if ((cli.checkpoint_every > 0 || cli.resume) &&
      cli.checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "--checkpoint-every/--resume need --checkpoint FILE\n");
    return 2;
  }
  if (cli.fault_repeat < 1 || cli.fault_period < 1) {
    std::fprintf(stderr, "--fault-repeat/--fault-period must be >= 1\n");
    return 2;
  }
  const auto elastic_mode = solver::elastic_mode_from_string(cli.elastic);
  if (!elastic_mode) {
    std::fprintf(stderr, "unknown elastic mode %s (off | shrink)\n",
                 cli.elastic.c_str());
    return 2;
  }
  if (*elastic_mode != par::ElasticMode::kOff && cli.procs <= 1) {
    std::fprintf(stderr,
                 "--elastic shrink recovers from rank loss; pass --ranks "
                 "N > 1\n");
    return 2;
  }

  solver::SolverSpec spec;
  spec.method = method;
  spec.engine = *engine;
  spec.rank = cli.rank;
  spec.seed = cli.seed;
  spec.stopping.max_sweeps = cli.max_sweeps;
  spec.stopping.fitness_tol = cli.tol;
  spec.stopping.max_seconds = cli.max_seconds;
  spec.pp.pp_tol = cli.pp_tol;
  if (cli.procs > 1) {
    spec.execution = solver::Execution::simulated_parallel(
        cli.procs, {}, par::SolveMode::kDistributedRows,
        cli.threads_per_rank);
    spec.execution.partition = *partition;
  } else if (cli.threads_set) {
    // Sequential runs use the ambient OpenMP thread count unless the flag
    // is given explicitly — then it caps the kernels the same way the
    // per-rank limit does in parallel runs.
    omp_set_num_threads(cli.threads_per_rank);
  }
  if (*fault_kind != mpsim::FaultKind::kNone) {
    spec.execution.fault.kind = *fault_kind;
    spec.execution.fault.rank = cli.fault_rank;
    spec.execution.fault.nth = cli.fault_nth;
    spec.execution.fault.delay_seconds = cli.fault_delay;
    spec.execution.fault.repeat = cli.fault_repeat;
    spec.execution.fault.period = cli.fault_period;
    spec.execution.fault.seed = cli.seed;
    if (fault_coll) {
      spec.execution.fault.filter_collective = true;
      spec.execution.fault.collective = *fault_coll;
    }
  }
  spec.execution.comm_timeout_seconds = cli.comm_timeout;
  spec.execution.elastic.mode = *elastic_mode;
  spec.checkpoint.path = cli.checkpoint_path;
  spec.checkpoint.every = cli.checkpoint_every;
  spec.checkpoint.resume = cli.resume;

  auto print_run = [&](const char* engine_name) {
    std::printf("method %s, engine %s, %s\n",
                std::string(solver::to_string(spec.method)).c_str(),
                engine_name,
                cli.procs > 1 ? "simulated-parallel" : "sequential");
  };

  WallTimer timer;
  solver::SolveReport report;
  if (sparse_mode) {
    const tensor::CooTensor coo =
        !cli.input_path.empty()
            ? io::load_tns_file(cli.input_path)
            : data::make_sparse_lowrank({cli.size, cli.size, cli.size},
                                        cli.rank, cli.density, cli.seed)
                  .tensor;
    const tensor::CsfTensor t(coo, tensor::CsfOptions{*csf_layout});
    std::printf("tensor:");
    for (index_t e : t.shape())
      std::printf(" %lld", static_cast<long long>(e));
    std::printf("  nnz = %lld (density %.3e)  |T| = %.4e\n",
                static_cast<long long>(t.nnz()), t.density(),
                t.frobenius_norm());
    spec.engine = core::EngineKind::kSparse;
    print_run("sparse");
    timer.reset();
    report = parpp::solve(t, spec);
  } else {
    const tensor::DenseTensor t = make_dataset(cli);
    std::printf("tensor:");
    for (index_t e : t.shape())
      std::printf(" %lld", static_cast<long long>(e));
    std::printf("  |T| = %.4e\n", t.frobenius_norm());
    print_run(std::string(solver::to_string(spec.engine)).c_str());
    timer.reset();
    report = parpp::solve(t, spec);
  }

  if (spec.execution.is_parallel()) {
    std::printf("parallel run on %d ranks: comm %.0f msgs, %.3e words per "
                "rank\n",
                cli.procs, report.comm_cost.total().messages,
                report.comm_cost.total().words_horizontal);
    if (report.nnz_imbalance > 0.0) {
      std::printf("partition %s: nnz imbalance (max/mean) %.3f\n",
                  std::string(solver::to_string(*partition)).c_str(),
                  report.nnz_imbalance);
    }
    if (report.final_ranks > 0 && report.final_ranks != cli.procs) {
      std::printf("elastic shrink: finished on %d of %d ranks",
                  report.final_ranks, cli.procs);
      if (report.post_shrink_nnz_imbalance > 0.0)
        std::printf(" (post-shrink nnz imbalance %.3f)",
                    report.post_shrink_nnz_imbalance);
      std::printf("\n");
    }
  }
  if (report.num_pp_init > 0 || report.num_pp_approx > 0) {
    std::printf("sweeps: %d regular + %d PP-init + %d PP-approx\n",
                report.num_als_sweeps, report.num_pp_init,
                report.num_pp_approx);
  }
  std::printf("fitness %.10f after %d sweeps in %.3fs (stop: %s, status: "
              "%s)\n",
              report.fitness, report.sweeps, timer.seconds(),
              std::string(solver::to_string(report.stop_reason)).c_str(),
              std::string(solver::to_string(report.status)).c_str());
  if (!report.recovery_log.empty()) {
    std::printf("recovery log (%zu event(s)):\n", report.recovery_log.size());
    for (const core::RecoveryEvent& e : report.recovery_log)
      std::printf("  [sweep %d] %s\n", e.sweep, e.what.c_str());
  }

  if (!cli.save_path.empty()) {
    auto factors = std::move(report.factors);
    const auto lambda = core::normalize_columns(factors);
    core::absorb_weights(factors, lambda, 0);
    io::save_factors_file(cli.save_path, factors);
    std::printf("factors written to %s (weights absorbed into mode 0)\n",
                cli.save_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  if (cli.help) {
    usage();
    return 0;
  }
  // Structured errors (bad spec, malformed input file, I/O failure) exit 1
  // with one line on stderr; flag misuse exits 2 above.
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
