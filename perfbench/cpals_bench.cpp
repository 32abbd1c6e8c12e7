// cpals_bench — end-to-end and per-layer benchmark of parpp::solve().
//
//   cpals_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--spans FILE]
//
// Each run builds its input from --seed, runs one untimed warm-up solve,
// then repeats fixed-work solves (a sweep budget with the convergence stop
// turned off) until --seconds have passed. Every solve's output is checked
// against a residual recomputed here from the returned factors. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// --trace 0 reports the end-to-end metrics (medians over the run's solves;
// no observer, no predicate). --trace 1 reports the per-layer metrics:
// Profile categories and CostCounter tallies of untraced solves, spans the
// benchmark records around replayed calls into core/tensor/la/dist/mpsim,
// and the tracing overhead (a solve with a per-sweep span observer minus an
// untraced one). Spans stay in memory and go to --spans FILE at exit.
// perfbench/README.md maps every metric to its layer and workload.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/data/collinearity.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/dist/sparse_dist.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/mpsim/grid.hpp"
#include "parpp/mpsim/runtime.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "parpp/util/cost_model.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool sparse;
  std::vector<index_t> shape;
  index_t rank;
  solver::Method method;
  core::EngineKind engine;
  int nprocs;   ///< simulated ranks (1 = sequential driver)
  int threads;  ///< OpenMP threads per rank
  int sweeps;   ///< fixed sweep budget of every timed solve
  int warmup_sweeps;
  /// Exact fitness whose first crossing times time_to_fit_s; every solve
  /// must also end at or above it.
  double target;
  /// Start: 0 is the library's seeded random start; > 0 perturbs the
  /// planted factors by Gaussian noise of that relative size.
  double start_sigma;
  // Dense inputs: collinear factors with column collinearity in [c_lo, c_hi)
  // plus Gaussian noise. Sparse inputs: Zipf slice density, planted rank.
  double c_lo = 0.0, c_hi = 0.0, noise = 0.0;
  double density = 0.0, zipf = 0.0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    Workload d3{"dense3-als-seq", false, {256, 256, 256}, 16,
                solver::Method::kAls, core::EngineKind::kMsdt,
                1, 4, 30, 4, 0.98, 0.5};
    d3.c_lo = 0.5, d3.c_hi = 0.9, d3.noise = 1e-3;
    w.push_back(d3);
    Workload d4{"dense4-pp-p4", false, {64, 64, 64, 64}, 16,
                solver::Method::kPp, core::EngineKind::kMsdt,
                4, 1, 60, 12, 0.995, 0.3};
    d4.c_lo = 0.5, d4.c_hi = 0.9, d4.noise = 1e-3;
    w.push_back(d4);
    Workload s3{"sparse3-als-p2t2", true, {3000, 3000, 3000}, 16,
                solver::Method::kAls, core::EngineKind::kSparse,
                2, 2, 150, 10, 0.99, 0.0};
    s3.density = 1e-4, s3.zipf = 1.0;
    w.push_back(s3);
    return w;
  }();
  return all;
}

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent), kept in memory, written at exit.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] double now() const { return origin_.seconds(); }

  int begin(const std::string& name) {
    if (!on_) return -1;
    const int id = add(name, now(), 0.0);
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
  }
  /// A closed span whose times are already known, under the open span.
  int add(const std::string& name, double start, double end) {
    if (!on_) return -1;
    spans_.push_back({name, start, end, open_.empty() ? -1 : open_.back()});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (s.name == name) d.push_back(s.end - s.start);
    return d;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start, end;
    int parent;
  };
  bool on_;
  WallTimer origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { t_.end(id_); }

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Input set-up (timed as setup_s: generation plus storage build)

struct Input {
  tensor::DenseTensor dense;
  tensor::CooTensor coo;  ///< sparse entries, kept for the output check
  std::unique_ptr<tensor::CsfTensor> csf;
  std::vector<la::Matrix> truth;  ///< generating factors
  double generate_s = 0.0;
  double build_s = 0.0;
};

Input make_input(const Workload& w, std::uint64_t seed, Tracer& tr) {
  Input in;
  WallTimer timer;
  {
    ScopedSpan s(tr, "data.generate");
    if (w.sparse) {
      auto gen = data::make_sparse_powerlaw(w.shape, w.density, w.zipf, seed,
                                            w.rank);
      in.coo = std::move(gen.tensor);
      in.truth = std::move(gen.factors);
    } else {
      auto gen = data::make_collinear_tensor(w.shape, w.rank, w.c_lo, w.c_hi,
                                             seed, w.noise);
      in.dense = std::move(gen.tensor);
      in.truth = std::move(gen.factors);
    }
  }
  in.generate_s = timer.seconds();
  if (w.sparse) {
    timer.reset();
    ScopedSpan s(tr, "tensor.csf_build");
    in.csf = std::make_unique<tensor::CsfTensor>(in.coo);
    in.build_s = timer.seconds();
  }
  return in;
}

solver::SolverSpec make_spec(const Workload& w, const Input& in,
                             std::uint64_t seed) {
  solver::SolverSpec spec;
  spec.method = w.method;
  spec.rank = w.rank;
  spec.seed = seed;
  spec.engine = w.engine;
  spec.stopping.max_sweeps = w.sweeps;
  // The drivers loop while |dfit| > tol, so tol = 0 still stops a saturated
  // fit; a negative tolerance keeps every solve at the full sweep budget.
  spec.stopping.fitness_tol = -1.0;
  spec.pp.pp_tol = 0.1;
  // Long approximated phases drift until the PP trust guard discards them
  // (status kRecovered); six approximated sweeps per phase never did on
  // seeds 1-8.
  spec.pp.max_pp_sweeps_per_phase = 6;
  if (w.nprocs > 1) {
    spec.execution = solver::Execution::simulated_parallel(
        w.nprocs, {}, par::SolveMode::kDistributedRows, w.threads);
    spec.execution.partition = dist::PartitionKind::kBalancedNnz;
  }
  // Perturbed planted start: each factor plus seeded Gaussian noise of
  // relative size start_sigma.
  if (w.start_sigma > 0.0) {
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (const la::Matrix& a : in.truth) {
      la::Matrix x = a;
      const double scale = w.start_sigma * a.frobenius_norm() /
                           std::sqrt(static_cast<double>(a.size()));
      for (index_t i = 0; i < x.size(); ++i) x.data()[i] += scale * rng.normal();
      spec.initial_factors.push_back(std::move(x));
    }
  }
  return spec;
}

solver::SolveReport run_solve(const Workload& w, const Input& in,
                              const solver::SolverSpec& spec) {
  return w.sparse ? parpp::solve(*in.csf, spec) : parpp::solve(in.dense, spec);
}

// ---------------------------------------------------------------------------
// Independent output check: exact fitness recomputed from the factors.

double dense_fitness(const tensor::DenseTensor& t,
                     const std::vector<la::Matrix>& factors) {
  const tensor::DenseTensor x = tensor::reconstruct(factors);
  const double* a = t.data();
  const double* b = x.data();
  double diff = 0.0, norm = 0.0;
#pragma omp parallel for reduction(+ : diff, norm) schedule(static)
  for (index_t i = 0; i < t.size(); ++i) {
    const double d = a[i] - b[i];
    diff += d * d;
    norm += a[i] * a[i];
  }
  return 1.0 - std::sqrt(diff / norm);
}

/// ||T - X||^2 = ||T||^2 - 2 <T, X> + ||X||^2, with <T, X> summed over the
/// nonzeros and ||X||^2 the sum of the Hadamard product of factor Grams.
double sparse_fitness(const tensor::CooTensor& t,
                      const std::vector<la::Matrix>& factors) {
  const int n = t.order();
  const index_t r = factors[0].cols();
  double inner = 0.0;
#pragma omp parallel for reduction(+ : inner) schedule(static)
  for (index_t e = 0; e < t.nnz(); ++e) {
    double x = 0.0;
    for (index_t c = 0; c < r; ++c) {
      double p = 1.0;
      for (int m = 0; m < n; ++m) p *= factors[m](t.index(e, m), c);
      x += p;
    }
    inner += t.value(e) * x;
  }
  std::vector<double> had(static_cast<std::size_t>(r * r), 1.0);
  for (int m = 0; m < n; ++m) {
    const la::Matrix& f = factors[static_cast<std::size_t>(m)];
    for (index_t p = 0; p < r; ++p)
      for (index_t q = 0; q < r; ++q) {
        double g = 0.0;
        for (index_t i = 0; i < f.rows(); ++i) g += f(i, p) * f(i, q);
        had[static_cast<std::size_t>(p * r + q)] *= g;
      }
  }
  double xsq = 0.0;
  for (double h : had) xsq += h;
  const double tsq = t.squared_norm();
  return 1.0 - std::sqrt(std::max(0.0, tsq - 2.0 * inner + xsq) / tsq);
}

/// Index of the first exact sweep (als / pp-init) reaching `target`, or -1.
int first_fit_sweep(const solver::SolveReport& r, double target) {
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    const core::SweepRecord& h = r.history[i];
    if (h.phase != "pp-approx" && h.fitness >= target)
      return static_cast<int>(i);
  }
  return -1;
}

struct Solve {
  solver::SolveReport report;
  double solve_s = 0.0;
  double fitness = 0.0;  ///< recomputed here
  bool ok = false;
  int fit_sweep = -1;
  /// solve() entry to the record of the first exact sweep at the target:
  /// the solve's wall time minus the driver time after that record.
  double time_to_fit_s = 0.0;
};

Solve timed_solve(const Workload& w, const Input& in,
                  const solver::SolverSpec& spec) {
  Solve s;
  const WallTimer timer;
  s.report = run_solve(w, in, spec);
  s.solve_s = timer.seconds();
  const solver::SolveReport& r = s.report;
  s.fitness = w.sparse ? sparse_fitness(in.coo, r.factors)
                       : dense_fitness(in.dense, r.factors);
  s.fit_sweep = first_fit_sweep(r, w.target);
  if (s.fit_sweep >= 0) {
    s.time_to_fit_s =
        s.solve_s - (r.history.back().seconds -
                     r.history[static_cast<std::size_t>(s.fit_sweep)].seconds);
  }
  s.ok = r.status == core::SolveStatus::kOk && r.sweeps == w.sweeps &&
         std::abs(s.fitness - r.fitness) <= 1e-6 && s.fit_sweep >= 0 &&
         s.fitness >= w.target;
  if (!s.ok) {
    std::fprintf(stderr,
                 "check failed: status %d sweeps %d reported fitness %.9f "
                 "recomputed %.9f first sweep at target %d\n",
                 static_cast<int>(r.status), r.sweeps, r.fitness, s.fitness,
                 s.fit_sweep);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Per-layer numbers read from one solve's report.

using Metrics = std::map<std::string, double>;

Metrics report_layers(const Workload& w, const Input& in, const Solve& s) {
  const solver::SolveReport& r = s.report;
  const bool par = w.nprocs > 1;
  const Profile& prof = par ? r.critical_path_profile : r.profile;
  const int n = static_cast<int>(w.shape.size());
  const double sweeps = static_cast<double>(r.sweeps);
  Metrics m;

  m["solver.sweeps_to_fit"] = s.fit_sweep + 1;
  m["solver.unattributed_s"] = s.solve_s - prof.total_seconds();
  m["tensor.ttm_s"] = prof.seconds(Kernel::kTTM);
  m["tensor.mttv_s"] = prof.seconds(Kernel::kMTTV);
  m["la.solve_s"] = prof.seconds(Kernel::kSolve);
  m["la.hadamard_s"] = prof.seconds(Kernel::kHadamard);
  m["mpsim.comm_s"] = prof.seconds(Kernel::kComm);
  const double ttm_s = prof.seconds(Kernel::kTTM);
  const double ttm_flops = prof.flops(Kernel::kTTM);
  m["tensor.ttm_gflops"] = ttm_s > 0.0 ? ttm_flops / ttm_s * 1e-9 : 0.0;

  // Bytes computed from array sizes, not measured traffic. Dense: each
  // first-level TTM reads its input (flops / 2R elements) and writes that
  // times R / s. Sparse: each of the N CSF walks per sweep streams the
  // values, one tree's pattern, the factors and the output.
  double ttm_bytes = 0.0;
  const auto rk = static_cast<double>(w.rank);
  if (w.sparse) {
    const tensor::CsfTensor& t = *in.csf;
    const double walk = static_cast<double>(t.nnz()) +
                        static_cast<double>(t.pattern_words()) /
                            static_cast<double>(t.tree_count()) +
                        n * static_cast<double>(w.shape[0]) * rk;
    ttm_bytes = 8.0 * sweeps * n * walk;
  } else {
    const double s_local = std::ceil(
        static_cast<double>(w.shape[0]) /
        mpsim::ProcessorGrid::balanced_dims(w.nprocs, n)[0]);
    ttm_bytes = 8.0 * ttm_flops / (2.0 * rk) * (1.0 + rk / s_local);
  }
  m["tensor.ttm_gbs_computed"] = ttm_s > 0.0 ? ttm_bytes / ttm_s * 1e-9 : 0.0;

  // Mean duration of each sweep kind, from the history's timestamps (the
  // first record also holds the driver's set-up, so it is skipped).
  std::map<std::string, std::vector<double>> dur;
  std::map<std::string, double> phase_flops;
  std::map<std::string, int> phase_count;
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    const std::string& ph = r.history[i].phase;
    if (i > 0)
      dur[ph].push_back(r.history[i].seconds - r.history[i - 1].seconds);
    if (par && i < r.sweep_profiles.size()) {
      phase_flops[ph] += r.sweep_profiles[i].total_flops();
      ++phase_count[ph];
    }
  }
  m["core.sweep_s.als"] = mean(dur["als"]);
  m["core.sweep_s.pp_init"] = mean(dur["pp-init"]);
  m["core.sweep_s.pp_approx"] = mean(dur["pp-approx"]);

  // Measured flops per exact ALS sweep next to the Table I prediction.
  const double als_flops =
      par ? (phase_count["als"] ? phase_flops["als"] / phase_count["als"] : 0.0)
          : prof.total_flops() / sweeps;
  m["core.flops_per_sweep"] = als_flops;
  if (!w.sparse) {
    const TableOneModel model{n, w.shape[0], w.rank, w.nprocs};
    const double predicted =
        par ? model.msdt_local_flops() : model.msdt_seq_flops();
    m["core.model_flops_per_sweep"] = predicted;
    m["core.flops_model_ratio"] = als_flops / predicted;
    if (phase_count["pp-approx"] > 0) {
      m["core.flops_model_ratio.pp_approx"] =
          phase_flops["pp-approx"] / phase_count["pp-approx"] /
          model.pp_approx_local_flops();
    }
    if (par) m["mpsim.model_words_per_sweep"] =
        model.local_tree_horizontal_words();
  }

  const CostTally& cc = r.comm_cost.total();
  m["mpsim.msgs_per_sweep"] = cc.messages / sweeps;
  m["mpsim.words_per_sweep"] = cc.words_horizontal / sweeps;
  const CostParams params;
  m["mpsim.model_comm_s"] =
      cc.messages * params.alpha + cc.words_horizontal * params.beta;
  m["dist.nnz_imbalance"] = r.nnz_imbalance;
  return m;
}

// ---------------------------------------------------------------------------
// Replayed calls into single layers, each inside a span. They run after the
// solves, at the workload's shapes, starting from the solved factors.

/// MSDT engine: one warm sweep, then 2(N-1) steady sweeps (one full period
/// of heavy and light MSDT sweeps) of mttkrp / notify_update per mode.
void replay_engine(const Workload& w, const Input& in,
                   const std::vector<la::Matrix>& solved, Tracer& tr,
                   Metrics& m) {
  const int n = static_cast<int>(solved.size());
  Profile prof;
  std::unique_ptr<core::MttkrpEngine> eng;
  {
    ScopedSpan s(tr, "core.make_engine");
    eng = core::make_engine(w.engine, in.dense, solved, &prof);
  }
  const int steady = 2 * (n - 1);
  long ttm0 = 0, mttv0 = 0;
  for (int sweep = 0; sweep <= steady; ++sweep) {
    if (sweep == 1) ttm0 = eng->ttm_count(), mttv0 = eng->mttv_count();
    const std::string call = sweep == 0 ? "core.mttkrp.warm" : "core.mttkrp";
    for (int mode = 0; mode < n; ++mode) {
      {
        ScopedSpan s(tr, call);
        const la::Matrix out = eng->mttkrp(mode);
      }
      ScopedSpan s(tr, "core.notify_update");
      eng->notify_update(mode);
    }
  }
  m["core.mttkrp_call_s"] = mean(tr.durations("core.mttkrp"));
  m["core.ttm_per_sweep"] =
      static_cast<double>(eng->ttm_count() - ttm0) / steady;
  m["core.mttv_per_sweep"] =
      static_cast<double>(eng->mttv_count() - mttv0) / steady;
}

/// PP operator build (the first build allocates its arena and is not
/// counted) and approximated MTTKRPs after a small factor perturbation.
void replay_pp(const Input& in, const std::vector<la::Matrix>& solved,
               Tracer& tr, Metrics& m) {
  std::vector<la::Matrix> f = solved;
  const int n = static_cast<int>(f.size());
  Profile prof;
  core::PpOperators ops(in.dense, f, &prof);
  ops.build();
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan s(tr, "core.pp_build");
    ops.build();
  }
  const std::vector<la::Matrix> a_p = f;
  std::vector<la::Matrix> grams;
  for (la::Matrix& a : f) {
    for (index_t i = 0; i < a.size(); ++i) a.data()[i] *= 1.001;
    grams.push_back(la::gram(a));
  }
  core::PpApprox approx(ops, f, a_p, grams, &prof);
  for (int i = 0; i < n; ++i) approx.refresh_mode(i);
  for (int rep = 0; rep < 20; ++rep) {
    for (int mode = 0; mode < n; ++mode) {
      ScopedSpan s(tr, "core.pp_approx");
      const la::Matrix out = approx.mttkrp_approx(mode);
    }
  }
  m["core.pp_build_s"] = mean(tr.durations("core.pp_build"));
  m["core.pp_approx_call_s"] = mean(tr.durations("core.pp_approx"));
}

/// The mode-0 first-level TTM GEMM, out(right x R) = T^T A, at the local
/// block shape one rank sees and with that rank's thread count.
void replay_gemm(const Workload& w, const Input& in,
                 const std::vector<la::Matrix>& solved, Tracer& tr,
                 Metrics& m) {
  const int n = static_cast<int>(w.shape.size());
  const std::vector<int> dims =
      mpsim::ProcessorGrid::balanced_dims(w.nprocs, n);
  std::vector<index_t> local(w.shape.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    local[i] = (w.shape[i] + dims[i] - 1) / dims[i];
  const index_t k = local[0];
  index_t right = 1;
  for (std::size_t i = 1; i < local.size(); ++i) right *= local[i];
  const index_t r = w.rank;
  std::vector<double> out(static_cast<std::size_t>(right * r));
  omp_set_num_threads(w.threads);
  for (int rep = 0; rep < 6; ++rep) {
    ScopedSpan s(tr, rep == 0 ? "la.gemm.warm" : "la.gemm");
    la::gemm_raw(la::Trans::kYes, la::Trans::kNo, right, r, k, 1.0,
                 in.dense.data(), right, solved[0].data(), r, 0.0, out.data(),
                 r);
  }
  omp_set_num_threads(w.nprocs * w.threads);
  const double flops = 2.0 * static_cast<double>(right) * r * k;
  m["la.gemm_gflops"] = flops / median(tr.durations("la.gemm")) * 1e-9;
}

/// One all-reduce of the solve's mean all-reduce payload on the solve's
/// rank count (CostCounter charges 2 log2(P) messages and 2 n words each).
void replay_allreduce(const Workload& w, const solver::SolveReport& r,
                      Tracer& tr, Metrics& m) {
  const CostTally& ar = r.comm_cost.by_class(mpsim::Collective::kAllReduce);
  const double calls = ar.messages / (2.0 * std::log2(w.nprocs));
  const auto count = std::max<index_t>(
      1, static_cast<index_t>(std::llround(ar.words_horizontal / 2.0 / calls)));
  mpsim::RunOptions opt;
  opt.threads_per_rank = w.threads;
  mpsim::run(
      w.nprocs,
      [&](mpsim::Comm& comm) {
        std::vector<double> buf(static_cast<std::size_t>(count), 1.0);
        for (int rep = 0; rep < 200; ++rep) {
          std::optional<ScopedSpan> s;
          if (comm.rank() == 0 && rep >= 20) s.emplace(tr, "mpsim.allreduce");
          comm.allreduce_sum(buf.data(), count,
                             PARPP_COMM_TAG("bench-replay-allreduce"));
        }
      },
      opt);
  m["mpsim.allreduce_call_s"] = mean(tr.durations("mpsim.allreduce"));
  m["mpsim.allreduce_words"] = static_cast<double>(count);
}

/// The nnz-balanced partition the sparse solve builds before its sweeps:
/// entry list and histograms, boundaries, and every rank's local CSF block.
void replay_partition(const Workload& w, const Input& in, Tracer& tr,
                      Metrics& m) {
  {
    ScopedSpan s(tr, "dist.partition");
    const dist::BalancedSparseDist problem(*in.csf);
    mpsim::RunOptions opt;
    opt.threads_per_rank = w.threads;
    mpsim::run(
        w.nprocs,
        [&](mpsim::Comm& comm) {
          const mpsim::ProcessorGrid grid(
              comm, mpsim::ProcessorGrid::balanced_dims(
                        w.nprocs, static_cast<int>(w.shape.size())));
          const dist::BlockDist bd = problem.make_block_dist(grid);
          const auto local = problem.make_local(bd, grid.coords());
        },
        opt);
  }
  m["dist.partition_s"] = mean(tr.durations("dist.partition"));
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end (untraced run) and per-layer (traced run) metrics, in the
// order printed. A per-layer metric a workload does not exercise reads 0.
const std::vector<Metric> kEndToEnd = {
    {"time_to_fit_s", "s"}, {"solve_s", "s"},     {"setup_s", "s"},
    {"peak_rss_mb", "MB"},  {"fitness", "fraction"},
};
const std::vector<Metric> kPerLayer = {
    {"solver.sweeps_to_fit", "count"},
    {"solver.unattributed_s", "s"},
    {"core.sweep_s.als", "s"},
    {"core.sweep_s.pp_init", "s"},
    {"core.sweep_s.pp_approx", "s"},
    {"core.mttkrp_call_s", "s"},
    {"core.ttm_per_sweep", "count"},
    {"core.mttv_per_sweep", "count"},
    {"core.pp_build_s", "s"},
    {"core.pp_approx_call_s", "s"},
    {"core.flops_per_sweep", "flop"},
    {"core.model_flops_per_sweep", "flop"},
    {"core.flops_model_ratio", "ratio"},
    {"core.flops_model_ratio.pp_approx", "ratio"},
    {"tensor.ttm_s", "s"},
    {"tensor.ttm_gflops", "GFLOP/s"},
    {"tensor.ttm_gbs_computed", "GB/s"},
    {"tensor.mttv_s", "s"},
    {"tensor.csf_build_s", "s"},
    {"la.solve_s", "s"},
    {"la.hadamard_s", "s"},
    {"la.gemm_gflops", "GFLOP/s"},
    {"dist.partition_s", "s"},
    {"dist.nnz_imbalance", "ratio"},
    {"mpsim.comm_s", "s"},
    {"mpsim.msgs_per_sweep", "count"},
    {"mpsim.words_per_sweep", "words"},
    {"mpsim.model_words_per_sweep", "words"},
    {"mpsim.model_comm_s", "s"},
    {"mpsim.allreduce_call_s", "s"},
    {"mpsim.allreduce_words", "words"},
    {"data.generate_s", "s"},
    {"trace.solve_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& names, const Metrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].name);
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", names[i].name,
                it == values.end() ? 0.0 : it->second, names[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val);
    } else if (key == "--trace") {
      a.trace = std::atoi(val) != 0;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || argc % 2 == 0) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const Workload* wp = nullptr;
  if (args) {
    for (const Workload& w : workloads())
      if (args->workload == w.name) wp = &w;
  }
  if (!wp) {
    std::fprintf(stderr,
                 "usage: cpals_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\nworkloads:");
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *wp;
  Tracer tr(args->trace);
  omp_set_num_threads(w.nprocs * w.threads);

  // Set-up, several times; the last input is the one solved.
  constexpr int kSetups = 3;
  std::vector<double> setup_s, generate_s, build_s;
  Input in;
  for (int rep = 0; rep < kSetups; ++rep) {
    in = Input{};
    const WallTimer timer;
    in = make_input(w, args->seed, tr);
    setup_s.push_back(timer.seconds());
    generate_s.push_back(in.generate_s);
    build_s.push_back(in.build_s);
  }
  std::fprintf(stderr, "%s seed %llu: %lld %s\n", w.name,
               static_cast<unsigned long long>(args->seed),
               static_cast<long long>(w.sparse ? in.coo.nnz() : in.dense.size()),
               w.sparse ? "nonzeros" : "entries");

  const solver::SolverSpec spec = make_spec(w, in, args->seed);
  {
    solver::SolverSpec warm = spec;
    warm.stopping.max_sweeps = w.warmup_sweeps;
    (void)run_solve(w, in, warm);
  }

  // Timed solves until --seconds have passed (at least three untraced
  // solves, or one untraced/traced pair when tracing).
  std::vector<Solve> plain;
  std::vector<double> traced_s;
  int attempted = 0, failed = 0;
  const WallTimer run_timer;
  const std::size_t min_solves = args->trace ? 1 : 3;
  while (plain.size() < min_solves || run_timer.seconds() < args->seconds) {
    {
      ScopedSpan s(tr, "solver.solve");
      plain.push_back(timed_solve(w, in, spec));
    }
    ++attempted;
    failed += plain.back().ok ? 0 : 1;
    if (!args->trace) continue;

    // Traced twin: an observer closes one span per sweep.
    solver::SolverSpec traced = spec;
    ScopedSpan solve_span(tr, "solver.solve.traced");
    double last = tr.now();
    traced.observer = [&](const core::SweepRecord& rec,
                          const std::vector<la::Matrix>&) {
      const double t = tr.now();
      tr.add("solver.sweep." + rec.phase, last, t);
      last = t;
      return solver::ObserverAction::kContinue;
    };
    const Solve s = timed_solve(w, in, traced);
    traced_s.push_back(s.solve_s);
    ++attempted;
    failed += s.ok ? 0 : 1;
  }

  Metrics m;
  std::vector<double> solve_s, ttf_s, fitness;
  for (const Solve& s : plain) {
    solve_s.push_back(s.solve_s);
    fitness.push_back(s.fitness);
    if (s.fit_sweep >= 0) ttf_s.push_back(s.time_to_fit_s);
  }
  if (!args->trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["time_to_fit_s"] = median(ttf_s);
    m["solve_s"] = median(solve_s);
    m["setup_s"] = median(setup_s);
    m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    m["fitness"] = median(fitness);
    print_result(failed == 0, attempted, failed, kEndToEnd, m);
    return 0;
  }

  // Per-layer: medians over the untraced solves' reports, then replays.
  std::map<std::string, std::vector<double>> layers;
  for (const Solve& s : plain)
    for (const auto& [k, v] : report_layers(w, in, s)) layers[k].push_back(v);
  for (const auto& [k, v] : layers) m[k] = median(v);
  m["data.generate_s"] = median(generate_s);
  m["tensor.csf_build_s"] = median(build_s);
  m["trace.solve_s"] = median(solve_s);
  m["trace.overhead_s"] = median(traced_s) - median(solve_s);

  const Solve& last = plain.back();
  if (!w.sparse) {
    replay_engine(w, in, last.report.factors, tr, m);
    replay_gemm(w, in, last.report.factors, tr, m);
    if (w.method == solver::Method::kPp)
      replay_pp(in, last.report.factors, tr, m);
  } else {
    replay_partition(w, in, tr, m);
  }
  if (w.nprocs > 1) replay_allreduce(w, last.report, tr, m);
  m["trace.spans"] = static_cast<double>(tr.size());

  if (!args->spans_path.empty() && !tr.write(args->spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 args->spans_path.c_str());
    return 1;
  }
  print_result(failed == 0, attempted, failed, kPerLayer, m);
  return 0;
}
