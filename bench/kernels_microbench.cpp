// Google-benchmark microbenchmarks for the compute kernels underlying all
// of the paper-reproduction harnesses: GEMM, first-level TTM, batched mTTV,
// tensor transpose, Gram, the SPD solve, the PP operator build, and the
// fused vs KRP+GEMM MTTKRP comparison the allocation-free path is judged by.
//
// These quantify the compute/bandwidth character the paper's breakdown
// relies on (TTM compute-bound, mTTV bandwidth-bound). Unless the caller
// passes --benchmark_out, results are also written to BENCH_kernels.json
// (GFLOP/s and GB/s counters per kernel) so successive PRs have a perf
// trajectory to regress against.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <cstring>
#include <string>
#include <vector>

#include "parpp/core/gram.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/la/spd_solve.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "parpp/tensor/mttv.hpp"
#include "parpp/tensor/transpose.hpp"
#include "parpp/tensor/ttm.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/workspace.hpp"

using namespace parpp;

namespace {

la::Matrix rand_matrix(index_t r, index_t c, std::uint64_t seed) {
  la::Matrix m(r, c);
  Rng rng(seed);
  m.fill_uniform(rng);
  return m;
}

tensor::DenseTensor rand_tensor(std::vector<index_t> shape,
                                std::uint64_t seed) {
  tensor::DenseTensor t(std::move(shape));
  Rng rng(seed);
  t.fill_uniform(rng);
  return t;
}

std::vector<la::Matrix> rand_factors(const std::vector<index_t>& shape,
                                     index_t rank, std::uint64_t seed) {
  std::vector<la::Matrix> f;
  for (std::size_t m = 0; m < shape.size(); ++m)
    f.push_back(rand_matrix(shape[m], rank, seed + m));
  return f;
}

// Rate counters shared by every benchmark: flops and bytes are per
// iteration; google-benchmark divides by elapsed time.
void set_rates(benchmark::State& state, double flops, double bytes) {
  state.counters["GFLOPs"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.counters["GBs"] = benchmark::Counter(
      bytes, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1024);
}

void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto a = rand_matrix(n, n, 1);
  const auto b = rand_matrix(n, n, 2);
  for (auto _ : state) {
    auto c = la::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  const double nn = static_cast<double>(n) * static_cast<double>(n);
  set_rates(state, 2.0 * nn * static_cast<double>(n), 3.0 * nn * 8.0);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_TtmFirstMode(benchmark::State& state) {
  const index_t s = state.range(0);
  const auto t = rand_tensor({s, s, s}, 3);
  const auto a = rand_matrix(s, 32, 4);
  for (auto _ : state) {
    auto out = tensor::ttm_first(t, 0, a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s * s * s * 32);
  const double ts = static_cast<double>(t.size());
  set_rates(state, 2.0 * ts * 32.0, (ts + ts / s * 32.0) * 8.0);
}
BENCHMARK(BM_TtmFirstMode)->Arg(48)->Arg(96);

void BM_TtmMiddleMode(benchmark::State& state) {
  const index_t s = state.range(0);
  const auto t = rand_tensor({s, s, s}, 5);
  const auto a = rand_matrix(s, 32, 6);
  for (auto _ : state) {
    auto out = tensor::ttm_first(t, 1, a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s * s * s * 32);
  const double ts = static_cast<double>(t.size());
  set_rates(state, 2.0 * ts * 32.0, (ts + ts / s * 32.0) * 8.0);
}
BENCHMARK(BM_TtmMiddleMode)->Arg(48)->Arg(96);

void BM_Mttv(benchmark::State& state) {
  const index_t s = state.range(0);
  const auto k = rand_tensor({s, s, 32}, 7);
  const auto a = rand_matrix(s, 32, 8);
  for (auto _ : state) {
    auto out = tensor::mttv(k, 1, a);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s * s * 32);
  const double ks = static_cast<double>(k.size());
  set_rates(state, 2.0 * ks, (ks + static_cast<double>(s) * 32.0) * 8.0);
}
BENCHMARK(BM_Mttv)->Arg(128)->Arg(256);

void BM_Transpose(benchmark::State& state) {
  const index_t s = state.range(0);
  const auto t = rand_tensor({s, s, s}, 9);
  const std::vector<int> perm{2, 0, 1};
  for (auto _ : state) {
    auto out = tensor::transpose(t, perm);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * s * s * s);
  set_rates(state, 0.0, 2.0 * static_cast<double>(t.size()) * 8.0);
}
BENCHMARK(BM_Transpose)->Arg(64)->Arg(128);

void BM_Gram(benchmark::State& state) {
  const index_t s = state.range(0);
  const auto a = rand_matrix(s, 64, 10);
  for (auto _ : state) {
    auto g = la::gram(a);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * s * 64 * 64);
  set_rates(state, static_cast<double>(s) * 64.0 * 64.0,
            static_cast<double>(s) * 64.0 * 8.0);
}
BENCHMARK(BM_Gram)->Arg(1024)->Arg(8192);

void BM_SolveGram(benchmark::State& state) {
  const index_t r = state.range(0);
  la::Matrix g = la::matmul(rand_matrix(r, r, 11), rand_matrix(r, r, 11),
                            la::Trans::kYes, la::Trans::kNo);
  for (index_t i = 0; i < r; ++i) g(i, i) += static_cast<double>(r);
  const auto m = rand_matrix(512, r, 12);
  for (auto _ : state) {
    auto x = la::solve_gram(g, m);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 512 * r * r);
  const double rd = static_cast<double>(r);
  set_rates(state, 2.0 * 512.0 * rd * rd, (2.0 * 512.0 * rd + rd * rd) * 8.0);
}
BENCHMARK(BM_SolveGram)->Arg(32)->Arg(96);

// ---------------------------------------------------------------------------
// Fused vs KRP+GEMM MTTKRP. Default scale: order-3 s=96 R=32 (per mode) and
// the full-sweep aggregate (sum over modes — the per-ALS-sweep cost the
// paper's breakdown charges). The fused path must stay >= 2x the reference.

constexpr index_t kMttkrpS = 128;
constexpr index_t kMttkrpR = 32;

double mttkrp_flops(const tensor::DenseTensor& t, index_t r, int modes) {
  return 2.0 * static_cast<double>(t.size()) * r * modes;
}

// Bytes actually streamed by the fused path: the tensor once per mode plus
// the output. The KRP reference additionally materializes (writes + reads)
// the KRP matrix and an unfolding copy; we charge both paths the same
// useful traffic so the GBs counter reflects *effective* bandwidth.
double mttkrp_bytes(const tensor::DenseTensor& t, index_t r, int modes) {
  return (static_cast<double>(t.size()) +
          static_cast<double>(t.extent(0)) * r) *
         8.0 * modes;
}

void BM_MttkrpKrp(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const auto t = rand_tensor({kMttkrpS, kMttkrpS, kMttkrpS}, 13);
  const auto f = rand_factors(t.shape(), kMttkrpR, 14);
  for (auto _ : state) {
    auto m = tensor::mttkrp_krp(t, f, mode);
    benchmark::DoNotOptimize(m.data());
  }
  set_rates(state, mttkrp_flops(t, kMttkrpR, 1), mttkrp_bytes(t, kMttkrpR, 1));
}
BENCHMARK(BM_MttkrpKrp)->Arg(0)->Arg(1)->Arg(2);

void BM_MttkrpFused(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const auto t = rand_tensor({kMttkrpS, kMttkrpS, kMttkrpS}, 13);
  const auto f = rand_factors(t.shape(), kMttkrpR, 14);
  util::KernelWorkspace ws;
  la::Matrix out;
  for (auto _ : state) {
    tensor::mttkrp_into(t, f, mode, out, nullptr, &ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_rates(state, mttkrp_flops(t, kMttkrpR, 1), mttkrp_bytes(t, kMttkrpR, 1));
}
BENCHMARK(BM_MttkrpFused)->Arg(0)->Arg(1)->Arg(2);

void BM_MttkrpSweepKrp(benchmark::State& state) {
  const auto t = rand_tensor({kMttkrpS, kMttkrpS, kMttkrpS}, 13);
  const auto f = rand_factors(t.shape(), kMttkrpR, 14);
  for (auto _ : state) {
    for (int mode = 0; mode < 3; ++mode) {
      auto m = tensor::mttkrp_krp(t, f, mode);
      benchmark::DoNotOptimize(m.data());
    }
  }
  set_rates(state, mttkrp_flops(t, kMttkrpR, 3), mttkrp_bytes(t, kMttkrpR, 3));
}
BENCHMARK(BM_MttkrpSweepKrp);

void BM_MttkrpSweepFused(benchmark::State& state) {
  const auto t = rand_tensor({kMttkrpS, kMttkrpS, kMttkrpS}, 13);
  const auto f = rand_factors(t.shape(), kMttkrpR, 14);
  util::KernelWorkspace ws;
  std::vector<la::Matrix> out(3);
  for (auto _ : state) {
    for (int mode = 0; mode < 3; ++mode) {
      tensor::mttkrp_into(t, f, mode, out[static_cast<std::size_t>(mode)],
                          nullptr, &ws);
      benchmark::DoNotOptimize(out[static_cast<std::size_t>(mode)].data());
    }
  }
  set_rates(state, mttkrp_flops(t, kMttkrpR, 3), mttkrp_bytes(t, kMttkrpR, 3));
}
BENCHMARK(BM_MttkrpSweepFused);

void BM_MttkrpOrder4Fused(benchmark::State& state) {
  const auto t = rand_tensor({48, 48, 48, 48}, 15);
  const auto f = rand_factors(t.shape(), kMttkrpR, 16);
  util::KernelWorkspace ws;
  std::vector<la::Matrix> out(4);
  for (auto _ : state) {
    for (int mode = 0; mode < 4; ++mode) {
      tensor::mttkrp_into(t, f, mode, out[static_cast<std::size_t>(mode)],
                          nullptr, &ws);
      benchmark::DoNotOptimize(out[static_cast<std::size_t>(mode)].data());
    }
  }
  set_rates(state, mttkrp_flops(t, kMttkrpR, 4), mttkrp_bytes(t, kMttkrpR, 4));
}
BENCHMARK(BM_MttkrpOrder4Fused);

// ---------------------------------------------------------------------------
// Bandwidth-bound fused MTTKRP (R=8, s=320 — arithmetic intensity R/4 = 2
// flop/byte over a 262 MB tensor): the tensor stream has to come from DRAM,
// which a single core drains far slower than the register-blocked kernel
// computes. The size matters: at ~64 MB the tensor is served out of the
// (large, shared) L3 on the reference host and the same config reads as
// compute-bound.

constexpr index_t kBwS = 320;
constexpr index_t kBwR = 8;

void BM_MttkrpFusedBandwidth(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const auto t = rand_tensor({kBwS, kBwS, kBwS}, 17);
  const auto f = rand_factors(t.shape(), kBwR, 18);
  util::KernelWorkspace ws;
  la::Matrix out;
  for (auto _ : state) {
    tensor::mttkrp_into(t, f, mode, out, nullptr, &ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_rates(state, mttkrp_flops(t, kBwR, 1), mttkrp_bytes(t, kBwR, 1));
}
BENCHMARK(BM_MttkrpFusedBandwidth)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// PP initialization on one rank's block of the dense4-pp-p4 workload (64^4
// on a 2x2x1x1 grid: a 32x32x64x64 block at R = 16), one thread, with the
// preceding MSDT sweep's engine as donor. Flops are what the build charges
// to its Profile (TTM and mTTV). Computed bytes count only what the build
// observably must move: the tensor read by each first-level TTM it runs
// and every pair operator written once; intermediates are not counted.

void BM_PpBuild(benchmark::State& state) {
  const std::vector<index_t> shape{32, 32, 64, 64};
  constexpr index_t kR = 16;
  const int ambient = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto t = rand_tensor(shape, 23);
  std::vector<la::Matrix> f = rand_factors(shape, kR, 24);
  auto grams = core::all_grams(f);
  const auto engine = core::make_engine(core::EngineKind::kMsdt, t, f);
  for (int mode = 0; mode < 4; ++mode) {
    const auto um = static_cast<std::size_t>(mode);
    f[um] = core::update_factor(core::gamma_chain(grams, mode),
                                engine->mttkrp(mode));
    engine->notify_update(mode);
    grams[um] = la::gram(f[um]);
  }
  const auto* donor = dynamic_cast<const core::TreeEngineBase*>(engine.get());
  Profile prof;
  core::PpOperators ops(t, f, &prof);
  ops.build(donor);  // sizes the build arena; every build does the same work
  const double flops = prof.flops(Kernel::kTTM) + prof.flops(Kernel::kMTTV);
  const double words = static_cast<double>(t.size()) *
                           static_cast<double>(ops.last_build_ttms()) +
                       static_cast<double>(ops.operator_elements());

  for (auto _ : state) {
    ops.build(donor);
    benchmark::DoNotOptimize(ops.mttkrp_p(0).data());
  }
  omp_set_num_threads(ambient);
  set_rates(state, flops, words * 8.0);
}
BENCHMARK(BM_PpBuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// CSF walk at large extents: every nonzero gathers a random factor row
// (256 B = 4 cache lines at R=32 fp64), so the walk is a bandwidth/latency
// gather over ~190 MB of factors — the sparse bandwidth-bound regime. As
// with the fused bandwidth config, the factors must overflow the shared
// L3 of the reference host for the gather stream to actually hit DRAM —
// at extent 2^16 (16 MB per factor) the same walk reads as cache-resident.

constexpr index_t kCsfExtent = 1 << 18;
constexpr index_t kCsfR = 32;

const tensor::CsfTensor& big_csf() {
  // ~3M nonzeros at extent 2^18: density 1.7e-10.
  static const tensor::CsfTensor csf(data::make_sparse_random(
      {kCsfExtent, kCsfExtent, kCsfExtent}, 1.7e-10, 21));
  return csf;
}

double csf_flops(const tensor::CsfTensor& t, int mode, index_t r) {
  return 2.0 * static_cast<double>(r) *
         static_cast<double>(t.nnz() + t.tree(mode).internal_nodes);
}

// Bytes-moved model of the root walk: values + one gathered leaf row per
// nonzero + one row per interior node, plus the output scatter.
double csf_bytes(const tensor::CsfTensor& t, int mode, index_t r) {
  return (static_cast<double>(t.nnz()) * (1.0 + static_cast<double>(r)) +
          static_cast<double>(t.tree(mode).internal_nodes) *
              static_cast<double>(r) +
          static_cast<double>(t.extent(mode)) * static_cast<double>(r)) *
         8.0;
}

void BM_CsfWalkBandwidth(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const tensor::CsfTensor& csf = big_csf();
  const auto f = rand_factors(csf.shape(), kCsfR, 22);
  util::KernelWorkspace ws;
  la::Matrix out;
  for (auto _ : state) {
    tensor::mttkrp_csf_into(csf, f, mode, out, nullptr, &ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_rates(state, csf_flops(csf, mode, kCsfR), csf_bytes(csf, mode, kCsfR));
}
BENCHMARK(BM_CsfWalkBandwidth)->Arg(0)->Arg(1);

}  // namespace

// Custom main: inject a default --benchmark_out=BENCH_kernels.json (JSON
// format) unless the caller already chose an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
