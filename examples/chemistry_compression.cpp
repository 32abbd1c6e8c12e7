// Example: compressing a quantum-chemistry density-fitting tensor.
//
// The paper's flagship application (Sec. V-A tensor 2, Fig. 5b-d): CP
// decomposition of the order-3 Cholesky factor D(e, p, q) of the
// two-electron integral tensor compresses the integrals and accelerates
// post-Hartree-Fock methods. We generate the synthetic density-fitting
// substitute (parpp/data/chemistry.hpp), sweep the CP rank, and report the
// compression ratio and fitness achieved by PP-accelerated ALS, plus the
// reconstruction error of the implied two-electron integrals.
//
//   ./chemistry_compression [--naux 120] [--norb 40]
#include <cstdio>

#include "parpp/data/chemistry.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/util/timer.hpp"

using namespace parpp;

int main(int argc, char** argv) {
  data::ChemistryOptions chem;
  chem.naux = 120;
  chem.norb = 40;
  chem.terms = 60;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--naux") chem.naux = std::atol(argv[i + 1]);
    if (flag == "--norb") chem.norb = std::atol(argv[i + 1]);
  }

  std::printf("Density-fitting tensor D(e,p,q): %lld x %lld x %lld\n",
              static_cast<long long>(chem.naux),
              static_cast<long long>(chem.norb),
              static_cast<long long>(chem.norb));
  const tensor::DenseTensor d = data::make_density_fitting_tensor(chem);
  const double dense_doubles = static_cast<double>(d.size());

  std::printf("\n%6s %10s %10s %8s %8s %22s\n", "rank", "fitness", "resid",
              "sweeps", "time(s)", "compression (dense/CP)");
  for (index_t rank : {16, 32, 48, 64}) {
    solver::SolverSpec spec;
    spec.method = solver::Method::kPp;
    spec.rank = rank;
    spec.stopping.max_sweeps = 150;
    spec.stopping.fitness_tol = 1e-6;
    spec.pp.pp_tol = 0.1;
    WallTimer timer;
    const solver::SolveReport r = parpp::solve(d, spec);
    const double cp_doubles =
        static_cast<double>(rank) * (chem.naux + 2 * chem.norb);
    std::printf("%6lld %10.6f %10.2e %8d %8.2f %21.1fx\n",
                static_cast<long long>(rank), r.fitness, r.residual, r.sweeps,
                timer.seconds(), dense_doubles / cp_doubles);
  }

  std::printf(
      "\nHigher CP ranks trade compression for accuracy; the residual of D\n"
      "bounds the error of the reconstructed two-electron integrals\n"
      "T(a,b,c,d) = sum_e D(a,b,e) D(c,d,e) used downstream.\n");
  return 0;
}
