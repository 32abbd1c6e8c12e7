#include "parpp/core/cp_als.hpp"

#include "parpp/util/rng.hpp"

namespace parpp::core {

std::vector<la::Matrix> init_factors(const std::vector<index_t>& shape,
                                     index_t rank, std::uint64_t seed) {
  Rng root(seed);
  std::vector<la::Matrix> factors;
  factors.reserve(shape.size());
  for (std::size_t m = 0; m < shape.size(); ++m) {
    Rng rng = root.split(m + 1);
    la::Matrix a(shape[m], rank);
    a.fill_uniform(rng);
    factors.push_back(std::move(a));
  }
  return factors;
}

std::vector<la::Matrix> resolve_init_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed,
    const std::vector<la::Matrix>* initial) {
  if (initial == nullptr) return init_factors(shape, rank, seed);
  const auto& init = *initial;
  PARPP_CHECK(init.size() == shape.size(),
              "warm start: need one factor per tensor mode");
  for (std::size_t m = 0; m < init.size(); ++m) {
    PARPP_CHECK(init[m].rows() == shape[m] && init[m].cols() == rank,
                "warm start: factor ", m, " shape mismatch");
  }
  return init;
}

}  // namespace parpp::core
