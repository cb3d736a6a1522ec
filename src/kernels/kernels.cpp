#include "kernels/kernels.hpp"

#include <cmath>
#include <string>

#include "common/errors.hpp"

namespace h2sketch::kern {

namespace {
inline real_t dist(const real_t* x, const real_t* y, index_t dim) {
  real_t s = 0.0;
  for (index_t d = 0; d < dim; ++d) {
    const real_t e = x[d] - y[d];
    s += e * e;
  }
  return std::sqrt(s);
}
} // namespace

real_t ExponentialKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  return std::exp(-dist(x, y, dim) / l_);
}

HelmholtzCosKernel::HelmholtzCosKernel(real_t k, real_t diagonal) : k_(k), diagonal_(diagonal) {
  // Default self term: comparable magnitude to the nearest-neighbour
  // interaction so the diagonal neither dominates nor vanishes.
  if (diagonal_ == 0.0) diagonal_ = 2.0 * k_;
}

real_t HelmholtzCosKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  const real_t r = dist(x, y, dim);
  if (r == 0.0) return diagonal_;
  return std::cos(k_ * r) / r;
}

real_t GaussianKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  const real_t r = dist(x, y, dim);
  return std::exp(-0.5 * r * r / (l_ * l_));
}

real_t Matern32Kernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  const real_t a = std::sqrt(3.0) * dist(x, y, dim) / l_;
  return (1.0 + a) * std::exp(-a);
}

real_t RidgeKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  real_t v = base_->evaluate(x, y, dim);
  bool same = true;
  for (index_t d = 0; d < dim; ++d)
    if (x[d] != y[d]) {
      same = false;
      break;
    }
  return same ? v + sigma_ : v;
}

real_t Laplace3dKernel::evaluate(const real_t* x, const real_t* y, index_t dim) const {
  const real_t r = dist(x, y, dim);
  if (r == 0.0) return diagonal_;
  return 1.0 / r;
}

std::unique_ptr<KernelFunction> kernel_by_name(std::string_view name) {
  if (name == "exp") return std::make_unique<ExponentialKernel>(0.2);
  if (name == "helm") return std::make_unique<HelmholtzCosKernel>(3.0);
  if (name == "matern") return std::make_unique<Matern32Kernel>(0.3);
  throw InvalidArgumentError("unknown kernel '" + std::string(name) +
                             "' (expected exp, helm or matern)");
}

} // namespace h2sketch::kern
