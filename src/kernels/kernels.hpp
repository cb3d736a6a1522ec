#pragma once

#include <memory>
#include <string_view>

#include "kernels/kernel.hpp"

/// \file kernels.hpp
/// Concrete kernels. The first two are the paper's §V-A test problems.

namespace h2sketch::kern {

/// Exponential covariance kernel (paper Eq. (8)):
///   K(x, y) = exp(-|x - y| / l),
/// a 3D Gaussian-process covariance with correlation length l (paper: 0.2).
class ExponentialKernel final : public KernelFunction {
 public:
  explicit ExponentialKernel(real_t correlation_length = 0.2) : l_(correlation_length) {}
  real_t evaluate(const real_t* x, const real_t* y, index_t dim) const override;
  std::string name() const override { return "exponential"; }

 private:
  real_t l_;
};

/// Helmholtz volume integral-equation kernel (paper Eq. (9)):
///   K(x, y) = cos(k |x - y|) / |x - y|,  x != y,
/// with wavenumber k (paper: 3). The diagonal (x == y) takes a finite
/// self-interaction value standing in for the quadrature self term.
class HelmholtzCosKernel final : public KernelFunction {
 public:
  explicit HelmholtzCosKernel(real_t k = 3.0, real_t diagonal = 0.0);
  real_t evaluate(const real_t* x, const real_t* y, index_t dim) const override;
  std::string name() const override { return "helmholtz_cos"; }

 private:
  real_t k_;
  real_t diagonal_;
};

/// Gaussian (squared-exponential) covariance: exp(-|x-y|^2 / (2 l^2)).
class GaussianKernel final : public KernelFunction {
 public:
  explicit GaussianKernel(real_t correlation_length = 0.2) : l_(correlation_length) {}
  real_t evaluate(const real_t* x, const real_t* y, index_t dim) const override;
  std::string name() const override { return "gaussian"; }

 private:
  real_t l_;
};

/// Matern-3/2 covariance: (1 + sqrt(3) r / l) exp(-sqrt(3) r / l).
class Matern32Kernel final : public KernelFunction {
 public:
  explicit Matern32Kernel(real_t correlation_length = 0.2) : l_(correlation_length) {}
  real_t evaluate(const real_t* x, const real_t* y, index_t dim) const override;
  std::string name() const override { return "matern32"; }

 private:
  real_t l_;
};

/// Diagonal-ridge decorator: base(x, y) + sigma * [x == y]. Turns any
/// positive-semidefinite covariance kernel into a well-conditioned SPD
/// operator (K + sigma I on distinct points) — the solver subsystem's test
/// and benchmark workload.
class RidgeKernel final : public KernelFunction {
 public:
  /// The base kernel must outlive the decorator.
  RidgeKernel(const KernelFunction& base, real_t sigma) : base_(&base), sigma_(sigma) {}
  real_t evaluate(const real_t* x, const real_t* y, index_t dim) const override;
  std::string name() const override { return base_->name() + "+ridge"; }

 private:
  const KernelFunction* base_;
  real_t sigma_;
};

/// 3D Laplace single-layer kernel 1 / |x - y| with a diagonal value. With a
/// positive diagonal shift this mimics the dense Schur complement (DtN
/// operator) of a 3D Poisson separator plane — the synthetic frontal matrix.
class Laplace3dKernel final : public KernelFunction {
 public:
  explicit Laplace3dKernel(real_t diagonal) : diagonal_(diagonal) {}
  real_t evaluate(const real_t* x, const real_t* y, index_t dim) const override;
  std::string name() const override { return "laplace_3d"; }

 private:
  real_t diagonal_;
};

/// The kernels the command-line tools name: "exp" (exponential, l = 0.2),
/// "helm" (Helmholtz-cos, k = 3) and "matern" (Matern-3/2, l = 0.3). Throws
/// InvalidArgumentError for any other name.
std::unique_ptr<KernelFunction> kernel_by_name(std::string_view name);

} // namespace h2sketch::kern
