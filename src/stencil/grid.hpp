// Structured 2-D grids for the stencil workload.
//
// The third workload family (after GEMM and SpMV): a 5-point Jacobi
// iteration, the hyperbolic/elliptic-PDE shape behind the Julia
// applications the paper cites (Trixi.jl, Section II-a).  Grid2D bundles
// the ping-pong buffer pair, Dirichlet boundary handling, and the norms
// the solver loop needs.
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/parallel.hpp"
#include "simrt/simd_reduce.hpp"

namespace portabench::stencil {

/// Ping-pong pair of row-major fields with fixed (Dirichlet) boundaries.
class Grid2D {
 public:
  Grid2D(std::size_t rows, std::size_t cols)
      : a_(rows, cols), b_(rows, cols) {
    PB_EXPECTS(rows >= 3 && cols >= 3);  // need an interior
  }

  [[nodiscard]] std::size_t rows() const noexcept { return a_.extent(0); }
  [[nodiscard]] std::size_t cols() const noexcept { return a_.extent(1); }

  /// Current (front) and next (back) fields; swap() after each sweep.
  [[nodiscard]] simrt::View2<double, simrt::LayoutRight>& front() noexcept { return a_; }
  [[nodiscard]] simrt::View2<double, simrt::LayoutRight>& back() noexcept { return b_; }
  void swap() noexcept { std::swap(a_, b_); }

  /// Apply a hot-top-edge boundary (value on row 0, zero elsewhere) to
  /// both buffers — the canonical heat-plate setup.
  void set_hot_top(double value) {
    for (std::size_t j = 0; j < cols(); ++j) {
      a_(0, j) = value;
      b_(0, j) = value;
    }
  }

  /// Sum over interior points of the front buffer (a cheap fingerprint).
  [[nodiscard]] double interior_sum() const {
    double sum = 0.0;
    for (std::size_t i = 1; i + 1 < rows(); ++i) {
      for (std::size_t j = 1; j + 1 < cols(); ++j) sum += a_(i, j);
    }
    return sum;
  }

 private:
  simrt::View2<double, simrt::LayoutRight> a_;
  simrt::View2<double, simrt::LayoutRight> b_;
};

/// Max-norm of the difference between two fields' interiors: the Jacobi
/// convergence residual, 0 for a grid with no interior.  The per-row
/// partial runs through the SIMD max-abs-diff reduction
/// (simrt/simd_reduce.hpp) — max is exact, so the blocked form returns
/// the identical value to the scalar j loop.
template <class Space>
double residual_max(const Space& space, const simrt::View2<double, simrt::LayoutRight>& u,
                    const simrt::View2<double, simrt::LayoutRight>& v) {
  PB_EXPECTS(u.extent(0) == v.extent(0) && u.extent(1) == v.extent(1));
  const std::size_t rows = u.extent(0);
  const std::size_t cols = u.extent(1);
  if (rows <= 2 || cols <= 2) return 0.0;
  const double* ubase = u.data();
  const double* vbase = v.data();
  const std::size_t ustr = u.stride(0);
  const std::size_t vstr = v.stride(0);
  const simrt::MaxOp<double> max;
  return simrt::parallel_reduce(
      space, simrt::RangePolicy(1, rows - 1), max, [=](std::size_t i, double& acc) {
        acc = max(acc, simrt::simd_max_abs_diff(ubase + i * ustr + 1, vbase + i * vstr + 1,
                                                cols - 2));
      });
}

}  // namespace portabench::stencil
