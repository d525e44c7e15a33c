// SpMV kernels per programming model, plus the GPU variants.
//
// y = A * x.  The frontends keep their native conventions:
//   - C/OpenMP, Kokkos, Numba: CSR, row-parallel (one row per iteration
//     of the parallel loop — embarrassingly parallel, like the dense
//     kernels' row mapping);
//   - Julia: CSC (SparseMatrixCSC), column traversal; the threaded
//     version privatizes y per thread and reduces, since columns scatter
//     into shared rows;
//   - GPU scalar: one thread per row (the canonical naive CUDA SpMV);
//   - GPU vector: one warp-sized block per row, cooperative reduction —
//     the standard fix for long rows, built on block_reduce.
#pragma once

#include <span>

#include "gpusim/block_primitives.hpp"
#include "gpusim/memory.hpp"
#include "simrt/parallel.hpp"
#include "sparse.hpp"

namespace portabench::spmv {

/// Serial reference.
template <class T>
void spmv_reference(const CsrMatrix<T>& A, std::span<const T> x, std::span<T> y) {
  PB_EXPECTS(x.size() == A.cols && y.size() == A.rows);
  for (std::size_t r = 0; r < A.rows; ++r) {
    T sum{};
    for (std::size_t e = A.row_ptr[r]; e < A.row_ptr[r + 1]; ++e) {
      sum += A.values[e] * x[A.col_idx[e]];
    }
    y[r] = sum;
  }
}

/// C/OpenMP / Kokkos / Numba shape: row-parallel CSR.  x and y are any
/// indexable vector types (span, View1, shadow view); the sparse structure
/// itself is read-only host data and stays un-instrumented.
template <class T, class Space, class XV, class YV>
void spmv_csr_row_parallel(const Space& space, const CsrMatrix<T>& A, const XV& x, YV&& y) {
  PB_EXPECTS(x.size() == A.cols && y.size() == A.rows);
  simrt::parallel_for(space, simrt::RangePolicy(0, A.rows), [&](std::size_t r) {
    T sum{};
    for (std::size_t e = A.row_ptr[r]; e < A.row_ptr[r + 1]; ++e) {
      sum += A.values[e] * static_cast<T>(x[A.col_idx[e]]);
    }
    y[r] = sum;
  });
}

/// Julia shape: CSC columns with per-thread y privatization, joined in
/// thread order (deterministic for a fixed thread count).
template <class T, class XV, class YV>
void spmv_csc_column_parallel(const simrt::ThreadsSpace& space, const CscMatrix<T>& A,
                              const XV& x, YV&& y) {
  PB_EXPECTS(x.size() == A.cols && y.size() == A.rows);
  const std::size_t nt = space.concurrency();
  std::vector<std::vector<T>> partial(nt, std::vector<T>(A.rows, T{}));

  space.pool().run_auto([&](std::size_t t) {
    auto block = simrt::detail::static_block(A.cols, nt, t);
    std::vector<T>& mine = partial[t];
    for (std::size_t c = block.begin; c < block.end; ++c) {
      const T xc = static_cast<T>(x[c]);
      for (std::size_t e = A.col_ptr[c]; e < A.col_ptr[c + 1]; ++e) {
        mine[A.row_idx[e]] += A.values[e] * xc;
      }
    }
  }, A.cols);

  // The join runs on the caller after the region: index-wise so shadow
  // views (no iterators) work as y.
  for (std::size_t r = 0; r < A.rows; ++r) {
    T sum{};
    for (std::size_t t = 0; t < nt; ++t) sum += partial[t][r];
    y[r] = sum;
  }
}

/// GPU scalar kernel: one thread per row.
template <class T, class BX, class BY>
void spmv_gpu_scalar(gpusim::DeviceContext& ctx, const CsrMatrix<T>& A, const BX& x, BY&& y,
                     std::size_t threads_per_block = 128) {
  PB_EXPECTS(x.size() == A.cols && y.size() == A.rows);
  const std::size_t* row_ptr = A.row_ptr.data();
  const std::size_t* col_idx = A.col_idx.data();
  const T* values = A.values.data();
  const std::size_t rows = A.rows;

  gpusim::launch(ctx, {gpusim::blocks_for(rows, threads_per_block), 1, 1},
                 {threads_per_block, 1, 1}, [&](const gpusim::ThreadCtx& tc) {
                   const std::size_t r = tc.global_x();
                   if (r < rows) {
                     T sum{};
                     for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
                       sum += values[e] * static_cast<T>(x[col_idx[e]]);
                     }
                     y[r] = sum;
                   }
                 });
}

/// GPU vector kernel: one warp-wide block per row, lanes stride the row's
/// entries, cooperative sum via shared memory.
template <class T, class BX, class BY>
void spmv_gpu_vector(gpusim::DeviceContext& ctx, const CsrMatrix<T>& A, const BX& x, BY&& y) {
  PB_EXPECTS(x.size() == A.cols && y.size() == A.rows);
  const std::size_t warp = ctx.spec().warp_size;
  const std::size_t* row_ptr = A.row_ptr.data();
  const std::size_t* col_idx = A.col_idx.data();
  const T* values = A.values.data();

  gpusim::launch_blocks(
      ctx, {A.rows, 1, 1}, {warp, 1, 1}, warp * sizeof(T), [&](gpusim::BlockCtx& bc) {
        const std::size_t r = bc.block_idx().x;
        auto scratch = bc.template shared<T>(warp);
        const T total = gpusim::block_reduce(
            bc, scratch, simrt::SumOp<T>{}, [&](const gpusim::ThreadCtx& tc) {
              T sum{};
              for (std::size_t e = row_ptr[r] + tc.thread_idx.x; e < row_ptr[r + 1];
                   e += warp) {
                sum += values[e] * static_cast<T>(x[col_idx[e]]);
              }
              return sum;
            });
        bc.for_lanes([&](const gpusim::ThreadCtx& tc) {
          if (tc.thread_idx.x == 0) y[r] = total;
        });
      });
}

}  // namespace portabench::spmv
