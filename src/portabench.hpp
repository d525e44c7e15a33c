// Umbrella header: the library's public API in one include.
//
//   #include <portabench.hpp>
//
// Layered bottom-up (each layer usable on its own):
//   common      - half/bfloat16, RNG, statistics, tables, CLI, JSON
//   simrt       - mini-Kokkos host runtime (views, policies, parallel_*)
//   gpusim      - functional SIMT GPU simulator
//   gemm        - the study's hand-rolled kernel zoo + reference
//   perfmodel   - machine/codegen/interconnect/variability models
//   models      - programming-model frontends (ModelRunner)
//   portability - Eq. (1)/(2) metrics, Table III, productivity
#pragma once

#include "common/buffer.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/json.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

#include "simrt/affinity.hpp"
#include "simrt/mdarray.hpp"
#include "simrt/op.hpp"
#include "simrt/parallel.hpp"
#include "simrt/policy.hpp"
#include "simrt/thread_pool.hpp"
#include "simrt/view3.hpp"

#include "cachesim/cache.hpp"
#include "cachesim/gemm_trace.hpp"

#include "gpusim/block_primitives.hpp"
#include "gpusim/coalescing.hpp"
#include "gpusim/device.hpp"
#include "gpusim/dim3.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/stream.hpp"

#include "spmv/kernels.hpp"
#include "spmv/model.hpp"
#include "spmv/sparse.hpp"

#include "stencil/grid.hpp"
#include "stencil/kernels.hpp"
#include "stencil/model.hpp"

#include "gemm/kernels_cpu.hpp"
#include "gemm/kernels_gpu.hpp"
#include "gemm/reference.hpp"
#include "gemm/validate.hpp"

#include "perfmodel/codegen.hpp"
#include "perfmodel/device_specs.hpp"
#include "perfmodel/interconnect.hpp"
#include "perfmodel/machine_model.hpp"
#include "perfmodel/multigpu.hpp"
#include "perfmodel/platform.hpp"
#include "perfmodel/predict.hpp"
#include "perfmodel/traits.hpp"
#include "perfmodel/variability.hpp"

#include "models/cpu_runners.hpp"
#include "models/gpu_runners.hpp"
#include "models/runner.hpp"
#include "models/spmv_runners.hpp"

#include "portability/metric.hpp"
#include "portability/productivity.hpp"
