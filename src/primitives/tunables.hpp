// Schedule constants for the device-wide primitives.
//
// kSegment is the ONE order-affecting constant: every floating-point
// device-wide scan folds within kSegment-element slices and combines
// slice totals in ascending slice order, so the result is a pure function
// of (T, op, n, kSegment) — never of block size, tile, or thread count.
// It plays the role of the GEMM kc panel depth: changing it changes
// floating-point bits and invalidates every golden value.
//
// Everything else here is schedule-only: it remaps which worker computes
// which slice, never the bits.
#pragma once

#include <cstddef>

namespace portabench::primitives {

/// ORDER-AFFECTING: elements per association segment.
inline constexpr std::size_t kSegment = 1024;

/// Lanes per block in the grid scan's launches.
inline constexpr std::size_t kScanLanes = 128;

/// Elements per block tile in the grid scan (a whole number of segments).
inline constexpr std::size_t kScanChunk = 4096;

/// Elements per block tile in the radix sort.
inline constexpr std::size_t kSortChunk = 8192;

/// Lanes per block in the sort count/scatter passes (the privatized
/// shared-memory histograms clamp this against the device's
/// shared-memory-per-block limit).
inline constexpr std::size_t kSortLanes = 32;

/// Digit width of the LSD radix sorts in bits (any width yields the
/// identical sorted output: the keys are integers after the bijection).
inline constexpr unsigned kRadixBits = 4;

}  // namespace portabench::primitives
