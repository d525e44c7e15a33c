// Schedule constants for the device-wide primitives.
//
// kSegment is the ONE order-affecting constant: every floating-point
// device-wide reduction/scan folds within kSegment-element slices and
// combines slice partials in ascending slice order, so the result is a
// pure function of (T, op, n, kSegment) — never of block size, grain, or
// thread count.  It plays the role of the GEMM kc panel depth: changing
// it changes floating-point bits and invalidates every golden value.
//
// Everything else here is a schedule-only default of the per-call
// ScanConfig / ReduceConfig / SortConfig: it remaps which worker
// computes which slice, never the bits.
#pragma once

#include <cstddef>

namespace portabench::primitives {

/// ORDER-AFFECTING: elements per association segment.
inline constexpr std::size_t kSegment = 1024;

/// Lanes per block for reduce/scan/histogram launches (schedule-only).
inline constexpr std::size_t kDefaultLanes = 128;

/// Segments each lane folds in the reduce partials pass (schedule-only).
inline constexpr std::size_t kDefaultItemsPerLane = 4;

/// Elements per block tile in the grid scan (schedule-only; rounded to a
/// whole number of segments).
inline constexpr std::size_t kDefaultScanChunk = 4096;

/// Elements per block tile in the radix/merge sorts (schedule-only).
inline constexpr std::size_t kDefaultSortChunk = 8192;

/// Lanes per block in the sort count/scatter passes (schedule-only; the
/// privatized shared-memory histograms clamp this against the device's
/// shared-memory-per-block limit).
inline constexpr std::size_t kDefaultSortLanes = 32;

/// Digit width of the LSD radix sort in bits (schedule-only for the
/// integer key path: any width yields the identical sorted output).
inline constexpr unsigned kDefaultRadixBits = 4;

}  // namespace portabench::primitives
