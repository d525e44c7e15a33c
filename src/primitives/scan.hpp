// Device-wide exclusive/inclusive scan with a fixed combination order.
//
// The classic two-pass grid scan (docs/PRIMITIVES.md):
//   pass 1  — lanes own whole kSegment-element slices and scan them
//             sequentially (left fold), writing local prefixes into
//             `out` and the slice total into a totals array
//   pass 2  — the totals are exclusive-scanned on the host in ascending
//             slice order (tiny: n / kSegment elements)
//   pass 3  — a fixup launch combines each slice's offset on the LEFT of
//             its local prefixes (slice 0 is skipped: no combine with
//             the identity ever happens on the live path)
// The association is a pure function of (T, op, n, kSegment); `chunk`
// and `lanes` only remap slices onto blocks.  Non-commutative ops are
// supported because the offset — the fold of every EARLIER element —
// always enters on the left.  The serial oracle (serial.hpp) replays the
// identical association, so results are bitwise-identical under every
// schedule, including the sanitizer's permuted seeds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "gpusim/launch.hpp"
#include "simrt/op.hpp"
#include "reduce.hpp"
#include "tunables.hpp"

namespace portabench::primitives {

/// Schedule-only knobs (searchable; see the `primitives-scan` space).
struct ScanConfig {
  std::size_t lanes = kDefaultLanes;
  std::size_t chunk = kDefaultScanChunk;  ///< elements per block tile
};

namespace detail {

/// offsets[s] = op-fold of totals[0..s), ascending, with offsets[1] set
/// directly to totals[0] so no live value is ever combined with the
/// identity.  Shared by the device path and the serial oracle.
template <class T, class Op>
[[nodiscard]] std::vector<T> segment_offsets(std::span<const T> totals, Op op) {
  std::vector<T> off(totals.size());
  if (off.empty()) return off;
  off[0] = op.identity();
  if (off.size() > 1) off[1] = totals[0];
  for (std::size_t s = 2; s < off.size(); ++s) off[s] = op(off[s - 1], totals[s - 1]);
  return off;
}

/// Run `body(seg, lo, hi)` for every segment, segments dealt to blocks in
/// chunk-sized tiles and lane-strided within a tile.
template <class Body>
void for_scan_segments(gpusim::DeviceContext& ctx, std::size_t n, std::size_t segments,
                       const ScanConfig& cfg, Body&& body) {
  const std::size_t lanes = std::max<std::size_t>(1, cfg.lanes);
  const std::size_t segs_per_block =
      std::max<std::size_t>(1, cfg.chunk / kSegment);
  const std::size_t blocks = ceil_div(segments, segs_per_block);
  gpusim::launch(ctx, {blocks, 1, 1}, {lanes, 1, 1}, [&](const gpusim::ThreadCtx& tc) {
    const std::size_t base = tc.block_idx.x * segs_per_block;
    for (std::size_t s = tc.thread_idx.x; s < segs_per_block; s += lanes) {
      const std::size_t seg = base + s;
      if (seg >= segments) break;
      const std::size_t lo = seg * kSegment;
      body(seg, lo, std::min(n, lo + kSegment));
    }
  });
}

template <bool Inclusive, class T, class Op>
void device_scan(gpusim::DeviceContext& ctx, std::span<const T> in, std::span<T> out,
                 Op op, const ScanConfig& cfg) {
  PB_EXPECTS(out.size() == in.size());
  const std::size_t n = in.size();
  if (n == 0) return;
  const std::size_t segments = ceil_div(n, kSegment);
  std::vector<T> totals(segments);

  for_scan_segments(ctx, n, segments, cfg,
                    [&](std::size_t seg, std::size_t lo, std::size_t hi) {
                      T acc = op.identity();
                      for (std::size_t i = lo; i < hi; ++i) {
                        const T x = in[i];  // read first: in-place scans are fine
                        if constexpr (Inclusive) {
                          acc = op(acc, x);
                          out[i] = acc;
                        } else {
                          out[i] = acc;
                          acc = op(acc, x);
                        }
                      }
                      totals[seg] = acc;
                    });

  const std::vector<T> offsets = segment_offsets(std::span<const T>(totals), op);

  for_scan_segments(ctx, n, segments, cfg,
                    [&](std::size_t seg, std::size_t lo, std::size_t hi) {
                      if (seg == 0) return;
                      const T offset = offsets[seg];
                      std::size_t i = lo;
                      if constexpr (!Inclusive) {
                        // The slice-first exclusive prefix IS the offset —
                        // assigning it directly keeps the no-identity-combine
                        // property on the live path.
                        out[i] = offset;
                        ++i;
                      }
                      for (; i < hi; ++i) out[i] = op(offset, out[i]);
                    });
}

}  // namespace detail

/// out[i] = op-fold of in[0..i).  out[0] is the identity.  In-place
/// (out == in) is supported.
template <class T, class Op>
  requires simrt::ReductionOpFor<Op, T>
void device_exclusive_scan(gpusim::DeviceContext& ctx, std::span<const T> in,
                           std::span<T> out, Op op, const ScanConfig& cfg = {}) {
  detail::device_scan<false>(ctx, in, out, op, cfg);
}

/// out[i] = op-fold of in[0..i].  In-place is supported.
template <class T, class Op>
  requires simrt::ReductionOpFor<Op, T>
void device_inclusive_scan(gpusim::DeviceContext& ctx, std::span<const T> in,
                           std::span<T> out, Op op, const ScanConfig& cfg = {}) {
  detail::device_scan<true>(ctx, in, out, op, cfg);
}

}  // namespace portabench::primitives
