// Asynchronous transfers on streams: H2D / D2H / device-peer copies.
//
// DeviceBuffer's copy_from_host/copy_to_host are synchronous whole-buffer
// memcpys on the calling thread.  The pipeline layer needs the CUDA-style
// asynchronous forms — enqueue the copy on a Stream, let Events order it
// against compute, overlap panel k+1's transfer with panel k's kernel —
// plus peer copies between devices for halo exchange.  All three entry
// points here share the same contract:
//
//  - Validation is EAGER: out-of-bounds ranges, freed/dead buffers and
//    misaligned counts throw precondition_error at the call site, in
//    program order, before anything is enqueued.  (An async error that
//    surfaces at some later synchronize() would be much harder to test
//    deterministically.)
//  - Transfer counters (bytes_h2d / bytes_d2h / bytes_d2d_*) advance at
//    enqueue time in program order, mirroring the stream's modeled clock
//    — identical between eager and async modes.
//  - The host payload (memcpy) runs when the stream executes the op.  In
//    async mode the caller must keep the host span alive until the
//    stream synchronizes, exactly like cudaMemcpyAsync.
//  - The modeled cost comes from a LinkModel; Transfer::throttle makes
//    the stream worker hold the op until the modeled seconds really
//    elapsed, so overlap benches measure genuine wall-time overlap
//    "under the modeled link bandwidth".
#pragma once

#include <cstring>
#include <span>
#include <thread>

#include "common/timer.hpp"
#include "memory.hpp"
#include "stream.hpp"
#include "topology.hpp"

namespace portabench::gpusim {

/// How a single async transfer is costed and executed.
struct Transfer {
  LinkModel link{};       ///< modeled latency + bandwidth
  bool throttle = false;  ///< enforce the modeled time in wall time
};

namespace detail {

/// Run the host payload and, when throttled, occupy the stream worker
/// until the modeled link time has really elapsed.  The spin yields: a
/// throttled transfer models an occupied DMA engine, not a hot core.
template <class Payload>
void run_throttled(double modeled_seconds, bool throttle, Payload&& payload) {
  Timer t;
  payload();
  if (!throttle) return;
  while (t.seconds() < modeled_seconds) std::this_thread::yield();
}

}  // namespace detail

/// Async H2D: copy host `src` into `dst[dst_offset ...]` on `stream`.
/// Returns the op's modeled completion timestamp on the stream clock.
template <class T>
double copy_to_device_async(Stream& stream, DeviceBuffer<T>& dst, std::size_t dst_offset,
                            std::span<const T> src, const Transfer& t = {}) {
  DeviceContext* ctx = dst.context();
  PB_EXPECTS(ctx != nullptr);  // freed / moved-from / default buffer
  PB_EXPECTS(&stream.context() == ctx);
  PB_EXPECTS(dst_offset <= dst.size() && src.size() <= dst.size() - dst_offset);
  const std::size_t bytes = src.size_bytes();
  ctx->note_h2d(bytes);
  const double modeled = t.link.seconds(bytes);
  T* out = dst.data() + dst_offset;
  return stream.enqueue(modeled, [out, src, modeled, throttle = t.throttle] {
    detail::run_throttled(modeled, throttle, [&] {
      if (!src.empty()) std::memcpy(out, src.data(), src.size_bytes());
    });
  });
}

/// Async D2H: copy `src[src_offset ...]` into host `dst` on `stream`.
template <class T>
double copy_to_host_async(Stream& stream, std::span<T> dst, const DeviceBuffer<T>& src,
                          std::size_t src_offset, const Transfer& t = {}) {
  DeviceContext* ctx = src.context();
  PB_EXPECTS(ctx != nullptr);
  PB_EXPECTS(&stream.context() == ctx);
  PB_EXPECTS(src_offset <= src.size() && dst.size() <= src.size() - src_offset);
  const std::size_t bytes = dst.size_bytes();
  ctx->note_d2h(bytes);
  const double modeled = t.link.seconds(bytes);
  const T* in = src.data() + src_offset;
  return stream.enqueue(modeled, [in, dst, modeled, throttle = t.throttle] {
    detail::run_throttled(modeled, throttle, [&] {
      if (!dst.empty()) std::memcpy(dst.data(), in, dst.size_bytes());
    });
  });
}

/// Async peer copy: `count` elements from `src[src_offset]` on one
/// device into `dst[dst_offset]` on another (halo exchange).  Enqueued
/// on `stream`, which may belong to either endpoint (or a third device
/// acting as the DMA initiator — validation only requires live
/// endpoints).  Both endpoints' d2d counters advance so a topology-wide
/// audit balances.  Same-buffer self-copies must not overlap.
template <class T>
double peer_copy_async(Stream& stream, DeviceBuffer<T>& dst, std::size_t dst_offset,
                       const DeviceBuffer<T>& src, std::size_t src_offset,
                       std::size_t count, const Transfer& t = {}) {
  DeviceContext* dst_ctx = dst.context();
  DeviceContext* src_ctx = src.context();
  PB_EXPECTS(dst_ctx != nullptr && src_ctx != nullptr);
  PB_EXPECTS(dst_offset <= dst.size() && count <= dst.size() - dst_offset);
  PB_EXPECTS(src_offset <= src.size() && count <= src.size() - src_offset);
  if (dst.data() == src.data()) {
    // One buffer: ranges must be disjoint (memcpy would be UB).
    PB_EXPECTS(dst_offset + count <= src_offset || src_offset + count <= dst_offset);
  }
  const std::size_t bytes = count * sizeof(T);
  src_ctx->note_d2d_out(bytes);
  dst_ctx->note_d2d_in(bytes);
  const double modeled = t.link.seconds(bytes);
  T* out = dst.data() + dst_offset;
  const T* in = src.data() + src_offset;
  return stream.enqueue(modeled, [out, in, bytes, modeled, throttle = t.throttle] {
    detail::run_throttled(modeled, throttle, [&] {
      if (bytes != 0) std::memcpy(out, in, bytes);
    });
  });
}

/// Topology-aware helpers: pick the link from the topology's config and
/// honor its throttle flag.

/// H2D onto `device`, staged from a host buffer homed in `src_domain`.
template <class T>
double copy_to_device_async(DeviceTopology& topo, std::size_t device, Stream& stream,
                            DeviceBuffer<T>& dst, std::size_t dst_offset,
                            std::span<const T> src, std::size_t src_domain) {
  const TopologyConfig& cfg = topo.config();
  return copy_to_device_async(stream, dst, dst_offset, src,
                              Transfer{cfg.h2d_link(device, src_domain), cfg.throttle_links});
}

/// D2H from `device` into a host buffer homed in `dst_domain` (duplex:
/// the same link as H2D).
template <class T>
double copy_to_host_async(DeviceTopology& topo, std::size_t device, Stream& stream,
                          std::span<T> dst, const DeviceBuffer<T>& src,
                          std::size_t src_offset, std::size_t dst_domain) {
  const TopologyConfig& cfg = topo.config();
  return copy_to_host_async(stream, dst, src, src_offset,
                            Transfer{cfg.h2d_link(device, dst_domain), cfg.throttle_links});
}

/// Peer copy from `src_device` to `dst_device` over the topology's D2D
/// link for that pair.
template <class T>
double peer_copy_async(DeviceTopology& topo, std::size_t src_device, std::size_t dst_device,
                       Stream& stream, DeviceBuffer<T>& dst, std::size_t dst_offset,
                       const DeviceBuffer<T>& src, std::size_t src_offset,
                       std::size_t count) {
  const TopologyConfig& cfg = topo.config();
  return peer_copy_async(stream, dst, dst_offset, src, src_offset, count,
                         Transfer{cfg.d2d_link(src_device, dst_device), cfg.throttle_links});
}

}  // namespace portabench::gpusim
