// Serial oracles for the device-wide primitives.
//
// Each oracle is a plain single-threaded loop.  The scan oracles replay
// the EXACT association the device scans commit to — the same kSegment
// slice folds and the same ascending combine of slice totals — and the
// sort oracles are std::stable_sort under the radix bijection's order,
// so device results must match the oracle bit-for-bit under every
// thread count and sanitizer permutation seed.  The property tests and
// bench/micro_primitives verify exactly that.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "simrt/op.hpp"
#include "scan.hpp"
#include "sort.hpp"
#include "tunables.hpp"

namespace portabench::primitives {

namespace detail {

template <bool Inclusive, class T, class Op>
void scan_oracle(std::span<const T> in, std::span<T> out, Op op) {
  PB_EXPECTS(out.size() == in.size());
  const std::size_t n = in.size();
  if (n == 0) return;
  const std::size_t segments = ceil_div(n, kSegment);
  std::vector<T> totals(segments);
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const std::size_t lo = seg * kSegment;
    const std::size_t hi = std::min(n, lo + kSegment);
    T acc = op.identity();
    for (std::size_t i = lo; i < hi; ++i) {
      const T x = in[i];
      if constexpr (Inclusive) {
        acc = op(acc, x);
        out[i] = acc;
      } else {
        out[i] = acc;
        acc = op(acc, x);
      }
    }
    totals[seg] = acc;
  }
  const std::vector<T> offsets = segment_offsets(std::span<const T>(totals), op);
  for (std::size_t seg = 1; seg < segments; ++seg) {
    const std::size_t lo = seg * kSegment;
    const std::size_t hi = std::min(n, lo + kSegment);
    const T offset = offsets[seg];
    std::size_t i = lo;
    if constexpr (!Inclusive) {
      out[i] = offset;
      ++i;
    }
    for (; i < hi; ++i) out[i] = op(offset, out[i]);
  }
}

}  // namespace detail

/// What device_exclusive_scan computes, serially.  For exact ops this
/// equals the plain sequential exclusive scan.
template <class T, class Op>
  requires simrt::ReductionOpFor<Op, T>
void exclusive_scan_oracle(std::span<const T> in, std::span<T> out, Op op) {
  detail::scan_oracle<false>(in, out, op);
}

/// What device_inclusive_scan computes, serially.
template <class T, class Op>
  requires simrt::ReductionOpFor<Op, T>
void inclusive_scan_oracle(std::span<const T> in, std::span<T> out, Op op) {
  detail::scan_oracle<true>(in, out, op);
}

/// Stable sort of keys by the radix bijection's total order — what
/// device_radix_sort_keys must produce bit-for-bit.
template <class K>
  requires RadixSortable<K>
void sort_keys_oracle(std::span<K> keys) {
  using TR = RadixTraits<K>;
  std::stable_sort(keys.begin(), keys.end(), [](const K& a, const K& b) {
    return TR::to_bits(a) < TR::to_bits(b);
  });
}

/// Stable sort of (key, value) pairs by key.  Equal keys keep input
/// order.
template <class K, class V>
  requires RadixSortable<K>
void sort_pairs_oracle(std::span<K> keys, std::span<V> values) {
  using TR = RadixTraits<K>;
  PB_EXPECTS(values.size() == keys.size());
  const std::size_t n = keys.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return TR::to_bits(keys[a]) < TR::to_bits(keys[b]);
  });
  std::vector<K> k2(n);
  std::vector<V> v2(n);
  for (std::size_t i = 0; i < n; ++i) {
    k2[i] = keys[perm[i]];
    v2[i] = values[perm[i]];
  }
  std::copy(k2.begin(), k2.end(), keys.begin());
  std::copy(v2.begin(), v2.end(), values.begin());
}

}  // namespace portabench::primitives
