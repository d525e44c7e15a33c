// The identity-carrying reduction-op vocabulary (Kokkos::Sum/Max/...
// analogue): the one op concept taken by simrt::parallel_reduce, the
// gpusim block primitives, and the src/primitives device calls — the
// arbitrary-type/arbitrary-operator surface of Pilliat's
// portable-primitives question (PAPERS.md).
//
// An op is a small value type with
//   T operator()(T, T) const   — combiner; callers always put the
//                                EARLIER element on the LEFT, so
//                                non-commutative ops and tie-breaks
//                                resolve in element order
//   T identity() const         — op(identity, x) == x (bitwise for every
//                                op below except fp sum/prod, which only
//                                promise it for finite x; the device
//                                paths never combine a live value with
//                                the identity on the fp path)
//   static constexpr bool kExact
//       — true when the op is exactly associative over order-preserving
//         groupings (integers mod 2^w, bit ops, min/max incl. the
//         NaN-propagating forms).  Exact ops take the hierarchical
//         warp/block tree combine (any tree equals the left fold
//         bit-for-bit); non-exact ops (fp sum/prod) take the pinned
//         segment-ordered combine (docs/PRIMITIVES.md).
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

namespace portabench::simrt {

template <class Op, class T>
concept ReductionOpFor = requires(const Op op, const T a, const T b) {
  { op(a, b) } -> std::convertible_to<T>;
  { op.identity() } -> std::convertible_to<T>;
  requires std::same_as<std::remove_cv_t<decltype(Op::kExact)>, const bool> ||
               std::same_as<std::remove_cv_t<decltype(Op::kExact)>, bool>;
};

/// The element type an op folds: what its identity() returns.
template <class Op>
using op_value_t = std::remove_cvref_t<decltype(std::declval<const Op&>().identity())>;

/// An op over its own element type — what parallel_reduce's op form
/// takes (and what keeps a plain functor out of that overload).
template <class Op>
concept ReductionOp = ReductionOpFor<Op, op_value_t<Op>>;

namespace detail {

template <class T>
[[nodiscard]] constexpr T lowest_value() noexcept {
  if constexpr (std::numeric_limits<T>::has_infinity) {
    return -std::numeric_limits<T>::infinity();
  } else {
    return std::numeric_limits<T>::lowest();
  }
}

template <class T>
[[nodiscard]] constexpr T highest_value() noexcept {
  if constexpr (std::numeric_limits<T>::has_infinity) {
    return std::numeric_limits<T>::infinity();
  } else {
    return std::numeric_limits<T>::max();
  }
}

/// Integer + and * mod 2^w: the operands go through uint64, so a signed
/// (or promoted narrow unsigned) overflow wraps instead of being
/// undefined — the wrap is what makes integer sums and products exact.
template <class T>
[[nodiscard]] constexpr T add(const T& a, const T& b) noexcept {
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
  } else {
    return a + b;
  }
}

template <class T>
[[nodiscard]] constexpr T mul(const T& a, const T& b) noexcept {
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
  } else {
    return a * b;
  }
}

}  // namespace detail

template <class T>
struct SumOp {
  static constexpr bool kExact = std::is_integral_v<T>;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return detail::add(a, b); }
  [[nodiscard]] T identity() const { return T{}; }
};

template <class T>
struct ProdOp {
  static constexpr bool kExact = std::is_integral_v<T>;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return detail::mul(a, b); }
  [[nodiscard]] T identity() const { return T{1}; }
};

/// Minimum, leftmost-wins on ties (compares-equal ±0 keeps the earlier
/// element).  NaN inputs are outside the contract — use NanMinOp.
template <class T>
struct MinOp {
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return b < a ? b : a; }
  [[nodiscard]] T identity() const { return detail::highest_value<T>(); }
};

template <class T>
struct MaxOp {
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return a < b ? b : a; }
  [[nodiscard]] T identity() const { return detail::lowest_value<T>(); }
};

/// NaN-propagating min/max: any NaN input poisons the result, and the
/// LEFTMOST NaN's bit pattern is the one that survives under every
/// order-preserving grouping — which is what keeps these exactly
/// associative (and therefore kExact) even on NaN-bearing data.
template <class T>
struct NanMinOp {
  static_assert(std::is_floating_point_v<T>);
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const {
    if (std::isnan(a)) return a;
    if (std::isnan(b)) return b;
    return b < a ? b : a;
  }
  [[nodiscard]] T identity() const { return detail::highest_value<T>(); }
};

template <class T>
struct NanMaxOp {
  static_assert(std::is_floating_point_v<T>);
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const {
    if (std::isnan(a)) return a;
    if (std::isnan(b)) return b;
    return a < b ? b : a;
  }
  [[nodiscard]] T identity() const { return detail::lowest_value<T>(); }
};

template <class T>
struct BitAndOp {
  static_assert(std::is_integral_v<T>);
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return a & b; }
  [[nodiscard]] T identity() const { return static_cast<T>(~T{}); }
};

template <class T>
struct BitOrOp {
  static_assert(std::is_integral_v<T>);
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return a | b; }
  [[nodiscard]] T identity() const { return T{}; }
};

template <class T>
struct BitXorOp {
  static_assert(std::is_integral_v<T>);
  static constexpr bool kExact = true;
  [[nodiscard]] T operator()(const T& a, const T& b) const { return a ^ b; }
  [[nodiscard]] T identity() const { return T{}; }
};

/// Affine map x -> mul*x + add as a scannable element: composition is
/// associative but NON-commutative, the canonical stress test for prefix
/// structures (linear recurrences solve as an affine scan).
template <class T>
struct Affine {
  T mul{1};
  T add{0};
  [[nodiscard]] T operator()(const T& x) const { return mul * x + add; }
  [[nodiscard]] bool operator==(const Affine&) const = default;
};

/// op(a, b) = "apply a, then b": b(a(x)).
template <class T>
struct AffineComposeOp {
  static constexpr bool kExact = std::is_integral_v<T>;
  [[nodiscard]] Affine<T> operator()(const Affine<T>& a, const Affine<T>& b) const {
    return {detail::mul(a.mul, b.mul), detail::add(detail::mul(a.add, b.mul), b.add)};
  }
  [[nodiscard]] Affine<T> identity() const { return {}; }
};

}  // namespace portabench::simrt
