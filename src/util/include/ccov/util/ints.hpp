#pragma once
/// \file ints.hpp
/// Small integer helpers used throughout the library.

#include <cassert>
#include <cstdint>
#include <type_traits>

namespace ccov::util {

/// Ceiling division for non-negative integers: ceil(a / b).
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  assert(b > 0);
  return static_cast<T>((a + b - 1) / b);
}

}  // namespace ccov::util
