// FNV-1a, the one order-sensitive 64-bit mixer behind every digest: the
// checkpoint's static-schedule digest, metrics::run_digest and the
// tests' router-state digests.  Its offset basis, 1469598103934665603,
// is not the published 14695981039346656037, but every pinned digest
// and checkpoint image was recorded with it.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace dtn {

class Fnv1a {
 public:
  /// Mixes an integer (bool included) widened to u64, or a double by its
  /// bit pattern.
  template <typename T>
    requires std::is_integral_v<T> || std::is_same_v<T, double>
  constexpr void mix(T v) {
    if constexpr (std::is_same_v<T, double>) {
      mix(std::bit_cast<std::uint64_t>(v));
    } else {
      h_ = (h_ ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    }
  }

  [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace dtn
