#pragma once

// FNV-1a (64-bit) over a byte string: the digest that report-pinning tests
// compare against values recorded from an earlier, independently checked
// run.

#include <cstdint>
#include <string_view>

namespace drhw::testing {

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace drhw::testing
