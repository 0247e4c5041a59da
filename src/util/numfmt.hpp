#pragma once

/// \file numfmt.hpp
/// Shared deterministic text formatting for every JSON/JSONL writer in the
/// repo (campaign reports, trace files, workload files). The double
/// formatter emits the shortest decimal string that parses back to the
/// identical bits, which is what makes "write, read, compare" round trips
/// — the report tests, the trace replay verifier — exact instead of
/// approximate. Hoisted out of runner/report.cpp when the trace subsystem
/// (src/trace/) became a second writer.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace drhw {

/// Shortest representation that parses back to the identical double.
/// Non-finite values have no JSON number representation — "%g" would emit
/// `nan`/`inf`, which no JSON parser (ours included) accepts — so they
/// report false and the caller serialises null / an empty cell.
inline bool fmt_shortest_double(double value, char (&buffer)[64]) {
  if (!std::isfinite(value)) return false;
  for (int precision : {15, 16, 17}) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return true;
}

inline std::string fmt_json_double(double value) {
  char buffer[64];
  return fmt_shortest_double(value, buffer) ? std::string(buffer)
                                            : std::string("null");
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace drhw
