#pragma once

/// \file json.hpp
/// Minimal recursive-descent JSON reader, the repo's only one. Users: the
/// trace header and footer readers (trace/schema.cpp, trace/reader.cpp,
/// trace/report_json.cpp) and the graph format (graph/serialization.cpp).
/// Covers objects, arrays, strings, numbers, booleans and null — exactly
/// the subset the repo's writers emit; it is not a general-purpose JSON
/// library.
///
/// A `\uXXXX` escape needs four hex digits and is stored as UTF-8; a
/// surrogate pair becomes one four-byte code point, and a lone surrogate
/// or a non-hex digit is a parse error.

#include <string>
#include <utility>
#include <vector>

namespace drhw::json {

/// One parsed JSON value. Object members keep document order (the writers
/// emit deterministic key order, and tests compare round-trips).
struct Value {
  enum class Kind { null, boolean, number, string, array, object } kind =
      Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// Object member by key; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;
  /// Object member by key; throws std::invalid_argument when absent.
  const Value& at(const std::string& key) const;
};

/// Parses `text` into a Value tree. `context` prefixes every error message
/// ("campaign JSON", "bench JSON", ...). Throws std::invalid_argument on
/// malformed input (a number token strtod does not consume whole included)
/// or trailing characters. Numbers out of double range parse as +-inf;
/// readers that cast to integers must check std::isfinite first.
Value parse(const std::string& text, const std::string& context = "JSON");

}  // namespace drhw::json
