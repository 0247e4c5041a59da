#pragma once

/// \file table.hpp
/// ASCII table rendering for the benchmark harnesses.
///
/// Every bench binary prints the rows of the paper table/figure it
/// regenerates; TablePrinter keeps that output aligned and diffable.

#include <iosfwd>
#include <string>
#include <vector>

namespace drhw {

/// Collects rows of string cells and renders them with aligned columns.
class TablePrinter {
 public:
  /// \param headers column titles; fixes the column count for all rows.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders the table with a header rule, padded to column widths.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed decimals (helper for table cells).
std::string fmt(double value, int decimals = 1);

/// Formats a time_us value as milliseconds with the given decimals.
std::string fmt_ms(long long time_microseconds, int decimals = 1);

/// Formats "x%" with the given decimals.
std::string fmt_pct(double value, int decimals = 1);

}  // namespace drhw
