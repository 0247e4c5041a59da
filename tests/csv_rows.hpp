#pragma once

// Test-side reader for the campaign CSV report: splits a document into
// header -> cell maps, honouring the writer's quoting ("..." cells with ""
// escapes, which may hold commas and newlines). Cells stay text; tests
// convert the ones they assert on.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace drhw::testing {

/// One map per data row, keyed by the header row. A row narrower or wider
/// than the header fails the calling test.
inline std::vector<std::map<std::string, std::string>> csv_rows(
    const std::string& csv) {
  std::vector<std::vector<std::string>> lines(1);
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < csv.size(); ++i) {
    const char c = csv[i];
    if (quoted && c == '"' && i + 1 < csv.size() && csv[i + 1] == '"') {
      cell += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (!quoted && (c == ',' || c == '\n')) {
      lines.back().push_back(std::move(cell));
      cell.clear();
      if (c == '\n') lines.emplace_back();
    } else {
      cell += c;
    }
  }
  if (!cell.empty() || !lines.back().empty())
    lines.back().push_back(std::move(cell));  // no final newline
  else
    lines.pop_back();

  std::vector<std::map<std::string, std::string>> rows;
  if (lines.empty()) return rows;
  const std::vector<std::string>& header = lines.front();
  for (std::size_t r = 1; r < lines.size(); ++r) {
    EXPECT_EQ(lines[r].size(), header.size()) << "CSV row " << r;
    std::map<std::string, std::string>& row = rows.emplace_back();
    for (std::size_t c = 0; c < header.size() && c < lines[r].size(); ++c)
      row[header[c]] = lines[r][c];
  }
  return rows;
}

}  // namespace drhw::testing
