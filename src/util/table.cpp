#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace drhw {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DRHW_CHECK(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  DRHW_CHECK_MSG(cells.size() == headers_.size(),
                 "row width must match header width");
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      os << (c + 1 < row.size() ? " | " : " |\n");
    }
  };

  print_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << std::string(widths[c] + 2, '-');
    os << (c + 1 < widths.size() ? '+' : '|');
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string fmt_ms(long long time_microseconds, int decimals) {
  return fmt(static_cast<double>(time_microseconds) / 1000.0, decimals);
}

std::string fmt_pct(double value, int decimals) {
  return fmt(value, decimals) + "%";
}

}  // namespace drhw
