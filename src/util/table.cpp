#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace tridsolve::util {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::integer(long long v) { return std::to_string(v); }

std::string Table::to_ascii() const {
  // Column widths from header + all rows.
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&width](const std::vector<std::string>& row) {
    if (row.size() > width.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::ostringstream out;
  if (!title_.empty()) out << "== " << title_ << " ==\n";
  auto emit = [&out, &width](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      out << cell << std::string(width[i] - cell.size() + 2, ' ');
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : width) total += w + 2;
    out << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace tridsolve::util
