#pragma once
// ASCII table printer used by every bench binary to print paper-style
// rows ("the same rows/series the paper reports").

#include <string>
#include <vector>

namespace tridsolve::util {

/// Column-aligned text table with an optional title. Cells are strings;
/// numeric helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::string title = {});

  /// Set the header row. Resets nothing else.
  void set_header(std::vector<std::string> header);

  /// Append a fully-formed row.
  void add_row(std::vector<std::string> row);

  /// Format helpers.
  static std::string num(double v, int precision = 3);
  static std::string integer(long long v);

  /// Render with aligned columns and a rule under the header.
  [[nodiscard]] std::string to_ascii() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tridsolve::util
