// Plain-text table and CSV emitters used by the bench harness to print
// paper-style rows (one table/figure per bench binary).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace smart::util {

/// Column-aligned ASCII table. Cells are strings; numeric helpers format
/// with fixed precision. Rendered with a header rule, suitable for logs.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(std::string cell);
  Table& add(double value, int precision = 3);
  Table& add(long long value);
  Table& add(int value) { return add(static_cast<long long>(value)); }
  Table& add(std::size_t value) { return add(static_cast<long long>(value)); }

  std::size_t num_rows() const noexcept { return rows_.size(); }

  /// Renders the table (header, rule, rows) to the stream.
  void print(std::ostream& os) const;

  /// Writes the table as CSV (header + rows) to the given path.
  /// Throws std::runtime_error if the file cannot be opened.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with Table): the
/// bytes `std::ostream` writes under std::fixed and std::setprecision, via
/// std::to_chars.
std::string format_double(double value, int precision);

/// Appends format_double(value, precision) to `out` without a temporary.
void append_fixed(std::string& out, double value, int precision);

}  // namespace smart::util
