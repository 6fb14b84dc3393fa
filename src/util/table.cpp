#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace smart::util {

void append_fixed(std::string& out, double value, int precision) {
  if (precision < 0) precision = 6;  // what ostream does with a negative one
  // Sign, up to 309 integer digits, the point and the fraction digits.
  constexpr int kStackPrecision = 64;
  char stack[312 + kStackPrecision];
  std::string heap;
  char* first = stack;
  char* last = stack + sizeof stack;
  if (precision > kStackPrecision) {
    heap.resize(312 + static_cast<std::size_t>(precision));
    first = heap.data();
    last = first + heap.size();
  }
  const auto result =
      std::to_chars(first, last, value, std::chars_format::fixed, precision);
  out.append(first, result.ptr);
}

std::string format_double(double value, int precision) {
  std::string out;
  append_fixed(out, value, precision);
  return out;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add(std::string cell) {
  if (rows_.empty()) row();
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}

Table& Table::add(long long value) { return add(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << "  " << std::left << std::setw(static_cast<int>(widths[c])) << cell;
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t rule_width = 2 * widths.size();
  for (std::size_t w : widths) rule_width += w;
  os << "  " << std::string(rule_width - 2, '-') << '\n';
  for (const auto& r : rows_) emit_row(r);
}

void Table::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Table::write_csv: cannot open " + path);
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out << ',';
      // Quote cells containing separators.
      if (cells[c].find_first_of(",\"\n") != std::string::npos) {
        out << '"';
        for (char ch : cells[c]) {
          if (ch == '"') out << "\"\"";
          else out << ch;
        }
        out << '"';
      } else {
        out << cells[c];
      }
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
}

}  // namespace smart::util
