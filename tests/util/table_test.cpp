#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

namespace smart::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(20.0, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("20.0"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, AddStartsRowImplicitly) {
  Table t({"x"});
  t.add("first");
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, IntegerFormatting) {
  Table t({"n"});
  t.row().add(42);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("42"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.row().add("with,comma").add("with\"quote");
  const std::string path = testing::TempDir() + "table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::string line;
  std::getline(in, header);
  std::getline(in, line);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(line, "\"with,comma\",\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Table, CsvBadPathThrows) {
  Table t({"a"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

/// The iostream spelling format_double reproduces.
std::string ostream_fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

TEST(Table, FormatDoubleMatchesOstream) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 2.5, 0.5, 1.5, -2.5,  // ties at the unit digit
      0.125, 0.375, 1.0005, 2.0005, 0.0625, 1.25e-4, 9.9995, -9.9995,
      0.1, 0.7, 3.14159265358979, 1234.5678, 1e300, -1e300, 1e-300,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(), 4.9e-320, inf, -inf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    for (int precision = 0; precision <= 6; ++precision) {
      EXPECT_EQ(format_double(v, precision), ostream_fixed(v, precision))
          << v << " at precision " << precision;
      std::string appended = "x=";
      append_fixed(appended, v, precision);
      EXPECT_EQ(appended, "x=" + ostream_fixed(v, precision));
    }
  }
  // Exact ties at the last printed digit, in binary: x.yz5 with a
  // representable 5 (multiples of 1/8 and 1/16).
  for (int k = -64; k <= 64; ++k) {
    const double v = k / 16.0;
    for (int precision = 0; precision <= 4; ++precision) {
      EXPECT_EQ(format_double(v, precision), ostream_fixed(v, precision)) << v;
    }
  }
  // Beyond the stack buffer and a negative precision (ostream uses 6).
  EXPECT_EQ(format_double(1.0 / 3.0, 80), ostream_fixed(1.0 / 3.0, 80));
  EXPECT_EQ(format_double(1e300, 70), ostream_fixed(1e300, 70));
  EXPECT_EQ(format_double(2.25, -1), ostream_fixed(2.25, -1));
}

}  // namespace
}  // namespace smart::util
