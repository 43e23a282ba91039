#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cacqr/support/cli.hpp"
#include "cacqr/support/table.hpp"

namespace cacqr {
namespace {

TEST(TableTest, AlignedRender) {
  TextTable t;
  t.header({"nodes", "gflops"});
  t.row({"64", "123.4"});
  t.row({"1024", "7.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("nodes"), std::string::npos);
  EXPECT_NE(s.find("1024"), std::string::npos);
  // Header line must be at least as wide as the widest cell.
  std::istringstream is(s);
  std::string line1, rule;
  std::getline(is, line1);
  std::getline(is, rule);
  EXPECT_GE(rule.size(), std::string("nodes  gflops").size());
}

TEST(TableTest, CsvRoundTrip) {
  struct Case {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    std::string csv;
  };
  // The second case needs RFC 4180 quoting: unquoted, "(a,b)" would split
  // into two fields and the embedded quote would open a quoted field.
  const Case cases[] = {
      {{"a", "b"}, {{"1", "2"}, {"3", "4"}}, "a,b\n1,2\n3,4\n"},
      {{"(a,b)", "op"},
       {{"(2,1)", "Syrk(m/P, n) \"local\""}},
       "\"(a,b)\",op\n\"(2,1)\",\"Syrk(m/P, n) \"\"local\"\"\"\n"},
  };
  const std::string path = testing::TempDir() + "cacqr_table_test.csv";
  for (const Case& c : cases) {
    TextTable t;
    t.header(c.header);
    for (const std::vector<std::string>& row : c.rows) t.row(row);
    t.write_csv(path);
    std::ifstream in(path);
    std::ostringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), c.csv);
  }
  std::remove(path.c_str());
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(TextTable::num(1.5), "1.5");
  EXPECT_EQ(TextTable::num(2.0), "2");
  EXPECT_EQ(TextTable::num(0.333333333, 3), "0.333");
}

TEST(CliTest, ParsesFlags) {
  const char* argv[] = {"prog", "--nodes=64", "--verbose", "positional",
                        "--ratio=1.5"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.has("nodes"));
  EXPECT_EQ(args.get_int("nodes", 0), 64);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 1.5);
  EXPECT_FALSE(args.has("positional"));
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_EQ(args.get("absent", "x"), "x");
}

}  // namespace
}  // namespace cacqr
