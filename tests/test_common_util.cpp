// Table renderer and Options parser.
#include <gtest/gtest.h>

#include <sstream>

#include "common/options.hpp"
#include "common/table.hpp"

namespace sws {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"a", "long_column", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"100", "20000", "3"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("long_column"), std::string::npos);
  EXPECT_NE(out.find("20000"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t("csv");
  t.set_header({"x", "y"});
  t.add_row({"1", "2.5"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "# csv\nx,y\n1,2.5\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("bad");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, HeaderAfterRowsThrows) {
  Table t("bad");
  t.add_row({"1"});
  EXPECT_THROW(t.set_header({"a"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, KeyEqualsValue) {
  const auto o = parse({"--npes=16", "--mode=real"});
  EXPECT_EQ(o.get("npes", std::int64_t{0}), 16);
  EXPECT_EQ(o.get("mode", std::string("virtual")), "real");
}

TEST(Options, KeySpaceValue) {
  const auto o = parse({"--npes", "32"});
  EXPECT_EQ(o.get("npes", std::int64_t{0}), 32);
}

TEST(Options, BareFlagIsTrue) {
  const auto o = parse({"--verbose"});
  EXPECT_TRUE(o.get("verbose", false));
  EXPECT_FALSE(o.get("absent", false));
}

TEST(Options, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=yes"}).get("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get("x", false));
  EXPECT_FALSE(parse({"--x=0"}).get("x", true));
  EXPECT_THROW(parse({"--x=maybe"}).get("x", false), std::invalid_argument);
}

TEST(Options, MalformedNumberThrows) {
  EXPECT_THROW(parse({"--n=abc"}).get("n", std::int64_t{0}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--f=xyz"}).get("f", 1.0), std::invalid_argument);
}

TEST(Options, PositionalArguments) {
  // Arguments that are not options are skipped: they neither parse as
  // keys nor count as unknown.
  const auto o = parse({"file1", "--k=v", "file2"});
  EXPECT_EQ(o.get("k", std::string{}), "v");
  EXPECT_TRUE(o.unused().empty());
}

TEST(Options, UnusedDetectsTypos) {
  const auto o = parse({"--npes=4", "--typo=1"});
  (void)o.get("npes", std::int64_t{0});
  const auto unused = o.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Options, DoubleValues) {
  EXPECT_DOUBLE_EQ(parse({"--f=2.5"}).get("f", 0.0), 2.5);
}

}  // namespace
}  // namespace sws
