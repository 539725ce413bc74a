#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/table.hpp"

namespace domset::common {
namespace {

TEST(TextTable, AlignsColumns) {
  text_table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("longer"), std::string::npos);
  // Header separator rule present.
  EXPECT_NE(rendered.find("---"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  text_table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1U);
  std::ostringstream out;
  t.print(out);  // must not crash on the short row
  EXPECT_FALSE(out.str().empty());
}

TEST(TextTable, CsvEscaping) {
  text_table t({"x", "y"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  std::ostringstream out;
  t.print_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Formatting, Doubles) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_int(-42), "-42");
}

TEST(Formatting, VsBound) {
  EXPECT_EQ(fmt_vs_bound(1.5, 4.0, 1), "1.5 (<= 4.0)");
}

TEST(CliParser, ParsesFlagsAndSwitches) {
  cli_parser cli("test tool");
  cli.add_flag("n", "100", "node count");
  cli.add_flag("p", "0.5", "probability");
  cli.add_switch("verbose", "chatty output");
  const char* argv[] = {"prog", "--n", "250", "--p=0.25", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("n"), 250);
  EXPECT_DOUBLE_EQ(cli.get_double("p"), 0.25);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliParser, DefaultsApply) {
  cli_parser cli("test tool");
  cli.add_flag("k", "3", "parameter");
  cli.add_switch("quiet", "silence");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("k"), 3);
  EXPECT_FALSE(cli.get_bool("quiet"));
}

TEST(CliParser, RejectsUnknownFlag) {
  cli_parser cli("test tool");
  cli.add_flag("n", "1", "n");
  const char* argv[] = {"prog", "--typo", "5"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(CliParser, RejectsMissingValue) {
  cli_parser cli("test tool");
  cli.add_flag("n", "1", "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliParser, ExecFlagsDefaultToSerialReliableContext) {
  cli_parser cli("test tool");
  cli.add_exec_flags(17);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  const domset::exec::context ctx = cli.exec();
  EXPECT_EQ(ctx.seed, 17U);
  EXPECT_EQ(ctx.threads, 1U);
  EXPECT_EQ(ctx.drop_probability, 0.0);
  EXPECT_EQ(ctx.congest_bit_limit, 0U);
  EXPECT_EQ(ctx.pool, nullptr);
}

TEST(CliParser, ExecFlagsParseEveryKnob) {
  cli_parser cli("test tool");
  cli.add_exec_flags();
  const char* argv[] = {"prog",   "--seed", "9",    "--threads",
                        "4",      "--drop", "0.25", "--congest-bits",
                        "12"};
  ASSERT_TRUE(cli.parse(9, argv));
  const domset::exec::context ctx = cli.exec();
  EXPECT_EQ(ctx.seed, 9U);
  EXPECT_EQ(ctx.threads, 4U);
  EXPECT_DOUBLE_EQ(ctx.drop_probability, 0.25);
  EXPECT_EQ(ctx.congest_bit_limit, 12U);

  cli_parser autodetect_cli("test tool");
  autodetect_cli.add_exec_flags();
  const char* autodetect[] = {"prog", "--threads=0"};
  ASSERT_TRUE(autodetect_cli.parse(2, autodetect));
  EXPECT_EQ(autodetect_cli.exec().threads, 0U);
}

TEST(CliParser, NegativeThreadsRejectedAtParse) {
  cli_parser cli("test tool");
  cli.add_exec_flags();
  const char* argv[] = {"prog", "--threads=-2"};
  EXPECT_FALSE(cli.parse(2, argv));  // usage-and-exit path, no exception
}

TEST(CliParser, NonNumericThreadsRejectedAtParse) {
  // strtoll would map the typos to 0 (= all cores) and saturate the
  // overflow to LLONG_MAX; parse must reject them all.
  for (const char* bad : {"eight", "4x", "", "99999999999999999999"}) {
    cli_parser cli("test tool");
    cli.add_exec_flags();
    const std::string arg = std::string("--threads=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_FALSE(cli.parse(2, argv)) << arg;
  }
}

TEST(CliParser, BadDropRejectedAtParse) {
  for (const char* bad : {"--drop=1.5", "--drop=-0.1", "--drop=lossy"}) {
    cli_parser cli("test tool");
    cli.add_exec_flags();
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(cli.parse(2, argv)) << bad;
  }
}

TEST(CliParser, RejectsPositional) {
  cli_parser cli("test tool");
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliParser, UsageListsFlags) {
  cli_parser cli("my description");
  cli.add_flag("alpha", "1.0", "the alpha value");
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("my description"), std::string::npos);
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha value"), std::string::npos);
}

}  // namespace
}  // namespace domset::common
