#include "common/flags.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace sarn {
namespace {

// Builds an argv from literals; argv[0] is the program, argv[1] the command,
// so Parse starts at index 2 like the CLI does.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args)
      : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), {"sarn", "cmd"});
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

// The fields a test command binds; defaults are the initialisers.
struct TestArgs {
  std::string out;
  std::string city = "CD";
  int epochs = 40;
  double scale = 0.05;
  bool lines = false;
  void Bind(FlagSet& flags) {
    flags.String("out", &out, "output file", /*required=*/true)
        .String("city", &city, "city name")
        .Int("epochs", &epochs, "epoch count")
        .Double("scale", &scale, "scale factor")
        .Bool("lines", &lines, "line mode");
  }
};

// Binds a fresh TestArgs and parses `args` into it.
struct Parsed {
  TestArgs args;
  FlagSet flags{"cmd", "a test command"};
  bool ok = false;
  std::string error;

  explicit Parsed(std::vector<std::string> args_in) {
    args.Bind(flags);
    Argv argv(std::move(args_in));
    ok = flags.Parse(argv.argc(), argv.argv(), 2, &error);
  }
};

TEST(FlagsTest, ParsesTypedValuesAndDefaults) {
  Parsed p({"--out", "x.csv", "--epochs", "7", "--scale", "1.5", "--lines", "true"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.args.out, "x.csv");
  EXPECT_EQ(p.args.city, "CD");  // Defaulted.
  EXPECT_EQ(p.args.epochs, 7);
  EXPECT_DOUBLE_EQ(p.args.scale, 1.5);
  EXPECT_TRUE(p.args.lines);
}

TEST(FlagsTest, DefaultsKeepTheFieldsExactValue) {
  // The usage text rounds a double default to 6 significant digits; the
  // field itself must keep every bit when the flag is not given.
  double rate = 0.0012345678;
  FlagSet flags("cmd", "");
  flags.Double("rate", &rate, "a rate");
  Argv argv(std::vector<std::string>{});
  std::string error;
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), 2, &error)) << error;
  EXPECT_EQ(rate, 0.0012345678);
  EXPECT_NE(flags.Usage().find("(default: 0.00123457)"), std::string::npos);
}

TEST(FlagsTest, BoolAcceptsNumericForms) {
  for (const char* value : {"1", "true"}) {
    Parsed p({"--out", "x", "--lines", value});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(p.args.lines);
  }
  for (const char* value : {"0", "false"}) {
    Parsed p({"--out", "x", "--lines", "true", "--lines", value});
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_FALSE(p.args.lines);
  }
}

TEST(FlagsTest, ErrorsDescribeTheProblem) {
  struct Case {
    std::vector<std::string> args;
    const char* message;
  };
  const Case cases[] = {
      {{"--out", "x", "--bogus", "1"},
       "unknown flag --bogus for 'cmd' (try: sarn cmd --help)"},
      {{"--out", "x", "--epochs"}, "flag --epochs needs a value"},
      {{"--out", "x", "--epochs", "many"}, "flag --epochs expects a int, got 'many'"},
      {{"--out", "x", "--scale", "wide"}, "flag --scale expects a float, got 'wide'"},
      {{"--out", "x", "--lines", "yes"}, "flag --lines expects a bool, got 'yes'"},
      {{"--city", "BJ"}, "cmd: --out is required"},
      {{"out", "x"}, "expected --flag, got 'out'"},
  };
  for (const Case& c : cases) {
    Parsed p(c.args);
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.error, c.message);
  }
}

TEST(FlagsTest, IntRejectsValuesItsFieldCannotHold) {
  // 2^32 + 40 would wrap to 40 in an int field.
  Parsed p({"--out", "x", "--epochs", "4294967336"});
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.error,
            "flag --epochs expects a int, got '4294967336' (out of range "
            "[-2147483648, 2147483647])");
  EXPECT_EQ(p.args.epochs, 40);  // Untouched.
  Parsed low({"--out", "x", "--epochs", "-2147483649"});
  EXPECT_FALSE(low.ok);
  EXPECT_NE(low.error.find("out of range"), std::string::npos) << low.error;
  Parsed edge({"--out", "x", "--epochs", "2147483647"});
  ASSERT_TRUE(edge.ok) << edge.error;
  EXPECT_EQ(edge.args.epochs, 2147483647);
}

TEST(FlagsTest, Int64AndUnsignedFieldsUseTheirOwnRange) {
  int64_t seed = 42;
  uint32_t count = 3;
  FlagSet flags("cmd", "");
  flags.Int("seed", &seed, "a seed").Int("count", &count, "a count");
  Argv ok({"--seed", "-9223372036854775808", "--count", "4294967295"});
  std::string error;
  ASSERT_TRUE(flags.Parse(ok.argc(), ok.argv(), 2, &error)) << error;
  EXPECT_EQ(seed, INT64_MIN);
  EXPECT_EQ(count, 4294967295u);

  Argv negative({"--count", "-1"});
  EXPECT_FALSE(flags.Parse(negative.argc(), negative.argv(), 2, &error));
  EXPECT_EQ(error, "flag --count expects a int, got '-1' (out of range [0, 4294967295])");
  // Beyond int64 the value is not an integer this parser reads at all.
  Argv huge({"--seed", "9223372036854775808"});
  EXPECT_FALSE(flags.Parse(huge.argc(), huge.argv(), 2, &error));
  EXPECT_EQ(error, "flag --seed expects a int, got '9223372036854775808'");
}

TEST(FlagsTest, HelpShortCircuitsValidation) {
  for (const char* help : {"--help", "-h"}) {
    Parsed p({help});  // --out missing, but help wins.
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(p.flags.help_requested());
  }
  Parsed late({"--city", "BJ", "--help", "--bogus"});
  ASSERT_TRUE(late.ok) << late.error;
  EXPECT_TRUE(late.flags.help_requested());
}

TEST(FlagsTest, UsageListsRequiredFlagsFirstWithDefaults) {
  Parsed p({"--out", "x"});
  EXPECT_EQ(p.flags.Usage(),
            "usage: sarn cmd [--flag value ...]\n"
            "  a test command\n"
            "  --out <string>  (required)\n"
            "      output file\n"
            "  --city <string>  (default: CD)\n"
            "      city name\n"
            "  --epochs <int>  (default: 40)\n"
            "      epoch count\n"
            "  --scale <float>  (default: 0.05)\n"
            "      scale factor\n"
            "  --lines <bool>  (default: false)\n"
            "      line mode\n");
}

TEST(FlagsTest, LastValueWins) {
  Parsed p({"--out", "a", "--epochs", "3", "--out", "b", "--epochs", "5"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.args.out, "b");
  EXPECT_EQ(p.args.epochs, 5);
}

TEST(FlagsDeathTest, RejectsDuplicateNames) {
  std::string a, b;
  FlagSet flags("cmd", "");
  flags.String("x", &a, "first");
  EXPECT_DEATH(flags.String("x", &b, "second"), "duplicate flag --x");
}

}  // namespace
}  // namespace sarn
