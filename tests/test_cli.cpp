#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace dtn {
namespace {

CliOptions parse(std::vector<const char*> args,
                 const std::vector<std::string>& flags = {}) {
  args.insert(args.begin(), "prog");
  return CliOptions(static_cast<int>(args.size()), args.data(), flags);
}

TEST(CliOptions, KeyValuePairs) {
  const auto opts = parse({"--rate", "500", "--name", "dart"});
  EXPECT_EQ(opts.get_int("rate", 0), 500);
  EXPECT_EQ(opts.get("name", ""), "dart");
}

TEST(CliOptions, EqualsSyntax) {
  const auto opts = parse({"--rate=250"});
  EXPECT_EQ(opts.get_int("rate", 0), 250);
}

TEST(CliOptions, Flags) {
  const auto opts = parse({"--verbose"}, {"verbose"});
  EXPECT_TRUE(opts.has("verbose"));
}

TEST(CliOptions, Fallbacks) {
  const auto opts = parse({});
  EXPECT_EQ(opts.get("missing", "fallback"), "fallback");
  EXPECT_EQ(opts.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(opts.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(opts.get_seed(42), 42u);
}

TEST(CliOptions, SeedParsed) {
  const auto opts = parse({"--seed", "123"});
  EXPECT_EQ(opts.get_seed(0), 123u);
}

TEST(CliOptions, ScaleDefaultsQuick) {
  EXPECT_FALSE(parse({}).full_scale());
  EXPECT_TRUE(parse({"--scale", "full"}).full_scale());
}

TEST(CliOptionsDeathTest, BadScaleIsRejected) {
  for (const char* value : {"huge", "Full", ""}) {
    EXPECT_EXIT((void)parse({"--scale", value}).full_scale(),
                ::testing::ExitedWithCode(2),
                "option --scale expects quick or full");
  }
}

TEST(CliOptionsDeathTest, CountOutsideItsBoundsIsRejected) {
  EXPECT_EQ(parse({"--threads", "8"}).get_count("threads", 0, 0, 256), 8u);
  EXPECT_EQ(parse({}).get_count("threads", 3, 0, 256), 3u);
  EXPECT_EXIT((void)parse({"--threads", "-1"}).get_count("threads", 0, 0, 256),
              ::testing::ExitedWithCode(2),
              "prog: --threads must be at least 0, got -1");
  EXPECT_EXIT((void)parse({"--threads", "257"}).get_count("threads", 0, 0, 256),
              ::testing::ExitedWithCode(2),
              "prog: --threads must be at most 256, got 257");
}

TEST(CliOptions, CsvDir) {
  EXPECT_EQ(parse({}).csv_dir(), "");
  EXPECT_EQ(parse({"--csv", "/tmp/out"}).csv_dir(), "/tmp/out");
}

TEST(CliOptions, DoubleParsing) {
  const auto opts = parse({"--beta", "0.75"});
  EXPECT_DOUBLE_EQ(opts.get_double("beta", 0.0), 0.75);
}

TEST(CliOptions, NegativeNumbersParse) {
  const auto opts = parse({"--shift=-2.5", "--offset=-3"});
  EXPECT_DOUBLE_EQ(opts.get_double("shift", 0.0), -2.5);
  EXPECT_EQ(opts.get_int("offset", 0), -3);
}

// Malformed numeric values are usage errors (exit 2), never a silent 0
// or a truncated prefix.
TEST(CliOptionsDeathTest, MalformedIntIsRejected) {
  const auto expect_rejected = [](const char* value) {
    EXPECT_EXIT((void)parse({"--nodes", value}).get_int("nodes", 1),
                ::testing::ExitedWithCode(2),
                "option --nodes expects a number");
  };
  expect_rejected("abc");
  expect_rejected("12x");
  expect_rejected("");
  expect_rejected("99999999999999999999");
}

TEST(CliOptionsDeathTest, MalformedDoubleIsRejected) {
  const auto expect_rejected = [](const char* value) {
    EXPECT_EXIT((void)parse({"--days", value}).get_double("days", 1.0),
                ::testing::ExitedWithCode(2),
                "option --days expects a number");
  };
  expect_rejected("two");
  expect_rejected("2x");
  expect_rejected("");
  expect_rejected("1e999");
}

TEST(CliOptionsDeathTest, MalformedSeedIsRejected) {
  const auto expect_rejected = [](const char* value) {
    EXPECT_EXIT((void)parse({"--seed", value}).get_seed(1),
                ::testing::ExitedWithCode(2),
                "option --seed expects a number");
  };
  expect_rejected("seven");
  expect_rejected("7s");
  expect_rejected("");
  expect_rejected("-1");
  expect_rejected("99999999999999999999");
}

// Keys are only checked when a binary opts in with its accepted list.
TEST(CliOptions, UnknownKeysPassUnlessRejected) {
  const auto opts = parse({"--rate", "5", "--fault-seed", "3", "--typo", "1"});
  EXPECT_EQ(opts.get("typo", ""), "1");
  const auto known = parse({"--rate", "5", "--fault-seed", "3", "--dry"},
                           {"dry"});
  known.reject_unknown("prog", {"rate", "dry", "fault-*"});  // returns
}

TEST(CliOptionsDeathTest, UnknownKeyIsRejectedWhenAcceptedKeysAreGiven) {
  EXPECT_EXIT(parse({"--rate", "5", "--no-such-flag", "7"})
                  .reject_unknown("prog", {"rate"}),
              ::testing::ExitedWithCode(2), "prog: unknown option --no-such-flag");
  // A prefix entry covers its family only, not the bare prefix's
  // neighbours.
  EXPECT_EXIT(parse({"--faults", "1"}).reject_unknown("prog", {"fault-*"}),
              ::testing::ExitedWithCode(2), "prog: unknown option --faults");
}

}  // namespace
}  // namespace dtn
