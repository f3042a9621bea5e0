#include "exp/bench_args.h"

#include <gtest/gtest.h>

namespace strip::exp {
namespace {

BenchArgs Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return BenchArgs::Parse(static_cast<int>(argv.size()),
                          const_cast<char**>(argv.data()));
}

TEST(BenchArgsTest, Defaults) {
  const BenchArgs args = Parse({});
  EXPECT_DOUBLE_EQ(args.seconds, 200.0);
  EXPECT_EQ(args.replications, 2);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(args.parallel.jobs, 0);
  EXPECT_FALSE(args.parallel.pin_cores);
  EXPECT_FALSE(args.csv);
}

TEST(BenchArgsTest, ParsesEveryFlag) {
  const BenchArgs args = Parse({"--seconds=50", "--reps=5", "--seed=7",
                                "--jobs=3", "--pin-cores", "--csv"});
  EXPECT_DOUBLE_EQ(args.seconds, 50.0);
  EXPECT_EQ(args.replications, 5);
  EXPECT_EQ(args.seed, 7u);
  EXPECT_EQ(args.parallel.jobs, 3);
  EXPECT_TRUE(args.parallel.pin_cores);
  EXPECT_TRUE(args.csv);
}

TEST(BenchArgsDeathTest, ThreadsWasRemoved) {
  EXPECT_EXIT(Parse({"--threads=3"}), ::testing::ExitedWithCode(2),
              "--threads= was removed; use --jobs=3");
}

TEST(BenchArgsTest, FullPreset) {
  const BenchArgs args = Parse({"--full"});
  EXPECT_DOUBLE_EQ(args.seconds, 1000.0);
  EXPECT_EQ(args.replications, 3);
}

TEST(BenchArgsTest, ApplyToSetsSimSeconds) {
  const BenchArgs args = Parse({"--seconds=77"});
  core::Config config;
  args.ApplyTo(config);
  EXPECT_DOUBLE_EQ(config.sim_seconds, 77.0);
}

TEST(BenchArgsDeathTest, UnknownFlagExits) {
  EXPECT_EXIT(Parse({"--bogus"}), ::testing::ExitedWithCode(2), "usage");
}

TEST(BenchArgsDeathTest, MalformedNumbersExitNamingTheFlag) {
  EXPECT_EXIT(Parse({"--seed=banana"}), ::testing::ExitedWithCode(2),
              "bad value for --seed: banana");
  EXPECT_EXIT(Parse({"--reps=3x"}), ::testing::ExitedWithCode(2),
              "bad value for --reps: 3x");
  EXPECT_EXIT(Parse({"--jobs=abc"}), ::testing::ExitedWithCode(2),
              "bad value for --jobs: abc");
  EXPECT_EXIT(Parse({"--jobs=-2"}), ::testing::ExitedWithCode(2),
              "bad value for --jobs: -2");
  EXPECT_EXIT(Parse({"--seconds=1e999"}), ::testing::ExitedWithCode(2),
              "bad value for --seconds: 1e999");
}

TEST(BenchArgsDeathTest, NonPositiveSecondsExits) {
  EXPECT_EXIT(Parse({"--seconds=0"}), ::testing::ExitedWithCode(2), "usage");
}

}  // namespace
}  // namespace strip::exp
