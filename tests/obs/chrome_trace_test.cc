// ChromeTraceWriter: document structure, span pairing, OD flow
// arrows, determinism, and the golden file.
//
// The golden test byte-compares the trace for a fixed (config, seed)
// against tests/obs/testdata/chrome_trace_golden.json. Runs are pure
// functions of (Config, seed) and the writer is deterministic by
// design (fixed key order, fixed float formats, no wall clocks), so
// the bytes are a constant of the implementation. Regenerate with
//   STRIP_UPDATE_GOLDEN=1 ./build/tests/chrome_trace_test

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "exp/experiment.h"
#include "obs/trace/chrome_trace.h"
#include "obs/trace/trace_analysis.h"

namespace strip::obs::trace {
namespace {

constexpr char kGoldenPath[] =
    STRIP_TEST_SOURCE_DIR "/obs/testdata/chrome_trace_golden.json";

// Short OD run tuned so every event family appears: a tight freshness
// bound makes reads go stale (hence OD installs and flow arrows), and
// transaction preemption plus the hot transaction stream produce
// preempt and drop records.
core::Config GoldenConfig() {
  core::Config config;
  config.policy = core::PolicyKind::kOnDemand;
  config.sim_seconds = 1.5;
  config.warmup_seconds = 0.0;
  config.alpha = 0.5;
  config.lambda_t = 30.0;
  config.n_low = 200;
  config.n_high = 200;
  config.txn_preemption = true;
  return config;
}

std::string ProduceTrace(const core::Config& config, std::uint64_t seed) {
  std::ostringstream out;
  exp::ClusterRunHook hook = [&out](core::Cluster& cluster,
                                    const exp::RunContext&)
      -> exp::RunFinisher {
    auto trace = std::make_shared<ChromeTraceWriter>(&out);
    cluster.shard(0).AddObserver(trace.get());
    return [trace](const core::RunMetrics&) { trace->Finish(); };
  };
  core::ShardedConfig one_shard;
  one_shard.base = config;
  exp::RunContext context;
  context.seed = seed;
  exp::RunOnce(one_shard, seed, hook, context);
  return out.str();
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  std::size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    ++count;
    at += needle.size();
  }
  return count;
}

TEST(ChromeTraceTest, DocumentShapeAndRequiredRecords) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\n]}\n"), std::string::npos);
  // Process and fixed-track metadata.
  EXPECT_NE(doc.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"name\":\"scheduler\"}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"name\":\"updates\"}"), std::string::npos);
  // Every record carries pid 1.
  EXPECT_EQ(CountOccurrences(doc, "\"pid\":1"),
            CountOccurrences(doc, "\"ph\":\""));
  // The lifecycle event families all appear.
  for (const char* cat :
       {"\"cat\":\"txn-admitted\"", "\"cat\":\"txn-terminal\"",
        "\"cat\":\"update-arrival\"", "\"cat\":\"update-enqueued\"",
        "\"cat\":\"update-installed\"", "\"cat\":\"dispatch\"",
        "\"cat\":\"segment-complete\"", "\"cat\":\"preempt\"",
        "\"cat\":\"stale-read\"", "\"cat\":\"policy-decision\"",
        "\"cat\":\"phase\""}) {
    EXPECT_NE(doc.find(cat), std::string::npos) << cat;
  }
}

TEST(ChromeTraceTest, SpansPairAndFlowArrowsComeInPairs) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);
  EXPECT_GT(CountOccurrences(doc, "\"ph\":\"B\""), 0);
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"B\""),
            CountOccurrences(doc, "\"ph\":\"E\""));
  // The OD causal chain: at least one flow pair, starts == finishes,
  // and the finish side binds enclosing-slice semantics.
  const int starts = CountOccurrences(doc, "\"ph\":\"s\"");
  const int finishes = CountOccurrences(doc, "\"ph\":\"f\"");
  EXPECT_GE(starts, 1);
  EXPECT_EQ(starts, finishes);
  EXPECT_EQ(finishes, CountOccurrences(doc, "\"bp\":\"e\""));
  EXPECT_EQ(starts, CountOccurrences(doc, "\"name\":\"install-od\""));
}

TEST(ChromeTraceTest, SameSeedSameBytes) {
  const std::string first = ProduceTrace(GoldenConfig(), 7);
  const std::string second = ProduceTrace(GoldenConfig(), 7);
  EXPECT_EQ(first, second);
}

TEST(ChromeTraceTest, DifferentSeedDifferentBytes) {
  const std::string first = ProduceTrace(GoldenConfig(), 7);
  const std::string second = ProduceTrace(GoldenConfig(), 8);
  EXPECT_NE(first, second);
}

TEST(ChromeTraceTest, ParsesBackAndCriticalPathIsConsistent) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);
  std::istringstream in(doc);
  std::string error;
  const std::optional<ParsedTrace> parsed = ParseChromeTrace(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_FALSE(parsed->events.empty());
  const auto kinds = KindCounts(parsed->events);
  EXPECT_EQ(kinds.at("dispatch"), kinds.at("segment-complete"));
  // Every transaction that has a terminal yields a critical path whose
  // running+waiting time spans admission to terminal.
  const std::optional<std::uint64_t> miss =
      FirstMissedDeadlineTxn(parsed->events);
  if (miss.has_value()) {
    const std::optional<CriticalPath> path =
        ExtractCriticalPath(parsed->events, *miss, &error);
    ASSERT_TRUE(path.has_value()) << error;
    EXPECT_GE(path->terminal, path->admitted);
    EXPECT_NEAR(path->running_seconds + path->waiting_seconds,
                path->terminal - path->admitted, 1e-9);
  }
}

TEST(ChromeTraceTest, MatchesGoldenFile) {
  const std::string doc = ProduceTrace(GoldenConfig(), 7);

  if (std::getenv("STRIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << doc;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                  << " (regenerate with STRIP_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(doc, golden.str())
      << "chrome trace bytes changed; if intentional, regenerate with "
         "STRIP_UPDATE_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace strip::obs::trace
