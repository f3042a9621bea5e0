// The perf-regression gate: a synthetic 2× slowdown must be rejected,
// the baseline against itself must pass, build-type mismatches are
// refused, per-family tolerances override the default, and the
// history snapshot round-trips through LoadBenchDoc as a BASE.

#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "golden.h"
#include "obs/report/artifact.h"
#include "obs/report/bench_diff.h"
#include "obs/report/json.h"

namespace strip::obs::report {
namespace {

BenchDoc MakeDoc(const std::string& build_type, double sim_cpu_ns,
                 double queue_cpu_ns) {
  BenchDoc doc;
  doc.path = build_type + ".json";
  doc.build_type = build_type;
  doc.lto = "on";
  doc.entries.push_back(
      {"BM_Sim/1", "BM_Sim", 3, sim_cpu_ns * 1.2, sim_cpu_ns});
  doc.entries.push_back(
      {"BM_Queue", "BM_Queue", 3, queue_cpu_ns * 1.1, queue_cpu_ns});
  return doc;
}

TEST(ReportBenchDiffTest, BaselineAgainstItselfPasses) {
  const BenchDoc doc = MakeDoc("release", 1e6, 2e3);
  const BenchDiffReport report = BenchDiff(doc, doc, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 0);
  EXPECT_FALSE(report.Exceeds());
  EXPECT_NE(BenchDiffMarkdown(report).find("PASS"), std::string::npos);
}

TEST(ReportBenchDiffTest, TwoTimesSlowdownIsRejected) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc slow = MakeDoc("release", 2e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, slow, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 1);
  EXPECT_TRUE(report.Exceeds());
  // The regressed row is the simulator benchmark, at ratio 2.
  bool found = false;
  for (const BenchDiffRow& row : report.rows) {
    if (!row.regressed) continue;
    found = true;
    EXPECT_EQ(row.name, "BM_Sim/1");
    EXPECT_DOUBLE_EQ(row.cpu_ratio, 2.0);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(BenchDiffMarkdown(report).find("FAIL"), std::string::npos);
}

TEST(ReportBenchDiffTest, ImprovementIsCountedNotGated) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc fast = MakeDoc("release", 5e5, 2e3);
  const BenchDiffReport report = BenchDiff(base, fast, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.improvements, 1);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportBenchDiffTest, WithinToleranceIsQuiet) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  // +8% under the 10% default: noise, not a regression.
  const BenchDoc near = MakeDoc("release", 1.08e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, near, BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 0);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportBenchDiffTest, FamilyToleranceOverridesDefault) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc drift = MakeDoc("release", 1.15e6, 2e3);
  // 15% slower: regresses under the default 10%…
  EXPECT_EQ(BenchDiff(base, drift, BenchDiffOptions{}).regressions, 1);
  // …but the family override widens BM_Sim's floor to 25%.
  BenchDiffOptions options;
  options.family_tolerance.push_back({"BM_Sim", 0.25});
  const BenchDiffReport report = BenchDiff(base, drift, options);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_FALSE(report.Exceeds());
}

TEST(ReportBenchDiffTest, BuildTypeMismatchRefusesToGate) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc debug = MakeDoc("debug", 1e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, debug, BenchDiffOptions{});
  EXPECT_TRUE(report.build_mismatch);
  EXPECT_TRUE(report.Exceeds());
  EXPECT_FALSE(report.notes.empty());

  BenchDiffOptions allow;
  allow.allow_build_mismatch = true;
  const BenchDiffReport allowed = BenchDiff(base, debug, allow);
  EXPECT_FALSE(allowed.Exceeds());
}

TEST(ReportBenchDiffTest, RemovedBenchmarkGatesAddedDoesNot) {
  BenchDoc base = MakeDoc("release", 1e6, 2e3);
  BenchDoc next = MakeDoc("release", 1e6, 2e3);
  next.entries.push_back({"BM_New", "BM_New", 1, 10, 10});
  const BenchDiffReport grown = BenchDiff(base, next, BenchDiffOptions{});
  ASSERT_EQ(grown.added.size(), 1u);
  EXPECT_FALSE(grown.Exceeds());

  const BenchDiffReport shrunk = BenchDiff(next, base, BenchDiffOptions{});
  ASSERT_EQ(shrunk.removed.size(), 1u);
  EXPECT_TRUE(shrunk.Exceeds());
}

TEST(ReportBenchDiffTest, HistorySnapshotRoundTripsAsBase) {
  const BenchDoc doc = MakeDoc("release", 1e6, 2e3);
  const std::string snapshot = BenchHistorySnapshot(doc, "seed-baseline");
  EXPECT_NE(snapshot.find("\"schema\": \"strip.bench-history/v1\""),
            std::string::npos);
  EXPECT_NE(snapshot.find("seed-baseline"), std::string::npos);
  // Deterministic bytes.
  EXPECT_EQ(snapshot, BenchHistorySnapshot(doc, "seed-baseline"));

  const std::string path = ::testing::TempDir() + "bench_history_rt.json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << snapshot;
  }
  std::string error;
  const auto reloaded = LoadBenchDoc(path, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->build_type, "release");
  ASSERT_EQ(reloaded->entries.size(), 2u);
  // A reloaded snapshot gates exactly like the original document.
  const BenchDiffReport report =
      BenchDiff(*reloaded, MakeDoc("release", 2e6, 2e3),
                BenchDiffOptions{});
  EXPECT_EQ(report.regressions, 1);
}

TEST(ReportBenchDiffTest, JsonReportIsDeterministic) {
  const BenchDoc base = MakeDoc("release", 1e6, 2e3);
  const BenchDoc slow = MakeDoc("release", 2e6, 2e3);
  const BenchDiffReport report = BenchDiff(base, slow, BenchDiffOptions{});
  const std::string json = BenchDiffJson(report);
  EXPECT_EQ(json, BenchDiffJson(report));
  EXPECT_NE(json.find("\"schema\": \"strip.report.bench-diff/v1\""),
            std::string::npos);
}

// Paths, labels and benchmark names come from outside the program; the
// report must stay parseable and the snapshot must load back as a BASE
// whatever bytes they hold.
TEST(ReportBenchDiffTest, JsonEscapesPathsLabelsAndNames) {
  const std::string odd = "pr \"rc\" c:\\x\nl\x01";
  BenchDoc base = MakeDoc("release", 1e6, 2e3);
  base.path = odd + ".json";
  base.entries[0].name = "BM_Sim/" + odd;
  BenchDoc next = base;
  next.path = odd + "2.json";
  const BenchDiffReport report = BenchDiff(base, next, BenchDiffOptions{});
  std::string error;
  const auto diff = ParseJson(BenchDiffJson(report), &error);
  ASSERT_TRUE(diff.has_value()) << error;
  EXPECT_EQ(diff->StringOr("base", ""), odd + ".json");
  EXPECT_EQ(diff->StringOr("new", ""), odd + "2.json");

  const std::string snapshot = BenchHistorySnapshot(next, odd);
  const auto parsed = ParseJson(snapshot, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << snapshot;
  EXPECT_EQ(parsed->StringOr("label", ""), odd);
  const std::string path = ::testing::TempDir() + "bench_history_odd.json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << snapshot;
  }
  const auto reloaded = LoadBenchDoc(path, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  ASSERT_EQ(reloaded->entries.size(), 2u);
  EXPECT_EQ(reloaded->entries[0].name, "BM_Sim/" + odd);
  EXPECT_FALSE(BenchDiff(*reloaded, next, BenchDiffOptions{}).Exceeds());
}

// Pins the strip.report.bench-diff/v1 and strip.bench-history/v1
// bytes: notes, added and removed names, a non-finite ratio and time
// (null), and the empty-document forms of both.
TEST(ReportBenchDiffTest, JsonMatchesGolden) {
  const double inf = std::numeric_limits<double>::infinity();
  BenchDoc base = MakeDoc("release", 1e6, 2e3);
  base.entries.push_back({"BM_Gone", "BM_Gone", 1, 10, 10});
  BenchDoc next = MakeDoc("debug", 2e6, inf);
  next.entries[0].real_time_ns = std::numeric_limits<double>::quiet_NaN();
  next.entries.push_back({"BM_New", "BM_New", 1, 10, 10});
  ExpectMatchesGolden(BenchDiffJson(BenchDiff(base, next, BenchDiffOptions{})),
                      "obs/testdata/report_bench_diff_golden.json");
  ExpectMatchesGolden(
      BenchDiffJson(BenchDiff(BenchDoc{}, BenchDoc{}, BenchDiffOptions{})),
      "obs/testdata/report_bench_diff_empty_golden.json");
  ExpectMatchesGolden(BenchHistorySnapshot(next, "seed-baseline"),
                      "obs/testdata/bench_history_golden.json");
  ExpectMatchesGolden(BenchHistorySnapshot(BenchDoc{}, ""),
                      "obs/testdata/bench_history_empty_golden.json");
}

}  // namespace
}  // namespace strip::obs::report
