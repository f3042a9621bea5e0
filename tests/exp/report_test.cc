#include "exp/report.h"

#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "golden.h"

namespace strip::exp {
namespace {

// Builds a small result by hand so formatting is fully predictable.
SweepSpec HandSpec() {
  SweepSpec spec;
  spec.policies = {core::PolicyKind::kUpdateFirst,
                   core::PolicyKind::kTransactionFirst};
  spec.x_name = "lambda_t";
  spec.x_values = {5, 10};
  spec.apply_x = [](core::Config&, double) {};
  spec.replications = 1;
  return spec;
}

SweepResult HandResult(double scale) {
  SweepResult result(2, 2, 1);
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t x = 0; x < 2; ++x) {
      core::RunMetrics m;
      m.observed_seconds = 1;
      m.value_committed =
          scale * (static_cast<double>(p) * 10 + static_cast<double>(x) + 1);
      result.mutable_cell(p, x)[0] = m;
    }
  }
  return result;
}

const MetricFn kAv = [](const core::RunMetrics& m) { return m.av(); };

TEST(ReportTest, PrintSeriesLayout) {
  std::ostringstream out;
  PrintSeries(out, HandSpec(), HandResult(1.0), "AV", kAv);
  const std::string s = out.str();
  EXPECT_NE(s.find("# AV vs lambda_t"), std::string::npos);
  EXPECT_NE(s.find("UF"), std::string::npos);
  EXPECT_NE(s.find("TF"), std::string::npos);
  // Cell (policy 0, x 0) holds 1.0; (policy 1, x 1) holds 12.0.
  EXPECT_NE(s.find("1.0000"), std::string::npos);
  EXPECT_NE(s.find("12.0000"), std::string::npos);
}

TEST(ReportTest, PrintSeriesWithCi) {
  std::ostringstream out;
  PrintSeries(out, HandSpec(), HandResult(1.0), "AV", kAv,
              /*with_ci=*/true);
  EXPECT_NE(out.str().find("±"), std::string::npos);
}

TEST(ReportTest, CsvLayout) {
  std::ostringstream out;
  PrintSeriesCsv(out, HandSpec(), HandResult(1.0), "AV", kAv);
  const std::string s = out.str();
  EXPECT_NE(s.find("lambda_t,policy,AV,ci95"), std::string::npos);
  EXPECT_NE(s.find("5,UF,1,"), std::string::npos);
  EXPECT_NE(s.find("10,TF,12,"), std::string::npos);
}

TEST(ReportTest, RatioDividesCellwise) {
  std::ostringstream out;
  PrintSeriesRatio(out, HandSpec(), HandResult(3.0), HandResult(1.0), "AV",
                   kAv);
  const std::string s = out.str();
  // Every ratio is exactly 3.
  EXPECT_NE(s.find("3.0000"), std::string::npos);
  EXPECT_EQ(s.find("1.0000"), std::string::npos);
}

TEST(ReportTest, RatioHandlesZeroDenominator) {
  std::ostringstream out;
  PrintSeriesRatio(out, HandSpec(), HandResult(1.0), HandResult(0.0), "AV",
                   kAv);
  EXPECT_NE(out.str().find("0.0000"), std::string::npos);
}

// Pins the {"series": [...]} document bench --json and strip_sweep
// --json write: two series, one holding non-finite values (null).
TEST(ReportTest, SeriesDocumentMatchesGolden) {
  const MetricFn inf_at_tf = [](const core::RunMetrics& m) {
    return m.value_committed > 10 ? std::numeric_limits<double>::infinity()
                                  : m.av();
  };
  const std::vector<Series> series = {
      MakeSeries(HandSpec(), HandResult(1.0), "AV", kAv),
      MakeSeries(HandSpec(), HandResult(1.0), "AV_inf", inf_at_tf)};
  ExpectMatchesGolden(SeriesJson(series), "exp/testdata/series_golden.json");
}

}  // namespace
}  // namespace strip::exp
