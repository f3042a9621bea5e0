// The strip.sweep-cell/v1 document: cell naming and the golden bytes
// of a timed-out cell whose runs carry null-rendered values.

#include "exp/sweep_cell.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden.h"

namespace strip::exp {
namespace {

TEST(SweepCellTest, NameIsPolicyAndZeroPaddedIndex) {
  EXPECT_EQ(SweepCellName(core::PolicyKind::kOnDemand, 3), "OD_03");
  EXPECT_EQ(SweepCellName(core::PolicyKind::kUpdateFirst, 12), "UF_12");
}

TEST(SweepCellTest, JsonMatchesGolden) {
  SweepSpec spec;
  spec.policies = {core::PolicyKind::kUpdateFirst,
                   core::PolicyKind::kOnDemand};
  spec.x_name = "lambda_u";
  spec.x_values = {100, 0.1};
  spec.replications = 2;
  spec.base_seed = 42;
  std::vector<core::RunMetrics> runs(2);
  runs[0].observed_seconds = 4;
  runs[0].txns_arrived = 40;
  runs[0].txns_committed = 31;
  runs[0].value_committed = 77.25;
  runs[0].response_p99 = std::numeric_limits<double>::quiet_NaN();
  runs[0].outage_recovery_seconds = 2.5;
  runs[1].os_length_avg = std::numeric_limits<double>::infinity();
  ExpectMatchesGolden(SweepCellJson(spec, 1, 1, runs, /*timed_out=*/true),
                      "exp/testdata/sweep_cell_golden.json");
}

}  // namespace
}  // namespace strip::exp
