// Table and CSV emitters for sweep results.
//
// PrintSeries prints the same rows/series a paper figure plots: one row
// per x value, one column per policy, for one metric. The bench
// binaries under bench/ compose these into per-figure reports.

#ifndef STRIP_EXP_REPORT_H_
#define STRIP_EXP_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace strip::exp {

// Prints an aligned table of `metric` (one column per policy of the
// spec, one row per x value). `metric_name` heads the block. When
// `with_ci` is set each cell shows "mean ±ci95".
void PrintSeries(std::ostream& out, const SweepSpec& spec,
                 const SweepResult& result, const std::string& metric_name,
                 const MetricFn& metric, bool with_ci = false);

// Prints the same data as CSV: x_name,policy,metric columns — one long
// row per (x, policy) pair — convenient for replotting.
void PrintSeriesCsv(std::ostream& out, const SweepSpec& spec,
                    const SweepResult& result,
                    const std::string& metric_name, const MetricFn& metric);

// Prints a "ratio" table: metric under `result` divided by metric
// under `baseline` (used by the paper's FIFO/LIFO and abort/no-abort
// comparison figures). Both results must come from the same spec shape.
void PrintSeriesRatio(std::ostream& out, const SweepSpec& spec,
                      const SweepResult& result, const SweepResult& baseline,
                      const std::string& metric_name, const MetricFn& metric);

// One series of a figure's data: `metric` per policy of a sweep at
// each x value, as the mean and 95% CI over the replications.
struct Series {
  std::string metric;
  std::string x_name;
  std::vector<double> x;
  std::vector<std::string> policies;
  int replications = 0;
  std::vector<std::vector<double>> mean;  // [policy][x]
  std::vector<std::vector<double>> ci95;  // [policy][x]
};

Series MakeSeries(const SweepSpec& spec, const SweepResult& result,
                  const std::string& metric_name, const MetricFn& metric);

// The document bench --json and strip_sweep --json=PATH write, one
// inline object per series:
//   {"series": [
//     {"metric": ..., "x_name": ..., "x": [...], "policies": [...],
//      "replications": N, "mean": [[per-policy rows]], "ci95": [[...]]}
//   ]}
std::string SeriesJson(const std::vector<Series>& series);

}  // namespace strip::exp

#endif  // STRIP_EXP_REPORT_H_
