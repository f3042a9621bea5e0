#include "exp/report.h"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "base/check.h"
#include "base/json_writer.h"

namespace strip::exp {

namespace {

std::string FormatCell(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%10.4f", value);
  return buffer;
}

std::string FormatCellCi(double mean, double ci) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%10.4f ±%-7.4f", mean, ci);
  return buffer;
}

void PrintHeader(std::ostream& out, const SweepSpec& spec,
                 const std::string& metric_name, bool with_ci) {
  out << "# " << metric_name << " vs " << spec.x_name << "\n";
  out << std::setw(10) << spec.x_name;
  for (core::PolicyKind policy : spec.policies) {
    out << "  " << std::setw(with_ci ? 19 : 10)
        << core::PolicyKindName(policy);
  }
  out << "\n";
}

}  // namespace

void PrintSeries(std::ostream& out, const SweepSpec& spec,
                 const SweepResult& result, const std::string& metric_name,
                 const MetricFn& metric, bool with_ci) {
  PrintHeader(out, spec, metric_name, with_ci);
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    out << std::setw(10) << spec.x_values[x];
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const sim::Summary summary = result.Aggregate(p, x, metric);
      out << "  "
          << (with_ci ? FormatCellCi(summary.mean, summary.ci95)
                      : FormatCell(summary.mean));
    }
    out << "\n";
  }
  out << "\n";
}

void PrintSeriesCsv(std::ostream& out, const SweepSpec& spec,
                    const SweepResult& result,
                    const std::string& metric_name, const MetricFn& metric) {
  out << spec.x_name << ",policy," << metric_name << ",ci95\n";
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const sim::Summary summary = result.Aggregate(p, x, metric);
      out << spec.x_values[x] << ","
          << core::PolicyKindName(spec.policies[p]) << "," << summary.mean
          << "," << summary.ci95 << "\n";
    }
  }
  out << "\n";
}

void PrintSeriesRatio(std::ostream& out, const SweepSpec& spec,
                      const SweepResult& result, const SweepResult& baseline,
                      const std::string& metric_name, const MetricFn& metric) {
  STRIP_CHECK(result.n_policies() == baseline.n_policies());
  STRIP_CHECK(result.n_x() == baseline.n_x());
  PrintHeader(out, spec, metric_name, /*with_ci=*/false);
  for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
    out << std::setw(10) << spec.x_values[x];
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const double numerator = result.Mean(p, x, metric);
      const double denominator = baseline.Mean(p, x, metric);
      const double ratio = denominator == 0 ? 0 : numerator / denominator;
      out << "  " << FormatCell(ratio);
    }
    out << "\n";
  }
  out << "\n";
}

Series MakeSeries(const SweepSpec& spec, const SweepResult& result,
                  const std::string& metric_name, const MetricFn& metric) {
  Series series;
  series.metric = metric_name;
  series.x_name = spec.x_name;
  series.x = spec.x_values;
  series.replications = spec.replications;
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    series.policies.emplace_back(core::PolicyKindName(spec.policies[p]));
    series.mean.emplace_back();
    series.ci95.emplace_back();
    for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
      series.mean[p].push_back(result.Mean(p, x, metric));
      series.ci95[p].push_back(result.Aggregate(p, x, metric).ci95);
    }
  }
  return series;
}

std::string SeriesJson(const std::vector<Series>& series) {
  using Layout = base::JsonWriter::Layout;
  std::ostringstream out;
  base::JsonWriter json(out);
  const auto numbers = [&json](const std::vector<double>& values) {
    json.BeginArray(Layout::kInline);
    for (const double v : values) json.Number(v);
    json.EndArray();
  };
  const auto rows = [&](const std::vector<std::vector<double>>& table) {
    json.BeginArray(Layout::kInline);
    for (const std::vector<double>& row : table) numbers(row);
    json.EndArray();
  };
  json.BeginObject(Layout::kInline).Key("series").BeginArray();
  for (const Series& s : series) {
    json.BeginObject(Layout::kInline);
    json.Key("metric").String(s.metric);
    json.Key("x_name").String(s.x_name);
    json.Key("x");
    numbers(s.x);
    json.Key("policies").BeginArray(Layout::kInline);
    for (const std::string& policy : s.policies) json.String(policy);
    json.EndArray();
    json.Key("replications").Number(s.replications);
    json.Key("mean");
    rows(s.mean);
    json.Key("ci95");
    rows(s.ci95);
    json.EndObject();
  }
  json.EndArray().EndObject();
  out << "\n";
  return out.str();
}

}  // namespace strip::exp
