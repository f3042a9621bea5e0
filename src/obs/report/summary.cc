#include "obs/report/summary.h"

#include <algorithm>
#include <sstream>

#include "base/json_writer.h"
#include "obs/report/format.h"

namespace strip::obs::report {

namespace {

// The paper-figure default: deadline misses, success, staleness, the
// response tail, and the robustness counters added by the fault and
// governor work.
const char* const kDefaultMetrics[] = {
    "p_md",          "p_success",         "f_old_low",
    "response_p50",  "response_p95",      "response_p99",
    "governor_engaged_seconds", "updates_shed_low", "updates_shed_high",
    "outage_recovery_seconds",
};

ShardImbalance::Dimension MakeDimension(const std::string& name,
                                        std::vector<double> values) {
  ShardImbalance::Dimension dim;
  dim.name = name;
  dim.values = std::move(values);
  double sum = 0;
  for (std::size_t i = 0; i < dim.values.size(); ++i) {
    sum += dim.values[i];
    if (dim.values[i] > dim.max) {
      dim.max = dim.values[i];
      dim.worst_shard = static_cast<int>(i);
    }
  }
  dim.mean = dim.values.empty()
                 ? 0.0
                 : sum / static_cast<double>(dim.values.size());
  dim.skew = dim.mean > 0 ? dim.max / dim.mean : 1.0;
  return dim;
}

double MetricOrZero(const TelemetryDoc& doc, const std::string& name) {
  const auto value = FindMetric(doc.metrics, name);
  return value ? *value : 0.0;
}

ShardImbalance AnalyzeGroup(const SweepDirData::ShardGroup& group,
                            std::vector<std::string>* notes) {
  ShardImbalance result;
  result.label = group.label;
  result.shards = static_cast<int>(group.shards.size());
  if (!group.shards.empty()) result.policy = group.shards.front().policy;

  std::vector<double> load;
  std::vector<double> stale;
  std::vector<double> remote;
  for (const TelemetryDoc& doc : group.shards) {
    load.push_back(MetricOrZero(doc, "txns_committed"));
    stale.push_back(MetricOrZero(doc, "f_old_low"));
    remote.push_back(MetricOrZero(doc, "remote_reads_issued") +
                     MetricOrZero(doc, "remote_reads_served"));
  }
  result.dimensions.push_back(MakeDimension("load", std::move(load)));
  result.dimensions.push_back(MakeDimension("staleness", std::move(stale)));
  result.dimensions.push_back(
      MakeDimension("remote_traffic", std::move(remote)));

  // Worst-shard p99 (what the aggregate RunMetrics reports as the
  // cluster percentile upper bound), attributed to its shard.
  for (std::size_t s = 0; s < group.shards.size(); ++s) {
    const auto p99 = FindMetric(group.shards[s].metrics, "response_p99");
    if (!p99) continue;
    if (!result.worst_p99 || *p99 > *result.worst_p99) {
      result.worst_p99 = *p99;
      result.worst_p99_shard = group.shards[s].shard;
    }
  }

  // True cluster percentiles: bucket-merge the per-shard response
  // histograms (identical layout by construction — all shards share
  // one telemetry config).
  std::optional<LatencyHistogram> merged;
  bool merge_ok = true;
  for (const TelemetryDoc& doc : group.shards) {
    const HistogramData* h = doc.FindHistogram("response_seconds");
    if (h == nullptr) continue;
    auto rebuilt = h->Rebuild();
    if (!rebuilt) {
      merge_ok = false;
      break;
    }
    if (!merged) {
      merged = std::move(rebuilt);
    } else if (!merged->Merge(*rebuilt)) {
      merge_ok = false;
      break;
    }
  }
  if (merged && merge_ok) {
    result.cluster_p50 = merged->Quantile(0.50);
    result.cluster_p90 = merged->Quantile(0.90);
    result.cluster_p99 = merged->Quantile(0.99);
  } else if (!merge_ok) {
    notes->push_back("shard group '" + group.label +
                     "': response histograms not mergeable "
                     "(layout mismatch)");
  }
  return result;
}

}  // namespace

const ShardImbalance::Dimension* ShardImbalance::FindDimension(
    const std::string& name) const {
  for (const Dimension& dim : dimensions) {
    if (dim.name == name) return &dim;
  }
  return nullptr;
}

SummaryReport SummarizeSweep(const SweepDirData& data,
                             const SummaryOptions& options) {
  SummaryReport report;
  report.path = data.path;
  report.x_name = data.x_name;

  std::vector<std::string> metrics = options.metrics;
  if (metrics.empty()) {
    metrics.assign(std::begin(kDefaultMetrics), std::end(kDefaultMetrics));
  }

  for (const std::string& metric : metrics) {
    SummaryTable table;
    table.metric = metric;
    table.x_name = data.x_name;
    table.policies = data.policies;
    table.x_values = data.x_values;
    table.cells.assign(
        data.x_values.size(),
        std::vector<std::optional<double>>(data.policies.size()));
    bool any = false;
    for (const SweepCellDoc& cell : data.cells) {
      const auto x_it = std::find(data.x_values.begin(), data.x_values.end(),
                                  cell.x_value);
      const auto p_it = std::find(data.policies.begin(), data.policies.end(),
                                  cell.policy);
      if (x_it == data.x_values.end() || p_it == data.policies.end()) {
        continue;
      }
      const auto value = cell.Mean(metric);
      if (value) any = true;
      table.cells[static_cast<std::size_t>(x_it - data.x_values.begin())]
                 [static_cast<std::size_t>(p_it - data.policies.begin())] =
          value;
    }
    if (any || data.cells.empty()) report.tables.push_back(std::move(table));
  }

  if (options.by_shard) {
    if (data.shard_groups.empty()) {
      report.notes.push_back(
          "--by-shard: no *.json.shard<k> telemetry documents in " +
          data.path);
    }
    for (const SweepDirData::ShardGroup& group : data.shard_groups) {
      report.imbalance.push_back(AnalyzeGroup(group, &report.notes));
    }
  }
  return report;
}

std::string SummaryMarkdown(const SummaryReport& report) {
  std::ostringstream out;
  out << "# strip_report summarize\n\n- source: `" << report.path << "`\n";
  for (const std::string& note : report.notes) {
    out << "- note: " << note << "\n";
  }

  for (const SummaryTable& table : report.tables) {
    out << "\n## " << table.metric << "\n\n| " << table.x_name << " |";
    for (const std::string& policy : table.policies) {
      out << " " << policy << " |";
    }
    out << "\n|---|";
    for (std::size_t i = 0; i < table.policies.size(); ++i) out << "---:|";
    out << "\n";
    for (std::size_t x = 0; x < table.x_values.size(); ++x) {
      out << "| " << FormatCompact(table.x_values[x]) << " |";
      for (std::size_t p = 0; p < table.policies.size(); ++p) {
        out << " " << FormatCompact(table.cells[x][p]) << " |";
      }
      out << "\n";
    }
  }

  for (const ShardImbalance& group : report.imbalance) {
    out << "\n## shards: " << group.label << " (" << group.policy << ", "
        << group.shards << " shards)\n\n"
        << "| shard |";
    for (const auto& dim : group.dimensions) out << " " << dim.name << " |";
    out << "\n|---|";
    for (std::size_t i = 0; i < group.dimensions.size(); ++i) {
      out << "---:|";
    }
    out << "\n";
    const std::size_t shards =
        group.dimensions.empty() ? 0 : group.dimensions[0].values.size();
    for (std::size_t s = 0; s < shards; ++s) {
      out << "| " << s << " |";
      for (const auto& dim : group.dimensions) {
        out << " " << FormatCompact(dim.values[s]) << " |";
      }
      out << "\n";
    }
    out << "\n";
    for (const auto& dim : group.dimensions) {
      out << "- " << dim.name << " skew (max/mean): "
          << FormatCompact(dim.skew) << " (worst: shard "
          << dim.worst_shard << ", " << FormatCompact(dim.max) << " vs mean "
          << FormatCompact(dim.mean) << ")\n";
    }
    if (group.cluster_p99) {
      out << "- cluster response p50/p90/p99 (bucket-merged): "
          << FormatCompact(group.cluster_p50) << " / "
          << FormatCompact(group.cluster_p90) << " / "
          << FormatCompact(group.cluster_p99) << "\n";
    }
    if (group.worst_p99) {
      out << "- worst-shard response p99: " << FormatCompact(group.worst_p99)
          << " (shard " << group.worst_p99_shard << ")\n";
    }
  }
  return out.str();
}

std::string SummaryCsv(const SummaryReport& report) {
  std::ostringstream out;
  out << "metric,policy,x_name,x_value,value\n";
  for (const SummaryTable& table : report.tables) {
    for (std::size_t x = 0; x < table.x_values.size(); ++x) {
      for (std::size_t p = 0; p < table.policies.size(); ++p) {
        out << table.metric << "," << table.policies[p] << ","
            << table.x_name << "," << base::JsonNumber(table.x_values[x])
            << ",";
        if (table.cells[x][p]) out << base::JsonNumber(*table.cells[x][p]);
        out << "\n";
      }
    }
  }
  for (const ShardImbalance& group : report.imbalance) {
    for (const auto& dim : group.dimensions) {
      out << "shard_skew." << dim.name << "," << group.policy << ",group,"
          << "0," << base::JsonNumber(dim.skew) << "\n";
    }
    if (group.cluster_p99) {
      out << "cluster_p99," << group.policy << ",group,0,"
          << base::JsonNumber(*group.cluster_p99) << "\n";
    }
  }
  return out.str();
}

}  // namespace strip::obs::report
