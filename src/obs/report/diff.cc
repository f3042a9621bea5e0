#include "obs/report/diff.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/report/format.h"

namespace strip::obs::report {

namespace {

// One comparison row with the threshold verdict applied.
DiffRow MakeRow(const std::string& name, std::optional<double> a,
                std::optional<double> b, double threshold) {
  DiffRow row;
  row.name = name;
  row.a = a;
  row.b = b;
  if (!a && !b) return row;  // null == null
  if (a && b) {
    row.abs_delta = *b - *a;
    row.changed = row.abs_delta != 0;
    if (*a != 0) {
      row.rel_delta = row.abs_delta / std::fabs(*a);
      row.over_threshold =
          row.changed && std::fabs(*row.rel_delta) > threshold;
    } else {
      // Baseline 0: no relative delta exists, so any movement gates.
      row.over_threshold = row.changed;
    }
    return row;
  }
  // null vs number: a structural change, always over threshold.
  row.abs_delta = (b ? *b : 0) - (a ? *a : 0);
  row.changed = true;
  row.over_threshold = true;
  return row;
}

// The union of both metric lists, A's order first, B-only names after.
std::vector<std::string> UnionNames(const MetricList& a,
                                    const MetricList& b) {
  std::vector<std::string> names;
  for (const auto& [name, value] : a) names.push_back(name);
  for (const auto& [name, value] : b) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  return names;
}

void AddSection(DiffReport* report, DiffSection section) {
  for (const DiffRow& row : section.rows) {
    if (row.changed) ++report->rows_changed;
    if (row.over_threshold) {
      ++report->rows_over_threshold;
      report->over_threshold_names.push_back(section.title + "." + row.name);
    }
  }
  report->sections.push_back(std::move(section));
}

DiffSection DiffMetricLists(const std::string& title, const MetricList& a,
                            const MetricList& b, double threshold) {
  DiffSection section;
  section.title = title;
  for (const std::string& name : UnionNames(a, b)) {
    const bool in_a =
        std::any_of(a.begin(), a.end(),
                    [&](const MetricRow& row) { return row.first == name; });
    const bool in_b =
        std::any_of(b.begin(), b.end(),
                    [&](const MetricRow& row) { return row.first == name; });
    DiffRow row = MakeRow(name, in_a ? FindMetric(a, name) : std::nullopt,
                          in_b ? FindMetric(b, name) : std::nullopt,
                          threshold);
    if (in_a != in_b) {
      // Present on one side only — structural, always gates.
      row.changed = true;
      row.over_threshold = true;
    }
    section.rows.push_back(std::move(row));
  }
  return section;
}

MetricList HistogramSummaryMetrics(const HistogramData& h) {
  MetricList rows;
  rows.emplace_back("count", static_cast<double>(h.count));
  rows.emplace_back("mean", h.mean);
  rows.emplace_back("min", h.min_sample);
  rows.emplace_back("max", h.max_sample);
  rows.emplace_back("p50", h.p50);
  rows.emplace_back("p90", h.p90);
  rows.emplace_back("p99", h.p99);
  rows.emplace_back("underflow", static_cast<double>(h.underflow));
  rows.emplace_back("overflow", static_cast<double>(h.overflow));
  return rows;
}

void NoteIfDiffers(DiffReport* report, const std::string& what,
                   const std::string& a, const std::string& b) {
  if (a != b) {
    report->notes.push_back(what + " differs: '" + a + "' vs '" + b + "'");
  }
}

void NoteIfDiffers(DiffReport* report, const std::string& what, double a,
                   double b) {
  if (a != b) {
    report->notes.push_back(what + " differs: " + FormatCompact(a) +
                            " vs " + FormatCompact(b));
  }
}

}  // namespace

DiffReport DiffTelemetry(const TelemetryDoc& a, const TelemetryDoc& b,
                         const DiffOptions& options) {
  DiffReport report;
  report.kind = "telemetry";
  report.path_a = a.path;
  report.path_b = b.path;
  report.threshold = options.threshold;

  NoteIfDiffers(&report, "run.policy", a.policy, b.policy);
  NoteIfDiffers(&report, "run.staleness", a.staleness, b.staleness);
  NoteIfDiffers(&report, "run.shards", a.shards, b.shards);
  NoteIfDiffers(&report, "run.sim_seconds", a.sim_seconds, b.sim_seconds);
  NoteIfDiffers(&report, "run.lambda_t", a.lambda_t, b.lambda_t);
  NoteIfDiffers(&report, "run.lambda_u", a.lambda_u, b.lambda_u);

  MetricList top_a;
  top_a.emplace_back("stale_reads_seen",
                     static_cast<double>(a.stale_reads_seen));
  MetricList top_b;
  top_b.emplace_back("stale_reads_seen",
                     static_cast<double>(b.stale_reads_seen));
  AddSection(&report,
             DiffMetricLists("run", top_a, top_b, options.threshold));

  AddSection(&report, DiffMetricLists("metrics", a.metrics, b.metrics,
                                      options.threshold));

  // Histograms present in A (B-only histograms become a note).
  for (const HistogramData& ha : a.histograms) {
    const HistogramData* hb = b.FindHistogram(ha.name);
    if (hb == nullptr) {
      report.notes.push_back("histogram '" + ha.name + "' only in A");
      continue;
    }
    AddSection(&report, DiffMetricLists("histograms." + ha.name,
                                        HistogramSummaryMetrics(ha),
                                        HistogramSummaryMetrics(*hb),
                                        options.threshold));
  }
  for (const HistogramData& hb : b.histograms) {
    if (a.FindHistogram(hb.name) == nullptr) {
      report.notes.push_back("histogram '" + hb.name + "' only in B");
    }
  }
  return report;
}

DiffReport DiffSweepCell(const SweepCellDoc& a, const SweepCellDoc& b,
                         const DiffOptions& options) {
  DiffReport report;
  report.kind = "sweep-cell";
  report.path_a = a.path;
  report.path_b = b.path;
  report.threshold = options.threshold;

  NoteIfDiffers(&report, "policy", a.policy, b.policy);
  NoteIfDiffers(&report, "x_name", a.x_name, b.x_name);
  NoteIfDiffers(&report, "x_value", a.x_value, b.x_value);
  NoteIfDiffers(&report, "replications", a.replications, b.replications);
  if (a.timed_out != b.timed_out) {
    report.notes.push_back(std::string("timed_out differs: ") +
                           (a.timed_out ? "true" : "false") + " vs " +
                           (b.timed_out ? "true" : "false"));
  }

  // Per-replication metric diffs keep the determinism gate exact: a
  // single perturbed run cannot hide behind the cell mean.
  const std::size_t shared = std::min(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < shared; ++r) {
    AddSection(&report,
               DiffMetricLists("runs[" + std::to_string(r) + "]",
                               a.runs[r], b.runs[r], options.threshold));
  }
  if (a.runs.size() != b.runs.size()) {
    report.notes.push_back(
        "run count differs: " + std::to_string(a.runs.size()) + " vs " +
        std::to_string(b.runs.size()));
  }
  return report;
}

DiffReport DiffSweepDirs(const SweepDirData& a, const SweepDirData& b,
                         const DiffOptions& options) {
  DiffReport report;
  report.kind = "sweep-dir";
  report.path_a = a.path;
  report.path_b = b.path;
  report.threshold = options.threshold;

  // Match cells on (policy, x_index); A's presentation order rules.
  for (const SweepCellDoc& cell_a : a.cells) {
    const SweepCellDoc* cell_b = nullptr;
    for (const SweepCellDoc& candidate : b.cells) {
      if (candidate.policy == cell_a.policy &&
          candidate.x_index == cell_a.x_index) {
        cell_b = &candidate;
        break;
      }
    }
    const std::string label =
        cell_a.policy + "@" + cell_a.x_name + "=" +
        FormatCompact(cell_a.x_value);
    if (cell_b == nullptr) {
      report.notes.push_back("cell " + label + " only in A");
      continue;
    }
    DiffReport cell_diff = DiffSweepCell(cell_a, *cell_b, options);
    for (DiffSection& section : cell_diff.sections) {
      section.title = label + "." + section.title;
      AddSection(&report, std::move(section));
    }
    for (const std::string& note : cell_diff.notes) {
      report.notes.push_back(label + ": " + note);
    }
  }
  for (const SweepCellDoc& cell_b : b.cells) {
    const bool matched = std::any_of(
        a.cells.begin(), a.cells.end(), [&](const SweepCellDoc& cell_a) {
          return cell_a.policy == cell_b.policy &&
                 cell_a.x_index == cell_b.x_index;
        });
    if (!matched) {
      report.notes.push_back("cell " + cell_b.policy + "@" + cell_b.x_name +
                             "=" + FormatCompact(cell_b.x_value) +
                             " only in B");
    }
  }

  // Per-shard telemetry groups, matched on (label, shard).
  for (const SweepDirData::ShardGroup& group_a : a.shard_groups) {
    const SweepDirData::ShardGroup* group_b = nullptr;
    for (const SweepDirData::ShardGroup& candidate : b.shard_groups) {
      if (candidate.label == group_a.label) {
        group_b = &candidate;
        break;
      }
    }
    if (group_b == nullptr) {
      report.notes.push_back("shard group '" + group_a.label +
                             "' only in A");
      continue;
    }
    const std::size_t shared =
        std::min(group_a.shards.size(), group_b->shards.size());
    for (std::size_t s = 0; s < shared; ++s) {
      DiffReport shard_diff =
          DiffTelemetry(group_a.shards[s], group_b->shards[s], options);
      const std::string label = group_a.label + ".shard" +
                                std::to_string(group_a.shards[s].shard);
      for (DiffSection& section : shard_diff.sections) {
        section.title = label + "." + section.title;
        AddSection(&report, std::move(section));
      }
      for (const std::string& note : shard_diff.notes) {
        report.notes.push_back(label + ": " + note);
      }
    }
    if (group_a.shards.size() != group_b->shards.size()) {
      report.notes.push_back(
          "shard group '" + group_a.label + "' shard count differs: " +
          std::to_string(group_a.shards.size()) + " vs " +
          std::to_string(group_b->shards.size()));
    }
  }
  for (const SweepDirData::ShardGroup& group_b : b.shard_groups) {
    const bool matched =
        std::any_of(a.shard_groups.begin(), a.shard_groups.end(),
                    [&](const SweepDirData::ShardGroup& group_a) {
                      return group_a.label == group_b.label;
                    });
    if (!matched) {
      report.notes.push_back("shard group '" + group_b.label +
                             "' only in B");
    }
  }
  return report;
}

std::optional<DiffReport> DiffPaths(const std::string& path_a,
                                    const std::string& path_b,
                                    const DiffOptions& options,
                                    std::string* error) {
  const auto kind_a = ClassifyArtifact(path_a, error);
  if (!kind_a) return std::nullopt;
  const auto kind_b = ClassifyArtifact(path_b, error);
  if (!kind_b) return std::nullopt;
  if (*kind_a != *kind_b) {
    if (error != nullptr) {
      *error = "cannot diff different artifact kinds (" + path_a + " vs " +
               path_b + ")";
    }
    return std::nullopt;
  }
  switch (*kind_a) {
    case ArtifactKind::kTelemetry: {
      const auto a = LoadTelemetryDoc(path_a, error);
      if (!a) return std::nullopt;
      const auto b = LoadTelemetryDoc(path_b, error);
      if (!b) return std::nullopt;
      return DiffTelemetry(*a, *b, options);
    }
    case ArtifactKind::kSweepCell: {
      const auto a = LoadSweepCellDoc(path_a, error);
      if (!a) return std::nullopt;
      const auto b = LoadSweepCellDoc(path_b, error);
      if (!b) return std::nullopt;
      return DiffSweepCell(*a, *b, options);
    }
    case ArtifactKind::kSweepDir: {
      const auto a = LoadSweepDir(path_a, error);
      if (!a) return std::nullopt;
      const auto b = LoadSweepDir(path_b, error);
      if (!b) return std::nullopt;
      return DiffSweepDirs(*a, *b, options);
    }
    case ArtifactKind::kBench:
      if (error != nullptr) {
        *error = "benchmark JSON goes through 'strip_report bench-diff', "
                 "not 'diff'";
      }
      return std::nullopt;
  }
  return std::nullopt;
}

std::string DiffMarkdown(const DiffReport& report,
                         const DiffOptions& options) {
  std::ostringstream out;
  out << "# strip_report diff (" << report.kind << ")\n\n"
      << "- A: `" << report.path_a << "`\n"
      << "- B: `" << report.path_b << "`\n"
      << "- threshold: " << FormatCompact(report.threshold)
      << " (relative)\n"
      << "- rows changed: " << report.rows_changed
      << ", over threshold: " << report.rows_over_threshold << "\n";
  if (!report.notes.empty()) {
    out << "\n## Notes\n\n";
    for (const std::string& note : report.notes) {
      out << "- " << note << "\n";
    }
  }
  bool any_rows = false;
  for (const DiffSection& section : report.sections) {
    std::vector<const DiffRow*> rows;
    for (const DiffRow& row : section.rows) {
      if (options.all_rows || row.changed) rows.push_back(&row);
    }
    if (rows.empty()) continue;
    any_rows = true;
    out << "\n## " << section.title << "\n\n"
        << "| metric | A | B | Δ | Δ% | gate |\n"
        << "|---|---:|---:|---:|---:|:---:|\n";
    for (const DiffRow* row : rows) {
      out << "| " << row->name << " | " << FormatCompact(row->a) << " | "
          << FormatCompact(row->b) << " | " << FormatCompact(row->abs_delta)
          << " | "
          << (row->rel_delta ? FormatCompact(*row->rel_delta * 100.0) + "%"
                             : std::string("-"))
          << " | " << (row->over_threshold ? "FAIL" : "ok") << " |\n";
    }
  }
  if (!any_rows && report.notes.empty()) {
    out << "\nNo deltas: the artifacts are metric-identical.\n";
  }
  return out.str();
}

std::string DiffJson(const DiffReport& report) {
  using Layout = base::JsonWriter::Layout;
  std::ostringstream out;
  base::JsonWriter json(out);
  json.BeginObject();
  json.Key("schema").String("strip.report.diff/v1");
  json.Key("kind").String(report.kind);
  json.Key("a").String(report.path_a);
  json.Key("b").String(report.path_b);
  json.Key("threshold").Number(report.threshold);
  json.Key("rows_changed").Number(report.rows_changed);
  json.Key("rows_over_threshold").Number(report.rows_over_threshold);
  WriteStringArray(json.Key("notes"), report.notes);
  WriteStringArray(json.Key("over_threshold"), report.over_threshold_names);
  json.Key("sections").BeginArray();
  for (const DiffSection& section : report.sections) {
    std::vector<const DiffRow*> rows;
    for (const DiffRow& row : section.rows) {
      if (row.changed) rows.push_back(&row);
    }
    if (rows.empty()) continue;
    json.BeginObject();
    json.Key("title").String(section.title);
    json.Key("rows").BeginArray();
    for (const DiffRow* row : rows) {
      json.BeginObject(Layout::kInline);
      json.Key("name").String(row->name);
      json.Key("a").Number(row->a);
      json.Key("b").Number(row->b);
      json.Key("abs").Number(row->abs_delta);
      json.Key("rel").Number(row->rel_delta);
      json.Key("over_threshold").Bool(row->over_threshold);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  return out.str();
}

}  // namespace strip::obs::report
