#include "obs/report/bench_diff.h"

#include <algorithm>
#include <sstream>

#include "obs/report/format.h"

namespace strip::obs::report {

double BenchDiffOptions::ToleranceFor(const std::string& family) const {
  for (const auto& [prefix, pct] : family_tolerance) {
    if (family.compare(0, prefix.size(), prefix) == 0) return pct;
  }
  return tolerance;
}

BenchDiffReport BenchDiff(const BenchDoc& base, const BenchDoc& next,
                          const BenchDiffOptions& options) {
  BenchDiffReport report;
  report.path_base = base.path;
  report.path_new = next.path;
  report.build_type_base = base.build_type;
  report.build_type_new = next.build_type;

  if (base.build_type != next.build_type) {
    report.notes.push_back("build type mismatch: base '" + base.build_type +
                           "' vs new '" + next.build_type + "'");
    if (!options.allow_build_mismatch) {
      report.build_mismatch = true;
    }
  }
  if (base.build_type == "debug" || next.build_type == "debug") {
    report.notes.push_back(
        "debug-build numbers are not representative; gate on release "
        "binaries (see CONTRIBUTING.md)");
  }

  for (const BenchEntry& entry : base.entries) {
    const BenchEntry* other = next.FindEntry(entry.name);
    if (other == nullptr) {
      report.removed.push_back(entry.name);
      continue;
    }
    BenchDiffRow row;
    row.name = entry.name;
    row.family = entry.family;
    row.base_cpu_ns = entry.cpu_time_ns;
    row.new_cpu_ns = other->cpu_time_ns;
    row.base_real_ns = entry.real_time_ns;
    row.new_real_ns = other->real_time_ns;
    row.tolerance = options.ToleranceFor(entry.family);
    row.cpu_ratio = entry.cpu_time_ns > 0
                        ? other->cpu_time_ns / entry.cpu_time_ns
                        : 1.0;
    row.regressed = row.cpu_ratio > 1.0 + row.tolerance;
    row.improved = row.cpu_ratio < 1.0 - row.tolerance;
    if (row.regressed) ++report.regressions;
    if (row.improved) ++report.improvements;
    report.rows.push_back(std::move(row));
  }
  for (const BenchEntry& entry : next.entries) {
    if (base.FindEntry(entry.name) == nullptr) {
      report.added.push_back(entry.name);
    }
  }
  return report;
}

std::optional<BenchDiffReport> BenchDiffPaths(const std::string& path_base,
                                              const std::string& path_new,
                                              const BenchDiffOptions& options,
                                              std::string* error) {
  const auto base = LoadBenchDoc(path_base, error);
  if (!base) return std::nullopt;
  const auto next = LoadBenchDoc(path_new, error);
  if (!next) return std::nullopt;
  return BenchDiff(*base, *next, options);
}

std::string BenchDiffMarkdown(const BenchDiffReport& report) {
  std::ostringstream out;
  out << "# strip_report bench-diff\n\n"
      << "- base: `" << report.path_base << "` (" << report.build_type_base
      << ")\n"
      << "- new: `" << report.path_new << "` (" << report.build_type_new
      << ")\n"
      << "- regressions: " << report.regressions
      << ", improvements: " << report.improvements << "\n";
  for (const std::string& note : report.notes) {
    out << "- note: " << note << "\n";
  }
  if (!report.rows.empty()) {
    out << "\n| benchmark | base cpu | new cpu | ratio | tol | verdict |\n"
        << "|---|---:|---:|---:|---:|:---:|\n";
    for (const BenchDiffRow& row : report.rows) {
      out << "| " << row.name << " | " << FormatCompact(row.base_cpu_ns)
          << "ns | " << FormatCompact(row.new_cpu_ns) << "ns | "
          << FormatCompact(row.cpu_ratio) << " | "
          << FormatCompact(row.tolerance * 100.0) << "% | "
          << (row.regressed ? "REGRESSED"
                            : (row.improved ? "improved" : "ok"))
          << " |\n";
    }
  }
  if (!report.removed.empty()) {
    out << "\n## Removed (in base, missing from new)\n\n";
    for (const std::string& name : report.removed) {
      out << "- " << name << "\n";
    }
  }
  if (!report.added.empty()) {
    out << "\n## Added (new benchmarks, no baseline)\n\n";
    for (const std::string& name : report.added) {
      out << "- " << name << "\n";
    }
  }
  out << "\nGate: " << (report.Exceeds() ? "FAIL" : "PASS") << "\n";
  return out.str();
}

std::string BenchDiffJson(const BenchDiffReport& report) {
  std::ostringstream out;
  base::JsonWriter json(out);
  json.BeginObject();
  json.Key("schema").String("strip.report.bench-diff/v1");
  json.Key("base").String(report.path_base);
  json.Key("new").String(report.path_new);
  json.Key("build_type_base").String(report.build_type_base);
  json.Key("build_type_new").String(report.build_type_new);
  json.Key("build_mismatch").Bool(report.build_mismatch);
  json.Key("regressions").Number(report.regressions);
  json.Key("improvements").Number(report.improvements);
  json.Key("gate").String(report.Exceeds() ? "fail" : "pass");
  WriteStringArray(json.Key("notes"), report.notes);
  WriteStringArray(json.Key("removed"), report.removed);
  WriteStringArray(json.Key("added"), report.added);
  json.Key("rows").BeginArray();
  for (const BenchDiffRow& row : report.rows) {
    json.BeginObject(base::JsonWriter::Layout::kInline);
    json.Key("name").String(row.name);
    json.Key("family").String(row.family);
    json.Key("base_cpu_ns").Number(row.base_cpu_ns);
    json.Key("new_cpu_ns").Number(row.new_cpu_ns);
    json.Key("base_real_ns").Number(row.base_real_ns);
    json.Key("new_real_ns").Number(row.new_real_ns);
    json.Key("cpu_ratio").Number(row.cpu_ratio);
    json.Key("tolerance").Number(row.tolerance);
    json.Key("verdict").String(
        row.regressed ? "regressed" : (row.improved ? "improved" : "ok"));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  return out.str();
}

std::string BenchHistorySnapshot(const BenchDoc& doc,
                                 const std::string& label) {
  std::ostringstream out;
  base::JsonWriter json(out);
  json.BeginObject();
  json.Key("schema").String("strip.bench-history/v1");
  json.Key("label").String(label);
  json.Key("build_type").String(doc.build_type);
  json.Key("lto").String(doc.lto);
  json.Key("entries").BeginArray();
  for (const BenchEntry& entry : doc.entries) {
    json.BeginObject(base::JsonWriter::Layout::kInline);
    json.Key("name").String(entry.name);
    json.Key("family").String(entry.family);
    json.Key("samples").Number(entry.samples);
    json.Key("real_time_ns").Number(entry.real_time_ns);
    json.Key("cpu_time_ns").Number(entry.cpu_time_ns);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  return out.str();
}

}  // namespace strip::obs::report
