// Deterministic formatting shared by the report renderers.
//
// Reports are part of the byte-determinism contract (they get compared
// across double runs in check_determinism.sh), so every number printed
// goes through base::JsonWriter (full precision, round-trips the double
// exactly; base::JsonNumber for CSV) or the compact form below for
// human tables.

#ifndef STRIP_OBS_REPORT_FORMAT_H_
#define STRIP_OBS_REPORT_FORMAT_H_

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "base/json_writer.h"

namespace strip::obs::report {

// %.6g — compact and stable, for markdown/CSV cells.
inline std::string FormatCompact(double v) {
  char buffer[32];
  if (v != v || v > 1e308 || v < -1e308) return "-";
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

inline std::string FormatCompact(const std::optional<double>& v) {
  return v ? FormatCompact(*v) : "-";
}

// An inline JSON array of strings (report notes and name lists).
inline void WriteStringArray(base::JsonWriter& json,
                             const std::vector<std::string>& values) {
  json.BeginArray(base::JsonWriter::Layout::kInline);
  for (const std::string& value : values) json.String(value);
  json.EndArray();
}

}  // namespace strip::obs::report

#endif  // STRIP_OBS_REPORT_FORMAT_H_
