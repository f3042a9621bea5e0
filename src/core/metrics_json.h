// JSON rendering of RunMetrics, shared by the telemetry exporter and
// the sweep runner's per-cell result files. Keeping one writer means
// the two documents can never drift apart field-by-field, and a
// resumed sweep reproduces byte-identical cell files (the writer is
// fully deterministic: fixed field order, %.17g doubles, no
// timestamps).

#ifndef STRIP_CORE_METRICS_JSON_H_
#define STRIP_CORE_METRICS_JSON_H_

#include <ostream>

#include "base/json_writer.h"
#include "core/metrics.h"

namespace strip::core {

// Writes the metrics of one run as the next value of `json`: a block
// object with one member per line. Non-finite doubles render as null;
// outage_recovery_seconds, time_to_reconnect and the cluster
// percentiles render as null when unset (sentinel < 0).
void WriteRunMetricsJson(base::JsonWriter& json, const RunMetrics& m);

// The same object on its own: the opening brace in place, one member
// per line prefixed with `member_indent`, and the closing brace
// prefixed with `close_indent` (no trailing newline). Both indents are
// spaces, `member_indent` two longer than `close_indent`.
void WriteRunMetricsJson(std::ostream& out, const RunMetrics& m,
                         const char* member_indent,
                         const char* close_indent);

}  // namespace strip::core

#endif  // STRIP_CORE_METRICS_JSON_H_
