#include "obs/trace/trace_analysis.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "base/str_format.h"

namespace strip::obs::trace {

namespace {

// Splits one CSV row into exactly `n` columns (the formats never quote
// or embed commas).
bool SplitColumns(const std::string& line, std::size_t n,
                  std::vector<std::string>* columns) {
  columns->clear();
  std::size_t start = 0;
  while (columns->size() + 1 < n) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) return false;
    columns->push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  columns->push_back(line.substr(start));
  return columns->size() == n;
}

std::uint64_t ParseId(const std::string& token) {
  if (token.empty()) return kNoId;
  return std::strtoull(token.c_str(), nullptr, 10);
}

// "key=value" token from a header line; "" if absent.
std::string HeaderToken(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find(' ', start);
  return line.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

// `"key":"value"` from a Chrome event line; "" if absent.
std::string JsonString(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

// `"key":number` from a Chrome event line; nullopt if absent.
std::optional<double> JsonNumber(const std::string& line,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

}  // namespace

std::optional<ParsedTrace> ParseFlightDump(std::istream& in,
                                           std::string* error) {
  ParsedTrace trace;
  std::string line;
  if (!std::getline(in, line) || line.rfind("# strip-flight v1", 0) != 0) {
    if (error != nullptr) *error = "not a strip-flight v1 dump";
    return std::nullopt;
  }
  trace.trip_predicate = HeaderToken(line, "trip");
  trace.trip_time = std::strtod(HeaderToken(line, "trip_time").c_str(),
                                nullptr);
  trace.trip_window = HeaderToken(line, "window");
  if (!std::getline(in, line) || line.rfind("kind,time", 0) != 0) {
    if (error != nullptr) *error = "missing column header";
    return std::nullopt;
  }
  std::vector<std::string> columns;
  int row = 2;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    if (!SplitColumns(line, 8, &columns)) {
      if (error != nullptr) {
        *error = "malformed row at line " + std::to_string(row);
      }
      return std::nullopt;
    }
    ParsedEvent event;
    event.kind = columns[0];
    event.time = std::strtod(columns[1].c_str(), nullptr);
    event.txn = ParseId(columns[2]);
    event.update = ParseId(columns[3]);
    event.object = columns[4];
    event.detail = columns[5];
    event.reason = columns[6];
    event.instructions = std::strtod(columns[7].c_str(), nullptr);
    trace.events.push_back(std::move(event));
  }
  return trace;
}

std::optional<ParsedTrace> ParseChromeTrace(std::istream& in,
                                            std::string* error) {
  ParsedTrace trace;
  trace.trip_predicate = "chrome";
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (all.find("\"traceEvents\"") == std::string::npos) {
    if (error != nullptr) *error = "not a Chrome trace document";
    return std::nullopt;
  }
  std::istringstream lines(all);
  std::string line;
  // pid → shard, built from the "process_name" metadata records
  // ("strip" is the uniprocessor writer, "shard N" the per-shard
  // writers). Unmapped pids fall back to pid-1 (the writers assign
  // pid = shard + 1).
  std::vector<std::pair<int, int>> pid_to_shard;
  // The last open dispatch *per pid*: sharded traces interleave B/E
  // spans from different shards, so attribution must be per track
  // group — one global slot would hand shard 1's E record shard 0's
  // identities.
  std::vector<std::pair<int, ParsedEvent>> open_by_pid;
  const auto shard_of = [&pid_to_shard](int pid) {
    for (const auto& [known_pid, shard] : pid_to_shard) {
      if (known_pid == pid) return shard;
    }
    return pid >= 1 ? pid - 1 : 0;
  };
  while (std::getline(lines, line)) {
    const int pid =
        static_cast<int>(JsonNumber(line, "pid").value_or(1.0));
    if (JsonString(line, "ph") == "M" &&
        JsonString(line, "name") == "process_name") {
      // The args name is the second "name" on the line.
      const std::string args_needle = "\"args\":{\"name\":\"";
      const std::size_t at = line.find(args_needle);
      if (at != std::string::npos) {
        const std::size_t start = at + args_needle.size();
        const std::size_t end = line.find('"', start);
        const std::string process =
            line.substr(start, end == std::string::npos ? std::string::npos
                                                        : end - start);
        int shard = 0;
        if (process.rfind("shard ", 0) == 0) {
          shard = std::atoi(process.c_str() + 6);
        }
        pid_to_shard.emplace_back(pid, shard);
        trace.shards = std::max(trace.shards, shard + 1);
      }
      continue;
    }
    const std::string cat = JsonString(line, "cat");
    if (cat.empty() || cat == "od-flow") continue;
    const std::string ph = JsonString(line, "ph");
    ParsedEvent event;
    event.kind = cat;
    event.shard = shard_of(pid);
    const std::optional<double> ts = JsonNumber(line, "ts");
    event.time = ts.has_value() ? *ts / 1e6 : 0;
    if (const auto txn = JsonNumber(line, "txn")) {
      event.txn = static_cast<std::uint64_t>(*txn);
    }
    if (const auto update = JsonNumber(line, "update")) {
      event.update = static_cast<std::uint64_t>(*update);
    }
    event.object = JsonString(line, "obj");
    event.reason = JsonString(line, "reason");
    if (const auto instr = JsonNumber(line, "instr")) {
      event.instructions = *instr;
    }
    const std::string name = JsonString(line, "name");
    ParsedEvent* open_dispatch = nullptr;
    for (auto& [open_pid, open] : open_by_pid) {
      if (open_pid == pid) {
        open_dispatch = &open;
        break;
      }
    }
    if (ph == "B") {
      event.detail = name;  // the dispatch kind
      if (open_dispatch != nullptr) {
        *open_dispatch = event;
      } else {
        open_by_pid.emplace_back(pid, event);
      }
    } else if (ph == "E") {
      // E records carry no args: attribute them to this track group's
      // open dispatch.
      if (open_dispatch != nullptr && !open_dispatch->kind.empty()) {
        event.txn = open_dispatch->txn;
        event.update = open_dispatch->update;
        event.object = open_dispatch->object;
        event.instructions = open_dispatch->instructions;
        open_dispatch->kind.clear();
      }
      event.detail = name;
    } else if (cat == "preempt") {
      event.detail = event.reason;  // align with the flight format
      event.reason.clear();
    } else if (cat == "txn-terminal" || cat == "update-dropped" ||
               cat == "policy-decision" || cat == "phase") {
      event.detail = name;
    } else if (cat == "fault-begin" || cat == "fault-end") {
      event.detail = name;
      event.reason = JsonString(line, "window");
    } else if (cat == "remote-resolved" || cat == "remote-timeout") {
      // The writer's "state" arg is the flight-format detail token
      // ("live"/"orphaned", "retry"/"exhausted").
      event.detail = JsonString(line, "state");
    } else if (cat == "remote-dropped") {
      event.detail = JsonString(line, "leg");
    } else if (cat == "remote-degraded") {
      event.detail = "stale-local";
    }
    if (cat == "policy-decision") {
      event.reason = JsonString(line, "reason");
    }
    trace.events.push_back(std::move(event));
  }
  for (const ParsedEvent& event : trace.events) {
    trace.shards = std::max(trace.shards, event.shard + 1);
  }
  return trace;
}

std::vector<ParsedEvent> FilterByTxn(const std::vector<ParsedEvent>& events,
                                     std::uint64_t txn) {
  std::vector<ParsedEvent> out;
  for (const ParsedEvent& event : events) {
    if (event.txn == txn) out.push_back(event);
  }
  return out;
}

std::vector<ParsedEvent> FilterByObject(
    const std::vector<ParsedEvent>& events, const std::string& object) {
  std::vector<ParsedEvent> out;
  for (const ParsedEvent& event : events) {
    if (event.object == object) out.push_back(event);
  }
  return out;
}

std::vector<ParsedEvent> FilterByWindow(
    const std::vector<ParsedEvent>& events, double from, double to) {
  std::vector<ParsedEvent> out;
  for (const ParsedEvent& event : events) {
    if (event.time >= from && event.time <= to) out.push_back(event);
  }
  return out;
}

std::vector<ParsedEvent> FilterByShard(
    const std::vector<ParsedEvent>& events, int shard) {
  std::vector<ParsedEvent> out;
  for (const ParsedEvent& event : events) {
    if (event.shard == shard) out.push_back(event);
  }
  return out;
}

std::map<std::string, std::uint64_t> DecisionCounts(
    const std::vector<ParsedEvent>& events) {
  std::map<std::string, std::uint64_t> counts;
  for (const ParsedEvent& event : events) {
    if (event.kind != "policy-decision") continue;
    ++counts[event.detail + "/" + event.reason];
  }
  return counts;
}

std::map<std::string, std::uint64_t> KindCounts(
    const std::vector<ParsedEvent>& events) {
  std::map<std::string, std::uint64_t> counts;
  for (const ParsedEvent& event : events) ++counts[event.kind];
  return counts;
}

std::optional<std::uint64_t> FirstMissedDeadlineTxn(
    const std::vector<ParsedEvent>& events) {
  // Prefer a transaction whose deadline fired mid-flight (it has CPU
  // segments to dissect); fall back to one screened out as infeasible.
  std::optional<std::uint64_t> infeasible;
  for (const ParsedEvent& event : events) {
    if (event.kind != "txn-terminal") continue;
    if (event.detail == "missed-deadline") return event.txn;
    if (event.detail == "infeasible" && !infeasible.has_value()) {
      infeasible = event.txn;
    }
  }
  return infeasible;
}

namespace {

// What held the CPU during [from, to): dispatch events in the window
// tallied by owner and kind.
std::string AnnotateWait(const std::vector<ParsedEvent>& events, double from,
                         double to, std::uint64_t self) {
  std::map<std::string, std::uint64_t> held;
  for (const ParsedEvent& event : events) {
    if (event.kind != "dispatch") continue;
    if (event.time < from || event.time >= to) continue;
    if (event.txn == self) continue;
    std::string label;
    if (event.txn == kNoId) {
      label = "updater " + event.detail;
    } else {
      label = "txn " + std::to_string(event.txn) + " " + event.detail;
    }
    ++held[label];
  }
  std::string note;
  for (const auto& [label, count] : held) {
    if (!note.empty()) note += ", ";
    note += label;
    if (count > 1) note += " x" + std::to_string(count);
  }
  return note;
}

}  // namespace

std::optional<CriticalPath> ExtractCriticalPath(
    const std::vector<ParsedEvent>& events, std::uint64_t txn,
    std::string* error) {
  CriticalPath path;
  path.txn = txn;
  bool seen = false;
  bool admitted_known = false;
  double run_start = 0;
  std::string run_kind;
  bool running = false;
  double idle_since = 0;  // start of the current wait
  bool waiting = false;

  for (const ParsedEvent& event : events) {
    if (event.txn != txn) continue;
    seen = true;
    if (event.kind == "txn-admitted") {
      path.admitted = event.time;
      admitted_known = true;
      idle_since = event.time;
      waiting = true;
    } else if (event.kind == "dispatch") {
      if (waiting && event.time > idle_since) {
        path.steps.push_back({idle_since, event.time, "wait",
                              AnnotateWait(events, idle_since, event.time,
                                           txn)});
        path.waiting_seconds += event.time - idle_since;
      }
      waiting = false;
      running = true;
      run_start = event.time;
      run_kind = event.detail;
    } else if (event.kind == "segment-complete" && running) {
      path.steps.push_back({run_start, event.time, "run " + run_kind, ""});
      path.running_seconds += event.time - run_start;
      running = false;
      idle_since = event.time;
      waiting = true;
    } else if (event.kind == "preempt") {
      if (running) {
        path.steps.push_back({run_start, event.time, "run " + run_kind, ""});
        path.running_seconds += event.time - run_start;
        running = false;
      }
      path.steps.push_back(
          {event.time, event.time, "preempted " + event.detail, ""});
      idle_since = event.time;
      waiting = true;
    } else if (event.kind == "stale-read") {
      path.steps.push_back(
          {event.time, event.time, "stale-read " + event.object, ""});
    } else if (event.kind == "update-installed") {
      path.steps.push_back({event.time, event.time,
                            "od-install update " +
                                std::to_string(event.update) + " " +
                                event.object,
                            ""});
    } else if (event.kind == "txn-terminal") {
      if (waiting && event.time > idle_since) {
        path.steps.push_back({idle_since, event.time, "wait",
                              AnnotateWait(events, idle_since, event.time,
                                           txn)});
        path.waiting_seconds += event.time - idle_since;
      }
      waiting = false;
      path.terminal = event.time;
      path.outcome = event.detail;
    }
  }
  if (!seen) {
    if (error != nullptr) {
      *error = "transaction " + std::to_string(txn) + " not in trace";
    }
    return std::nullopt;
  }
  if (!admitted_known && !path.steps.empty()) {
    path.admitted = path.steps.front().start;
  }
  return path;
}

void PrintCriticalPath(std::ostream& out, const CriticalPath& path) {
  // The outcome and times come from a parsed trace, so no fixed buffer
  // bounds them.
  out << base::StrFormat("critical path: txn %llu  outcome=%s\n",
                         static_cast<unsigned long long>(path.txn),
                         path.outcome.empty() ? "(window cut)"
                                              : path.outcome.c_str());
  out << base::StrFormat(
      "  admitted=%.6fs terminal=%.6fs running=%.6fs waiting=%.6fs\n",
      path.admitted, path.terminal, path.running_seconds,
      path.waiting_seconds);
  for (const CriticalPathStep& step : path.steps) {
    if (step.end > step.start) {
      out << base::StrFormat("  [%.6f .. %.6f] %9.1fus  ", step.start,
                             step.end, (step.end - step.start) * 1e6);
    } else {
      out << base::StrFormat("  [%.6f]                   ", step.start);
    }
    out << step.what;
    if (!step.note.empty()) out << "  <- " << step.note;
    out << "\n";
  }
}

}  // namespace strip::obs::trace
