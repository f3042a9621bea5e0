// strip_sweep: run an arbitrary parameter sweep from the command line.
//
//   strip_sweep --x=lambda_t --values=5,10,15,20,25
//               --policies=UF,TF,SU,OD --metrics=av,p_success
//               [--name=value ...] [--reps=N] [--seed=N] [--csv]
//               [--jobs=N] [--pin-cores] [--progress=MODE]
//               [--json=PATH] [--telemetry-dir=DIR] [--flight-dir=DIR]
//               [--out-dir=DIR] [--resume] [--cell-timeout=S] [--audit]
//
// Grid cells are dispatched to a pool of --jobs worker threads (0 =
// one per hardware core, the default; --pin-cores pins worker i to
// core i on Linux). Every worker
// runs fully isolated Simulation/RNG state, so cell files, telemetry,
// flight dumps, and the aggregate tables are byte-identical for any
// job count. --progress=MODE (auto|on|off, default auto: on when
// stderr is a terminal) reports "cells done / total" on stderr from a
// single mutex-guarded section that is also where cell files are
// written — the progress line never interleaves with a cell write.
//
// --audit attaches the invariant auditor (src/check) to every run of
// every cell; violations print to stderr (with the cell and
// replication) and the sweep exits 3. Audited output is bit-identical
// to a non-audit sweep.
//
// --telemetry-dir=DIR writes one telemetry JSON document per sweep
// cell (first replication only) into DIR, named
// <policy>_<x-index>.json; DIR must already exist.
//
// --flight-dir=DIR attaches a flight recorder (obs/trace) to the
// first replication of every cell and, for cells where an anomaly
// predicate trips (deadline-miss burst, stale fraction, update-queue
// depth spike, outage recovery), writes the post-mortem window to
// DIR/flight_<policy>_<x-index>.txt for strip_trace to dissect.
//
// Crash-safe grids: --out-dir=DIR persists every finished cell as
// DIR/cell_<policy>_<x-index>.json (schema strip.sweep-cell/v1, all
// replications' metrics) the moment the cell completes. Every file in
// this tool is written atomically (tmp + rename), so a killed sweep
// leaves only whole cell files behind; --resume skips cells whose
// file already exists (and clears stale *.tmp leftovers), re-running
// just the missing ones — the resumed grid is byte-identical to an
// uninterrupted run. --cell-timeout=S bounds each cell's wall-clock
// time across its replications; on overrun the cell is finalized
// early and marked "timed_out" in its file.
//
// Any Config parameter (see strip_sim --help) can be fixed with
// --name=value and any numeric one swept with --x/--values. This is
// the same machinery the per-figure bench binaries use, exposed for
// ad-hoc exploration.
//
// Cluster-level flags (--shards=, --placement=, --shard_faults=, ...)
// make every cell an M-shard cluster run: each cell's swept Config
// becomes the per-shard base, --audit adds the cross-shard
// ClusterAuditor census on top of the per-shard auditors, and
// --telemetry-dir writes one document per shard
// (<cell>.json.shard<k>). At --shards=1 (the default) file names carry
// no shard suffix.
//
// Cluster-level parameters are themselves sweepable: --x=shards or
// --x=link_latency_us applies each value to the cell's cluster shape
// instead of the per-shard base, so one grid can compare cluster
// sizes or interconnect latencies directly (see
// examples/run_telemetry.cpp and EXPERIMENTS.md):
//
//   strip_sweep --x=shards --values=1,2,4,8 --metrics=av,response_p95
//   strip_sweep --shards=4 --x=link_latency_us --values=0,100,1000,5000

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/atomic_io.h"
#include "check/cluster_auditor.h"
#include "check/invariant_auditor.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/metrics_json.h"
#include "core/sharded_config.h"
#include "exp/config_flags.h"
#include "exp/experiment.h"
#include "exp/report.h"
#include "exp/sweep_cell.h"
#include "obs/telemetry.h"
#include "obs/trace/flight_recorder.h"

namespace {

using strip::core::PolicyKind;
using strip::core::RunMetrics;

struct MetricDef {
  const char* name;
  strip::exp::MetricFn fn;
};

using strip::exp::Metric;

const MetricDef kMetrics[] = {
    {"av", Metric(&RunMetrics::av)},
    {"p_md", Metric(&RunMetrics::p_md)},
    {"p_success", Metric(&RunMetrics::p_success)},
    {"p_suc_nontardy", Metric(&RunMetrics::p_suc_nontardy)},
    {"f_old_l", Metric(&RunMetrics::f_old_low)},
    {"f_old_h", Metric(&RunMetrics::f_old_high)},
    {"rho_t", Metric(&RunMetrics::rho_t)},
    {"rho_u", Metric(&RunMetrics::rho_u)},
    {"response_p95", Metric(&RunMetrics::response_p95)},
    {"uq_avg", Metric(&RunMetrics::uq_length_avg)},
    {"remote_retries", Metric(&RunMetrics::remote_retries)},
    {"remote_timeouts", Metric(&RunMetrics::remote_timeouts)},
    {"remote_degraded", Metric(&RunMetrics::remote_degraded_reads)},
    {"remote_unavailable", Metric(&RunMetrics::txns_remote_unavailable)},
};

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      items.push_back(list.substr(start));
      break;
    }
    items.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "strip_sweep: %s\n", message.c_str());
  std::exit(2);
}

PolicyKind ParsePolicy(const std::string& name) {
  for (PolicyKind kind :
       {PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst,
        PolicyKind::kSplitUpdates, PolicyKind::kOnDemand,
        PolicyKind::kFixedFraction}) {
    if (name == strip::core::PolicyKindName(kind)) return kind;
  }
  Fail("unknown policy: " + name);
}

// Cell naming and the strip.sweep-cell/v1 document live in the exp
// library (exp/sweep_cell.h) so obs/report reads the same format this
// tool writes.
using strip::exp::SweepCellJson;
using strip::exp::SweepCellName;

// Writes a string atomically; any failure aborts the sweep (a silent
// half-written grid is worse than a loud stop).
void WriteOrFail(const std::string& path, const std::string& contents) {
  if (const auto error = strip::base::WriteFileAtomic(path, contents)) {
    Fail(*error);
  }
}

}  // namespace

int main(int argc, char** argv) {
  strip::core::ShardedConfig cluster;
  strip::core::Config& base = cluster.base;
  std::vector<std::string> rest;
  if (const auto error =
          strip::exp::ApplyConfigFlags(argc, argv, cluster, &rest)) {
    Fail(*error);
  }

  std::string x_name;
  std::vector<double> x_values;
  std::vector<PolicyKind> policies = {
      PolicyKind::kUpdateFirst, PolicyKind::kTransactionFirst,
      PolicyKind::kSplitUpdates, PolicyKind::kOnDemand};
  std::vector<std::string> metric_names = {"av", "p_success"};
  int reps = 2;
  std::uint64_t seed = 42;
  strip::exp::ParallelOptions parallel;
  std::string progress = "auto";
  bool csv = false;
  std::string json_path;
  std::string telemetry_dir;
  std::string flight_dir;
  std::string out_dir;
  bool resume = false;
  bool audit = false;
  double cell_timeout = 0;

  for (const std::string& arg : rest) {
    if (arg.rfind("--x=", 0) == 0) {
      x_name = arg.substr(4);
    } else if (arg.rfind("--values=", 0) == 0) {
      for (const std::string& v : SplitCommas(arg.substr(9))) {
        double value = 0;
        if (!strip::exp::ParseDouble(v, &value)) {
          Fail("bad value for --values: " + v);
        }
        x_values.push_back(value);
      }
    } else if (arg.rfind("--policies=", 0) == 0) {
      policies.clear();
      for (const std::string& p : SplitCommas(arg.substr(11))) {
        policies.push_back(ParsePolicy(p));
      }
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metric_names = SplitCommas(arg.substr(10));
    } else if (arg.rfind("--reps=", 0) == 0) {
      if (!strip::exp::ParseInt(arg.substr(7), &reps)) {
        Fail(strip::exp::BadFlagValue(arg));
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!strip::exp::ParseUint64(arg.substr(7), &seed)) {
        Fail(strip::exp::BadFlagValue(arg));
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!strip::exp::ParseInt(arg.substr(7), &parallel.jobs)) {
        Fail(strip::exp::BadFlagValue(arg));
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      Fail("--threads= was removed; use --jobs=" + arg.substr(10));
    } else if (arg == "--pin-cores") {
      parallel.pin_cores = true;
    } else if (arg.rfind("--progress=", 0) == 0) {
      progress = arg.substr(11);
      if (progress != "auto" && progress != "on" && progress != "off") {
        Fail("--progress needs auto, on, or off");
      }
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--telemetry-dir=", 0) == 0) {
      telemetry_dir = arg.substr(16);
    } else if (arg.rfind("--flight-dir=", 0) == 0) {
      flight_dir = arg.substr(13);
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(10);
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg.rfind("--cell-timeout=", 0) == 0) {
      if (!strip::exp::ParseDouble(arg.substr(15), &cell_timeout)) {
        Fail(strip::exp::BadFlagValue(arg));
      }
      if (cell_timeout <= 0) Fail("--cell-timeout needs seconds > 0");
    } else {
      Fail("unknown flag: " + arg + " (config flags need --name=value)");
    }
  }
  if (x_name.empty() || x_values.empty()) {
    Fail("need --x=<param> and --values=v1,v2,...");
  }
  if (reps < 1) Fail("--reps must be at least 1");
  if (resume && out_dir.empty()) Fail("--resume needs --out-dir=DIR");

  // A cluster-level x axis (--x=shards, --x=link_latency_us, ...)
  // changes the cluster shape per cell. Such a sweep counts as sharded
  // even at a shards == 1 value, so its per-shard file names are
  // uniform across the grid.
  bool cluster_x = false;
  for (const std::string& name : strip::exp::ShardedConfigFlagNames()) {
    if (name == x_name) {
      cluster_x = true;
      break;
    }
  }
  const bool sharded = cluster.shards > 1 || cluster_x;

  strip::exp::SweepSpec spec;
  spec.base = base;
  spec.cluster = cluster;
  spec.policies = policies;
  spec.x_name = x_name;
  spec.x_values = x_values;
  spec.replications = reps;
  spec.base_seed = seed;
  spec.parallel = parallel;
  if (cluster_x) {
    spec.apply_x_cluster = [x_name](strip::core::ShardedConfig& config,
                                    double x) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", x);
      const auto error = strip::exp::ApplyConfigFlag(
          x_name + "=" + value, config);
      if (error.has_value()) Fail(*error);
    };
  } else {
    spec.apply_x = [x_name](strip::core::Config& config, double x) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", x);
      const auto error = strip::exp::ApplyConfigFlag(
          x_name + "=" + value, config);
      if (error.has_value()) Fail(*error);
    };
  }
  spec.budget.wall_seconds = cell_timeout;

  // Progress reporting rides the sweep's serialized completion
  // section (see SweepSpec::on_progress), so the line never
  // interleaves with a cell-file write or a second progress line. On
  // a terminal the line rewrites itself in place; piped, each cell
  // appends one full line.
  const bool stderr_tty = isatty(fileno(stderr)) != 0;
  if (progress == "on" || (progress == "auto" && stderr_tty)) {
    spec.on_progress = [stderr_tty](std::size_t done, std::size_t total) {
      if (stderr_tty) {
        std::fprintf(stderr, "\rstrip_sweep: %zu/%zu cells done", done,
                     total);
        if (done == total) std::fputc('\n', stderr);
      } else {
        std::fprintf(stderr, "strip_sweep: %zu/%zu cells done\n", done,
                     total);
      }
      std::fflush(stderr);
    };
  }

  if (!out_dir.empty()) {
    // Persist every finished cell immediately; an interrupted sweep
    // keeps everything completed so far.
    spec.on_cell_done = [&spec, out_dir](
                            std::size_t p, std::size_t x,
                            const std::vector<RunMetrics>& runs,
                            bool timed_out) {
      const std::string path =
          out_dir + "/cell_" + SweepCellName(spec.policies[p], x) + ".json";
      WriteOrFail(path, SweepCellJson(spec, p, x, runs, timed_out));
    };
    if (resume) {
      for (const std::string& name :
           strip::base::RemoveStaleTmpFiles(out_dir)) {
        std::fprintf(stderr,
                     "strip_sweep: removed stale partial write %s\n",
                     name.c_str());
      }
      spec.skip_cell = [&spec, out_dir](std::size_t p, std::size_t x) {
        return strip::base::FileExists(
            out_dir + "/cell_" + SweepCellName(spec.policies[p], x) + ".json");
      };
    }
  }

  // Validate the x parameter name and one full config up front, before
  // launching the fleet. Sharded sweeps validate the cluster shape
  // against the swept base too (per-shard override lengths, skew).
  {
    strip::core::ShardedConfig probe = cluster;
    if (spec.apply_x) spec.apply_x(probe.base, x_values.front());
    if (spec.apply_x_cluster) spec.apply_x_cluster(probe, x_values.front());
    if (const auto invalid = probe.Validate()) Fail(*invalid);
  }

  std::atomic<bool> audit_failed{false};

  // Per-cell recorders: the first replication of every (policy, x)
  // cell carries a telemetry recorder and/or a flight recorder per
  // shard; --audit attaches one InvariantAuditor per shard to every
  // replication, plus the cross-shard ClusterAuditor census when the
  // cell has more than one shard. The hook runs on worker threads;
  // each cell writes its own files and the only shared state is the
  // failure flag. A flight dump is only written for shards where an
  // anomaly predicate actually tripped. Sharded sweeps suffix every
  // per-shard file (<cell>.json.shard<k>, flight_<cell>_shard<k>.txt),
  // one-shard sweeps name the cell alone.
  if (!telemetry_dir.empty() || !flight_dir.empty() || audit) {
    const std::vector<PolicyKind> hook_policies = policies;
    spec.on_cluster_run = [telemetry_dir, flight_dir, audit, sharded,
                           hook_policies, &audit_failed](
                              strip::core::Cluster& cell_cluster,
                              const strip::exp::RunContext& context)
        -> strip::exp::RunFinisher {
      struct Recorders {
        std::vector<std::unique_ptr<strip::obs::RunTelemetry>> telemetry;
        std::vector<std::unique_ptr<strip::obs::trace::FlightRecorder>>
            flight;
        std::vector<std::unique_ptr<strip::check::InvariantAuditor>>
            auditors;
        std::unique_ptr<strip::check::ClusterAuditor> census;
      };
      auto recorders = std::make_shared<Recorders>();
      const int shards = cell_cluster.shards();
      const bool first = context.replication == 0;
      if (first && !telemetry_dir.empty()) {
        for (int s = 0; s < shards; ++s) {
          strip::obs::RunTelemetry::Options options;
          options.seed = context.seed;
          options.shard = s;
          options.shards = shards;
          recorders->telemetry.push_back(
              std::make_unique<strip::obs::RunTelemetry>(
                  &cell_cluster.shard(s), options));
        }
      }
      if (first && !flight_dir.empty()) {
        for (int s = 0; s < shards; ++s) {
          auto recorder =
              std::make_unique<strip::obs::trace::FlightRecorder>();
          cell_cluster.shard(s).AddObserver(recorder.get());
          recorders->flight.push_back(std::move(recorder));
        }
      }
      if (audit) {
        for (int s = 0; s < shards; ++s) {
          auto auditor =
              std::make_unique<strip::check::InvariantAuditor>();
          auditor->set_system(&cell_cluster.shard(s));
          cell_cluster.shard(s).AddObserver(auditor.get());
          recorders->auditors.push_back(std::move(auditor));
        }
        if (shards > 1) {
          recorders->census =
              std::make_unique<strip::check::ClusterAuditor>();
          recorders->census->set_cluster(&cell_cluster);
          cell_cluster.AddObserverToAllShards(recorders->census.get());
        }
      }
      if (recorders->telemetry.empty() && recorders->flight.empty() &&
          recorders->auditors.empty()) {
        return nullptr;
      }
      strip::core::Cluster* cluster_ptr = &cell_cluster;
      const std::string cell =
          SweepCellName(hook_policies[context.policy_index], context.x_index);
      const int replication = context.replication;
      return [recorders, cluster_ptr, cell, replication, sharded,
              telemetry_dir, flight_dir,
              &audit_failed](const strip::core::RunMetrics&) {
        for (std::size_t s = 0; s < recorders->telemetry.size(); ++s) {
          std::ostringstream out;
          recorders->telemetry[s]->WriteJson(
              out, cluster_ptr->shard_metrics(static_cast<int>(s)));
          const std::string suffix =
              sharded ? ".shard" + std::to_string(s) : "";
          WriteOrFail(telemetry_dir + "/" + cell + ".json" + suffix,
                      out.str());
        }
        for (std::size_t s = 0; s < recorders->flight.size(); ++s) {
          if (!recorders->flight[s]->tripped()) continue;
          std::ostringstream out;
          recorders->flight[s]->DumpTo(out);
          const std::string suffix =
              sharded ? "_shard" + std::to_string(s) : "";
          WriteOrFail(flight_dir + "/flight_" + cell + suffix + ".txt",
                      out.str());
        }
        for (std::size_t s = 0; s < recorders->auditors.size(); ++s) {
          if (recorders->auditors[s]->ok()) continue;
          audit_failed.store(true, std::memory_order_relaxed);
          std::fprintf(stderr,
                       "strip_sweep: audit FAILED (cell %s, "
                       "replication %d, shard %zu)\n%s",
                       cell.c_str(), replication, s,
                       recorders->auditors[s]->Report().c_str());
        }
        if (recorders->census != nullptr) {
          recorders->census->FinishRun();
          if (!recorders->census->ok()) {
            audit_failed.store(true, std::memory_order_relaxed);
            std::fprintf(stderr,
                         "strip_sweep: cluster audit FAILED (cell %s, "
                         "replication %d)\n%s",
                         cell.c_str(), replication,
                         recorders->census->Report().c_str());
          }
        }
      };
    };
  }

  // With --resume, previously-finished cells are not re-run: their
  // authoritative results live in their cell files, and their rows in
  // the summary tables below are zeros.
  if (resume && spec.skip_cell) {
    std::size_t skipped = 0;
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      for (std::size_t x = 0; x < spec.x_values.size(); ++x) {
        if (spec.skip_cell(p, x)) ++skipped;
      }
    }
    if (skipped > 0) {
      std::fprintf(stderr,
                   "strip_sweep: resume: %zu cell(s) already done, "
                   "skipping (summary tables cover re-run cells only; "
                   "cell files are authoritative)\n",
                   skipped);
    }
  }

  const strip::exp::SweepResult result = strip::exp::RunSweep(spec);
  std::ostringstream json;
  if (!json_path.empty()) json << "{\"series\": [";
  bool first_series = true;
  for (const std::string& metric_name : metric_names) {
    const MetricDef* found = nullptr;
    for (const MetricDef& metric : kMetrics) {
      if (metric_name == metric.name) found = &metric;
    }
    if (found == nullptr) Fail("unknown metric: " + metric_name);
    strip::exp::PrintSeries(std::cout, spec, result, metric_name,
                            found->fn, /*with_ci=*/reps > 1);
    if (csv) {
      strip::exp::PrintSeriesCsv(std::cout, spec, result, metric_name,
                                 found->fn);
    }
    if (!json_path.empty()) {
      json << (first_series ? "\n  " : ",\n  ");
      first_series = false;
      strip::exp::PrintSeriesJson(json, spec, result, metric_name,
                                  found->fn);
    }
  }
  if (!json_path.empty()) {
    json << "\n]}\n";
    WriteOrFail(json_path, json.str());
  }
  return audit_failed.load() ? 3 : 0;
}
