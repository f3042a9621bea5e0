#include "exp/sweep_cell.h"

#include <cstdio>
#include <sstream>

#include "base/json_writer.h"
#include "core/metrics_json.h"

namespace strip::exp {

std::string SweepCellName(core::PolicyKind policy, std::size_t x_index) {
  char cell[64];
  std::snprintf(cell, sizeof(cell), "%s_%02zu",
                core::PolicyKindName(policy), x_index);
  return cell;
}

std::string SweepCellJson(const SweepSpec& spec, std::size_t policy_index,
                          std::size_t x_index,
                          const std::vector<core::RunMetrics>& runs,
                          bool timed_out) {
  std::ostringstream out;
  base::JsonWriter json(out);
  json.BeginObject();
  json.Key("schema").String("strip.sweep-cell/v1");
  json.Key("policy").String(core::PolicyKindName(spec.policies[policy_index]));
  json.Key("x_name").String(spec.x_name);
  json.Key("x_value").Number(spec.x_values[x_index]);
  json.Key("x_index").Number(x_index);
  json.Key("replications").Number(spec.replications);
  json.Key("base_seed").Number(spec.base_seed);
  json.Key("timed_out").Bool(timed_out);
  json.Key("runs").BeginArray();
  for (const core::RunMetrics& run : runs) core::WriteRunMetricsJson(json, run);
  json.EndArray();
  json.EndObject();
  out << "\n";
  return out.str();
}

}  // namespace strip::exp
