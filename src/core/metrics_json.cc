#include "core/metrics_json.h"

#include <cstring>
#include <optional>

#include "base/check.h"

namespace strip::core {

void WriteRunMetricsJson(base::JsonWriter& json, const RunMetrics& m) {
  // Sentinel-valued fields: null when the quantity does not exist (< 0).
  const auto or_null = [&json](const char* name, double value) {
    json.Key(name).Number(value < 0 ? std::nullopt : std::optional(value));
  };
  json.BeginObject();
  json.Key("observed_seconds").Number(m.observed_seconds);
  json.Key("txns_arrived").Number(m.txns_arrived);
  json.Key("txns_committed").Number(m.txns_committed);
  json.Key("txns_committed_fresh").Number(m.txns_committed_fresh);
  json.Key("txns_committed_stale").Number(m.txns_committed_stale);
  json.Key("txns_missed_deadline").Number(m.txns_missed_deadline);
  json.Key("txns_infeasible").Number(m.txns_infeasible);
  json.Key("txns_stale_aborted").Number(m.txns_stale_aborted);
  json.Key("txns_overload_dropped").Number(m.txns_overload_dropped);
  json.Key("txns_inflight_at_end").Number(m.txns_inflight_at_end);
  json.Key("value_committed").Number(m.value_committed);
  json.Key("updates_arrived").Number(m.updates_arrived);
  json.Key("updates_installed").Number(m.updates_installed);
  json.Key("updates_unworthy").Number(m.updates_unworthy);
  json.Key("updates_applied_on_demand").Number(m.updates_applied_on_demand);
  json.Key("updates_dropped_os_full").Number(m.updates_dropped_os_full);
  json.Key("updates_dropped_uq_overflow")
      .Number(m.updates_dropped_uq_overflow);
  json.Key("updates_dropped_expired").Number(m.updates_dropped_expired);
  json.Key("updates_dropped_superseded").Number(m.updates_dropped_superseded);
  json.Key("triggers_fired").Number(m.triggers_fired);
  json.Key("io_stalls").Number(m.io_stalls);
  json.Key("cpu_txn_seconds").Number(m.cpu_txn_seconds);
  json.Key("cpu_update_seconds").Number(m.cpu_update_seconds);
  json.Key("f_old_low").Number(m.f_old_low);
  json.Key("f_old_high").Number(m.f_old_high);
  json.Key("response_mean").Number(m.response_mean);
  json.Key("response_p50").Number(m.response_p50);
  json.Key("response_p95").Number(m.response_p95);
  json.Key("response_p99").Number(m.response_p99);
  json.Key("uq_length_avg").Number(m.uq_length_avg);
  json.Key("uq_length_max").Number(m.uq_length_max);
  json.Key("os_length_avg").Number(m.os_length_avg);
  // Robustness (fault injection & graceful degradation).
  json.Key("fault_windows").Number(m.fault_windows);
  json.Key("updates_lost_fault").Number(m.updates_lost_fault);
  json.Key("updates_duplicated_fault").Number(m.updates_duplicated_fault);
  json.Key("updates_reordered_fault").Number(m.updates_reordered_fault);
  json.Key("updates_outage_deferred").Number(m.updates_outage_deferred);
  json.Key("updates_shed_low").Number(m.updates_shed_by_class[0]);
  json.Key("updates_shed_high").Number(m.updates_shed_by_class[1]);
  json.Key("governor_engagements").Number(m.governor_engagements);
  json.Key("governor_engaged_seconds").Number(m.governor_engaged_seconds);
  or_null("outage_recovery_seconds", m.outage_recovery_seconds);
  json.Key("max_stale_excursion").Number(m.max_stale_excursion);
  json.Key("txns_missed_in_fault").Number(m.txns_missed_in_fault);
  // Cross-shard rendezvous (sharded model; all zero at shards=1).
  json.Key("txns_cross_shard").Number(m.txns_cross_shard);
  json.Key("remote_reads_issued").Number(m.remote_reads_issued);
  json.Key("remote_reads_served").Number(m.remote_reads_served);
  json.Key("remote_replies_orphaned").Number(m.remote_replies_orphaned);
  json.Key("remote_heals").Number(m.remote_heals);
  json.Key("remote_stale_replies").Number(m.remote_stale_replies);
  json.Key("remote_wait_seconds").Number(m.remote_wait_seconds);
  json.Key("cpu_remote_seconds").Number(m.cpu_remote_seconds);
  // Interconnect robustness (delayed/lossy/partitioned links). The
  // last four live only on a cluster aggregate; time_to_reconnect is
  // null when no cut window healed before a successful delivery.
  json.Key("remote_retries").Number(m.remote_retries);
  json.Key("remote_timeouts").Number(m.remote_timeouts);
  json.Key("remote_degraded_reads").Number(m.remote_degraded_reads);
  json.Key("txns_remote_unavailable").Number(m.txns_remote_unavailable);
  json.Key("link_messages_lost").Number(m.link_messages_lost);
  json.Key("partition_windows").Number(m.partition_windows);
  json.Key("partition_seconds").Number(m.partition_seconds);
  or_null("time_to_reconnect", m.time_to_reconnect);
  // Cluster-true percentiles (bucket-merged across shards); null when
  // not computed — per-shard metrics and uniprocessor runs.
  or_null("response_p50_cluster", m.response_p50_cluster);
  or_null("response_p95_cluster", m.response_p95_cluster);
  or_null("response_p99_cluster", m.response_p99_cluster);
  // Derived ratios.
  json.Key("p_md").Number(m.p_md());
  json.Key("p_success").Number(m.p_success());
  json.Key("p_suc_nontardy").Number(m.p_suc_nontardy());
  json.Key("av").Number(m.av());
  json.Key("rho_t").Number(m.rho_t());
  json.Key("rho_u").Number(m.rho_u());
  json.EndObject();
}

void WriteRunMetricsJson(std::ostream& out, const RunMetrics& m,
                         const char* member_indent,
                         const char* close_indent) {
  const std::size_t close = std::strlen(close_indent);
  STRIP_CHECK(close % 2 == 0 && std::strlen(member_indent) == close + 2);
  base::JsonWriter json(out, static_cast<int>(close / 2));
  WriteRunMetricsJson(json, m);
}

}  // namespace strip::core
