#include "core/metrics.h"

#include "base/str_format.h"

namespace strip::core {

double RunMetrics::p_md() const {
  const std::uint64_t total = txns_terminal();
  if (total == 0) return 0.0;
  return static_cast<double>(total - txns_committed) /
         static_cast<double>(total);
}

double RunMetrics::p_success() const {
  const std::uint64_t total = txns_terminal();
  if (total == 0) return 0.0;
  return static_cast<double>(txns_committed_fresh) /
         static_cast<double>(total);
}

double RunMetrics::p_suc_nontardy() const {
  if (txns_committed == 0) return 0.0;
  return static_cast<double>(txns_committed_fresh) /
         static_cast<double>(txns_committed);
}

double RunMetrics::av() const {
  if (observed_seconds <= 0) return 0.0;
  return value_committed / observed_seconds;
}

double RunMetrics::rho_t() const {
  if (observed_seconds <= 0) return 0.0;
  return cpu_txn_seconds / observed_seconds;
}

double RunMetrics::rho_u() const {
  if (observed_seconds <= 0) return 0.0;
  return cpu_update_seconds / observed_seconds;
}

double RunMetrics::rho_r() const {
  if (observed_seconds <= 0) return 0.0;
  return cpu_remote_seconds / observed_seconds;
}

std::string RunMetrics::ToString() const {
  std::string out = base::StrFormat(
      "observed %.1fs\n"
      "txns: arrived=%llu committed=%llu (fresh=%llu stale=%llu) "
      "missed=%llu infeasible=%llu stale-aborted=%llu inflight=%llu\n"
      "updates: arrived=%llu installed=%llu unworthy=%llu on-demand=%llu "
      "dropped(os=%llu uq=%llu expired=%llu)\n"
      "cpu: rho_t=%.3f rho_u=%.3f total=%.3f\n"
      "staleness: f_old_l=%.3f f_old_h=%.3f\n"
      "derived: p_MD=%.3f p_success=%.3f p_suc|nontardy=%.3f AV=%.2f\n"
      "response: mean=%.3fs p50=%.3fs p95=%.3fs p99=%.3fs\n"
      "queues: uq_avg=%.1f uq_max=%llu os_avg=%.1f\n"
      "extensions: triggers=%llu io_stalls=%llu\n",
      observed_seconds, (unsigned long long)txns_arrived,
      (unsigned long long)txns_committed,
      (unsigned long long)txns_committed_fresh,
      (unsigned long long)txns_committed_stale,
      (unsigned long long)txns_missed_deadline,
      (unsigned long long)txns_infeasible,
      (unsigned long long)txns_stale_aborted,
      (unsigned long long)txns_inflight_at_end,
      (unsigned long long)updates_arrived,
      (unsigned long long)updates_installed,
      (unsigned long long)updates_unworthy,
      (unsigned long long)updates_applied_on_demand,
      (unsigned long long)updates_dropped_os_full,
      (unsigned long long)updates_dropped_uq_overflow,
      (unsigned long long)updates_dropped_expired, rho_t(), rho_u(),
      rho_total(), f_old_low, f_old_high, p_md(), p_success(),
      p_suc_nontardy(), av(), response_mean, response_p50, response_p95,
      response_p99, uq_length_avg, (unsigned long long)uq_length_max,
      os_length_avg, (unsigned long long)triggers_fired,
      (unsigned long long)io_stalls);
  // The fault block only appears when something fault-related actually
  // happened, keeping no-fault output byte-identical to older builds.
  const bool any_fault_activity =
      fault_windows != 0 || updates_lost_fault != 0 ||
      updates_duplicated_fault != 0 || updates_reordered_fault != 0 ||
      updates_outage_deferred != 0 || updates_shed_by_class[0] != 0 ||
      updates_shed_by_class[1] != 0 || governor_engagements != 0 ||
      outage_recovery_seconds >= 0 || txns_missed_in_fault != 0;
  if (any_fault_activity) {
    out += base::StrFormat(
        "faults: windows=%llu lost=%llu dup=%llu reordered=%llu "
        "deferred=%llu shed(l=%llu h=%llu) governor(n=%llu t=%.1fs) "
        "recovery=%.3fs max_stale=%.3f missed_in_fault=%llu\n",
        (unsigned long long)fault_windows,
        (unsigned long long)updates_lost_fault,
        (unsigned long long)updates_duplicated_fault,
        (unsigned long long)updates_reordered_fault,
        (unsigned long long)updates_outage_deferred,
        (unsigned long long)updates_shed_by_class[0],
        (unsigned long long)updates_shed_by_class[1],
        (unsigned long long)governor_engagements,
        governor_engaged_seconds, outage_recovery_seconds,
        max_stale_excursion, (unsigned long long)txns_missed_in_fault);
  }
  // Likewise the cross-shard block: only printed when the run actually
  // exchanged remote reads, so uniprocessor (shards=1) output stays
  // byte-identical to the pre-sharding model.
  const bool any_remote_activity =
      txns_cross_shard != 0 || remote_reads_issued != 0 ||
      remote_reads_served != 0 || remote_replies_orphaned != 0 ||
      remote_heals != 0 || remote_stale_replies != 0 ||
      remote_wait_seconds != 0 || cpu_remote_seconds != 0;
  if (any_remote_activity) {
    out += base::StrFormat(
        "remote: txns=%llu issued=%llu served=%llu orphaned=%llu "
        "heals=%llu stale=%llu wait=%.3fs rho_r=%.3f\n",
        (unsigned long long)txns_cross_shard,
        (unsigned long long)remote_reads_issued,
        (unsigned long long)remote_reads_served,
        (unsigned long long)remote_replies_orphaned,
        (unsigned long long)remote_heals,
        (unsigned long long)remote_stale_replies, remote_wait_seconds,
        rho_r());
  }
  // The interconnect block: only when the link model actually bit — a
  // retry, a timeout, a lost message, or a partition window — so
  // perfect-fabric output stays byte-identical.
  const bool any_link_activity =
      remote_retries != 0 || remote_timeouts != 0 ||
      remote_degraded_reads != 0 || txns_remote_unavailable != 0 ||
      link_messages_lost != 0 || partition_windows != 0;
  if (any_link_activity) {
    out += base::StrFormat(
        "interconnect: retries=%llu timeouts=%llu degraded=%llu "
        "unavailable=%llu lost=%llu partitions(n=%llu t=%.1fs) "
        "reconnect=%.3fs\n",
        (unsigned long long)remote_retries,
        (unsigned long long)remote_timeouts,
        (unsigned long long)remote_degraded_reads,
        (unsigned long long)txns_remote_unavailable,
        (unsigned long long)link_messages_lost,
        (unsigned long long)partition_windows, partition_seconds,
        time_to_reconnect);
  }
  // Cluster-true percentiles: only present on a multi-shard aggregate
  // (the -1 sentinel keeps every other dump byte-identical).
  if (response_p50_cluster >= 0) {
    out += base::StrFormat(
        "cluster response: p50=%.3fs p95=%.3fs p99=%.3fs "
        "(worst-shard p99=%.3fs)\n",
        response_p50_cluster, response_p95_cluster, response_p99_cluster,
        response_p99);
  }
  return out;
}

}  // namespace strip::core
