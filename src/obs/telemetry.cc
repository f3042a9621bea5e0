#include "obs/telemetry.h"

#include <optional>

#include "base/check.h"
#include "base/json_writer.h"
#include "core/metrics_json.h"

namespace strip::obs {

namespace {

using base::JsonWriter;

void WriteHistogramJson(JsonWriter& json, const LatencyHistogram& h) {
  json.BeginObject();
  json.Key("count").Number(h.count());
  json.Key("mean").Number(h.mean());
  json.Key("min").Number(h.min_sample());
  json.Key("max").Number(h.max_sample());
  json.Key("p50").Number(h.Quantile(0.50));
  json.Key("p90").Number(h.Quantile(0.90));
  json.Key("p99").Number(h.Quantile(0.99));
  json.Key("underflow").Number(h.underflow());
  json.Key("overflow").Number(h.overflow());
  json.Key("range").BeginArray(JsonWriter::Layout::kInline);
  json.Number(h.min()).Number(h.max()).EndArray();
  json.Key("buckets_per_decade").Number(h.buckets_per_decade());
  // Sparse bucket dump: [index, count] for the occupied buckets only
  // (edges are derivable from range and buckets_per_decade).
  json.Key("buckets").BeginArray(JsonWriter::Layout::kInline);
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (h.bucket_value(i) == 0) continue;
    json.BeginArray(JsonWriter::Layout::kInline);
    json.Number(i).Number(h.bucket_value(i)).EndArray();
  }
  json.EndArray();
  json.EndObject();
}

template <typename T>
void WriteSeriesColumn(JsonWriter& json, const char* name,
                       const std::vector<PeriodicSampler::Sample>& samples,
                       T PeriodicSampler::Sample::* field) {
  json.Key(name).BeginArray(JsonWriter::Layout::kInline);
  for (const PeriodicSampler::Sample& sample : samples) {
    json.Number(sample.*field);
  }
  json.EndArray();
}

}  // namespace

RunTelemetry::RunTelemetry(core::System* system, Options options)
    : system_(system),
      options_(options),
      response_(MakeHistogram()),
      slack_(MakeHistogram()),
      age_(MakeHistogram()) {
  STRIP_CHECK(system != nullptr);
  sampler_ = std::make_unique<PeriodicSampler>(
      system, PeriodicSampler::Options{options.sample_interval});
  system_->AddObserver(sampler_.get());
  system_->AddObserver(this);
}

RunTelemetry::~RunTelemetry() {
  system_->RemoveObserver(this);
  system_->RemoveObserver(sampler_.get());
}

LatencyHistogram RunTelemetry::MakeHistogram() const {
  return LatencyHistogram(options_.histogram_min_seconds,
                          options_.histogram_max_seconds,
                          options_.buckets_per_decade);
}

void RunTelemetry::OnTransactionTerminal(sim::Time now,
                                         const txn::Transaction& transaction) {
  if (transaction.outcome() != txn::TxnOutcome::kCommitted) return;
  response_.Add(now - transaction.arrival_time());
  slack_.Add(transaction.deadline() - now);
}

void RunTelemetry::OnUpdateInstalled(sim::Time now, const db::Update& update,
                                     const txn::Transaction* on_demand_by) {
  (void)on_demand_by;
  age_.Add(now - update.generation_time);
}

void RunTelemetry::OnStaleRead(sim::Time now,
                               const txn::Transaction& transaction,
                               db::ObjectId object) {
  (void)now;
  (void)transaction;
  (void)object;
  ++stale_reads_seen_;
}

void RunTelemetry::OnPhase(sim::Time now, Phase phase) {
  switch (phase) {
    case Phase::kWarmupEnd:
      // Restart the distributions so they cover the same observation
      // window as RunMetrics.
      warmup_end_ = now;
      response_ = MakeHistogram();
      slack_ = MakeHistogram();
      age_ = MakeHistogram();
      stale_reads_seen_ = 0;
      break;
    case Phase::kRunEnd:
      run_end_ = now;
      break;
  }
}

void RunTelemetry::WriteJson(std::ostream& out,
                             const core::RunMetrics& metrics) const {
  const core::Config& config = system_->config();
  JsonWriter json(out);
  json.BeginObject();
  json.Key("schema").String(kTelemetrySchema);

  json.Key("run").BeginObject();
  json.Key("policy").String(core::PolicyKindName(config.policy));
  json.Key("staleness").String(db::StalenessCriterionName(config.staleness));
  json.Key("seed").Number(options_.seed);
  json.Key("shard").Number(options_.shard);
  json.Key("shards").Number(options_.shards);
  json.Key("sim_seconds").Number(config.sim_seconds);
  json.Key("warmup_seconds").Number(config.warmup_seconds);
  json.Key("lambda_t").Number(config.lambda_t);
  json.Key("lambda_u").Number(config.lambda_u);
  json.Key("alpha").Number(config.alpha);
  json.EndObject();

  // Null when the boundary never happened (< 0 sentinel).
  const auto time_or_null = [](sim::Time t) {
    return t < 0 ? std::nullopt : std::optional(t);
  };
  json.Key("phases").BeginObject();
  json.Key("warmup_end").Number(time_or_null(warmup_end_));
  json.Key("run_end").Number(time_or_null(run_end_));
  json.EndObject();

  using Sample = PeriodicSampler::Sample;
  const std::vector<Sample>& samples = sampler_->samples();
  json.Key("series").BeginObject();
  json.Key("interval_seconds").Number(options_.sample_interval);
  WriteSeriesColumn(json, "time", samples, &Sample::time);
  WriteSeriesColumn(json, "uq_depth", samples, &Sample::uq_depth);
  WriteSeriesColumn(json, "os_depth", samples, &Sample::os_depth);
  WriteSeriesColumn(json, "ready_queue", samples, &Sample::ready_queue);
  WriteSeriesColumn(json, "live_txns", samples, &Sample::live_txns);
  WriteSeriesColumn(json, "f_stale_low", samples, &Sample::f_stale_low);
  WriteSeriesColumn(json, "f_stale_high", samples, &Sample::f_stale_high);
  WriteSeriesColumn(json, "cpu_share_txn", samples, &Sample::cpu_share_txn);
  WriteSeriesColumn(json, "cpu_share_updater", samples,
                    &Sample::cpu_share_updater);
  WriteSeriesColumn(json, "cpu_share_idle", samples, &Sample::cpu_share_idle);
  json.EndObject();

  json.Key("histograms").BeginObject();
  WriteHistogramJson(json.Key("response_seconds"), response_);
  WriteHistogramJson(json.Key("slack_at_commit_seconds"), slack_);
  WriteHistogramJson(json.Key("update_age_at_install_seconds"), age_);
  json.EndObject();

  json.Key("stale_reads_seen").Number(stale_reads_seen_);
  json.Key("metrics");
  core::WriteRunMetricsJson(json, metrics);
  json.EndObject();
  out << "\n";
}

}  // namespace strip::obs
