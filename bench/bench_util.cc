#include "bench_util.h"

#include <iostream>

#include "base/atomic_io.h"
#include "exp/report.h"

namespace strip::bench {

std::vector<double> LambdaTSweep() { return {1, 5, 10, 15, 20, 25}; }

exp::SweepSpec BaseSpec(const exp::BenchArgs& args) {
  exp::SweepSpec spec;
  args.ApplyTo(spec.base);
  spec.replications = args.replications;
  spec.base_seed = args.seed;
  spec.parallel = args.parallel;
  return spec;
}

double MetricAv(const core::RunMetrics& m) { return m.av(); }
double MetricPmd(const core::RunMetrics& m) { return m.p_md(); }
double MetricPsuccess(const core::RunMetrics& m) { return m.p_success(); }
double MetricPsucNontardy(const core::RunMetrics& m) {
  return m.p_suc_nontardy();
}
double MetricFoldLow(const core::RunMetrics& m) { return m.f_old_low; }
double MetricFoldHigh(const core::RunMetrics& m) { return m.f_old_high; }
double MetricRhoT(const core::RunMetrics& m) { return m.rho_t(); }
double MetricRhoU(const core::RunMetrics& m) { return m.rho_u(); }

void Emit(const exp::BenchArgs& args, const exp::SweepSpec& spec,
          const exp::SweepResult& result, const char* metric_name,
          const exp::MetricFn& metric) {
  exp::PrintSeries(std::cout, spec, result, metric_name, metric);
  if (args.csv) {
    exp::PrintSeriesCsv(std::cout, spec, result, metric_name, metric);
  }
  if (!args.json.empty()) {
    // Series accumulated over the lifetime of the bench binary. The
    // file is rewritten atomically after each Emit, so an interrupted
    // run still leaves a valid document.
    static std::vector<exp::Series> series;
    series.push_back(exp::MakeSeries(spec, result, metric_name, metric));
    if (const auto error =
            base::WriteFileAtomic(args.json, exp::SeriesJson(series))) {
      std::cerr << "bench: cannot write JSON results: " << *error << "\n";
    }
  }
}

}  // namespace strip::bench
