// Wall-clock benchmark of whole DIPBench runs. One invocation runs one
// workload repeatedly for --seconds, checks every run's outputs, and prints
// its metrics; the last stdout line is one JSON result object.
//
//   wallbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --manifest-dir=<dir> --out-dir=<dir>
//
// --trace=0 measures the end-to-end metrics on untraced runs. --trace=1
// alternates untraced and traced runs and reports the per-layer metrics of
// the traced ones, the tracing overhead, and per-layer probes on the last
// run's landscape; it writes the benchmark's spans to --out-dir.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/string_util.h"
#include "src/conformance/digest.h"
#include "src/dipbench/verify.h"
#include "wallbench/checks.h"
#include "wallbench/probes.h"
#include "wallbench/workload.h"

using namespace dipbench;
using namespace wallbench;

namespace {

// Taken during static initialization, before main: set-up time is measured
// from (nearly) the start of the process.
const Clock::time_point kProcessStart = Clock::now();

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer numbers of one traced run.
struct LayerSample {
  double run_ms = 0, create_ms = 0, make_engine_ms = 0, deploy_ms = 0;
  double init_ms = 0, msggen_ms = 0, submit_ms = 0, post_ms = 0;
  std::array<double, kDrainsPerPeriod> drain_ms{};
  double ab_cpu_ratio = 0, monitor_ms = 0, verify_ms = 0, uncovered_ms = 0;
};

/// Exact counts read from public state after a run, before any check or
/// probe reads a table.
struct Counts {
  uint64_t instances = 0, submits = 0, failed = 0;
  uint64_t net_interactions = 0, net_bytes = 0, net_rows = 0;
  uint64_t rows_read = 0, rows_written = 0;
  uint64_t spill_runs = 0, spill_bytes = 0, operator_dispatches = 0;
};

Counts ReadCounts(Round& round) {
  Counts c;
  for (const auto& r : round.timed->records()) {
    ++c.instances;
    if (!r.ok) ++c.failed;
    c.net_interactions += r.net.interactions;
    c.net_bytes += r.net.bytes;
    c.net_rows += r.net.rows;
  }
  for (const auto& [type, n] : round.timed->submits()) c.submits += n;
  for (Table* t : AllTables(round.scenario.get(), round.engine.get())) {
    c.rows_read += t->rows_read();
    c.rows_written += t->rows_written();
  }
  c.spill_runs = round.spill.runs;
  c.spill_bytes = round.spill.bytes;
  if (round.metrics) {
    if (const obs::Counter* ops =
            round.metrics->FindCounter("engine.operator_dispatches")) {
      c.operator_dispatches = ops->value();
    }
  }
  return c;
}

LayerSample TraceSample(Round& round, CheckReport* report) {
  const TimedEngine& te = *round.timed;
  LayerSample s;
  s.run_ms = round.run_ms;
  s.create_ms = round.create_ms;
  s.make_engine_ms = round.make_engine_ms;
  s.deploy_ms = round.deploy_ms;
  s.init_ms = te.init_ms();
  s.msggen_ms = te.msggen_ms();
  s.submit_ms = te.submit_ms();
  s.post_ms = round.post_ms;
  s.drain_ms = te.drain_ms();
  s.ab_cpu_ratio = te.ab_cpu_ms() / te.drain_ms()[0];
  double covered = s.init_ms + s.msggen_ms + s.submit_ms + s.post_ms;
  for (double d : s.drain_ms) covered += d;
  s.uncovered_ms = s.run_ms - covered;

  // The post phase's two calls, timed again on the run's own state.
  Clock::time_point t0 = Clock::now();
  Monitor monitor(round.result.config);
  monitor.Collect(te.records());
  std::vector<ProcessMetrics> summary = monitor.Summarize();
  Clock::time_point t1 = Clock::now();
  Result<VerificationReport> verification =
      VerifyIntegration(round.scenario.get());
  Clock::time_point t2 = Clock::now();
  s.monitor_ms = MsBetween(t0, t1);
  s.verify_ms = MsBetween(t1, t2);
  if (Monitor::ToCsv(summary) != Monitor::ToCsv(round.result.per_process)) {
    report->Fail("monitor", "a second Summarize gives another CSV");
  }
  if (!verification.ok()) {
    report->Fail("verify", verification.status().ToString());
  }

  // The program's own trace/Monitor reconciliation: summed Cc/Cm/Cp leaf
  // spans against the Monitor's per-type totals, within 1%.
  const ScaleConfig& config = round.result.config;
  const obs::Category cats[] = {obs::Category::kComm,
                                obs::Category::kManagement,
                                obs::Category::kProcessing};
  for (int c = 0; c < 3; ++c) {
    double traced = config.MsToTu(round.trace->CategoryTotalMs(cats[c]));
    double monitored = 0;
    for (const auto& m : round.result.per_process) {
      double avg = c == 0 ? m.avg_cc_tu : c == 1 ? m.avg_cm_tu : m.avg_cp_tu;
      monitored += avg * m.instances;
    }
    if (std::fabs(traced - monitored) >
        0.01 * std::max(1.0, std::max(traced, monitored))) {
      report->Fail("reconciliation",
                   StrFormat("category %d: trace %.3f tu vs Monitor %.3f tu",
                             c, traced, monitored));
    }
  }
  return s;
}

void WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& rounds) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (const Span& s : rounds[r]) {
      double ts = std::chrono::duration<double, std::micro>(s.start -
                                                            kProcessStart)
                      .count();
      double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r << ",\"ts\":"
          << Number(ts) << ",\"dur\":" << Number(dur)
          << ",\"args\":{\"period\":" << s.period << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
}

DialOutput Dial(Round& round) {
  DialOutput d;
  d.state_hash = conformance::CaptureStateDigest(round.scenario.get())
                     .state_hash;
  d.monitor_csv = Monitor::ToCsv(round.result.per_process);
  return d;
}

int Usage(const flags::FlagSet& flags, const std::string& why) {
  std::fprintf(stderr, "%s\n%s", why.c_str(), flags.Usage().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagSet flags("wallbench");
  flags.Define("workload", "fig10_federated | dataflow_msgs_parallel | "
                           "columnar_spill")
      .Define("seed", "workload seed (reference 20080412)")
      .Define("seconds", "measure for this long; whole runs only")
      .Define("trace", "0 = end-to-end metrics, 1 = per-layer metrics")
      .Define("manifest-dir", "directory of the workload manifests")
      .Define("out-dir", "where a traced invocation writes its spans");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    return Usage(flags, st.ToString());
  }
  uint64_t seed = 20080412;
  if (flags.Has("seed")) {
    const std::string s = flags.Get("seed");
    auto res = std::from_chars(s.data(), s.data() + s.size(), seed);
    if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
      return Usage(flags, "invalid --seed");
    }
  }
  Result<double> seconds = flags.GetDouble("seconds", 10.0);
  Result<int> trace_flag = flags.GetInt("trace", 0);
  if (!seconds.ok() || *seconds <= 0) return Usage(flags, "invalid --seconds");
  if (!trace_flag.ok() || (*trace_flag != 0 && *trace_flag != 1)) {
    return Usage(flags, "invalid --trace");
  }
  const bool trace = *trace_flag == 1;
  Result<Workload> loaded = LoadWorkload(flags.Get("manifest-dir", "."),
                                         flags.Get("workload"), seed);
  if (!loaded.ok()) return Usage(flags, loaded.status().ToString());
  const Workload& workload = *loaded;

  CheckReport report;
  std::vector<double> run_ms, traced_run_ms, period_ms;
  std::vector<LayerSample> samples;
  std::vector<std::vector<Span>> spans;
  double total_run_ms = 0.0, setup_s = 0.0;
  uint64_t attempted = 0, failed = 0, instances = 0;
  Counts counts;
  std::optional<Round> last;
  bool traced_round = false;
  Clock::time_point window_start{};

  // The first run of the process is a warm-up: its heap comes fresh from
  // the OS and its caches are cold, which makes it markedly slower than
  // the runs after it. It is checked and counted, but its times are not
  // part of the end-to-end metrics (set-up time aside).
  for (int i = 0;; ++i) {
    const bool warmup = i == 0;
    Result<Round> round = RunRound(workload, traced_round);
    if (!round.ok()) {
      std::fprintf(stderr, "run %d failed: %s\n", i,
                   round.status().ToString().c_str());
      return 1;
    }
    if (i == 0) {
      setup_s = std::chrono::duration<double>(round->setup_end -
                                              kProcessStart).count();
      window_start = round->setup_end;
    }
    Counts c = ReadCounts(*round);
    if (workload.config.operator_memory_budget > 0 && c.spill_runs == 0) {
      report.Fail("spill", "a run under an operator memory budget spilled "
                           "nothing");
    }
    attempted += c.submits;
    failed += c.failed;
    CheckRun(round->scenario.get(), round->timed->records(),
             round->result.per_process, round->timed->submits(),
             workload.config, workload.shaped, &report);
    if (traced_round) {
      traced_run_ms.push_back(round->run_ms);
      samples.push_back(TraceSample(*round, &report));
      spans.push_back(std::move(round->timed->spans()));
      counts = c;
    } else if (!warmup) {
      run_ms.push_back(round->run_ms);
      total_run_ms += round->run_ms;
      instances += c.instances;
      const auto& p = round->timed->period_ms();
      period_ms.insert(period_ms.end(), p.begin(), p.end());
    }
    const bool window_over =
        MsBetween(window_start, Clock::now()) >= *seconds * 1000.0;
    if (window_over && !run_ms.empty() && (!trace || traced_round)) {
      last.emplace(std::move(*round));
      break;
    }
    if (trace) traced_round = !traced_round;
  }
  // Peak memory of the measured runs, before probes and the reference run.
  const double peak_rss_mib = PeakRssMib();

  ProbeResult probes;
  if (trace) {
    probes = RunProbes(last->scenario.get(), last->engine.get(), workload, 5);
    for (const std::string& f : probes.failures) report.Fail("probe", f);
    std::string path = flags.Get("out-dir", ".") + "/" + workload.name +
                       "-seed" + std::to_string(seed) + "-spans.json";
    WriteSpans(path, spans);
    std::printf("spans: %s\n", path.c_str());
  }
  if (workload.UsesExecutionDials()) {
    DialOutput run = Dial(*last);
    last.reset();
    Result<Round> reference = RunRound(workload.Reference(), false);
    if (!reference.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    DialOutput ref = Dial(*reference);
    std::printf("dial invariance: state %016llx, reference state %016llx\n",
                static_cast<unsigned long long>(run.state_hash),
                static_cast<unsigned long long>(ref.state_hash));
    CheckDialInvariance(run, ref, &report);
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"run_s", Median(run_ms) / 1000.0, "s"},
        {"instances_per_s",
         static_cast<double>(instances) / (total_run_ms / 1000.0), "1/s"},
        {"period_p50_ms", Quantile(period_ms, 0.5), "ms"},
        {"period_p90_ms", Quantile(period_ms, 0.9), "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
    };
  } else {
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const LayerSample& s : samples) v.push_back(field(s));
      return Median(v);
    };
    metrics = {
        {"dipbench.scenario_create_ms",
         med([](const LayerSample& s) { return s.create_ms; }), "ms"},
        {"harness.make_engine_ms",
         med([](const LayerSample& s) { return s.make_engine_ms; }), "ms"},
        {"core.deploy_ms",
         med([](const LayerSample& s) { return s.deploy_ms; }), "ms"},
        {"dipbench.init_ms",
         med([](const LayerSample& s) { return s.init_ms; }), "ms"},
        {"dipbench.msggen_ms",
         med([](const LayerSample& s) { return s.msggen_ms; }), "ms"},
        {"core.submit_ms",
         med([](const LayerSample& s) { return s.submit_ms; }), "ms"},
    };
    for (int d = 0; d < kDrainsPerPeriod; ++d) {
      metrics.push_back({std::string("core.") + kDrainNames[d] + "_ms",
                         med([d](const LayerSample& s) {
                           return s.drain_ms[d];
                         }),
                         "ms"});
    }
    std::vector<Metric> rest = {
        {"core.ab_cpu_ratio",
         med([](const LayerSample& s) { return s.ab_cpu_ratio; }), "ratio"},
        {"dipbench.post_ms",
         med([](const LayerSample& s) { return s.post_ms; }), "ms"},
        {"dipbench.monitor_ms",
         med([](const LayerSample& s) { return s.monitor_ms; }), "ms"},
        {"dipbench.verify_ms",
         med([](const LayerSample& s) { return s.verify_ms; }), "ms"},
        {"bench.uncovered_ms",
         med([](const LayerSample& s) { return s.uncovered_ms; }), "ms"},
        {"bench.traced_run_ms", Median(traced_run_ms), "ms"},
        {"bench.trace_overhead_ms", Median(traced_run_ms) - Median(run_ms),
         "ms"},
        {"xml.resultset_roundtrip_ms", probes.xml_roundtrip_ms, "ms"},
        {"xml.bytes", static_cast<double>(probes.xml_bytes), "bytes"},
        {"storage.scan_ms", probes.storage_scan_ms, "ms"},
        {"storage.insert_ms", probes.storage_insert_ms, "ms"},
        {"ra.plan_ms", probes.ra_plan_ms, "ms"},
        {"core.instances", static_cast<double>(counts.instances), "count"},
        {"core.submits", static_cast<double>(counts.submits), "count"},
        {"net.interactions", static_cast<double>(counts.net_interactions),
         "count"},
        {"net.bytes", static_cast<double>(counts.net_bytes), "bytes"},
        {"net.rows", static_cast<double>(counts.net_rows), "count"},
        {"storage.rows_read", static_cast<double>(counts.rows_read), "count"},
        {"storage.rows_written", static_cast<double>(counts.rows_written),
         "count"},
        {"ra.spill.runs", static_cast<double>(counts.spill_runs), "count"},
        {"ra.spill.bytes", static_cast<double>(counts.spill_bytes), "bytes"},
        {"engine.operator_dispatches",
         static_cast<double>(counts.operator_dispatches), "count"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  }

  std::printf("workload %s seed %llu: warm-up + %zu untraced + %zu traced "
              "runs, %llu instances attempted, %llu failed\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              run_ms.size(), traced_run_ms.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string runs;
  for (double ms : run_ms) runs += StrFormat(" %.3f", ms / 1000.0);
  std::printf("untraced run_s:%s\n", runs.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED %s\n", f.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (report.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.ok() ? 0 : 1;
}
