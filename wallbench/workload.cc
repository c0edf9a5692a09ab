#include "wallbench/workload.h"

#include <time.h>

#include "src/harness/harness.h"
#include "src/scenario/manifest.h"

namespace wallbench {

using namespace dipbench;

namespace {

struct WorkloadSpec {
  const char* name;
  ExecMode exec_mode;
};

// The manifest holds the landscape, schedule and execution dials; the plan
// execution mode is the one dial manifests cannot express.
constexpr WorkloadSpec kSpecs[] = {
    {"fig10_federated", ExecMode::kPipeline},
    {"dataflow_msgs_parallel", ExecMode::kPipeline},
    {"columnar_spill", ExecMode::kColumnar},
};

// Process CPU time (all threads), in ms.
double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadSpec& s : kSpecs) out.push_back(s.name);
    return out;
  }();
  return names;
}

Workload Workload::Reference() const {
  Workload ref = *this;
  ref.config.workers = 1;
  ref.config.operator_memory_budget = 0;
  ref.exec_mode = ExecMode::kPipeline;
  return ref;
}

bool Workload::UsesExecutionDials() const {
  return config.workers != 1 || config.operator_memory_budget != 0 ||
         exec_mode != ExecMode::kPipeline;
}

Result<Workload> LoadWorkload(const std::string& manifest_dir,
                              const std::string& name, uint64_t seed) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) spec = &s;
  }
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  DIP_ASSIGN_OR_RETURN(
      scenario::ScenarioManifest manifest,
      scenario::ScenarioManifest::Load(manifest_dir + "/" + name + ".json"));
  std::vector<harness::RunSpec> runs = manifest.Expand();
  if (runs.size() != 1) {
    return Status::InvalidArgument("workload manifest " + name +
                                   " must expand to exactly one run");
  }
  Workload w;
  w.name = name;
  w.engine = runs[0].engine;
  w.config = runs[0].config;
  w.config.seed = seed;
  w.exec_mode = spec->exec_mode;
  for (const auto& [stream, shape] : w.config.traffic) {
    if (shape.enabled()) w.shaped = true;
  }
  return w;
}

Status TimedEngine::Submit(core::ProcessEvent ev) {
  ++submits_[ev.process_id];
  if (!traced_) return inner_->Submit(std::move(ev));

  Clock::time_point start = Clock::now();
  const int period = drains_ / kDrainsPerPeriod;
  if (drains_ % kDrainsPerPeriod == 0 && !in_burst_) {
    // First Submit of the period: everything since the period started was
    // Initializer::InitializePeriod.
    init_ms_ += MsBetween(period_start_, start);
    spans_.push_back({"init", period, period_start_, start});
  } else if (in_burst_) {
    msggen_ms_ += MsBetween(last_submit_end_, start);
  }
  Status st = inner_->Submit(std::move(ev));
  last_submit_end_ = Clock::now();
  submit_ms_ += MsBetween(start, last_submit_end_);
  in_burst_ = true;
  return st;
}

Status TimedEngine::RunUntilIdle() {
  const int phase = drains_ % kDrainsPerPeriod;
  const int period = drains_ / kDrainsPerPeriod;
  Clock::time_point start{};
  double cpu_start = 0.0;
  if (traced_) {
    start = Clock::now();
    if (phase == 0) cpu_start = ProcessCpuMs();
  }
  Status st = inner_->RunUntilIdle();
  Clock::time_point end = Clock::now();
  if (traced_) {
    if (phase == 0) ab_cpu_ms_ += ProcessCpuMs() - cpu_start;
    drain_ms_[phase] += MsBetween(start, end);
    spans_.push_back({std::string("drain ") + kDrainNames[phase], period,
                      start, end});
    in_burst_ = false;
  }
  ++drains_;
  if (drains_ % kDrainsPerPeriod == 0) {
    period_ms_.push_back(MsBetween(period_start_, end));
    if (traced_) {
      spans_.push_back({"period", period, period_start_, end});
    }
    period_start_ = end;
  }
  return st;
}

void TimedEngine::Reset() {
  inner_->Reset();
  // Client::Run resets the engine right before its first period.
  drains_ = 0;
  in_burst_ = false;
  period_ms_.clear();
  period_start_ = Clock::now();
}

Result<Round> RunRound(const Workload& workload, bool traced) {
  ScopedExecMode mode(workload.exec_mode);
  Round round;

  Clock::time_point t0 = Clock::now();
  DIP_ASSIGN_OR_RETURN(round.scenario, Scenario::Create());
  Clock::time_point t1 = Clock::now();
  DIP_ASSIGN_OR_RETURN(
      round.engine,
      harness::MakeEngine(workload.engine, round.scenario->network(),
                          workload.config.worker_slots));
  Clock::time_point t2 = Clock::now();
  round.timed = std::make_unique<TimedEngine>(round.engine.get(), traced);
  Client client(round.scenario.get(), round.timed.get(), workload.config);
  DIP_RETURN_NOT_OK(client.DeployProcesses());
  round.setup_end = Clock::now();
  round.create_ms = MsBetween(t0, t1);
  round.make_engine_ms = MsBetween(t1, t2);
  round.deploy_ms = MsBetween(t2, round.setup_end);

  if (traced) {
    round.trace = std::make_unique<obs::TraceRecorder>();
    round.metrics = std::make_unique<obs::MetricsRegistry>();
    obs::ObsContext obs(round.trace.get(), round.metrics.get());
    round.engine->SetObserver(obs);
    round.scenario->network()->SetObserver(obs);
    client.SetObserver(obs);
  }

  ResetSpillStats();
  Clock::time_point run_start = Clock::now();
  Result<BenchmarkResult> result = client.Run();
  Clock::time_point run_end = Clock::now();
  if (!result.ok()) return result.status();
  round.result = std::move(result).ValueOrDie();
  round.spill = GetSpillStats();
  round.run_ms = MsBetween(run_start, run_end);
  round.post_ms = MsBetween(round.timed->last_drain_end(), run_end);
  if (traced) {
    std::vector<Span>& spans = round.timed->spans();
    spans.push_back({"scenario_create", -1, t0, t1});
    spans.push_back({"make_engine", -1, t1, t2});
    spans.push_back({"deploy", -1, t2, round.setup_end});
    spans.push_back({"run", -1, run_start, run_end});
    spans.push_back({"post", -1, round.timed->last_drain_end(), run_end});
  }
  return round;
}

}  // namespace wallbench
