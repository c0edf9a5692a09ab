#ifndef WALLBENCH_WORKLOAD_H_
#define WALLBENCH_WORKLOAD_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/dipbench/client.h"
#include "src/dipbench/scenario.h"
#include "src/obs/obs.h"
#include "src/ra/plan.h"
#include "src/storage/spill.h"

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One named workload: a scenario manifest (engine + ScaleConfig) plus the
/// plan execution mode, which manifests do not carry.
struct Workload {
  std::string name;
  std::string engine;
  dipbench::ScaleConfig config;
  dipbench::ExecMode exec_mode = dipbench::ExecMode::kPipeline;
  /// A manifest traffic shape modulates the E1 series, so the Table II
  /// instance-count formulas do not apply.
  bool shaped = false;

  /// The same landscape and schedule at the reference execution dials:
  /// workers=1, pipeline mode, no operator memory budget.
  Workload Reference() const;
  /// True when any execution dial differs from the reference, so the
  /// workload's outputs must be compared against Reference().
  bool UsesExecutionDials() const;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Loads `<manifest_dir>/<name>.json` and applies the seed.
dipbench::Result<Workload> LoadWorkload(const std::string& manifest_dir,
                                        const std::string& name,
                                        uint64_t seed);

/// Drains per benchmark period, in Client::RunPeriod order.
constexpr int kDrainsPerPeriod = 6;
constexpr std::array<const char*, kDrainsPerPeriod> kDrainNames = {
    "ab", "p11", "p12", "p13", "p14", "p15"};

/// A wall-clock span the benchmark recorded around one seam.
struct Span {
  std::string name;
  int period = -1;  ///< -1 for spans outside the work phase
  Clock::time_point start;
  Clock::time_point end;
};

/// Decorator over the engine under test. Client drives it like any
/// IntegrationSystem; every call is forwarded unchanged. Untraced, it only
/// stamps period boundaries (the sixth drain of a period ends it) and
/// counts submits. Traced, it also times every Submit and RunUntilIdle,
/// the init interval before a period's first Submit, the message-making
/// gaps between Submits, and process CPU time over the A+B drains.
class TimedEngine final : public dipbench::core::IntegrationSystem {
 public:
  TimedEngine(dipbench::core::IntegrationSystem* inner, bool traced)
      : inner_(inner), traced_(traced) {}

  const std::string& name() const override { return inner_->name(); }
  dipbench::Status Deploy(
      const dipbench::core::ProcessDefinition& def) override {
    return inner_->Deploy(def);
  }
  dipbench::Status Submit(dipbench::core::ProcessEvent ev) override;
  dipbench::Status RunUntilIdle() override;
  dipbench::VirtualTime Now() const override { return inner_->Now(); }
  void AdvanceTo(dipbench::VirtualTime t) override { inner_->AdvanceTo(t); }
  const std::vector<dipbench::core::InstanceRecord>& records()
      const override {
    return inner_->records();
  }
  void ClearRecords() override { inner_->ClearRecords(); }
  void Reset() override;
  void SetRetryPolicy(const dipbench::core::RetryPolicy& policy) override {
    inner_->SetRetryPolicy(policy);
  }
  void SetExecWorkers(int workers) override {
    inner_->SetExecWorkers(workers);
  }

  /// Wall time of each completed period, from its start (the previous
  /// period's last drain, or Reset for period 0) to its sixth drain.
  const std::vector<double>& period_ms() const { return period_ms_; }
  /// Submits per process type.
  const std::map<std::string, uint64_t>& submits() const { return submits_; }
  Clock::time_point last_drain_end() const { return period_start_; }

  /// Traced-only totals, in ms.
  double init_ms() const { return init_ms_; }
  double msggen_ms() const { return msggen_ms_; }
  double submit_ms() const { return submit_ms_; }
  const std::array<double, kDrainsPerPeriod>& drain_ms() const {
    return drain_ms_;
  }
  double ab_cpu_ms() const { return ab_cpu_ms_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  dipbench::core::IntegrationSystem* inner_;
  bool traced_;
  int drains_ = 0;
  Clock::time_point period_start_{};
  std::vector<double> period_ms_;
  std::map<std::string, uint64_t> submits_;

  // Traced state.
  bool in_burst_ = false;  ///< a Submit happened since the last drain
  Clock::time_point last_submit_end_{};
  double init_ms_ = 0.0;
  double msggen_ms_ = 0.0;
  double submit_ms_ = 0.0;
  std::array<double, kDrainsPerPeriod> drain_ms_{};
  double ab_cpu_ms_ = 0.0;
  std::vector<Span> spans_;
};

/// One complete benchmark run of a workload: fresh Scenario, engine and
/// Client; set-up, Client::Run, and the state they leave behind.
struct Round {
  std::unique_ptr<dipbench::Scenario> scenario;
  std::unique_ptr<dipbench::core::EngineBase> engine;
  std::unique_ptr<TimedEngine> timed;
  std::unique_ptr<dipbench::obs::TraceRecorder> trace;
  std::unique_ptr<dipbench::obs::MetricsRegistry> metrics;
  dipbench::BenchmarkResult result;

  Clock::time_point setup_end;  ///< end of the first DeployProcesses
  double create_ms = 0.0;       ///< Scenario::Create
  double make_engine_ms = 0.0;  ///< harness::MakeEngine
  double deploy_ms = 0.0;       ///< Client::DeployProcesses
  double run_ms = 0.0;          ///< Client::Run
  double post_ms = 0.0;         ///< last drain end to Client::Run return
  dipbench::SpillStats spill;   ///< spill activity of this run alone
};

/// Runs one round. Traced rounds attach an obs::ObsContext (trace recorder
/// + metrics registry) to the engine, network and client.
dipbench::Result<Round> RunRound(const Workload& workload, bool traced);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOAD_H_
