#ifndef WALLBENCH_CHECKS_H_
#define WALLBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/dipbench/config.h"
#include "src/dipbench/monitor.h"
#include "src/dipbench/scenario.h"

namespace wallbench {

/// Failures found by the output checks; empty means every check passed.
/// Each check computes its expectation apart from the code it checks.
struct CheckReport {
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  void Fail(const std::string& check, const std::string& what) {
    failures.push_back(check + ": " + what);
  }
  /// True when some failure was reported by `check`.
  bool Failed(const std::string& check) const;
};

/// NAVG, sigma+ and NAVG+ per process type, recomputed from the instance
/// records with the SPECIFICATION.md §5 formula, against the Monitor's
/// summary. Also compares instance and error counts per type.
void CheckMonitorMetrics(
    const std::vector<dipbench::core::InstanceRecord>& records,
    const std::vector<dipbench::ProcessMetrics>& summary,
    const dipbench::ScaleConfig& config, CheckReport* report);

/// Instances per process type against the decorator's submit counts and,
/// for an unshaped schedule, against the Table II formulas of
/// SPECIFICATION.md §4.
void CheckInstanceCounts(
    const std::vector<dipbench::core::InstanceRecord>& records,
    const std::map<std::string, uint64_t>& submits,
    const dipbench::ScaleConfig& config, bool shaped, CheckReport* report);

/// Warehouse consistency from plain Table scans (no ra queries): per
/// (year, month, city) revenue and order count of orders_mv against the
/// fact table, in the DWH and in each mart; the mart fact rows are exactly
/// the DWH rows whose city resolves, each in one mart; no clean CDB order
/// rows are left.
void CheckWarehouse(dipbench::Scenario* scenario, CheckReport* report);

/// SPECIFICATION.md §6: the failed_data row count equals the number of San
/// Diego messages P10 rejected in the last period.
void CheckRejectedMessages(
    dipbench::Scenario* scenario,
    const std::vector<dipbench::core::InstanceRecord>& records,
    const dipbench::ScaleConfig& config, CheckReport* report);

/// What the execution-dial invariance check compares.
struct DialOutput {
  uint64_t state_hash = 0;
  std::string monitor_csv;
};

/// The byte-identity contract: a run with execution dials set (workers,
/// columnar mode, memory budget) leaves the same landscape and Monitor CSV
/// as the reference dials. A failure names the first differing CSV row.
void CheckDialInvariance(const DialOutput& run, const DialOutput& reference,
                         CheckReport* report);

/// Every check on one finished run except dial invariance.
void CheckRun(dipbench::Scenario* scenario,
              const std::vector<dipbench::core::InstanceRecord>& records,
              const std::vector<dipbench::ProcessMetrics>& summary,
              const std::map<std::string, uint64_t>& submits,
              const dipbench::ScaleConfig& config, bool shaped,
              CheckReport* report);

}  // namespace wallbench

#endif  // WALLBENCH_CHECKS_H_
