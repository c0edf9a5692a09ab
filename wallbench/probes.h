#ifndef WALLBENCH_PROBES_H_
#define WALLBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/dipbench/scenario.h"
#include "wallbench/workload.h"

namespace wallbench {

/// Per-layer probes, timed on a finished run's own landscape. Each repeats
/// the kind of call the program makes; times are medians over `repeats`.
struct ProbeResult {
  double xml_roundtrip_ms = 0.0;  ///< RowSetToXml/WriteXml/ParseXml/XmlToRowSet
  uint64_t xml_bytes = 0;         ///< serialized XML of one pass
  double storage_scan_ms = 0.0;   ///< full Table::Scan of every table
  double storage_insert_ms = 0.0; ///< re-insert every table into a fresh one
  double ra_plan_ms = 0.0;        ///< join, aggregate, sort, union-distinct
  std::vector<std::string> failures;  ///< a probe's output did not check
};

/// Every table a run touches: all scenario databases, plus the federated
/// engine's integration-services database when there is one.
std::vector<dipbench::Table*> AllTables(dipbench::Scenario* scenario,
                                        dipbench::core::EngineBase* engine);

ProbeResult RunProbes(dipbench::Scenario* scenario,
                      dipbench::core::EngineBase* engine,
                      const Workload& workload, int repeats);

}  // namespace wallbench

#endif  // WALLBENCH_PROBES_H_
