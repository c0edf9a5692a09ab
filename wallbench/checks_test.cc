// The benchmark's own tests: every output check passes on a clean run and
// reports the fault planted by its matching mutator. Runs shortened
// workloads (5 periods) so the whole suite takes a few seconds.

#include <cstdio>
#include <functional>
#include <string>

#include "src/conformance/digest.h"
#include "wallbench/checks.h"
#include "wallbench/workload.h"

using namespace dipbench;
using namespace wallbench;

namespace {

// Planted faults: each makes one check fail.
namespace mutate {

Result<Table*> Find(Scenario* scenario, const std::string& db,
                    const std::string& table) {
  DIP_ASSIGN_OR_RETURN(Database * d, scenario->db(db));
  return d->GetTable(table);
}

// Applies `update` to the first row `pred` selects.
Status UpdateFirst(Table* t, const std::function<bool(const Row&)>& pred,
                   const std::function<void(Row*)>& update) {
  bool done = false;
  DIP_ASSIGN_OR_RETURN(
      size_t n, t->UpdateWhere(
                    [&](const Row& r) { return !done && pred(r); },
                    [&](Row* r) {
                      update(r);
                      done = true;
                    }));
  if (n != 1) return Status::NotFound("no row to mutate in " + t->name());
  return Status::OK();
}

Status DeleteFirst(Table* t) {
  bool done = false;
  size_t n = t->DeleteWhere([&](const Row&) {
    if (done) return false;
    done = true;
    return true;
  });
  if (n != 1) return Status::NotFound("no row to delete in " + t->name());
  return Status::OK();
}

Status DwhPriceCell(Scenario* scenario) {
  DIP_ASSIGN_OR_RETURN(Table * t, Find(scenario, "dwh_db", "orders"));
  const size_t price = *t->schema().IndexOf("price");
  return UpdateFirst(
      t, [&](const Row& r) { return !r[price].is_null(); },
      [&](Row* r) { (*r)[price] = Value::Double((*r)[price].AsDouble() + 1); });
}

Status SkewMvRow(Scenario* scenario) {
  DIP_ASSIGN_OR_RETURN(Table * t, Find(scenario, "dwh_db", "orders_mv"));
  return UpdateFirst(
      t, [](const Row& r) { return !r[3].is_null(); },
      [](Row* r) { (*r)[3] = Value::Double((*r)[3].AsDouble() + 1); });
}

Status DropRecord(std::vector<core::InstanceRecord>* records,
                  const std::string& type) {
  for (auto it = records->begin(); it != records->end(); ++it) {
    if (it->process_id == type) {
      records->erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no " + type + " record");
}

Status DropMartRow(Scenario* scenario) {
  for (const char* mart : {"dm_europe_db", "dm_asia_db",
                           "dm_united_states_db"}) {
    DIP_ASSIGN_OR_RETURN(Table * t, Find(scenario, mart, "orders"));
    if (!t->empty()) return DeleteFirst(t);
  }
  return Status::NotFound("every mart fact table is empty");
}

Status CleanCdbRow(Scenario* scenario) {
  DIP_ASSIGN_OR_RETURN(Table * t, Find(scenario, "cdb_db", "orders"));
  const size_t dirty = *t->schema().IndexOf("dirty");
  return UpdateFirst(
      t, [&](const Row& r) { return r[dirty].AsBool(); },
      [&](Row* r) { (*r)[dirty] = Value::Bool(false); });
}

Status DropFailedRow(Scenario* scenario) {
  DIP_ASSIGN_OR_RETURN(Table * t, Find(scenario, "cdb_db", "failed_data"));
  return DeleteFirst(t);
}

}  // namespace mutate

int failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "[  OK  ]" : "[ FAIL ]", what.c_str());
  if (!cond) ++failures;
}

Workload Load(const std::string& name) {
  Result<Workload> w = LoadWorkload(WALLBENCH_MANIFEST_DIR, name, 20080412);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    std::exit(1);
  }
  w->config.periods = 5;
  return *w;
}

Round Run(const Workload& w) {
  Result<Round> r = RunRound(w, false);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueOrDie();
}

CheckReport CheckAll(Round& r, const Workload& w,
                     const std::vector<core::InstanceRecord>& records) {
  CheckReport report;
  CheckRun(r.scenario.get(), records, r.result.per_process,
           r.timed->submits(), w.config, w.shaped, &report);
  for (const std::string& f : report.failures) {
    std::printf("         reported: %s\n", f.c_str());
  }
  return report;
}

// Plants a fault on a fresh run and expects `check` to report it.
void Planted(
    const std::string& what, const std::string& check,
    const std::function<Status(Round*, std::vector<core::InstanceRecord>*)>&
        mutator) {
  Workload w = Load("fig10_federated");
  Round r = Run(w);
  std::vector<core::InstanceRecord> records = r.timed->records();
  Status st = mutator(&r, &records);
  Expect(st.ok(), what + ": mutator applies (" + st.ToString() + ")");
  CheckReport report = CheckAll(r, w, records);
  Expect(report.Failed(check), what + " is reported by " + check);
}

DialOutput Dial(Round& r) {
  return {conformance::CaptureStateDigest(r.scenario.get()).state_hash,
          Monitor::ToCsv(r.result.per_process)};
}

}  // namespace

int main() {
  for (const std::string& name : WorkloadNames()) {
    Workload w = Load(name);
    Round r = Run(w);
    CheckReport report = CheckAll(r, w, r.timed->records());
    Expect(report.ok(), name + ": clean run passes every check");
    Expect(r.timed->period_ms().size() == 5,
           name + ": the decorator sees every period end");
  }

  using Records = std::vector<core::InstanceRecord>;
  Planted("one DWH price cell changed", "warehouse.dwh.orders_mv",
          [](Round* r, Records*) {
            return mutate::DwhPriceCell(r->scenario.get());
          });
  Planted("one orders_mv row skewed", "warehouse.dwh.orders_mv",
          [](Round* r, Records*) {
            return mutate::SkewMvRow(r->scenario.get());
          });
  Planted("one P13 record dropped (Monitor)", "monitor",
          [](Round*, Records* recs) {
            return mutate::DropRecord(recs, "P13");
          });
  Planted("one P04 record dropped (counts)", "instances.submitted",
          [](Round*, Records* recs) {
            return mutate::DropRecord(recs, "P04");
          });
  Planted("one mart fact row dropped", "warehouse.partition",
          [](Round* r, Records*) {
            return mutate::DropMartRow(r->scenario.get());
          });
  Planted("one dirty CDB row marked clean", "warehouse.cdb",
          [](Round* r, Records*) {
            return mutate::CleanCdbRow(r->scenario.get());
          });
  Planted("one failed_data row dropped", "rejected",
          [](Round* r, Records*) {
            return mutate::DropFailedRow(r->scenario.get());
          });

  // Table II: a submit count that matches the records but not the formulas.
  {
    Workload w = Load("fig10_federated");
    Round r = Run(w);
    std::vector<core::InstanceRecord> records = r.timed->records();
    std::map<std::string, uint64_t> submits = r.timed->submits();
    Expect(mutate::DropRecord(&records, "P08").ok(), "P08 record dropped");
    --submits["P08"];
    CheckReport report;
    CheckInstanceCounts(records, submits, w.config, w.shaped, &report);
    Expect(report.Failed("instances.table2") &&
               !report.Failed("instances.submitted"),
           "a lost P08 instance is reported by instances.table2");
  }

  // Dial invariance: the dataflow workload at 3 workers against workers=1,
  // then the same pair with one planted landscape cell and CSV row.
  {
    Workload w = Load("dataflow_msgs_parallel");
    Round run = Run(w);
    Round ref = Run(w.Reference());
    DialOutput a = Dial(run), b = Dial(ref);
    CheckReport clean;
    CheckDialInvariance(a, b, &clean);
    Expect(clean.ok(), "workers=3 matches the workers=1 reference");

    Expect(mutate::DwhPriceCell(run.scenario.get()).ok(), "price planted");
    std::vector<core::InstanceRecord> records = run.timed->records();
    Expect(mutate::DropRecord(&records, "P13").ok(), "P13 record dropped");
    Monitor monitor(w.config);
    monitor.Collect(records);
    DialOutput planted = Dial(run);
    planted.monitor_csv = Monitor::ToCsv(monitor.Summarize());
    CheckReport report;
    CheckDialInvariance(planted, b, &report);
    for (const std::string& f : report.failures) {
      std::printf("         reported: %s\n", f.c_str());
    }
    Expect(report.failures.size() == 2, "both planted faults are reported");
    Expect(!report.failures.empty() &&
               report.failures[0].find("'P13,") != std::string::npos,
           "the CSV failure names the first differing process row");
  }

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
