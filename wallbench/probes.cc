#include "wallbench/probes.h"

#include <algorithm>

#include "src/ra/query.h"
#include "src/xml/bridge.h"
#include "src/xml/parser.h"

namespace wallbench {

using namespace dipbench;

namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Source systems: every database the Initializer seeds per period, apart
// from the staging and target side (CDB, DWH, marts).
bool IsSourceDb(const std::string& name) {
  return name.rfind("eu_", 0) == 0 || name.rfind("asia_", 0) == 0 ||
         name.rfind("us_", 0) == 0;
}

std::vector<Table*> TablesOf(Database* db) {
  std::vector<Table*> out;
  for (const std::string& t : db->ListTables()) out.push_back(*db->GetTable(t));
  return out;
}

}  // namespace

std::vector<Table*> AllTables(Scenario* scenario, core::EngineBase* engine) {
  std::vector<Table*> out;
  for (const std::string& name : scenario->DatabaseNames()) {
    for (Table* t : TablesOf(*scenario->db(name))) out.push_back(t);
  }
  if (auto* fed = dynamic_cast<core::FederatedEngine*>(engine)) {
    for (Table* t : TablesOf(fed->engine_db())) out.push_back(t);
  }
  return out;
}

ProbeResult RunProbes(Scenario* scenario, core::EngineBase* engine,
                      const Workload& workload, int repeats) {
  ProbeResult out;
  const std::vector<Table*> tables = AllTables(scenario, engine);
  std::vector<std::vector<Row>> contents;
  for (Table* t : tables) contents.push_back(t->ScanAll());

  std::vector<RowSet> sources;
  for (const std::string& name : scenario->DatabaseNames()) {
    if (!IsSourceDb(name)) continue;
    for (Table* t : TablesOf(*scenario->db(name))) {
      sources.push_back(RowSet{t->schema(), t->ScanAll()});
    }
  }

  std::vector<double> xml_ms, scan_ms, insert_ms, plan_ms;
  for (int rep = 0; rep < repeats; ++rep) {
    // xml: the endpoints' result-set path, out and back.
    uint64_t bytes = 0;
    Clock::time_point t0 = Clock::now();
    for (const RowSet& rs : sources) {
      xml::NodePtr doc = xml::RowSetToXml(rs, "resultset", "row");
      std::string text = xml::WriteXml(*doc);
      bytes += text.size();
      Result<xml::NodePtr> parsed = xml::ParseXml(text);
      Result<RowSet> back =
          parsed.ok() ? xml::XmlToRowSet(**parsed, rs.schema, "row")
                      : Result<RowSet>(parsed.status());
      if (!back.ok() || back->rows.size() != rs.rows.size()) {
        out.failures.push_back("xml round trip lost rows");
      }
    }
    xml_ms.push_back(MsBetween(t0, Clock::now()));
    out.xml_bytes = bytes;

    // storage reads: a full scan of every table.
    size_t scanned = 0, live = 0;
    std::vector<const Row*> refs;
    t0 = Clock::now();
    for (Table* t : tables) {
      Table::ScanCursor cursor = t->Scan();
      refs.clear();
      while (size_t n = cursor.NextBatchRefs(&refs, 1024)) {
        scanned += n;
        refs.clear();
      }
    }
    scan_ms.push_back(MsBetween(t0, Clock::now()));
    for (Table* t : tables) live += t->size();
    if (scanned != live) out.failures.push_back("scan missed rows");

    // storage writes: every table's rows into a fresh keyed table.
    t0 = Clock::now();
    for (size_t i = 0; i < tables.size(); ++i) {
      Table fresh(tables[i]->name(), tables[i]->schema());
      for (const Row& r : contents[i]) {
        if (!fresh.Insert(r).ok()) {
          out.failures.push_back("re-insert into " + tables[i]->name() +
                                 " failed");
          break;
        }
      }
    }
    insert_ms.push_back(MsBetween(t0, Clock::now()));

    // ra: blocking plan operators over the warehouse and staging tables,
    // in the workload's execution mode and memory budget.
    {
      ScopedExecMode mode(workload.exec_mode);
      ScopedMemoryBudget budget(workload.config.operator_memory_budget);
      Table* orders = *(*scenario->db("dwh_db"))->GetTable("orders");
      Table* city = *(*scenario->db("dwh_db"))->GetTable("city");
      Table* cdb_orders = *(*scenario->db("cdb_db"))->GetTable("orders");
      auto keys = [](const Table* t) {
        return Query::From(t).Select({{"orderkey", Col("orderkey")},
                                      {"source", Col("source")}});
      };
      std::vector<Query> plans;
      plans.push_back(
          Query::From(orders).Join(Query::From(city), {"citykey"},
                                   {"citykey"}));
      plans.push_back(Query::From(orders).GroupBy(
          {"citykey"}, {{"revenue", AggFunc::kSum, "price"},
                        {"orders", AggFunc::kCount, ""}}));
      plans.push_back(Query::From(orders).OrderBy(
          {{"price", false}, {"orderkey", true}, {"source", true}}));
      plans.push_back(keys(orders).Union(keys(cdb_orders),
                                         {"orderkey", "source"}));
      t0 = Clock::now();
      for (const Query& q : plans) {
        ExecContext ec;
        Result<RowSet> rows = q.Run(&ec);
        if (!rows.ok() || rows->rows.empty()) {
          out.failures.push_back("ra probe plan failed or returned nothing");
        }
      }
      plan_ms.push_back(MsBetween(t0, Clock::now()));
    }
  }
  out.xml_roundtrip_ms = Median(xml_ms);
  out.storage_scan_ms = Median(scan_ms);
  out.storage_insert_ms = Median(insert_ms);
  out.ra_plan_ms = Median(plan_ms);
  return out;
}

}  // namespace wallbench
