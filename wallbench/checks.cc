#include "wallbench/checks.h"

#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "src/common/string_util.h"

namespace wallbench {

using namespace dipbench;

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a),
                                                           std::fabs(b)));
}

Table* GetTable(Scenario* scenario, const std::string& db,
                const std::string& table, CheckReport* report,
                const std::string& check) {
  Result<Database*> d = scenario->db(db);
  if (!d.ok()) {
    report->Fail(check, d.status().ToString());
    return nullptr;
  }
  Result<Table*> t = (*d)->GetTable(table);
  if (!t.ok()) {
    report->Fail(check, t.status().ToString());
    return nullptr;
  }
  return *t;
}

size_t Col(const Table& t, const std::string& name) {
  return *t.schema().IndexOf(name);
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

// (year, month, citykey) -> (revenue, order count).
using Cube = std::map<std::tuple<int64_t, int64_t, int64_t>,
                      std::pair<double, int64_t>>;

Cube FactCube(const Table& orders) {
  const size_t citykey = Col(orders, "citykey");
  const size_t date = Col(orders, "orderdate");
  const size_t price = Col(orders, "price");
  const size_t quantity = Col(orders, "quantity");
  Cube cube;
  orders.ForEach([&](const Row& r) {
    if (r[citykey].is_null()) return;
    double rev = r[price].is_null() ? 0.0 : r[price].AsDouble();
    rev *= r[quantity].is_null() ? 1.0
                                 : static_cast<double>(r[quantity].AsInt());
    auto key = std::make_tuple(*r[date].DateYear(), *r[date].DateMonth(),
                               r[citykey].AsInt());
    auto& cell = cube[key];
    if (!r[price].is_null()) cell.first += rev;
    ++cell.second;
  });
  return cube;
}

Cube MvCube(const Table& mv) {
  Cube cube;
  mv.ForEach([&](const Row& r) {
    cube[std::make_tuple(r[0].AsInt(), r[1].AsInt(), r[2].AsInt())] = {
        r[3].is_null() ? 0.0 : r[3].AsDouble(), r[4].AsInt()};
  });
  return cube;
}

void CompareCubes(const std::string& where, const Cube& fact, const Cube& mv,
                  CheckReport* report) {
  const std::string check = "warehouse." + where + ".orders_mv";
  for (const auto& [key, cell] : fact) {
    auto it = mv.find(key);
    std::string name = StrFormat("(%lld-%02lld city %lld)",
                                 static_cast<long long>(std::get<0>(key)),
                                 static_cast<long long>(std::get<1>(key)),
                                 static_cast<long long>(std::get<2>(key)));
    if (it == mv.end()) {
      report->Fail(check, "no MV row for fact group " + name);
      return;
    }
    if (!Close(cell.first, it->second.first) ||
        cell.second != it->second.second) {
      report->Fail(check,
                   StrFormat("group %s: facts give revenue %.6f / %lld orders,"
                             " MV holds %.6f / %lld",
                             name.c_str(), cell.first,
                             static_cast<long long>(cell.second),
                             it->second.first,
                             static_cast<long long>(it->second.second)));
      return;
    }
  }
  if (mv.size() != fact.size()) {
    report->Fail(check, StrFormat("%zu MV rows for %zu fact groups",
                                  mv.size(), fact.size()));
  }
}

}  // namespace

bool CheckReport::Failed(const std::string& check) const {
  for (const std::string& f : failures) {
    if (f.compare(0, check.size(), check) == 0) return true;
  }
  return false;
}

void CheckMonitorMetrics(const std::vector<core::InstanceRecord>& records,
                         const std::vector<ProcessMetrics>& summary,
                         const ScaleConfig& config, CheckReport* report) {
  const std::string check = "monitor";
  std::map<std::string, std::vector<const core::InstanceRecord*>> by_type;
  for (const auto& r : records) by_type[r.process_id].push_back(&r);
  if (summary.size() != by_type.size()) {
    report->Fail(check, StrFormat("summary has %zu process types, records %zu",
                                  summary.size(), by_type.size()));
  }
  for (const ProcessMetrics& m : summary) {
    auto it = by_type.find(m.process_id);
    if (it == by_type.end()) {
      report->Fail(check, m.process_id + " is summarized but has no records");
      continue;
    }
    const auto& rs = it->second;
    const double n = static_cast<double>(rs.size());
    // NC(p) = Cc + Cm + Cp in tu; 1 tu = 1/t ms.
    std::vector<double> nc;
    double sum = 0.0;
    int errors = 0;
    for (const core::InstanceRecord* r : rs) {
      double c = (r->costs.cc_ms + r->costs.cm_ms + r->costs.cp_ms) *
                 config.time_scale;
      nc.push_back(c);
      sum += c;
      if (!r->ok) ++errors;
    }
    const double navg = sum / n;
    double above_sq = 0.0;
    int above = 0;
    for (double c : nc) {
      if (c > navg) {
        above_sq += (c - navg) * (c - navg);
        ++above;
      }
    }
    const double sigma_plus = above == 0 ? 0.0 : std::sqrt(above_sq / above);
    if (static_cast<size_t>(m.instances) != rs.size() || m.errors != errors) {
      report->Fail(check,
                   StrFormat("%s: Monitor counts %d instances / %d errors, "
                             "records %zu / %d",
                             m.process_id.c_str(), m.instances, m.errors,
                             rs.size(), errors));
    }
    if (!Close(m.navg_tu, navg) || !Close(m.sigma_plus_tu, sigma_plus) ||
        !Close(m.navg_plus_tu, navg + sigma_plus)) {
      report->Fail(check,
                   StrFormat("%s: Monitor NAVG %.6f sigma+ %.6f NAVG+ %.6f, "
                             "recomputed %.6f %.6f %.6f",
                             m.process_id.c_str(), m.navg_tu, m.sigma_plus_tu,
                             m.navg_plus_tu, navg, sigma_plus,
                             navg + sigma_plus));
    }
  }
}

void CheckInstanceCounts(const std::vector<core::InstanceRecord>& records,
                         const std::map<std::string, uint64_t>& submits,
                         const ScaleConfig& config, bool shaped,
                         CheckReport* report) {
  std::map<std::string, uint64_t> ran;
  for (const auto& r : records) ++ran[r.process_id];
  if (ran != submits) {
    for (const auto& [type, n] : submits) {
      uint64_t got = ran.count(type) ? ran.at(type) : 0;
      if (got != n) {
        report->Fail("instances.submitted",
                     StrFormat("%s: %llu submitted, %llu recorded",
                               type.c_str(), static_cast<unsigned long long>(n),
                               static_cast<unsigned long long>(got)));
        return;
      }
    }
    report->Fail("instances.submitted", "records hold unsubmitted types");
  }
  if (shaped) return;

  // Table II: E1 series sizes per period k at datasize d; every other type
  // runs once per period.
  const double d = config.datasize;
  std::map<std::string, uint64_t> expected;
  for (int k = 0; k < config.periods; ++k) {
    auto count = [](double x) { return static_cast<uint64_t>(x) + 1; };
    expected["P01"] += count(std::floor((100 - k) * d / 5));
    expected["P02"] += count(std::floor((100 - k) * d / 10));
    expected["P04"] += count(std::floor(1100 * d));
    expected["P08"] += count(std::floor(900 * d));
    expected["P10"] += count(std::floor(1050 * d));
    for (const char* single : {"P03", "P05", "P06", "P07", "P09", "P11",
                               "P12", "P13", "P14", "P15"}) {
      ++expected[single];
    }
  }
  for (const auto& [type, n] : expected) {
    uint64_t got = ran.count(type) ? ran.at(type) : 0;
    if (got != n) {
      report->Fail("instances.table2",
                   StrFormat("%s: Table II gives %llu instances, %llu ran",
                             type.c_str(), static_cast<unsigned long long>(n),
                             static_cast<unsigned long long>(got)));
    }
  }
}

void CheckWarehouse(Scenario* scenario, CheckReport* report) {
  const char* marts[] = {"dm_europe_db", "dm_asia_db", "dm_united_states_db"};
  Table* dwh_orders = GetTable(scenario, "dwh_db", "orders", report,
                               "warehouse");
  Table* dwh_mv = GetTable(scenario, "dwh_db", "orders_mv", report,
                           "warehouse");
  Table* city = GetTable(scenario, "dwh_db", "city", report, "warehouse");
  Table* cdb_orders = GetTable(scenario, "cdb_db", "orders", report,
                               "warehouse");
  if (!dwh_orders || !dwh_mv || !city || !cdb_orders) return;
  if (dwh_orders->empty()) {
    report->Fail("warehouse.dwh", "DWH fact table is empty");
  }
  CompareCubes("dwh", FactCube(*dwh_orders), MvCube(*dwh_mv), report);

  // Mart partition: every DWH row whose city resolves, in exactly one mart,
  // with identical content.
  std::set<int64_t> cities;
  city->ForEach([&](const Row& r) { cities.insert(r[0].AsInt()); });
  const size_t citykey = Col(*dwh_orders, "citykey");
  std::multiset<std::string> expected;
  dwh_orders->ForEach([&](const Row& r) {
    if (!r[citykey].is_null() && cities.count(r[citykey].AsInt())) {
      expected.insert(RowText(r));
    }
  });
  std::multiset<std::string> in_marts;
  for (const char* mart : marts) {
    Table* orders = GetTable(scenario, mart, "orders", report, "warehouse");
    Table* mv = GetTable(scenario, mart, "orders_mv", report, "warehouse");
    if (!orders || !mv) return;
    CompareCubes(mart, FactCube(*orders), MvCube(*mv), report);
    orders->ForEach([&](const Row& r) { in_marts.insert(RowText(r)); });
  }
  if (in_marts != expected) {
    report->Fail("warehouse.partition",
                 StrFormat("marts hold %zu fact rows, the DWH has %zu rows "
                           "with a resolvable city, and the two differ",
                           in_marts.size(), expected.size()));
  }

  const size_t dirty = Col(*cdb_orders, "dirty");
  size_t clean_left = 0;
  cdb_orders->ForEach([&](const Row& r) {
    if (!r[dirty].AsBool()) ++clean_left;
  });
  if (clean_left != 0) {
    report->Fail("warehouse.cdb",
                 StrFormat("%zu clean order rows left in the CDB",
                           clean_left));
  }
}

void CheckRejectedMessages(Scenario* scenario,
                           const std::vector<core::InstanceRecord>& records,
                           const ScaleConfig& config, CheckReport* report) {
  Table* failed = GetTable(scenario, "cdb_db", "failed_data", report,
                           "rejected");
  if (failed == nullptr) return;
  uint64_t rejected = 0;
  for (const auto& r : records) {
    if (r.process_id == "P10" && r.period == config.periods - 1) {
      rejected += r.quality.messages_rejected;
    }
  }
  if (failed->size() != rejected) {
    report->Fail("rejected",
                 StrFormat("failed_data holds %zu rows, P10 rejected %llu "
                           "messages in the last period",
                           failed->size(),
                           static_cast<unsigned long long>(rejected)));
  }
}

void CheckDialInvariance(const DialOutput& run, const DialOutput& reference,
                         CheckReport* report) {
  const std::string check = "dial_invariance";
  if (run.monitor_csv != reference.monitor_csv) {
    std::istringstream a(run.monitor_csv), b(reference.monitor_csv);
    std::string la, lb;
    while (true) {
      bool more_a = static_cast<bool>(std::getline(a, la));
      bool more_b = static_cast<bool>(std::getline(b, lb));
      if (!more_a && !more_b) break;
      if (!more_a) la = "<absent>";
      if (!more_b) lb = "<absent>";
      if (la != lb) {
        report->Fail(check, "Monitor CSV row differs: run '" + la +
                                "' vs reference '" + lb + "'");
        break;
      }
    }
  }
  if (run.state_hash != reference.state_hash) {
    report->Fail(check,
                 StrFormat("landscape state hash %016llx vs reference %016llx",
                           static_cast<unsigned long long>(run.state_hash),
                           static_cast<unsigned long long>(
                               reference.state_hash)));
  }
}

void CheckRun(Scenario* scenario,
              const std::vector<core::InstanceRecord>& records,
              const std::vector<ProcessMetrics>& summary,
              const std::map<std::string, uint64_t>& submits,
              const ScaleConfig& config, bool shaped, CheckReport* report) {
  CheckMonitorMetrics(records, summary, config, report);
  CheckInstanceCounts(records, submits, config, shaped, report);
  CheckWarehouse(scenario, report);
  CheckRejectedMessages(scenario, records, config, report);
}

}  // namespace wallbench
