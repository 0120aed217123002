// Airfare broker: the complete two-stage pipeline the paper sketches in §1.
//
// Stage 1 — a relational pre-selection (route, date) picks the fares that
// are available at all — a plain loop here, standing in for the DBMS the
// paper assumes; stage 2 — the temporal engine filters those by
// the customer's required behavior and the cheapest survivor wins. This is
// exactly the "cheapest fare from San Diego to New York on 10/19 that allows
// a partial refund or a date change after the first leg has been missed"
// scenario from the introduction.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "broker/database.h"

namespace {

const char* kCommonClauses =
    "G(purchase -> !use & !missedFlight & !refund & !dateChange) &"
    "G(use -> !purchase & !missedFlight & !refund & !dateChange) &"
    "G(missedFlight -> !purchase & !use & !refund & !dateChange) &"
    "G(refund -> !purchase & !use & !missedFlight & !dateChange) &"
    "G(dateChange -> !purchase & !use & !missedFlight & !refund) &"
    "G(purchase -> X(!F purchase)) &"
    "(purchase B (use | missedFlight | refund | dateChange)) &"
    "G((missedFlight -> !F use) W dateChange) &"
    "G(refund -> X(!F(use | missedFlight | refund | dateChange))) &"
    "G(use -> X(!F(use | missedFlight | refund | dateChange)))";

struct Fare {
  const char* airline;
  const char* route;
  const char* date;
  int64_t price;
  const char* policy;  // ticket-specific temporal clauses
};

}  // namespace

int main() {
  using namespace ctdb;

  broker::ContractDatabase db;
  std::map<uint32_t, const Fare*> fares;  // contract id → its fare

  const Fare catalog[] = {
      // San Diego → New York fares with the Example 2 policies.
      {"United Business", "SAN-NYC", "2010-10-19", 890,
       "G(dateChange -> !F refund)"},
      {"AA Economy Platinum", "SAN-NYC", "2010-10-19", 450,
       "G(missedFlight -> !F dateChange)"},
      {"Coastal Saver", "SAN-NYC", "2010-10-19", 310,
       "G(!refund) & G(dateChange -> X(!F dateChange)) & "
       "G(missedFlight -> !F dateChange)"},
      // Distractors on other routes / dates.
      {"United Business", "SAN-BOS", "2010-10-19", 880,
       "G(dateChange -> !F refund)"},
      {"AA Economy", "SAN-NYC", "2010-10-20", 410,
       "G(!refund) & G(missedFlight -> !F dateChange)"},
  };

  for (const Fare& fare : catalog) {
    auto id = db.Register(std::string(fare.airline) + " " + fare.route,
                          std::string(kCommonClauses) + " & " + fare.policy);
    if (!id.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    fares[*id] = &fare;
  }

  // ---- The customer's request -------------------------------------------
  const char* route = "SAN-NYC";
  const char* date = "2010-10-19";
  const char* temporal_requirement =
      "F(missedFlight & F(refund | dateChange))";

  std::printf("request: SAN-NYC on 2010-10-19, cheapest fare that allows a\n"
              "         refund or a date change after a missed flight\n\n");

  // Stage 1: relational pre-selection (paper assumption (a)).
  std::map<uint32_t, int64_t> available;  // contract id → price
  for (const auto& [id, fare] : fares) {
    if (std::strcmp(fare->route, route) == 0 &&
        std::strcmp(fare->date, date) == 0) {
      available[id] = fare->price;
    }
  }
  std::printf("stage 1 (relational): %zu of %zu fares available\n",
              available.size(), fares.size());

  // Stage 2: temporal filtering — query once, intersect with availability.
  auto result = db.Query(temporal_requirement);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("stage 2 (temporal) : %zu of %zu contracts permit the query "
              "(%0.2f ms, %zu candidates after prefilter)\n",
              result->matches.size(), db.size(), result->stats.total_ms,
              result->stats.candidates);

  // Join + cheapest.
  int64_t best_price = INT64_MAX;
  std::string best;
  for (uint32_t id : result->matches) {
    const auto it = available.find(id);
    if (it == available.end()) continue;
    const int64_t price = it->second;
    std::printf("  eligible: %-28s $%lld\n", db.contract(id).name.c_str(),
                static_cast<long long>(price));
    if (price < best_price) {
      best_price = price;
      best = db.contract(id).name;
    }
  }
  if (best.empty()) {
    std::printf("\nno fare satisfies the request\n");
  } else {
    std::printf("\nbooked: %s at $%lld\n", best.c_str(),
                static_cast<long long>(best_price));
  }
  return 0;
}
