// certkit campaign: the campaign's own view of structural coverage.
//
// The global cov::Registry accumulates probes from *everything* that has run
// in the process (benchmark warm-ups, other tests, other campaign workers).
// The campaign instead merges only the per-candidate covers captured with
// cov::ThreadCapture, so its coverage numbers are a pure function of the
// candidate set — independent of --jobs and of whatever else the process did.
#ifndef CERTKIT_CAMPAIGN_COVERAGE_MAP_H_
#define CERTKIT_CAMPAIGN_COVERAGE_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/coverage.h"

namespace certkit::campaign {

class CoverageMap {
 public:
  // Merges a candidate's captured cover; returns the number of new probe
  // facts (statements, decision outcomes, MC/DC vectors) — the greybox
  // "adds coverage" keep signal.
  std::int64_t Merge(const cov::CoverSet& cover);

  // Coverage rows for every unit in the merged cover whose name starts with
  // `prefix` (empty prefix = all units), rated against the unit's declared
  // probe totals.
  std::vector<cov::CoverageRow> Rows(const std::string& prefix) const;

  const cov::CoverSet& merged() const { return merged_; }
  std::int64_t total_facts() const { return total_facts_; }

  // The checkpointed form (support/record.h): Merges on a map read back
  // from it continue exactly as they would have on the original.
  template <class Io, class Self>
  static void Fields(Io& io, Self& m) {
    io("total_facts", m.total_facts_);
    io("merged", m.merged_);
  }

 private:
  cov::CoverSet merged_;
  std::int64_t total_facts_ = 0;
};

// Renders a coverage ratio as a JSON number: fixed 4-decimal form (the
// historical report format), "null" when non-finite — coverage math never
// produces Inf/NaN today, but a report that must parse back cannot emit
// tokens JSON does not have.
std::string RatioJson(double ratio);

// Renders one row as a JSON object (fixed member order, unit name escaped).
std::string CoverageRowJson(const cov::CoverageRow& row);

// Renders `rows` as a JSON array of CoverageRowJson objects, in order.
std::string CoverageRowsJson(const std::vector<cov::CoverageRow>& rows);

}  // namespace certkit::campaign

#endif  // CERTKIT_CAMPAIGN_COVERAGE_MAP_H_
