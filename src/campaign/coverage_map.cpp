#include "campaign/coverage_map.h"

#include <cmath>
#include <cstdio>

#include "support/json.h"

namespace certkit::campaign {

std::int64_t CoverageMap::Merge(const cov::CoverSet& cover) {
  const std::int64_t added = cov::MergeCover(&merged_, cover);
  total_facts_ += added;
  return added;
}

std::vector<cov::CoverageRow> CoverageMap::Rows(
    const std::string& prefix) const {
  // Units come from the merged cover, not the global registry: the registry
  // accumulates units from everything the process has ever run, which would
  // make the row set depend on history outside the campaign.
  std::vector<cov::CoverageRow> rows;
  for (const auto& [name, cover] : merged_) {
    if (name.rfind(prefix, 0) != 0) continue;
    rows.push_back(
        cov::CoverRow(cov::Registry::Instance().GetOrCreate(name), cover));
  }
  return rows;
}

std::string RatioJson(double ratio) {
  if (!std::isfinite(ratio)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", ratio);
  return buf;
}

std::string CoverageRowJson(const cov::CoverageRow& row) {
  return "{\"unit\":" + support::JsonEscape(row.unit) +
         ",\"statement\":" + RatioJson(row.statement) +
         ",\"branch\":" + RatioJson(row.branch) +
         ",\"mcdc\":" + RatioJson(row.mcdc) + "}";
}

std::string CoverageRowsJson(const std::vector<cov::CoverageRow>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += CoverageRowJson(rows[i]);
  }
  out += "]";
  return out;
}

}  // namespace certkit::campaign
