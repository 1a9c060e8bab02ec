// certkit report: text-table rendering for benches, examples, and reports.
#ifndef CERTKIT_REPORT_TABLE_H_
#define CERTKIT_REPORT_TABLE_H_

#include <string>
#include <vector>

namespace certkit::report {

// A simple column-aligned text table with ASCII, CSV, and Markdown renderers.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds a row; it must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  std::string ToAscii() const;
  std::string ToCsv() const;
  std::string ToMarkdown() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a [0,1] ratio as a percentage with one decimal ("83.2%").
std::string Percent(double ratio);

}  // namespace certkit::report

#endif  // CERTKIT_REPORT_TABLE_H_
