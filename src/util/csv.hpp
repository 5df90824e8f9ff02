// CSV emission and aligned console tables.
//
// Every bench binary prints a human-readable table (the paper's rows)
// and can optionally mirror it to CSV for plotting.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace dtn {

/// Quote/escape a CSV field per RFC 4180 when needed.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Append-only CSV file writer.
class CsvWriter {
 public:
  /// Opens (truncates) `path`. Throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void write_row(const std::vector<std::string>& fields);

  /// Convenience: format doubles with %.6g.
  void write_row_values(const std::vector<double>& values);

 private:
  std::ofstream out_;
};

/// Fixed set of columns rendered with aligned widths; collects rows then
/// prints once.  Also mirrors to CSV when a path is set.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> row);
  /// Format helper for numeric rows (first column string, rest numbers).
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 4);

  /// Render to stdout.
  void print(std::string_view title = {}) const;

  /// Write headers+rows to a CSV file (no-op if path empty).
  void write_csv(const std::string& path) const;
  /// Write headers+rows through an already opened writer.
  void write_csv(CsvWriter& w) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper for tables).
[[nodiscard]] std::string format_double(double v, int precision = 4);

}  // namespace dtn
