#include "util/csv.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/assert.hpp"

namespace dtn {

std::string csv_escape(std::string_view field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row_values(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (double v : values) fields.push_back(format_double(v, 6));
  write_row(fields);
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DTN_ASSERT(!headers_.empty());
}

void TablePrinter::add_row(std::vector<std::string> row) {
  DTN_ASSERT(row.size() == headers_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::add_row(const std::string& label,
                           const std::vector<double>& values, int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(format_double(v, precision));
  add_row(std::move(row));
}

void TablePrinter::print(std::string_view title) const {
  if (!title.empty()) {
    std::printf("\n== %.*s ==\n", static_cast<int>(title.size()), title.data());
  }
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s", static_cast<int>(widths[c] + 2), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

void TablePrinter::write_csv(const std::string& path) const {
  if (path.empty()) return;
  CsvWriter w(path);
  write_csv(w);
}

void TablePrinter::write_csv(CsvWriter& w) const {
  w.write_row(headers_);
  for (const auto& row : rows_) w.write_row(row);
}

}  // namespace dtn
