#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace dtn::trace {

void write_trace_csv(const Trace& trace, std::ostream& out) {
  out << "node,landmark,start,end\n";
  for (const auto& v : trace.all_visits_sorted()) {
    out << v.node << ',' << v.landmark << ',' << v.start << ',' << v.end
        << '\n';
  }
}

void write_trace_csv(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_trace_csv: cannot open " + path);
  write_trace_csv(trace, out);
  if (!out) throw std::runtime_error("write_trace_csv: write failed " + path);
}

namespace {

struct RawVisit {
  std::uint32_t node;
  std::uint32_t landmark;
  double start;
  double end;
  int line_no;
};

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t pos = 0;
  while (true) {
    const auto comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(pos));
      break;
    }
    fields.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return fields;
}

double parse_double(std::string_view s, const std::string& source,
                    int line_no) {
  // std::from_chars for double is available in GCC 11+.
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("trace CSV: " + source + ": bad number at line " +
                             std::to_string(line_no));
  }
  return v;
}

std::uint32_t parse_u32(std::string_view s, const std::string& source,
                        int line_no) {
  std::uint32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("trace CSV: " + source + ": bad id at line " +
                             std::to_string(line_no));
  }
  return v;
}

}  // namespace

Trace read_trace_csv(std::istream& in, const std::string& source) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("trace CSV: " + source + ": empty input");
  }
  if (line != "node,landmark,start,end") {
    throw std::runtime_error("trace CSV: " + source +
                             ": unexpected header: " + line);
  }
  std::vector<RawVisit> raw;
  std::uint32_t max_node = 0;
  std::uint32_t max_landmark = 0;
  int line_no = 1;
  bool final_line_unterminated = false;
  while (std::getline(in, line)) {
    // getline sets eofbit (but still succeeds) when it read characters
    // up to EOF without finding '\n' — i.e. the file was cut mid-record.
    // A truncated trailing record can otherwise parse silently with a
    // wrong value ("...,27.5" cut to "...,2"), which is exactly the
    // corruption a crashed writer leaves behind; crash-resume reads must
    // reject it rather than ingest it (docs/checkpointing.md).
    final_line_unterminated = in.eof();
    ++line_no;
    if (final_line_unterminated) break;  // reject below, before parsing:
    // the cut line may *also* fail field validation, and a validation
    // error would mislabel what is really a torn write.
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    if (fields.size() != 4) {
      throw std::runtime_error("trace CSV: " + source +
                               ": expected 4 fields at line " +
                               std::to_string(line_no));
    }
    RawVisit v{parse_u32(fields[0], source, line_no),
               parse_u32(fields[1], source, line_no),
               parse_double(fields[2], source, line_no),
               parse_double(fields[3], source, line_no), line_no};
    // from_chars accepts "nan" and "inf"; neither is a time.
    if (!std::isfinite(v.start) || !std::isfinite(v.end)) {
      throw std::runtime_error("trace CSV: " + source +
                               ": non-finite time at line " +
                               std::to_string(line_no));
    }
    if (v.start < 0.0) {
      throw std::runtime_error("trace CSV: " + source +
                               ": negative start at line " +
                               std::to_string(line_no));
    }
    // `-0` is a valid zero, but its sign bit would order it after every
    // positive time in the replay cursor's bit-pattern key.
    if (v.start == 0.0) v.start = 0.0;
    if (v.end <= v.start) {
      throw std::runtime_error("trace CSV: " + source +
                               ": end <= start at line " +
                               std::to_string(line_no));
    }
    max_node = std::max(max_node, v.node);
    max_landmark = std::max(max_landmark, v.landmark);
    raw.push_back(v);
  }
  if (in.bad()) {
    throw std::runtime_error("trace CSV: " + source +
                             ": I/O error while reading near line " +
                             std::to_string(line_no));
  }
  if (final_line_unterminated) {
    throw std::runtime_error(
        "trace CSV: " + source + ": truncated final record at line " +
        std::to_string(line_no) +
        " (no trailing newline; file cut mid-record?)");
  }
  // A node is at one place at a time: its visits must not overlap.
  std::sort(raw.begin(), raw.end(), [](const RawVisit& a, const RawVisit& b) {
    if (a.node != b.node) return a.node < b.node;
    return a.start < b.start;
  });
  for (std::size_t i = 1; i < raw.size(); ++i) {
    const RawVisit& prev = raw[i - 1];
    const RawVisit& cur = raw[i];
    if (cur.node == prev.node && cur.start < prev.end) {
      throw std::runtime_error(
          "trace CSV: " + source + ": visits of node " +
          std::to_string(cur.node) + " overlap at lines " +
          std::to_string(std::min(prev.line_no, cur.line_no)) + " and " +
          std::to_string(std::max(prev.line_no, cur.line_no)));
    }
  }
  Trace trace(raw.empty() ? 0 : max_node + 1, raw.empty() ? 0 : max_landmark + 1);
  for (const auto& v : raw) {
    trace.add_visit(Visit{v.node, v.landmark, v.start, v.end});
  }
  trace.finalize();
  return trace;
}

Trace read_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace CSV: cannot open " + path);
  // Thread the path into every parse error: "bad number at line 7" is
  // useless in a batch run over a directory of traces.
  return read_trace_csv(in, path);
}

}  // namespace dtn::trace
