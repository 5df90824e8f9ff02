// Trace serialization.
//
// Format: CSV with a one-line header `node,landmark,start,end`, times in
// seconds.  This is the schema the paper's preprocessing produces from
// the raw DART/DNET logs, so real preprocessed traces drop in directly.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace dtn::trace {

/// Write `trace` as CSV to `path`.  Throws std::runtime_error on I/O error.
void write_trace_csv(const Trace& trace, const std::string& path);
void write_trace_csv(const Trace& trace, std::ostream& out);

/// Read a CSV trace.  Node/landmark universe sizes are taken as
/// (max id + 1) unless explicit sizes are given.  Throws
/// std::runtime_error on malformed input — unparsable rows, non-finite
/// or negative times, end <= start, overlapping visits of one node —
/// and accepts a `-0` start as +0.0; the message names the file
/// (or `source` for the stream overload) and the offending line, so a
/// bad row in a multi-trace batch is attributable without re-running.
[[nodiscard]] Trace read_trace_csv(const std::string& path);
[[nodiscard]] Trace read_trace_csv(std::istream& in,
                                   const std::string& source = "<stream>");

}  // namespace dtn::trace
