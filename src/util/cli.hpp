// Tiny command-line option parser shared by benches and examples.
//
// Supports `--key=value`, `--key value` and `--flag` forms.  Malformed
// input — a positional argument, a trailing key without its value, a
// value that is not the number a getter asks for — exits with status 2.
// Keys are not checked by default: a misspelt option is ignored unless
// the binary lists its accepted keys through reject_unknown().
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dtn {

class CliOptions {
 public:
  /// Parse argv; `known_flags` lists boolean options (no value).
  /// Exits with a message on malformed input.
  CliOptions(int argc, const char* const* argv,
             const std::vector<std::string>& known_flags = {});

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::uint64_t get_seed(std::uint64_t fallback) const;
  /// A count in [min, max]; anything else exits with status 2 and
  /// "<program>: --KEY must be at least MIN, got V" (or "at most MAX").
  [[nodiscard]] std::size_t get_count(
      const std::string& key, std::int64_t fallback, std::int64_t min,
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;

  /// "quick" (default) or "full" — benches scale their workloads by this.
  /// Any other value exits with status 2.
  [[nodiscard]] bool full_scale() const;

  /// Directory for CSV mirrors ("" disables CSV output).
  [[nodiscard]] std::string csv_dir() const;

  /// Exit with status 2 and "<program>: unknown option --KEY" when a
  /// parsed key is not in `accepted`.  An entry ending in '*' accepts
  /// every key with that prefix: a family whose own parser reports its
  /// typos (e.g. "fault-*").
  void reject_unknown(const std::string& program,
                      const std::vector<std::string>& accepted) const;

  /// All parsed option keys starting with `prefix`, in sorted order
  /// (lets grouped parsers like the --fault-* family reject typos).
  [[nodiscard]] std::vector<std::string> keys_with_prefix(
      const std::string& prefix) const;

 private:
  std::string program_;  ///< argv[0] without its directory
  std::map<std::string, std::string> values_;
};

}  // namespace dtn
