#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace dtn {

namespace {

[[noreturn]] void reject_number(const std::string& key,
                                const std::string& value) {
  std::fprintf(stderr, "option --%s expects a number, got '%s'\n",
               key.c_str(), value.c_str());
  std::exit(2);
}

// Parse the whole of `value` with `parse` (a strto* wrapper); an empty
// value, trailing characters or an out-of-range number is a usage error.
template <typename T, typename Parse>
T parse_number(const std::string& key, const std::string& value,
               Parse parse) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const T parsed = parse(begin, &end);
  if (value.empty() || end != begin + value.size() || errno == ERANGE) {
    reject_number(key, value);
  }
  return parsed;
}

}  // namespace

CliOptions::CliOptions(int argc, const char* const* argv,
                       const std::vector<std::string>& known_flags) {
  if (argc > 0) {
    program_ = argv[0];
    program_.erase(0, program_.rfind('/') + 1);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    const bool is_flag =
        std::find(known_flags.begin(), known_flags.end(), arg) != known_flags.end();
    if (is_flag) {
      values_[arg] = "1";
    } else if (i + 1 < argc) {
      values_[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "option --%s expects a value\n", arg.c_str());
      std::exit(2);
    }
  }
}

bool CliOptions::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string CliOptions::get(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliOptions::get_int(const std::string& key,
                                 std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<std::int64_t>(
      key, it->second,
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double CliOptions::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number<double>(key, it->second, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

std::uint64_t CliOptions::get_seed(std::uint64_t fallback) const {
  const auto it = values_.find("seed");
  if (it == values_.end()) return fallback;
  // strtoull silently wraps a minus sign; a seed is unsigned.
  if (it->second.find('-') != std::string::npos) {
    reject_number("seed", it->second);
  }
  return parse_number<std::uint64_t>(
      "seed", it->second,
      [](const char* s, char** end) { return std::strtoull(s, end, 10); });
}

std::size_t CliOptions::get_count(const std::string& key, std::int64_t fallback,
                                  std::int64_t min, std::int64_t max) const {
  const std::int64_t v = get_int(key, fallback);
  if (v < min || v > max) {
    std::fprintf(stderr, "%s: --%s must be at %s %lld, got %lld\n",
                 program_.c_str(), key.c_str(), v < min ? "least" : "most",
                 static_cast<long long>(v < min ? min : max),
                 static_cast<long long>(v));
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

bool CliOptions::full_scale() const {
  const std::string scale = get("scale", "quick");
  if (scale != "quick" && scale != "full") {
    std::fprintf(stderr, "option --scale expects quick or full, got '%s'\n",
                 scale.c_str());
    std::exit(2);
  }
  return scale == "full";
}

std::string CliOptions::csv_dir() const { return get("csv", ""); }

void CliOptions::reject_unknown(const std::string& program,
                                const std::vector<std::string>& accepted) const {
  for (const auto& [key, value] : values_) {
    const bool known = std::any_of(
        accepted.begin(), accepted.end(), [&key](const std::string& entry) {
          if (!entry.empty() && entry.back() == '*') {
            return key.rfind(entry.substr(0, entry.size() - 1), 0) == 0;
          }
          return key == entry;
        });
    if (!known) {
      std::fprintf(stderr, "%s: unknown option --%s\n", program.c_str(),
                   key.c_str());
      std::exit(2);
    }
  }
}

std::vector<std::string> CliOptions::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (const auto& [key, value] : values_) {
    if (key.rfind(prefix, 0) == 0) keys.push_back(key);
  }
  return keys;  // std::map iteration is already sorted
}

}  // namespace dtn
