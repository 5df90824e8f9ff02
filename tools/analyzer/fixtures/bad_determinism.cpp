// Seeded violations for the determinism check (test_analyzer.py).
// Every construct here is invisible to a literal pattern match: the
// container type hides behind an alias, and the ambient reach hides
// behind a same-file helper call.
#include <chrono>
#include <cstdlib>
#include <unordered_map>

#include "util/annotations.hpp"

namespace fixture {

using Table = std::unordered_map<int, double>;

inline double ambient_helper() {
  return static_cast<double>(std::rand());  // LINE: direct ambient call
}

class Metrics {
 public:
  double sum_all() const {
    double total = 0.0;
    for (const auto& kv : table_) {  // LINE: unordered iteration (alias)
      total += kv.second;
    }
    return total;
  }

  double now_cost() const {
    const auto t = std::chrono::steady_clock::now();  // LINE: ambient clock
    return static_cast<double>(t.time_since_epoch().count());
  }

  double tainted_path() const {
    return ambient_helper();  // LINE: callee-resolved ambient reach
  }

 private:
  Table table_;
};

}  // namespace fixture
