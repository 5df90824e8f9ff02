// Clean fixture (test_analyzer.py): exercises the same constructs as
// the bad_* fixtures, correctly — the analyzer must report nothing.
#include <cstdint>
#include <map>
#include <vector>

#include "util/annotations.hpp"

namespace fixture {

class Writer;
class Reader;

class CleanRouter {
 public:
  void on_arrival(std::uint32_t node, std::uint32_t landmark) {
    visits_[landmark] += 1;
    last_node_ = node;
  }

  void checkpoint_save(Writer& w) const {
    (void)w;
    (void)visits_;
    (void)last_node_;
    for (const auto& kv : delays_) {  // std::map: ordered, fine
      (void)kv;
    }
  }

  void checkpoint_load(Reader& r) {
    (void)r;
    (void)visits_;
    (void)last_node_;
    (void)delays_;
  }

 private:
  std::vector<std::uint64_t> visits_;
  std::uint64_t last_node_ = 0;
  std::map<std::uint32_t, double> delays_;
};

}  // namespace fixture
