// Seeded violations for the test-only-call rule (test_analyzer.py):
// replay code calling the allocating next_distribution() overload.
#include <vector>

namespace fixture {

struct Predictor {
  std::vector<double> next_distribution() const { return {}; }
  void next_distribution(std::vector<double>& out) const { out.clear(); }
};

class Router {
 public:
  double pick(const Predictor& p, const Predictor* q) {
    const auto dist = p.next_distribution();  // LINE: allocating overload
    const auto other = q->next_distribution();  // LINE: through a pointer
    p.next_distribution(scratch_);  // the scratch-buffer overload is fine
    // A mention in a comment, p.next_distribution(), is not a call.
    // det-lint: ok(fixture: a justified use is suppressed)
    const auto waived = p.next_distribution();
    return dist.size() + other.size() + waived.size() + scratch_.size();
  }

 private:
  std::vector<double> scratch_;
};

}  // namespace fixture
