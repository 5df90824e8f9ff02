// Regression fixture for the false negative of a pattern-matching lint
// that motivated the semantic analyzer (docs/static-analysis.md): a
// range-for over a member whose unordered-container type hides behind a
// two-level class alias AND behind an `auto&` local binding.  A pattern
// match sees neither spelling; the analyzer must resolve both.
#include <string>
#include <unordered_map>

namespace fixture {

class Registry {
 public:
  using NameMap = std::unordered_map<std::string, int>;
  using NameTable = NameMap;  // second alias level

  int total() const {
    const auto& names = table_;  // binding hides the member spelling
    int sum = 0;
    for (const auto& kv : names) {  // LINE: unordered iteration
      sum += kv.second;
    }
    return sum;
  }

 private:
  NameTable table_;
};

}  // namespace fixture
