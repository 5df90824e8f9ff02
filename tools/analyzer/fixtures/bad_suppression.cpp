// Seeded violations for the suppression rule (test_analyzer.py): a
// det-lint marker must say why.
namespace fixture {

inline int bare() {
  return 1;  // det-lint: ok  // LINE: no reason at all
}

inline int empty() {
  return 2;  // det-lint: ok()  // LINE: an empty reason
}

inline int blank() {
  return 3;  // det-lint: ok(   )  // LINE: a blank reason
}

inline int justified() {
  return 4;  // det-lint: ok(fixture: a reason is all it takes)
}

}  // namespace fixture
