#include "core/markov_predictor.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "sim/invariant_auditor.hpp"
#include "util/rng.hpp"

namespace dtn::core {
namespace {

// The next-landmark distribution in a fresh vector.
std::vector<double> distribution(const MarkovPredictor& p) {
  std::vector<double> dist;
  p.next_distribution(dist);
  return dist;
}

TEST(MarkovPredictor, NoPredictionBeforeData) {
  MarkovPredictor p(5, 1);
  EXPECT_FALSE(p.can_predict());
  EXPECT_EQ(p.predict(), kNoLandmark);
  EXPECT_EQ(p.current(), kNoLandmark);
  p.record_visit(2);
  EXPECT_EQ(p.current(), 2u);
  // Context "2" never appeared as a context before: still no prediction.
  EXPECT_FALSE(p.can_predict());
}

TEST(MarkovPredictor, ConsecutiveDuplicatesIgnored) {
  MarkovPredictor p(5, 1);
  p.record_visit(1);
  p.record_visit(1);  // re-association, not a transit
  p.record_visit(1);
  EXPECT_EQ(p.history_length(), 1u);
}

TEST(MarkovPredictor, Order1ConditionalProbabilities) {
  // Counts are substring occurrences (eqs. 2-3): for L = 0 2 1 0,
  // N("0") = 2 (one of them trailing), N("0 2") = 1 -> P(2|0) = 1/2.
  MarkovPredictor q(5, 1);
  for (const LandmarkId l : {0u, 2u, 1u, 0u}) q.record_visit(l);
  EXPECT_DOUBLE_EQ(q.probability_of(2), 0.5);
  EXPECT_DOUBLE_EQ(q.probability_of(1), 0.0);
  EXPECT_EQ(q.predict(), 2u);

  // L = 0 2 1 0 2: N("2") = 2, N("2 1") = 1 -> P(1|2) = 1/2.
  MarkovPredictor r(5, 1);
  for (const LandmarkId l : {0u, 2u, 1u, 0u, 2u}) r.record_visit(l);
  EXPECT_DOUBLE_EQ(r.probability_of(1), 0.5);
  EXPECT_DOUBLE_EQ(r.probability_of(3), 0.0);  // (2,3) not yet observed
}

TEST(MarkovPredictor, DistributionBoundedByOne) {
  MarkovPredictor p(6, 1);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    p.record_visit(static_cast<LandmarkId>(rng.uniform_index(6)));
  }
  ASSERT_TRUE(p.can_predict());
  const auto dist = distribution(p);
  const double total = std::accumulate(dist.begin(), dist.end(), 0.0);
  // The trailing context occurrence has no successor yet, so the
  // conditional mass is (N(c)-1)/N(c) < 1 (Song et al. estimator).
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, 1.0 + 1e-12);
}

TEST(MarkovPredictor, Order2UsesTwoLandmarkContext) {
  // L = 0 1 2 0 1: context (0,1) occurs twice (second is trailing),
  // gram (0,1)->2 once: P(2|(0,1)) = 1/2.
  MarkovPredictor p(5, 2);
  for (const LandmarkId l : {0u, 1u, 2u, 0u, 1u}) p.record_visit(l);
  EXPECT_TRUE(p.can_predict());
  EXPECT_DOUBLE_EQ(p.probability_of(2), 0.5);
  // L = 0 1 2 0 1 3 0 1: N((0,1)) = 3, grams -> {2: 1, 3: 1}.
  MarkovPredictor q(5, 2);
  for (const LandmarkId l : {0u, 1u, 2u, 0u, 1u, 3u, 0u, 1u}) q.record_visit(l);
  EXPECT_DOUBLE_EQ(q.probability_of(2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(q.probability_of(3), 1.0 / 3.0);
}

TEST(MarkovPredictor, Order2NeedsLongerHistory) {
  MarkovPredictor p(5, 2);
  p.record_visit(0);
  EXPECT_FALSE(p.can_predict());
  EXPECT_EQ(p.predict(), kNoLandmark);
  EXPECT_DOUBLE_EQ(p.probability_of(1), 0.0);
}

TEST(MarkovPredictor, PredictPicksArgmax) {
  MarkovPredictor p(4, 1);
  // L = 0 1 0 1 0 2 0: N("0") = 4, grams 0->1 twice, 0->2 once.
  for (const LandmarkId l : {0u, 1u, 0u, 1u, 0u, 2u, 0u}) p.record_visit(l);
  EXPECT_EQ(p.predict(), 1u);
  EXPECT_DOUBLE_EQ(p.probability_of(1), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(p.probability_of(2), 1.0 / 4.0);
}

TEST(MarkovPredictor, TieBreaksToSmallerId) {
  MarkovPredictor p(4, 1);
  for (const LandmarkId l : {0u, 3u, 0u, 1u, 0u}) p.record_visit(l);
  EXPECT_EQ(p.predict(), 1u);  // both seen once; 1 < 3
}

TEST(ScoreSequence, PerfectlyPeriodicIsNearPerfect) {
  std::vector<LandmarkId> seq;
  for (int i = 0; i < 300; ++i) seq.push_back(static_cast<LandmarkId>(i % 3));
  const auto s1 = score_sequence(3, 1, seq);
  EXPECT_GT(s1.predictions, 250u);
  EXPECT_DOUBLE_EQ(s1.accuracy(), 1.0);
  const auto s2 = score_sequence(3, 2, seq);
  EXPECT_DOUBLE_EQ(s2.accuracy(), 1.0);
}

TEST(ScoreSequence, RandomSequenceNearChance) {
  Rng rng(9);
  std::vector<LandmarkId> seq;
  for (int i = 0; i < 5000; ++i) {
    seq.push_back(static_cast<LandmarkId>(rng.uniform_index(8)));
  }
  const auto s = score_sequence(8, 1, seq);
  EXPECT_GT(s.predictions, 3000u);
  EXPECT_LT(s.accuracy(), 0.3);  // chance ~1/7 among distinct successors
}

TEST(ScoreSequence, EmptySequence) {
  const auto s = score_sequence(4, 1, {});
  EXPECT_EQ(s.predictions, 0u);
  EXPECT_DOUBLE_EQ(s.accuracy(), 0.0);
}

// §IV-B.2/3: with complete records higher order is at least as good on
// a pattern that is ambiguous at order 1; with missing records order 1
// wins (the paper's DART/DNET finding).
TEST(ScoreSequence, HigherOrderResolvesAmbiguity) {
  // Pattern: 0 1 2 0 3 2 repeated — after "2" comes 0 always; after
  // "1" comes 2; after "0" comes 1 or 3 (ambiguous at order 1, resolved
  // by order 2 since (2,0)->? no wait: contexts (1,2)->0, (3,2)->0,
  // (2,0)->1 or 3 alternating -- still ambiguous. Use period-4 pattern:
  // 0 1 2 3 0 2 1 3: after 0 comes 1 or 2; order-2 contexts (3,0)->1|2.
  // Simplest truly order-2 pattern: 0 1 0 2 0 1 0 2 ...
  std::vector<LandmarkId> seq;
  for (int i = 0; i < 200; ++i) {
    seq.push_back(0);
    seq.push_back(i % 2 == 0 ? 1 : 2);
  }
  const auto s1 = score_sequence(3, 1, seq);
  const auto s2 = score_sequence(3, 2, seq);
  EXPECT_GT(s2.accuracy(), s1.accuracy());
  EXPECT_GT(s2.accuracy(), 0.95);
}

TEST(ScoreSequence, MissingRecordsHurtHigherOrderMore) {
  // Deterministic cycle over 6 landmarks with 20% records dropped:
  // order-1 contexts survive a single drop, order-3 contexts need four
  // consecutive intact records.
  Rng rng(17);
  std::vector<LandmarkId> seq;
  for (int i = 0; i < 6000; ++i) {
    if (rng.bernoulli(0.2)) continue;
    seq.push_back(static_cast<LandmarkId>(i % 6));
  }
  const auto s1 = score_sequence(6, 1, seq);
  const auto s3 = score_sequence(6, 3, seq);
  EXPECT_GT(s1.accuracy(), s3.accuracy());
}

// Regression: the retired (k+1)-gram key derived gram buckets as
// context_key * 0x9e3779b97f4a7c15 ^ (successor + 1), which can alias
// distinct (context, successor) pairs.  The two order-3 contexts below
// were constructed (via the multiplier's modular inverse) to collide
// under that scheme: recording c2 -> n2 would inflate the gram count
// of c1 -> n1, reporting P(n1 | c1) = 2.0 — a probability above one.
// The flat transition store keys contexts exactly (dense interned ids,
// per-context successor rows), so the pairs cannot share a counter.
TEST(MarkovPredictor, AdversarialGramKeysDoNotAlias) {
  constexpr std::size_t kMaxLandmarks = (1u << 20) - 1;
  // ctx1 . n1 and ctx2 . n2 satisfy
  //   pack(ctx1) * M ^ (n1 + 1) == pack(ctx2) * M ^ (n2 + 1).
  const LandmarkId ctx1[3] = {281691u, 114807u, 836016u};
  const LandmarkId n1 = 655152u;
  const LandmarkId ctx2[3] = {547839u, 188287u, 832127u};
  const LandmarkId n2 = 193577u;

  MarkovPredictor p(kMaxLandmarks, 3);
  for (const LandmarkId l : ctx1) p.record_visit(l);
  p.record_visit(n1);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const LandmarkId l : ctx2) p.record_visit(l);
    p.record_visit(n2);
  }
  // Return to ctx1 and query: N(ctx1) = 2 (one mid-sequence, one
  // trailing), gram ctx1 -> n1 observed exactly once.
  for (const LandmarkId l : ctx1) p.record_visit(l);
  ASSERT_TRUE(p.can_predict());
  EXPECT_DOUBLE_EQ(p.probability_of(n1), 0.5);  // old scheme: 4/2 = 2.0
  EXPECT_DOUBLE_EQ(p.probability_of(n2), 0.0);
  EXPECT_EQ(p.predict(), n1);
  const auto dist = distribution(p);
  double total = 0.0;
  for (const double d : dist) total += d;
  EXPECT_LE(total, 1.0 + 1e-12);
}

TEST(MarkovPredictor, ReusedScratchDistributionMatchesAFreshOne) {
  MarkovPredictor p(9, 2);
  Rng rng(23);
  std::vector<double> scratch(3, -1.0);  // wrong size + junk: must reset
  for (int i = 0; i < 800; ++i) {
    p.record_visit(static_cast<LandmarkId>(rng.uniform_index(9)));
    p.next_distribution(scratch);
    const auto fresh = distribution(p);
    ASSERT_EQ(scratch.size(), fresh.size());
    for (std::size_t l = 0; l < fresh.size(); ++l) {
      EXPECT_EQ(scratch[l], fresh[l]) << "l=" << l << " i=" << i;
    }
  }
}

TEST(VisitingSequence, CollapsesDuplicates) {
  std::vector<trace::Visit> visits = {
      {0, 1, 0.0, 1.0}, {0, 1, 2.0, 3.0}, {0, 2, 4.0, 5.0}, {0, 1, 6.0, 7.0}};
  const auto seq = visiting_sequence(visits);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], 1u);
  EXPECT_EQ(seq[1], 2u);
  EXPECT_EQ(seq[2], 1u);
}

// -- inline storage and its spill path -----------------------------------
//
// The predictor keeps a small model in the object itself (inline probe
// slots, inline successors per row) and spills each to the heap once it
// outgrows them.  The tests below drive both sides of each spill.

// The estimator of eqs. (1)-(3) over plain ordered maps: the behaviour
// the inline-then-spilled store must reproduce exactly.
class ReferencePredictor {
 public:
  ReferencePredictor(std::size_t num_landmarks, std::size_t order)
      : num_landmarks_(num_landmarks), order_(order) {}

  void record_visit(LandmarkId l) {
    if (!history_.empty() && history_.back() == l) return;
    if (history_.size() >= order_) ++grams_[context()][l];
    history_.push_back(l);
    if (history_.size() >= order_) ++contexts_[context()];
  }

  [[nodiscard]] LandmarkId predict() const {
    LandmarkId best = kNoLandmark;
    std::uint32_t best_count = 0;
    for (const auto& [l, count] : successors()) {
      if (count > best_count) {  // ascending ids: ties keep the smaller
        best = l;
        best_count = count;
      }
    }
    return best;
  }

  [[nodiscard]] std::vector<double> distribution() const {
    std::vector<double> dist(num_landmarks_, 0.0);
    if (history_.size() < order_) return dist;
    const auto total = static_cast<double>(contexts_.at(context()));
    for (const auto& [l, count] : successors()) {
      dist[l] = static_cast<double>(count) / total;
    }
    return dist;
  }

 private:
  using Context = std::vector<LandmarkId>;

  [[nodiscard]] Context context() const {
    return Context(history_.end() - static_cast<std::ptrdiff_t>(order_),
                   history_.end());
  }
  [[nodiscard]] std::map<LandmarkId, std::uint32_t> successors() const {
    if (history_.size() < order_) return {};
    const auto it = grams_.find(context());
    return it == grams_.end() ? std::map<LandmarkId, std::uint32_t>{}
                              : it->second;
  }

  std::size_t num_landmarks_;
  std::size_t order_;
  std::vector<LandmarkId> history_;
  std::map<Context, std::uint32_t> contexts_;
  std::map<Context, std::map<LandmarkId, std::uint32_t>> grams_;
};

// Every query entry point of `p` against the reference, plus a clean audit.
void expect_matches(const MarkovPredictor& p, const ReferencePredictor& ref) {
  const auto want = ref.distribution();
  EXPECT_EQ(p.predict(), ref.predict());
  EXPECT_EQ(distribution(p), want);
  for (LandmarkId l = 0; l < want.size(); ++l) {
    ASSERT_EQ(p.probability_of(l), want[l]) << "landmark " << l;
  }
  sim::AuditReport report;
  p.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// A random walk over `num_landmarks` landmarks: enough distinct contexts
// to move the probe table to the heap (more than 16 at order k), and
// rows with more than three successors beside rows with fewer.
std::vector<LandmarkId> spilling_walk(std::size_t num_landmarks,
                                      std::uint64_t seed, int steps) {
  Rng rng(seed);
  std::vector<LandmarkId> walk;
  for (int i = 0; i < steps; ++i) {
    walk.push_back(static_cast<LandmarkId>(rng.uniform_index(num_landmarks)));
  }
  return walk;
}

class PredictorSpillTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PredictorSpillTest, MatchesAMapReferenceAtEveryStep) {
  const std::size_t order = GetParam();
  // Fewer landmarks at higher order keep contexts revisited, so rows
  // collect successors past the inline ones.
  const std::size_t num_landmarks = order == 1 ? 40 : order == 2 ? 9 : 5;
  MarkovPredictor p(num_landmarks, order);
  ReferencePredictor ref(num_landmarks, order);
  for (const LandmarkId l : spilling_walk(num_landmarks, order + 40, 1500)) {
    p.record_visit(l);
    ref.record_visit(l);
    ASSERT_NO_FATAL_FAILURE(expect_matches(p, ref));
  }
}

TEST_P(PredictorSpillTest, CopiesAndMovesPredictIdentically) {
  // A copy and a move target, taken before and after the spills, must
  // carry on exactly like the original: no member may point into the
  // object, and a copied heap row must not be shared.
  const std::size_t order = GetParam();
  const std::size_t num_landmarks = order == 1 ? 40 : order == 2 ? 9 : 5;
  const auto walk = spilling_walk(num_landmarks, order + 70, 1200);
  for (const std::size_t split : {std::size_t{5}, walk.size() / 2}) {
    SCOPED_TRACE("split at " + std::to_string(split));
    MarkovPredictor original(num_landmarks, order);
    for (std::size_t i = 0; i < split; ++i) original.record_visit(walk[i]);
    MarkovPredictor copied(original);
    MarkovPredictor moved{MarkovPredictor(original)};
    MarkovPredictor copy_assigned(num_landmarks, order);
    copy_assigned.record_visit(0);
    copy_assigned = original;
    std::optional<MarkovPredictor> move_assigned(std::in_place,
                                                 num_landmarks, order);
    move_assigned = MarkovPredictor(original);
    ReferencePredictor ref(num_landmarks, order);
    for (std::size_t i = 0; i < split; ++i) ref.record_visit(walk[i]);
    for (std::size_t i = split; i < walk.size(); ++i) {
      for (MarkovPredictor* p :
           {&original, &copied, &moved, &copy_assigned, &*move_assigned}) {
        p->record_visit(walk[i]);
      }
      ref.record_visit(walk[i]);
      for (const MarkovPredictor* p :
           {&original, &copied, &moved, &copy_assigned, &*move_assigned}) {
        ASSERT_NO_FATAL_FAILURE(expect_matches(*p, ref)) << "step " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, PredictorSpillTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(MarkovPredictorAudit, CorruptArgmaxCaughtOnInlineAndSpilledRows) {
  // Context 0 (id 0) gets one successor, then four: the corruption hits
  // an inline row first and a spilled one second.
  using Walk = std::vector<LandmarkId>;
  for (const Walk& walk : {Walk{0, 1, 0}, Walk{0, 1, 0, 2, 0, 3, 0, 4, 0}}) {
    SCOPED_TRACE("walk of " + std::to_string(walk.size()));
    MarkovPredictor p(5, 1);
    for (const LandmarkId l : walk) p.record_visit(l);
    sim::AuditReport clean;
    p.audit(clean);
    ASSERT_TRUE(clean.ok()) << clean.to_string();
    ASSERT_TRUE(p.debug_corrupt_argmax_for_test());
    sim::AuditReport report;
    p.audit(report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("argmax"), std::string::npos)
        << report.to_string();
  }
}

class PredictorOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PredictorOrderTest, ProbabilitiesAreValidDistributionOverRandomData) {
  const std::size_t order = GetParam();
  MarkovPredictor p(7, order);
  Rng rng(order * 31 + 5);
  for (int i = 0; i < 2000; ++i) {
    p.record_visit(static_cast<LandmarkId>(rng.uniform_index(7)));
    double total = 0.0;
    bool any = false;
    for (LandmarkId l = 0; l < 7; ++l) {
      const double prob = p.probability_of(l);
      EXPECT_GE(prob, 0.0);
      EXPECT_LE(prob, 1.0 + 1e-12);
      total += prob;
      any = any || prob > 0.0;
    }
    if (p.can_predict()) {
      EXPECT_GT(total, 0.0);
      EXPECT_LE(total, 1.0 + 1e-9);
      EXPECT_TRUE(any);
      EXPECT_NE(p.predict(), kNoLandmark);
    }
  }
}

TEST_P(PredictorOrderTest, PredictIsModeOfDistribution) {
  const std::size_t order = GetParam();
  MarkovPredictor p(5, order);
  Rng rng(order * 97 + 1);
  for (int i = 0; i < 1000; ++i) {
    p.record_visit(static_cast<LandmarkId>(rng.uniform_index(5)));
  }
  if (p.can_predict()) {
    const auto dist = distribution(p);
    const LandmarkId guess = p.predict();
    for (LandmarkId l = 0; l < 5; ++l) {
      EXPECT_LE(dist[l], dist[guess] + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, PredictorOrderTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace dtn::core
