// Fuzz the incremental order-k Markov predictor against a brute-force
// reference that recounts substring occurrences from scratch (eqs. 2-3).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/markov_predictor.hpp"
#include "util/rng.hpp"

namespace dtn::core {
namespace {

// Reference: P(next = l | last k of seq) via substring counting.
double reference_probability(const std::vector<LandmarkId>& seq,
                             std::size_t order, LandmarkId next) {
  if (seq.size() < order) return 0.0;
  const std::vector<LandmarkId> context(seq.end() - order, seq.end());
  std::size_t n_context = 0;
  std::size_t n_gram = 0;
  for (std::size_t i = 0; i + order <= seq.size(); ++i) {
    bool match = true;
    for (std::size_t k = 0; k < order; ++k) {
      if (seq[i + k] != context[k]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    ++n_context;
    if (i + order < seq.size() && seq[i + order] == next) ++n_gram;
  }
  if (n_context == 0) return 0.0;
  return static_cast<double>(n_gram) / static_cast<double>(n_context);
}

struct FuzzCase {
  std::size_t order;
  std::size_t landmarks;
  std::uint64_t seed;
};

class PredictorFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PredictorFuzzTest, MatchesBruteForceReference) {
  const auto [order, landmarks, seed] = GetParam();
  Rng rng(seed);
  MarkovPredictor predictor(landmarks, order);
  std::vector<LandmarkId> seq;  // the collapsed sequence
  for (int step = 0; step < 400; ++step) {
    const auto l = static_cast<LandmarkId>(rng.uniform_index(landmarks));
    predictor.record_visit(l);
    if (seq.empty() || seq.back() != l) seq.push_back(l);
    // Compare a handful of probabilities each step.
    for (LandmarkId probe = 0; probe < landmarks; ++probe) {
      ASSERT_NEAR(predictor.probability_of(probe),
                  reference_probability(seq, order, probe), 1e-12)
          << "step " << step << " probe " << probe;
    }
  }
  EXPECT_EQ(predictor.history_length(), seq.size());
}

// Queries at random steps only (about 1 in 5): the on-demand query
// index then lags several context switches, while contexts recur, before
// the next query rebuilds it.
TEST_P(PredictorFuzzTest, SparseQueriesMatchBruteForceReference) {
  const auto [order, landmarks, seed] = GetParam();
  Rng rng(seed + 100);
  MarkovPredictor predictor(landmarks, order);
  std::vector<LandmarkId> seq;
  for (int step = 0; step < 1500; ++step) {
    const auto l = static_cast<LandmarkId>(rng.uniform_index(landmarks));
    predictor.record_visit(l);
    if (seq.empty() || seq.back() != l) seq.push_back(l);
    if (!rng.bernoulli(0.2)) continue;
    for (LandmarkId probe = 0; probe < landmarks; ++probe) {
      ASSERT_NEAR(predictor.probability_of(probe),
                  reference_probability(seq, order, probe), 1e-12)
          << "step " << step << " probe " << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PredictorFuzzTest,
    ::testing::Values(FuzzCase{1, 3, 11}, FuzzCase{1, 6, 12},
                      FuzzCase{2, 3, 13}, FuzzCase{2, 5, 14},
                      FuzzCase{3, 3, 15}, FuzzCase{3, 4, 16}));

TEST(PredictorFuzz, ArgmaxConsistentWithProbabilities) {
  Rng rng(77);
  MarkovPredictor predictor(8, 1);
  for (int step = 0; step < 2000; ++step) {
    predictor.record_visit(static_cast<LandmarkId>(rng.uniform_index(8)));
    const LandmarkId guess = predictor.predict();
    if (guess == kNoLandmark) continue;
    const double best = predictor.probability_of(guess);
    for (LandmarkId l = 0; l < 8; ++l) {
      ASSERT_LE(predictor.probability_of(l), best + 1e-12);
    }
  }
}

}  // namespace
}  // namespace dtn::core
