#include <gtest/gtest.h>

#include <optional>

#include "src/common/rng.h"
#include "src/solver/mckp.h"

namespace blaze {
namespace {

MckpGroup Group(std::initializer_list<MckpChoice> choices) {
  MckpGroup g;
  g.choices = choices;
  return g;
}

// Exhaustive oracle: the cheapest feasible choice vector over every
// combination (prod |choices| of them), or nullopt when none fits.
std::optional<double> EnumerateMckp(const std::vector<MckpGroup>& groups, double capacity) {
  std::optional<double> best;
  std::vector<size_t> pick(groups.size(), 0);
  for (;;) {
    double cost = 0.0;
    double weight = 0.0;
    for (size_t g = 0; g < groups.size(); ++g) {
      cost += groups[g].choices[pick[g]].cost;
      weight += groups[g].choices[pick[g]].weight;
    }
    if (weight <= capacity && (!best || cost < *best)) {
      best = cost;
    }
    size_t g = 0;
    while (g < groups.size() && ++pick[g] == groups[g].choices.size()) {
      pick[g++] = 0;
    }
    if (g == groups.size()) {
      return best;
    }
  }
}

TEST(MckpTest, EmptyProblemIsTriviallyOptimal) {
  const MckpSolution sol = SolveMckp({}, 10.0);
  EXPECT_EQ(sol.status, MckpStatus::kOptimal);
  EXPECT_EQ(sol.cost, 0.0);
}

TEST(MckpTest, SingleGroupPicksCheapestFeasible) {
  std::vector<MckpGroup> groups{Group({{5.0, 0.0}, {0.0, 20.0}, {2.0, 3.0}})};
  const MckpSolution sol = SolveMckp(groups, 10.0);
  ASSERT_EQ(sol.status, MckpStatus::kOptimal);
  // Free choice weighs 20 (> cap 10); best feasible is cost 2 at weight 3.
  EXPECT_DOUBLE_EQ(sol.cost, 2.0);
  EXPECT_EQ(sol.choice[0], 2);
}

TEST(MckpTest, InfeasibleWhenEveryChoiceTooHeavy) {
  std::vector<MckpGroup> groups{Group({{0.0, 20.0}, {1.0, 15.0}})};
  EXPECT_EQ(SolveMckp(groups, 10.0).status, MckpStatus::kInfeasible);
}

TEST(MckpTest, CacheShapedInstance) {
  // Three "partitions": memory (0, size) / disk (cost_d, 0) / drop (cost_r, 0).
  // Capacity fits only the most valuable one in memory.
  std::vector<MckpGroup> groups{
      Group({{0.0, 10.0}, {4.0, 0.0}, {9.0, 0.0}}),   // valuable: keep in memory
      Group({{0.0, 10.0}, {3.0, 0.0}, {1.0, 0.0}}),   // cheap to recompute: drop
      Group({{0.0, 10.0}, {2.0, 0.0}, {6.0, 0.0}}),   // cheaper on disk
  };
  const MckpSolution sol = SolveMckp(groups, 10.0);
  ASSERT_EQ(sol.status, MckpStatus::kOptimal);
  EXPECT_EQ(sol.choice[0], 0);  // memory
  EXPECT_EQ(sol.choice[1], 2);  // unpersist (recompute = 1 < disk = 3)
  EXPECT_EQ(sol.choice[2], 1);  // disk (2 < recompute 6)
  EXPECT_DOUBLE_EQ(sol.cost, 3.0);
}

TEST(MckpTest, DpMatchesOnSmallInstance) {
  std::vector<MckpGroup> groups{
      Group({{0.0, 4.0}, {5.0, 0.0}}),
      Group({{0.0, 3.0}, {2.0, 0.0}}),
      Group({{0.0, 5.0}, {7.0, 1.0}}),
  };
  const MckpSolution bb = SolveMckp(groups, 8.0);
  const MckpSolution dp = SolveMckpDp(groups, 8);
  ASSERT_EQ(bb.status, MckpStatus::kOptimal);
  ASSERT_EQ(dp.status, MckpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(bb.cost, dp.cost);
}

// Randomized three-way cross-check: branch-and-bound vs DP vs exhaustive
// enumeration (at most 4^7 choice vectors per instance).
class MckpRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MckpRandomTest, AllThreeSolversAgree) {
  Rng rng(GetParam());
  const size_t num_groups = 2 + rng.NextU64(6);
  std::vector<MckpGroup> groups;
  for (size_t g = 0; g < num_groups; ++g) {
    MckpGroup group;
    const size_t num_choices = 2 + rng.NextU64(3);
    for (size_t c = 0; c < num_choices; ++c) {
      MckpChoice choice;
      choice.cost = static_cast<double>(rng.NextU64(50));
      choice.weight = static_cast<double>(rng.NextU64(8));
      group.choices.push_back(choice);
    }
    groups.push_back(std::move(group));
  }
  const double capacity = static_cast<double>(4 + rng.NextU64(20));

  const MckpSolution bb = SolveMckp(groups, capacity);
  const MckpSolution dp = SolveMckpDp(groups, static_cast<int64_t>(capacity));
  const std::optional<double> enumerated = EnumerateMckp(groups, capacity);
  ASSERT_EQ(bb.status, dp.status);
  ASSERT_EQ(bb.status == MckpStatus::kOptimal, enumerated.has_value());
  if (bb.status != MckpStatus::kOptimal) {
    return;
  }
  EXPECT_NEAR(bb.cost, dp.cost, 1e-6);
  EXPECT_NEAR(*enumerated, bb.cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpRandomTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808, 909, 1010,
                                           1111, 1212));

TEST(MckpTest, ScalesToCacheSizedInstances) {
  // 300 partitions with byte-scale weights: must solve well under the paper's
  // 5-second ILP budget.
  Rng rng(42);
  std::vector<MckpGroup> groups;
  double total_weight = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double size = static_cast<double>(1 + rng.NextU64(8 << 20));
    total_weight += size;
    groups.push_back(Group({{0.0, size},
                            {static_cast<double>(rng.NextU64(1000)) / 10.0, 0.0},
                            {static_cast<double>(rng.NextU64(4000)) / 10.0, 0.0}}));
  }
  const MckpSolution sol = SolveMckp(groups, total_weight / 3.0);
  EXPECT_EQ(sol.status, MckpStatus::kOptimal);
  EXPECT_GE(sol.cost, 0.0);
}

}  // namespace
}  // namespace blaze
