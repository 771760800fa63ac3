// Broader randomized property sweeps over the MCKP solver: gap-bounded
// solves near the exact optimum, the production call checked against the
// independent DP, and feasibility of every returned solution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/solver/mckp.h"

namespace blaze {
namespace {

std::vector<MckpGroup> RandomCacheInstance(Rng& rng, size_t groups) {
  std::vector<MckpGroup> out;
  out.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    MckpGroup group;
    group.choices.push_back({0.0, static_cast<double>(1 + rng.NextU64(20))});   // m
    group.choices.push_back({rng.NextDouble(0.1, 5.0), 0.0});                   // d
    group.choices.push_back({rng.NextDouble(0.1, 50.0), 0.0});                  // u
    out.push_back(std::move(group));
  }
  return out;
}

class MckpGapTest : public ::testing::TestWithParam<uint64_t> {};

// A gap-bounded solve must stay within the gap of the exact optimum.
TEST_P(MckpGapTest, GapBoundedSolveIsNearExact) {
  Rng rng(GetParam());
  const auto groups = RandomCacheInstance(rng, 12);
  double total = 0.0;
  for (const auto& group : groups) {
    total += group.choices[0].weight;
  }
  const double capacity = std::floor(total / 3.0);
  const MckpSolution exact = SolveMckp(groups, capacity);
  const MckpSolution gapped = SolveMckp(groups, capacity, 200000, 0.01);
  ASSERT_EQ(exact.status, MckpStatus::kOptimal);
  ASSERT_EQ(gapped.status, MckpStatus::kOptimal);
  EXPECT_LE(exact.cost, gapped.cost + 1e-9);
  EXPECT_LE(gapped.cost, exact.cost * 1.01 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpGapTest, ::testing::Range<uint64_t>(500, 512));

// Cost and weight of a returned solution; fails the test on an invalid choice
// index or an over-capacity pick.
double CheckFeasible(const std::vector<MckpGroup>& groups, double capacity,
                     const MckpSolution& sol) {
  EXPECT_EQ(sol.choice.size(), groups.size());
  double weight = 0.0;
  double cost = 0.0;
  for (size_t g = 0; g < std::min(groups.size(), sol.choice.size()); ++g) {
    EXPECT_GE(sol.choice[g], 0);
    EXPECT_LT(static_cast<size_t>(sol.choice[g]), groups[g].choices.size());
    if (sol.choice[g] < 0 || static_cast<size_t>(sol.choice[g]) >= groups[g].choices.size()) {
      continue;
    }
    weight += groups[g].choices[sol.choice[g]].weight;
    cost += groups[g].choices[sol.choice[g]].cost;
  }
  EXPECT_LE(weight, capacity + 1e-6);
  EXPECT_NEAR(cost, sol.cost, 1e-6);
  return cost;
}

class MckpProductionCallTest : public ::testing::TestWithParam<uint64_t> {};

// The solve BlazeCoordinator::RunIlpPlan issues (4,000-node cap, 0.2% gap)
// against the independent DP optimum on cache-shaped instances with integer
// sizes: within the gap when it reports kOptimal, feasible and no better than
// the optimum when it stops at the node cap (seed 702 does so at 600 groups).
// Four seeds only: the DP over a 600-group instance takes ~0.2 s.
TEST_P(MckpProductionCallTest, WithinGapOfDpOptimum) {
  Rng rng(GetParam());
  for (size_t num_groups : {10u, 60u, 250u, 600u}) {
    std::vector<MckpGroup> groups;
    double total = 0.0;
    for (size_t g = 0; g < num_groups; ++g) {
      const double size = static_cast<double>(1 + rng.NextU64(100));
      total += size;
      MckpGroup group;
      group.choices.push_back({0.0, size});                       // m
      group.choices.push_back({rng.NextDouble(0.5, 40.0), 0.0});  // d
      group.choices.push_back({rng.NextDouble(0.5, 400.0), 0.0});  // u
      groups.push_back(std::move(group));
    }
    const double capacity = std::floor(total / 3.0);
    const MckpSolution dp = SolveMckpDp(groups, static_cast<int64_t>(capacity));
    const MckpSolution sol =
        SolveMckp(groups, capacity, /*max_nodes=*/4000, /*relative_gap=*/0.002);
    ASSERT_EQ(dp.status, MckpStatus::kOptimal);
    ASSERT_NE(sol.status, MckpStatus::kInfeasible) << num_groups << " groups";
    const double cost = CheckFeasible(groups, capacity, sol);
    EXPECT_GE(cost, dp.cost - 1e-6) << num_groups << " groups";
    if (sol.status == MckpStatus::kOptimal) {
      EXPECT_LE(cost, dp.cost * 1.002 + 1e-6) << num_groups << " groups";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpProductionCallTest, ::testing::Range<uint64_t>(700, 704));

class MckpFeasibilityTest : public ::testing::TestWithParam<uint64_t> {};

// Every returned solution must satisfy the capacity constraint and pick a
// valid choice per group.
TEST_P(MckpFeasibilityTest, SolutionsAreFeasible) {
  Rng rng(GetParam());
  const size_t n = 5 + rng.NextU64(40);
  const auto groups = RandomCacheInstance(rng, n);
  const double capacity = static_cast<double>(rng.NextU64(200));
  const MckpSolution sol = SolveMckp(groups, capacity);
  // With zero-weight choices in every group, infeasibility is impossible.
  ASSERT_NE(sol.status, MckpStatus::kInfeasible) << "instance wrongly infeasible";
  CheckFeasible(groups, capacity, sol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpFeasibilityTest, ::testing::Range<uint64_t>(900, 916));

}  // namespace
}  // namespace blaze
