// Exact multiple-choice knapsack (MCKP) solver.
//
// Blaze's cache-state ILP (paper Eq. 5-6) is, per solver round, exactly an
// MCKP: each partition is a group whose choices are
//     memory    (cost 0,       weight size)
//     disk      (cost cost_d,  weight 0)
//     unpersist (cost cost_r,  weight 0)
// with one choice per group and a total-weight (memory capacity) budget,
// minimizing total cost. This solver is the production path: best-first
// branch-and-bound with the classic convex-hull LP relaxation bound
// (Sinha-Zoltners), exact unless a gap or node cap is given. A DP variant over
// integer weights cross-checks it in tests.
#ifndef SRC_SOLVER_MCKP_H_
#define SRC_SOLVER_MCKP_H_

#include <cstdint>
#include <vector>

namespace blaze {

struct MckpChoice {
  double cost = 0.0;    // objective contribution if chosen (minimized)
  double weight = 0.0;  // capacity consumption if chosen (>= 0)
};

struct MckpGroup {
  std::vector<MckpChoice> choices;  // exactly one must be chosen
};

enum class MckpStatus { kOptimal, kInfeasible, kNodeLimit };

struct MckpSolution {
  MckpStatus status = MckpStatus::kInfeasible;
  double cost = 0.0;
  std::vector<int> choice;  // index into each group's choices
};

// Branch-and-bound, exact by default. `relative_gap` > 0 allows early
// termination once the incumbent is within that fraction of the lower bound
// (the production cache path trades a 0.2% gap for strictly bounded latency,
// mirroring the paper's ILP time budget); max_nodes caps the search tree and
// returns the incumbent with kNodeLimit when exceeded.
MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, double capacity,
                       int max_nodes = 200000, double relative_gap = 0.0);

// Exact DP requiring integer weights; O(groups * capacity * choices). Used to
// cross-check SolveMckp on small instances.
MckpSolution SolveMckpDp(const std::vector<MckpGroup>& groups, int64_t capacity);

}  // namespace blaze

#endif  // SRC_SOLVER_MCKP_H_
