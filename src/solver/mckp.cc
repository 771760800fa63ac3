#include "src/solver/mckp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "src/common/logging.h"

namespace blaze {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// One undominated choice of a group, kept sorted by weight ascending.
struct Item {
  int original_index;
  double cost;
  double weight;
  bool on_hull = false;
};

// Per-group preprocessed view.
struct Group {
  std::vector<Item> items;      // undominated, weight ascending, cost strictly descending
  std::vector<int> hull;        // indices into items forming the lower convex hull
};

// Removes dominated choices (higher-or-equal weight AND cost) and marks the
// convex hull used by the LP relaxation.
Group Preprocess(const MckpGroup& g) {
  Group out;
  std::vector<Item> sorted;
  sorted.reserve(g.choices.size());
  for (size_t i = 0; i < g.choices.size(); ++i) {
    sorted.push_back({static_cast<int>(i), g.choices[i].cost, g.choices[i].weight, false});
  }
  std::sort(sorted.begin(), sorted.end(), [](const Item& a, const Item& b) {
    if (a.weight != b.weight) {
      return a.weight < b.weight;
    }
    return a.cost < b.cost;
  });
  // Keep strictly cost-decreasing sequence: an item with >= cost than a
  // lighter one can never be preferable.
  for (const Item& it : sorted) {
    if (out.items.empty() || it.cost < out.items.back().cost - kEps) {
      out.items.push_back(it);
    }
  }
  // Lower convex hull over (weight, cost): incremental efficiencies
  // (cost drop per weight unit) must be decreasing.
  for (size_t i = 0; i < out.items.size(); ++i) {
    while (out.hull.size() >= 2) {
      const Item& a = out.items[out.hull[out.hull.size() - 2]];
      const Item& b = out.items[out.hull.back()];
      const Item& c = out.items[i];
      // Efficiency a->b must exceed b->c, else b is LP-dominated.
      const double eff_ab = (a.cost - b.cost) / (b.weight - a.weight);
      const double eff_bc = (b.cost - c.cost) / (c.weight - b.weight);
      if (eff_ab <= eff_bc + kEps) {
        out.hull.pop_back();
      } else {
        break;
      }
    }
    out.hull.push_back(static_cast<int>(i));
  }
  for (int h : out.hull) {
    out.items[h].on_hull = true;
  }
  return out;
}

// An "upgrade" step along a group's hull: move from hull point k to k+1.
struct Upgrade {
  int group;
  int hull_pos;  // upgrade from hull[hull_pos] to hull[hull_pos + 1]
  double dweight;
  double dcost;  // negative (cost reduction)
  double efficiency;  // -dcost / dweight
};

struct BoundResult {
  bool feasible = false;
  double bound = kInf;
  // -1 if the LP solution is integral; otherwise the group with a fractional upgrade.
  int fractional_group = -1;
  // LP-integral completion: per free group, chosen item index (into Group::items).
  std::vector<int> completion;
};

// Every group's cost-reducing hull upgrades, built once per solve in one total
// order: efficiency descending, then group, then hull position. Each group's
// hull has strictly decreasing efficiencies, so its upgrades appear in hull
// order and the greedy below takes them as a prefix.
std::vector<Upgrade> SortedUpgrades(const std::vector<Group>& groups) {
  std::vector<Upgrade> upgrades;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Group& grp = groups[g];
    for (size_t k = 0; k + 1 < grp.hull.size(); ++k) {
      const Item& from = grp.items[grp.hull[k]];
      const Item& to = grp.items[grp.hull[k + 1]];
      const double dw = to.weight - from.weight;
      const double dc = to.cost - from.cost;
      const double efficiency = -dc / dw;
      if (efficiency > kEps) {
        upgrades.push_back({static_cast<int>(g), static_cast<int>(k), dw, dc, efficiency});
      }
    }
  }
  std::sort(upgrades.begin(), upgrades.end(), [](const Upgrade& a, const Upgrade& b) {
    if (a.efficiency != b.efficiency) {
      return a.efficiency > b.efficiency;
    }
    if (a.group != b.group) {
      return a.group < b.group;
    }
    return a.hull_pos < b.hull_pos;
  });
  return upgrades;
}

// LP relaxation over the free groups given remaining capacity: one linear pass
// over the presorted upgrades, skipping fixed groups. Fixed groups'
// cost/weight are already subtracted by the caller.
BoundResult LpBound(const std::vector<Group>& groups, const std::vector<Upgrade>& upgrades,
                    const std::vector<int>& fixed, double remaining_capacity) {
  BoundResult res;
  res.completion.assign(groups.size(), -1);
  double base_cost = 0.0;
  double base_weight = 0.0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (fixed[g] != -1) {
      continue;
    }
    const Group& grp = groups[g];
    const Item& lightest = grp.items[grp.hull[0]];
    base_cost += lightest.cost;
    base_weight += lightest.weight;
    res.completion[g] = grp.hull[0];
  }
  if (base_weight > remaining_capacity + kEps) {
    return res;  // even the lightest completion does not fit
  }

  double cap = remaining_capacity - base_weight;
  double cost = base_cost;
  for (const Upgrade& up : upgrades) {
    if (fixed[up.group] != -1) {
      continue;
    }
    if (up.dweight <= cap + kEps) {
      cap -= up.dweight;
      cost += up.dcost;
      res.completion[up.group] = groups[up.group].hull[up.hull_pos + 1];
    } else {
      // Fractional take: LP bound improves by the affordable fraction.
      const double frac = cap / up.dweight;
      cost += frac * up.dcost;
      res.fractional_group = up.group;
      cap = 0.0;
      break;
    }
  }
  res.feasible = true;
  res.bound = cost;
  return res;
}

struct Node {
  std::vector<int> fixed;  // -1 free; otherwise index into Group::items
  double fixed_cost = 0.0;
  double fixed_weight = 0.0;
  double bound = 0.0;
  int branch_group = -1;
};

struct NodeCompare {
  bool operator()(const std::shared_ptr<Node>& a, const std::shared_ptr<Node>& b) const {
    return a->bound > b->bound;
  }
};

}  // namespace

MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, double capacity, int max_nodes,
                       double relative_gap) {
  MckpSolution out;
  const size_t n = groups.size();
  if (n == 0) {
    out.status = MckpStatus::kOptimal;
    return out;
  }
  std::vector<Group> pre(n);
  for (size_t g = 0; g < n; ++g) {
    BLAZE_CHECK(!groups[g].choices.empty()) << "MCKP group " << g << " has no choices";
    pre[g] = Preprocess(groups[g]);
  }
  const std::vector<Upgrade> upgrades = SortedUpgrades(pre);

  double best_cost = kInf;
  std::vector<int> best_choice;

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>, NodeCompare>
      open;
  auto root = std::make_shared<Node>();
  root->fixed.assign(n, -1);
  {
    const BoundResult b = LpBound(pre, upgrades, root->fixed, capacity);
    if (!b.feasible) {
      return out;  // infeasible
    }
    root->bound = b.bound;
    root->branch_group = b.fractional_group;
    if (b.fractional_group == -1) {
      // Root LP already integral => optimal.
      out.status = MckpStatus::kOptimal;
      out.cost = b.bound;
      out.choice.assign(n, 0);
      for (size_t g = 0; g < n; ++g) {
        out.choice[g] = pre[g].items[b.completion[g]].original_index;
      }
      return out;
    }
  }
  open.push(root);

  int nodes = 0;
  bool hit_limit = false;
  while (!open.empty()) {
    if (++nodes > max_nodes) {
      hit_limit = true;
      break;
    }
    auto node = open.top();
    open.pop();
    // Prune against the incumbent, optionally with a relative tolerance: a
    // node whose bound is within `relative_gap` of the incumbent cannot
    // improve it meaningfully.
    const double prune_at = best_cost - kEps - relative_gap * std::abs(best_cost);
    if (node->bound >= prune_at) {
      continue;
    }
    const int bg = node->branch_group;
    BLAZE_CHECK_GE(bg, 0);
    // Branch over every undominated choice of the fractional group (LP-dominated
    // non-hull choices can still be integer-optimal, so all must be covered).
    for (size_t item_idx = 0; item_idx < pre[bg].items.size(); ++item_idx) {
      const Item& item = pre[bg].items[item_idx];
      const double fw = node->fixed_weight + item.weight;
      if (fw > capacity + kEps) {
        continue;
      }
      auto child = std::make_shared<Node>();
      child->fixed = node->fixed;
      child->fixed[bg] = static_cast<int>(item_idx);
      child->fixed_cost = node->fixed_cost + item.cost;
      child->fixed_weight = fw;
      const BoundResult b = LpBound(pre, upgrades, child->fixed, capacity - child->fixed_weight);
      if (!b.feasible) {
        continue;
      }
      const double bound = child->fixed_cost + b.bound;
      if (bound >= best_cost - kEps) {
        continue;
      }
      if (b.fractional_group == -1) {
        // Integral completion: optimal for this subtree, record and prune.
        best_cost = bound;
        best_choice.assign(n, 0);
        for (size_t g = 0; g < n; ++g) {
          if (child->fixed[g] != -1) {
            best_choice[g] = pre[g].items[child->fixed[g]].original_index;
          } else {
            best_choice[g] = pre[g].items[b.completion[g]].original_index;
          }
        }
        continue;
      }
      child->bound = bound;
      child->branch_group = b.fractional_group;
      open.push(child);
    }
  }

  if (std::isfinite(best_cost)) {
    out.status = hit_limit ? MckpStatus::kNodeLimit : MckpStatus::kOptimal;
    out.cost = best_cost;
    out.choice = std::move(best_choice);
  }
  return out;
}

MckpSolution SolveMckpDp(const std::vector<MckpGroup>& groups, int64_t capacity) {
  MckpSolution out;
  const size_t n = groups.size();
  const size_t w = static_cast<size_t>(capacity) + 1;
  // dp[g][c] = min cost using groups [0, g) with weight budget exactly <= c.
  std::vector<double> dp(w, 0.0);
  std::vector<std::vector<int>> pick(n, std::vector<int>(w, -1));
  for (size_t g = 0; g < n; ++g) {
    std::vector<double> next(w, kInf);
    for (size_t c = 0; c < w; ++c) {
      if (std::isinf(dp[c])) {
        continue;
      }
      for (size_t k = 0; k < groups[g].choices.size(); ++k) {
        const MckpChoice& ch = groups[g].choices[k];
        const auto cw = static_cast<int64_t>(std::llround(ch.weight));
        BLAZE_CHECK_GE(cw, 0);
        BLAZE_CHECK_EQ(static_cast<double>(cw), ch.weight) << "DP requires integer weights";
        const size_t nc = c + static_cast<size_t>(cw);
        if (nc >= w) {
          continue;
        }
        if (dp[c] + ch.cost < next[nc]) {
          next[nc] = dp[c] + ch.cost;
          pick[g][nc] = static_cast<int>(k);
        }
      }
    }
    dp = std::move(next);
  }
  size_t best_c = w;
  double best = kInf;
  for (size_t c = 0; c < w; ++c) {
    if (dp[c] < best) {
      best = dp[c];
      best_c = c;
    }
  }
  if (best_c == w) {
    return out;  // infeasible
  }
  out.status = MckpStatus::kOptimal;
  out.cost = best;
  out.choice.assign(n, 0);
  size_t c = best_c;
  for (size_t g = n; g-- > 0;) {
    const int k = pick[g][c];
    BLAZE_CHECK_GE(k, 0);
    out.choice[g] = k;
    c -= static_cast<size_t>(std::llround(groups[g].choices[k].weight));
  }
  return out;
}

}  // namespace blaze
