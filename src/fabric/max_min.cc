// MaxMinSolver: the production progressive-filling engine with a retained
// delta path. The full solve (SetupFromInputs + RunRounds) reproduces
// SolveMaxMinReference bit-for-bit; the delta path (SolveDelta) replays the
// retained per-round trace against changed demands and only re-runs filling
// rounds from the first proven divergence. See DESIGN.md §5.1 for the
// replay rule and the determinism argument.

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/check.h"
#include "src/fabric/max_min.h"

namespace mihn::fabric {

namespace {

constexpr double kEps = 1e-9;
constexpr double kMinWeight = 1e-12;
// Multiplicative slack when harvesting at-demand candidates from the fix
// heap. The heap key (demand - demand_tol)/weight is computed with two
// roundings (~2 ulp ≈ 4.4e-16 relative), so any flow the reference would fix
// at water level L has key <= L * (1 + kFixSlack). Over-harvested flows fail
// the exact re-check and are pushed back, so the slack only costs work,
// never correctness.
constexpr double kFixSlack = 1e-12;
constexpr size_t kMaxCheckpoints = 48;

constexpr int32_t kDeadRound = -1;
constexpr int32_t kNeverFixed = std::numeric_limits<int32_t>::max();
constexpr int32_t kNeverSat = std::numeric_limits<int32_t>::max();

using HeapEntry = std::pair<double, int32_t>;

struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const { return a.first > b.first; }
};

inline void HeapPush(std::vector<HeapEntry>& h, double key, int32_t flow) {
  h.emplace_back(key, flow);
  std::push_heap(h.begin(), h.end(), HeapGreater{});
}

inline void HeapPop(std::vector<HeapEntry>& h) {
  std::pop_heap(h.begin(), h.end(), HeapGreater{});
  h.pop_back();
}

inline double DemandTol(double demand) { return std::max(kEps, demand * 1e-9); }

}  // namespace

// ---------------------------------------------------------------------------
// Batch API
// ---------------------------------------------------------------------------

void MaxMinSolver::Begin(size_t num_links) {
  num_links_ = num_links;
  num_flows_ = 0;
  capacities_.assign(num_links, 0.0);
  flow_weight_.clear();
  flow_demand_.clear();
  flow_link_off_.assign(1, 0);
  flow_link_ids_.clear();
  primed_ = false;
  force_full_ = false;
  flow_muts_.clear();
}

void MaxMinSolver::SetCapacity(int32_t link, double capacity) {
  if (link >= 0 && static_cast<size_t>(link) < num_links_) {
    capacities_[static_cast<size_t>(link)] = capacity;
  }
}

int32_t MaxMinSolver::AddFlow(double weight, double demand, const int32_t* links, size_t count) {
  const int32_t slot = static_cast<int32_t>(num_flows_);
  flow_weight_.push_back(std::max(weight, kMinWeight));
  flow_demand_.push_back(demand);
  const size_t start = flow_link_ids_.size();
  flow_link_ids_.insert(flow_link_ids_.end(), links, links + count);
  // The reference dedups each flow's link list; replicate on ingest so the
  // per-flow CSR slice is always sorted + unique.
  bool sorted_unique = true;
  for (size_t i = start + 1; i < flow_link_ids_.size(); ++i) {
    if (flow_link_ids_[i - 1] >= flow_link_ids_[i]) {
      sorted_unique = false;
      break;
    }
  }
  if (!sorted_unique) {
    std::sort(flow_link_ids_.begin() + static_cast<ptrdiff_t>(start), flow_link_ids_.end());
    auto last = std::unique(flow_link_ids_.begin() + static_cast<ptrdiff_t>(start),
                            flow_link_ids_.end());
    flow_link_ids_.erase(last, flow_link_ids_.end());
  }
  flow_link_off_.push_back(static_cast<int32_t>(flow_link_ids_.size()));
  ++num_flows_;
  return slot;
}

const std::vector<double>& MaxMinSolver::Commit() {
  SetupFromInputs();
  RunRounds(0.0, 0);
  for (size_t f = 0; f < num_flows_; ++f) {
    if (!fixed_[f]) {
      rates_[f] = flow_demand_[f];
    }
  }
  primed_ = true;
  return rates_;
}

const std::vector<double>& MaxMinSolver::Solve(const std::vector<MaxMinFlow>& flows,
                                               const std::vector<double>& capacities) {
  Begin(capacities.size());
  for (size_t l = 0; l < capacities.size(); ++l) {
    capacities_[l] = capacities[l];
  }
  for (const MaxMinFlow& f : flows) {
    AddFlow(f.weight, f.demand, f.links.data(), f.links.size());
  }
  return Commit();
}

// ---------------------------------------------------------------------------
// Full-solve core
// ---------------------------------------------------------------------------

void MaxMinSolver::SetupFromInputs() {
  const size_t nf = num_flows_;
  const size_t nl = num_links_;

  rates_.assign(nf, 0.0);
  residual_ = capacities_;
  link_weight_.assign(nl, 0.0);
  fixed_.assign(nf, 0);
  dead_.assign(nf, 0);
  fix_round_.assign(nf, kNeverFixed);
  unfixed_ = 0;

  // Dead scan + per-link weight accumulation in flow order (the reference's
  // accumulation order; weight sums must match it bit-for-bit).
  for (size_t f = 0; f < nf; ++f) {
    const int32_t lo = flow_link_off_[f];
    const int32_t hi = flow_link_off_[f + 1];
    bool dead = flow_demand_[f] <= 0.0;
    for (int32_t i = lo; i < hi; ++i) {
      const int32_t l = flow_link_ids_[static_cast<size_t>(i)];
      if (l < 0 || static_cast<size_t>(l) >= nl || capacities_[static_cast<size_t>(l)] <= 0.0) {
        dead = true;
      }
    }
    if (dead) {
      dead_[f] = 1;
      fixed_[f] = 1;
      fix_round_[f] = kDeadRound;
      continue;
    }
    ++unfixed_;
    const double w = flow_weight_[f];
    for (int32_t i = lo; i < hi; ++i) {
      link_weight_[static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)])] += w;
    }
  }

  // Link -> live member flows, CSR, members ascending (counting sort over
  // flows in ascending order).
  link_flow_off_.assign(nl + 1, 0);
  for (size_t f = 0; f < nf; ++f) {
    if (dead_[f]) {
      continue;
    }
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      ++link_flow_off_[static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]) + 1];
    }
  }
  for (size_t l = 0; l < nl; ++l) {
    link_flow_off_[l + 1] += link_flow_off_[l];
  }
  link_flow_ids_.resize(static_cast<size_t>(link_flow_off_[nl]));
  id_buffer_.assign(link_flow_off_.begin(), link_flow_off_.end() - 1);
  for (size_t f = 0; f < nf; ++f) {
    if (dead_[f]) {
      continue;
    }
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
      link_flow_ids_[static_cast<size_t>(id_buffer_[l]++)] = static_cast<int32_t>(f);
    }
  }

  link_unfixed_.assign(nl, 0);
  link_cursor_.assign(nl, 0);
  for (size_t l = 0; l < nl; ++l) {
    link_unfixed_[l] = link_flow_off_[l + 1] - link_flow_off_[l];
    link_cursor_[l] = link_flow_off_[l];
  }

  // Active link set with dense SoA mirrors. A link is active while its
  // unfixed-member weight is nonzero; links with weight in (0, kMinWeight]
  // stay active (the reference still charges them) but never pin the level.
  active_links_.clear();
  active_pos_.assign(nl, -1);
  act_res_.clear();
  act_lw_.clear();
  act_thr_.clear();
  act_unfixed_.clear();
  act_satrec_.clear();
  for (size_t l = 0; l < nl; ++l) {
    if (link_weight_[l] > 0.0) {
      active_pos_[l] = static_cast<int32_t>(active_links_.size());
      active_links_.push_back(static_cast<int32_t>(l));
      act_res_.push_back(residual_[l]);
      act_lw_.push_back(link_weight_[l]);
      act_thr_.push_back(capacities_[l] * 1e-12 + kEps);
      act_unfixed_.push_back(link_unfixed_[l]);
      act_satrec_.push_back(0);
    }
  }

  heap_level_.clear();
  heap_fix_.clear();
  for (size_t f = 0; f < nf; ++f) {
    if (fixed_[f]) {
      continue;
    }
    const double w = flow_weight_[f];
    const double d = flow_demand_[f];
    heap_level_.emplace_back(d / w, static_cast<int32_t>(f));
    heap_fix_.emplace_back((d - DemandTol(d)) / w, static_cast<int32_t>(f));
  }
  std::make_heap(heap_level_.begin(), heap_level_.end(), HeapGreater{});
  std::make_heap(heap_fix_.begin(), heap_fix_.end(), HeapGreater{});

  candidates_.clear();
  candidate_epoch_.assign(nf, 0);
  epoch_ = 0;
  cur_round_ = 0;

  // Trace reset: this full solve becomes the delta engine's new baseline.
  trace_level_.clear();
  trace_link_level_.clear();
  trace_forced_.clear();
  sat_round_.assign(nl, kNeverSat);
  ckpt_count_ = 0;
  ckpt_stride_ = 1;
  last_ckpt_round_ = 0;

  flow_muts_.clear();
  force_full_ = false;
}

void MaxMinSolver::RemoveActiveLink(size_t pos) {
  const size_t l = static_cast<size_t>(active_links_[pos]);
  residual_[l] = act_res_[pos];
  link_weight_[l] = act_lw_[pos];
  active_pos_[l] = -1;
  const size_t last = active_links_.size() - 1;
  if (pos != last) {
    active_links_[pos] = active_links_[last];
    act_res_[pos] = act_res_[last];
    act_lw_[pos] = act_lw_[last];
    act_thr_[pos] = act_thr_[last];
    act_unfixed_[pos] = act_unfixed_[last];
    act_satrec_[pos] = act_satrec_[last];
    active_pos_[static_cast<size_t>(active_links_[pos])] = static_cast<int32_t>(pos);
  }
  active_links_.pop_back();
  act_res_.pop_back();
  act_lw_.pop_back();
  act_thr_.pop_back();
  act_unfixed_.pop_back();
  act_satrec_.pop_back();
}

double MaxMinSolver::ResidualOf(size_t link) const {
  const int32_t pos = active_pos_[link];
  return pos >= 0 ? act_res_[static_cast<size_t>(pos)] : residual_[link];
}

void MaxMinSolver::FixFlow(int32_t flow, double rate) {
  const size_t f = static_cast<size_t>(flow);
  rates_[f] = rate;
  fixed_[f] = 1;
  fix_round_[f] = static_cast<int32_t>(cur_round_);
  --unfixed_;
  ++fixed_this_round_;
  const double w = flow_weight_[f];
  for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
    const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
    --link_unfixed_[l];  // Only live flows reach here, so every link is valid.
    const int32_t pos = active_pos_[l];
    if (pos >= 0) {
      --act_unfixed_[static_cast<size_t>(pos)];
      double& lw = act_lw_[static_cast<size_t>(pos)];
      lw -= w;
      if (lw < 0.0) {
        lw = 0.0;
      }
      // Exact-zero drain: subtracting back every double that was added
      // returns the sum to exactly 0.0; only then may the link leave the
      // active set, so rounding dust can never pin the water level on a
      // memberless link.
      if (lw == 0.0) {  // mihn-check: float-eq-ok(exact-zero drain rule, DESIGN.md §5)
        RemoveActiveLink(static_cast<size_t>(pos));
      }
    } else {
      link_weight_[l] -= w;
      if (link_weight_[l] < 0.0) {
        link_weight_[l] = 0.0;
      }
    }
  }
}

void MaxMinSolver::StoreCheckpoint(size_t round, double level) {
  if (ckpt_count_ == ckpts_.size()) {
    ckpts_.emplace_back();
  }
  Checkpoint& c = ckpts_[ckpt_count_];
  c.round = round;
  c.level = level;
  c.res = residual_;
  c.lw = link_weight_;
  for (size_t i = 0; i < active_links_.size(); ++i) {
    const size_t l = static_cast<size_t>(active_links_[i]);
    c.res[l] = act_res_[i];
    c.lw[l] = act_lw_[i];
  }
  ++ckpt_count_;
  last_ckpt_round_ = round;
  if (ckpt_count_ > kMaxCheckpoints) {
    // Stride-doubling compaction: keep every second checkpoint (round 0
    // always survives) so the pool stays O(kMaxCheckpoints) regardless of
    // round count.
    const size_t kept = (ckpt_count_ + 1) / 2;
    for (size_t i = 1; i < kept; ++i) {
      std::swap(ckpts_[i], ckpts_[2 * i]);
    }
    ckpt_count_ = kept;
    ckpt_stride_ *= 2;
    last_ckpt_round_ = ckpts_[kept - 1].round;
  }
}

// The flow the reference's forced-fix guard would select: the lowest-index
// unfixed flow whose constraint bound min(d/w, min over its weighted links
// of level + residual/link_weight) is globally minimal.
//
// The reference recomputes that bound for every unfixed flow — O(F × L) per
// forced round, which degenerates badly in the stall regime (a drained
// link's weight dust pins the water level, so every remaining flow is
// force-fixed one per round). This computes the identical argmin in
// O(active links + log F): every unfixed flow's link terms are drawn from
// {level + res_l/lw_l : link l carries an unfixed member}, so the global
// bound minimum is
//
//   B = min( min over unfixed flows of d/w,        — heap_level_'s top
//            min over member-carrying links of s_l )
//
// and since no unfixed flow holds a term below B, a flow's bound equals B
// exactly when one of its terms equals B. The reference's strict-less scan
// returns the lowest index among those flows: the minimum of heap_level_'s
// key ties and each B-achieving link's lowest-index unfixed member (its
// member CSR ascends, so the monotone cursor past the fixed prefix yields it
// in amortized O(1)).
int32_t MaxMinSolver::ForcedArgmin(double level) {
  double b_key = std::numeric_limits<double>::infinity();
  while (!heap_level_.empty() && fixed_[static_cast<size_t>(heap_level_.front().second)]) {
    HeapPop(heap_level_);
  }
  if (!heap_level_.empty()) {
    b_key = heap_level_.front().first;
  }
  double b_link = std::numeric_limits<double>::infinity();
  const size_t na = active_links_.size();
  for (size_t i = 0; i < na; ++i) {
    if (act_lw_[i] > kMinWeight && act_unfixed_[i] > 0) {
      const double t = level + act_res_[i] / act_lw_[i];
      b_link = t < b_link ? t : b_link;
    }
  }
  const double best = b_key < b_link ? b_key : b_link;
  if (!std::isfinite(best)) {
    return -1;  // Every remaining bound is infinite: the reference scan
                // selects nothing and the unconstrained-tail rule takes over.
  }
  int32_t argmin = -1;
  if (b_key == best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
    // Pop every key tie (lowest index may be any of them), then push the
    // entries back so each unfixed flow keeps its demand-ceiling entry.
    tie_buffer_.clear();
    while (!heap_level_.empty()) {
      const HeapEntry top = heap_level_.front();
      if (fixed_[static_cast<size_t>(top.second)]) {
        HeapPop(heap_level_);
        continue;
      }
      if (top.first != best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
        break;
      }
      HeapPop(heap_level_);
      tie_buffer_.push_back(top.second);
      if (argmin < 0 || top.second < argmin) {
        argmin = top.second;
      }
    }
    for (const int32_t f : tie_buffer_) {
      HeapPush(heap_level_, best, f);
    }
  }
  if (b_link == best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
    for (size_t i = 0; i < na; ++i) {
      if (act_lw_[i] <= kMinWeight || act_unfixed_[i] == 0) {
        continue;
      }
      const double t = level + act_res_[i] / act_lw_[i];
      if (t != best) {  // mihn-check: float-eq-ok(exact bound-tie enumeration)
        continue;
      }
      const size_t l = static_cast<size_t>(active_links_[i]);
      int32_t& cur = link_cursor_[l];
      while (cur < link_flow_off_[l + 1] &&
             fixed_[static_cast<size_t>(link_flow_ids_[static_cast<size_t>(cur)])]) {
        ++cur;
      }
      if (cur < link_flow_off_[l + 1]) {
        const int32_t cand = link_flow_ids_[static_cast<size_t>(cur)];
        if (argmin < 0 || cand < argmin) {
          argmin = cand;
        }
      }
    }
  }
  return argmin;
}

void MaxMinSolver::RunRounds(double level, size_t start_round) {
  cur_round_ = start_round;
  while (unfixed_ > 0) {
    if (ckpt_count_ == 0 || cur_round_ - last_ckpt_round_ >= ckpt_stride_) {
      StoreCheckpoint(cur_round_, level);
    }

    // Next water level: min over active link saturation terms and the lazy
    // demand-ceiling heap. IEEE min over the same candidate set is
    // order-independent — associative and commutative with no NaNs in play —
    // so scanning the dense mirrors instead of all links (the reference's
    // loop), four independent accumulators wide, yields the identical
    // double while the divisions pipeline instead of serializing behind one
    // compare chain.
    const double kInf = std::numeric_limits<double>::infinity();
    const size_t na = act_lw_.size();
    const double* lw_v = act_lw_.data();
    const double* res_v = act_res_.data();
    double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
    size_t sp = 0;
    for (; sp + 4 <= na; sp += 4) {
      const double t0 = lw_v[sp] > kMinWeight ? level + res_v[sp] / lw_v[sp] : kInf;
      const double t1 = lw_v[sp + 1] > kMinWeight ? level + res_v[sp + 1] / lw_v[sp + 1] : kInf;
      const double t2 = lw_v[sp + 2] > kMinWeight ? level + res_v[sp + 2] / lw_v[sp + 2] : kInf;
      const double t3 = lw_v[sp + 3] > kMinWeight ? level + res_v[sp + 3] / lw_v[sp + 3] : kInf;
      m0 = t0 < m0 ? t0 : m0;
      m1 = t1 < m1 ? t1 : m1;
      m2 = t2 < m2 ? t2 : m2;
      m3 = t3 < m3 ? t3 : m3;
    }
    for (; sp < na; ++sp) {
      const double t = lw_v[sp] > kMinWeight ? level + res_v[sp] / lw_v[sp] : kInf;
      m0 = t < m0 ? t : m0;
    }
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    const double link_level = m2 < m0 ? m2 : m0;
    double next_level = link_level;
    while (!heap_level_.empty() && fixed_[static_cast<size_t>(heap_level_.front().second)]) {
      HeapPop(heap_level_);
    }
    if (!heap_level_.empty() && heap_level_.front().first < next_level) {
      next_level = heap_level_.front().first;
    }
    if (!std::isfinite(next_level)) {
      break;
    }

    // Charge every active link for the rate growth (plain vectorizable
    // loop; inactive links all carry exactly zero weight, so skipping them
    // is exact).
    const double delta = next_level - level;
    double* res_w = act_res_.data();
    for (size_t j = 0; j < na; ++j) {
      res_w[j] -= delta * lw_v[j];
      if (res_w[j] < 0.0) {
        res_w[j] = 0.0;
      }
    }
    level = next_level;

    ++epoch_;
    candidates_.clear();
    id_buffer_.clear();  // Flows harvested from heap_fix_.
    fixed_this_round_ = 0;

    // Harvest at-demand candidates. Keys are conservative lower bounds, so
    // every flow whose exact at-demand test passes is popped here.
    const double harvest_bound = level * (1.0 + kFixSlack);
    while (!heap_fix_.empty()) {
      const HeapEntry top = heap_fix_.front();
      if (fixed_[static_cast<size_t>(top.second)]) {
        HeapPop(heap_fix_);
        continue;
      }
      if (top.first > harvest_bound) {
        break;
      }
      HeapPop(heap_fix_);
      id_buffer_.push_back(top.second);
      if (candidate_epoch_[static_cast<size_t>(top.second)] != epoch_) {
        candidate_epoch_[static_cast<size_t>(top.second)] = epoch_;
        candidates_.push_back(top.second);
      }
    }

    // Gather members of saturated links (first-saturation rounds are
    // recorded for the delta engine's clean-link bottleneck checks).
    for (size_t i = 0; i < act_res_.size(); ++i) {
      if (act_res_[i] > act_thr_[i]) {
        continue;
      }
      if (!act_satrec_[i]) {
        const size_t sl = static_cast<size_t>(active_links_[i]);
        if (sat_round_[sl] == kNeverSat) {
          sat_round_[sl] = static_cast<int32_t>(cur_round_);
        }
        act_satrec_[i] = 1;
      }
      if (act_unfixed_[i] == 0) {
        // Every member is already fixed; the scan below would reject each
        // one, so skipping it is exact. A drained link lingering in the
        // active set on weight dust otherwise rescans its full member list
        // every round for the rest of the solve.
        continue;
      }
      const size_t l = static_cast<size_t>(active_links_[i]);
      for (int32_t m = link_flow_off_[l]; m < link_flow_off_[l + 1]; ++m) {
        const int32_t f = link_flow_ids_[static_cast<size_t>(m)];
        if (!fixed_[static_cast<size_t>(f)] && candidate_epoch_[static_cast<size_t>(f)] != epoch_) {
          candidate_epoch_[static_cast<size_t>(f)] = epoch_;
          candidates_.push_back(f);
        }
      }
    }

    // Fix in ascending flow order — the reference's iteration order, which
    // the weight-drain arithmetic must replicate exactly.
    std::sort(candidates_.begin(), candidates_.end());
    for (const int32_t fc : candidates_) {
      const size_t f = static_cast<size_t>(fc);
      if (fixed_[f]) {
        continue;
      }
      const double w = flow_weight_[f];
      const double d = flow_demand_[f];
      const bool at_demand = level * w >= d - DemandTol(d);
      bool bottlenecked = false;
      if (!at_demand) {
        for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
          const size_t l = static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)]);
          if (ResidualOf(l) <= capacities_[l] * 1e-12 + kEps) {
            bottlenecked = true;
            break;
          }
        }
      }
      if (at_demand || bottlenecked) {
        FixFlow(fc, std::min(level * w, d));
      }
    }

    // Push over-harvested flows back (same key derivation; demands are
    // immutable during a solve).
    for (const int32_t f : id_buffer_) {
      if (!fixed_[static_cast<size_t>(f)]) {
        const double d = flow_demand_[static_cast<size_t>(f)];
        HeapPush(heap_fix_, (d - DemandTol(d)) / flow_weight_[static_cast<size_t>(f)], f);
      }
    }

    // Termination guard, identical to the reference: if dust prevented any
    // fix, force-fix the flow whose constraint set the water level (see
    // ForcedArgmin for why the cheap selection is exact).
    bool forced = false;
    if (fixed_this_round_ == 0) {
      forced = true;
      const int32_t argmin = ForcedArgmin(level);
      if (argmin < 0) {
        break;
      }
      const double w = flow_weight_[static_cast<size_t>(argmin)];
      FixFlow(argmin, std::min(level * w, flow_demand_[static_cast<size_t>(argmin)]));
    }

    trace_level_.push_back(level);
    trace_link_level_.push_back(link_level);
    trace_forced_.push_back(forced ? 1 : 0);
    ++cur_round_;
  }

  // Sync mirrors back so the sparse arrays are canonical between solves.
  for (size_t i = 0; i < active_links_.size(); ++i) {
    const size_t l = static_cast<size_t>(active_links_[i]);
    residual_[l] = act_res_[i];
    link_weight_[l] = act_lw_[i];
  }
}

// ---------------------------------------------------------------------------
// Retained-problem mutation
// ---------------------------------------------------------------------------
//
// Only a demand change to a flow that stays live is recorded for replay. A
// kill or a revive writes its input and sets force_full_; once set, the
// rest of the batch just writes inputs, so dead_ and the trace always
// describe the retained solve while they are read.

void MaxMinSolver::RecordDemandMut(int32_t flow, double demand) {
  for (FlowMut& m : flow_muts_) {
    if (m.flow == flow) {
      m.demand_new = demand;  // key_old stays the first record's: the retained key.
      return;
    }
  }
  FlowMut m;
  m.flow = flow;
  const size_t f = static_cast<size_t>(flow);
  m.key_old = flow_demand_[f] / flow_weight_[f];
  m.demand_new = demand;
  flow_muts_.push_back(m);
}

void MaxMinSolver::UpdateFlowDemand(int32_t flow, double demand) {
  if (flow < 0 || static_cast<size_t>(flow) >= num_flows_) {
    return;
  }
  const size_t f = static_cast<size_t>(flow);
  if (flow_demand_[f] == demand) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  if (primed_ && !force_full_) {
    if (!dead_[f]) {
      if (demand > 0.0) {
        RecordDemandMut(flow, demand);  // Before the write: records the retained key.
      } else {
        force_full_ = true;  // Kill.
      }
    } else if (demand > 0.0) {
      // Dead at the baseline. A flow crossing an invalid or zero-capacity
      // link stays dead at any demand; anything else revives.
      bool link_dead = false;
      for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
        const int32_t l = flow_link_ids_[static_cast<size_t>(i)];
        if (l < 0 || static_cast<size_t>(l) >= num_links_ ||
            capacities_[static_cast<size_t>(l)] <= 0.0) {
          link_dead = true;
          break;
        }
      }
      force_full_ = !link_dead;
    }
  }
  flow_demand_[f] = demand;
}

// ---------------------------------------------------------------------------
// Delta dispatch
// ---------------------------------------------------------------------------

const std::vector<double>& MaxMinSolver::SolveDelta() {
  ++delta_solves_;
  delta_stats_ = DeltaStats{};

  // A new problem since Begin(), a kill or a revive re-primes. So does a
  // degenerate trace (nothing to replay against) and a batch large enough
  // that the O(rounds × mutations) scan stops paying against a rebuild.
  if (!primed_ || force_full_ || trace_level_.empty() ||
      flow_muts_.size() > num_flows_ / 8 + 8) {
    delta_stats_.fallback_full = true;
    ++delta_fallbacks_;
    return Commit();  // Consumes the batch via SetupFromInputs.
  }

  size_t divergence = 0;
  if (flow_muts_.empty() || ScanTrace(flow_muts_, &divergence)) {
    // Every round holds: the mutated flows fix where they did, so only
    // their own rates move.
    for (const FlowMut& m : flow_muts_) {
      rates_[static_cast<size_t>(m.flow)] = m.rate_new;
    }
    delta_stats_.noop_splice = true;
    ++delta_noop_splices_;
  } else {
    ResumeFrom(divergence);
  }
  flow_muts_.clear();
  return rates_;
}

// ---------------------------------------------------------------------------
// Trace scan
// ---------------------------------------------------------------------------

// Replays the retained trace against |muts|' new demands, writing only
// their scan state. While every mutated flow fixes at the same round in
// both worlds, every link sees the same weight drains, so residuals, link
// weights, saturation rounds and link terms are identical and only two
// things can change: the water level (through the mutated flows' demand
// keys) and the mutated flows' own fix decisions. Returns true, with
// *divergence_round = rounds, if the whole trace holds; otherwise false with
// the first round that changes.
bool MaxMinSolver::ScanTrace(std::span<FlowMut> muts, size_t* divergence_round) const {
  const size_t rounds = trace_level_.size();
  for (size_t r = 0; r < rounds; ++r) {
    const int32_t r32 = static_cast<int32_t>(r);
    *divergence_round = r;

    // Forced-fix rounds depend on global argmin state the scan does not
    // model; re-run from here.
    if (trace_forced_[r]) {
      return false;
    }

    // The water level is min(clean terms, mutated keys). The trace proves
    // min(clean, old keys) == level and clean terms are unchanged, so the
    // new level equals the old iff the new keys agree with it, or, when
    // they all rose past it, a link term still attains it (see DESIGN.md
    // §5.1 for the case analysis).
    const double level = trace_level_[r];
    double old_min = std::numeric_limits<double>::infinity();
    double new_min = std::numeric_limits<double>::infinity();
    for (const FlowMut& m : muts) {
      const size_t f = static_cast<size_t>(m.flow);
      if (fix_round_[f] >= r32) {
        old_min = m.key_old < old_min ? m.key_old : old_min;
      }
      if (!m.fixed_new) {
        const double t = m.demand_new / flow_weight_[f];
        new_min = t < new_min ? t : new_min;
      }
    }
    if (new_min < level ||
        (new_min > level && old_min <= level &&
         trace_link_level_[r] != level)) {  // mihn-check: float-eq-ok(exact level tie)
      return false;
    }

    // New-world fix decisions for the mutated flows (the reference's exact
    // conditions; links saturate at their recorded round in both worlds).
    // A shifted fix round shifts the flow's weight drain on every link it
    // crosses: divergence.
    for (FlowMut& m : muts) {
      const size_t f = static_cast<size_t>(m.flow);
      if (!m.fixed_new) {
        const double w = flow_weight_[f];
        const double d = m.demand_new;
        bool fixes = level * w >= d - DemandTol(d);
        for (int32_t i = flow_link_off_[f]; !fixes && i < flow_link_off_[f + 1]; ++i) {
          fixes = sat_round_[static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)])] <= r32;
        }
        if (fixes) {
          m.fixed_new = true;
          m.rate_new = std::min(level * w, d);
          m.fix_round_new = r32;
        }
      }
      if ((fix_round_[f] == r32) != (m.fixed_new && m.fix_round_new == r32)) {
        return false;
      }
    }
  }
  // Every round holds. A retained solve that stopped with flows still
  // unfixed (the unconstrained-tail rule) may continue differently under
  // the new keys: re-run from its end.
  *divergence_round = rounds;
  return unfixed_ == 0;
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

size_t MaxMinSolver::CheckpointAt(size_t round) const {
  size_t ci = 0;
  while (ci + 1 < ckpt_count_ && ckpts_[ci + 1].round <= round) {
    ++ci;
  }
  return ci;
}

void MaxMinSolver::ResumeFrom(size_t divergence_round) {
  // Largest retained checkpoint at or before the divergence. The rounds
  // before it fixed the same flows at the same levels in both worlds, so its
  // per-link state holds for the mutated problem as is.
  const size_t ci = CheckpointAt(divergence_round);
  const size_t resume_round = ckpts_[ci].round;
  const double resume_level = ckpts_[ci].level;
  const int32_t rr32 = static_cast<int32_t>(resume_round);

  // Truncate the retained trace at the resume point; RunRounds re-records
  // the rest.
  ckpt_count_ = ci + 1;
  last_ckpt_round_ = resume_round;
  trace_level_.resize(resume_round);
  trace_link_level_.resize(resume_round);
  trace_forced_.resize(resume_round);
  for (int32_t& sat : sat_round_) {
    if (sat >= rr32) {
      sat = kNeverSat;
    }
  }

  // Mutated flows fixed before the resume point keep their fix round with
  // the new rate; the others re-run with every later flow below.
  for (const FlowMut& m : flow_muts_) {
    if (m.fixed_new && m.fix_round_new < rr32) {
      rates_[static_cast<size_t>(m.flow)] = m.rate_new;
    }
  }

  // Restore the O(links) solver state from the checkpoint.
  residual_ = ckpts_[ci].res;
  link_weight_ = ckpts_[ci].lw;

  active_links_.clear();
  active_pos_.assign(num_links_, -1);
  act_res_.clear();
  act_lw_.clear();
  act_thr_.clear();
  act_satrec_.clear();
  for (size_t l = 0; l < num_links_; ++l) {
    if (link_weight_[l] > 0.0) {
      active_pos_[l] = static_cast<int32_t>(active_links_.size());
      active_links_.push_back(static_cast<int32_t>(l));
      act_res_.push_back(residual_[l]);
      act_lw_.push_back(link_weight_[l]);
      act_thr_.push_back(capacities_[l] * 1e-12 + kEps);
      act_satrec_.push_back(sat_round_[l] != kNeverSat ? 1 : 0);
    }
  }
  delta_stats_.component_links = active_links_.size();

  // Reconstruct flow-side state from fix rounds: O(flows), no per-flow
  // floating-point state to restore.
  unfixed_ = 0;
  heap_level_.clear();
  heap_fix_.clear();
  link_unfixed_.assign(num_links_, 0);
  link_cursor_.assign(link_flow_off_.begin(), link_flow_off_.end() - 1);
  for (size_t f = 0; f < num_flows_; ++f) {
    if (dead_[f]) {
      continue;
    }
    if (fix_round_[f] < rr32) {
      fixed_[f] = 1;
      continue;
    }
    fixed_[f] = 0;
    fix_round_[f] = kNeverFixed;
    ++unfixed_;
    for (int32_t i = flow_link_off_[f]; i < flow_link_off_[f + 1]; ++i) {
      ++link_unfixed_[static_cast<size_t>(flow_link_ids_[static_cast<size_t>(i)])];
    }
    const double w = flow_weight_[f];
    const double d = flow_demand_[f];
    heap_level_.emplace_back(d / w, static_cast<int32_t>(f));
    heap_fix_.emplace_back((d - DemandTol(d)) / w, static_cast<int32_t>(f));
  }
  std::make_heap(heap_level_.begin(), heap_level_.end(), HeapGreater{});
  std::make_heap(heap_fix_.begin(), heap_fix_.end(), HeapGreater{});
  act_unfixed_.resize(active_links_.size());
  for (size_t i = 0; i < active_links_.size(); ++i) {
    act_unfixed_[i] = link_unfixed_[static_cast<size_t>(active_links_[i])];
  }
  candidate_epoch_.assign(num_flows_, 0);
  epoch_ = 0;
  candidates_.clear();

  RunRounds(resume_level, resume_round);
  for (size_t f = 0; f < num_flows_; ++f) {
    if (!fixed_[f]) {
      rates_[f] = flow_demand_[f];
    }
  }
}

// ---------------------------------------------------------------------------
// What-if
// ---------------------------------------------------------------------------

double MaxMinSolver::WhatIf(int32_t flow, double demand, MaxMinSolver& scratch) const {
  MIHN_CHECK(primed_ && !force_full_ && flow_muts_.empty() && &scratch != this);
  MIHN_CHECK(flow >= 0 && static_cast<size_t>(flow) < num_flows_);
  const size_t f = static_cast<size_t>(flow);
  double rate = 0.0;
  if (flow_demand_[f] == demand) {  // mihn-check: float-eq-ok(no-op mutation elision)
    rate = rates_[f];
  } else if (!dead_[f] && demand > 0.0 && !trace_level_.empty()) {
    // The one-mutation batch SolveDelta() would replay, scanned read-only.
    FlowMut m;
    m.flow = flow;
    m.key_old = flow_demand_[f] / flow_weight_[f];
    m.demand_new = demand;
    size_t divergence = 0;
    if (ScanTrace(std::span<FlowMut>(&m, 1), &divergence)) {
      rate = m.rate_new;
    } else {
      scratch.LoadForResume(*this, CheckpointAt(divergence));
      scratch.flow_demand_[f] = demand;
      scratch.flow_muts_.assign(1, m);
      scratch.ResumeFrom(divergence);
      rate = scratch.rates_[f];
    }
  } else {
    // A kill, a revive or a retained solve without rounds: SolveDelta()
    // would solve from scratch.
    scratch.LoadInputsFrom(*this);
    scratch.flow_demand_[f] = demand;
    rate = scratch.Commit()[f];
  }
  scratch.primed_ = false;
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  // Every answer, replayed or resumed, is a full solve of the mutated
  // problem, bit for bit.
  MaxMinSolver full;
  full.LoadInputsFrom(*this);
  full.flow_demand_[f] = demand;
  MIHN_CHECK(full.Commit()[f] == rate);  // mihn-check: float-eq-ok(bit-exact what-if)
#endif
  return rate;
}

void MaxMinSolver::LoadInputsFrom(const MaxMinSolver& src) {
  num_links_ = src.num_links_;
  num_flows_ = src.num_flows_;
  capacities_ = src.capacities_;
  flow_weight_ = src.flow_weight_;
  flow_demand_ = src.flow_demand_;
  flow_link_off_ = src.flow_link_off_;
  flow_link_ids_ = src.flow_link_ids_;
  primed_ = false;
  force_full_ = false;
  flow_muts_.clear();
}

void MaxMinSolver::LoadForResume(const MaxMinSolver& src, size_t ckpt) {
  LoadInputsFrom(src);
  // The flow- and link-side solve state ResumeFrom() reconstructs from; the
  // active set, heaps and per-link counts it rebuilds itself. The trace
  // stays behind: a scratch is never primed, so nothing replays it.
  rates_ = src.rates_;
  fixed_ = src.fixed_;
  dead_ = src.dead_;
  fix_round_ = src.fix_round_;
  sat_round_ = src.sat_round_;
  link_flow_off_ = src.link_flow_off_;
  link_flow_ids_ = src.link_flow_ids_;
  const Checkpoint& c = src.ckpts_[ckpt];
  if (ckpts_.empty()) {
    ckpts_.emplace_back();
  }
  ckpts_[0].round = c.round;
  ckpts_[0].level = c.level;
  ckpts_[0].res = c.res;
  ckpts_[0].lw = c.lw;
  ckpt_count_ = 1;
  ckpt_stride_ = src.ckpt_stride_;
  last_ckpt_round_ = c.round;
}

}  // namespace mihn::fabric
