// Weighted max-min fair bandwidth allocation (progressive water-filling).
//
// This is the mathematical core of the fluid fabric model: given flows that
// each traverse a set of capacitated resources, assign rates so that the
// allocation is weighted max-min fair subject to per-flow demand ceilings.
// Pure functions of their inputs — no simulator types — so the fairness
// invariants are directly property-testable.
//
// Two implementations live here:
//
//  * MaxMinSolver — the production engine. A reusable workspace object that
//    owns all scratch state (flat flow/link tables, per-link member lists,
//    residuals, demand heaps, dense active-set mirrors) so the steady-state
//    solve path performs zero heap allocations, prunes each progressive-
//    filling round down to the *active link set*, and — the delta path —
//    retains the full solve trace so that a demand update is answered by
//    replaying the unchanged prefix of the previous solve and re-filling
//    only the diverging suffix.
//  * SolveMaxMinReference — the original O(rounds × flows × links) free
//    function, kept as the behavioural oracle. The solver is required to
//    reproduce its rates bit-for-bit (see the differential tests in
//    tests/fabric/max_min_solver_test.cc and max_min_delta_test.cc); any
//    optimisation that changes a result is a bug.

#ifndef MIHN_SRC_FABRIC_MAX_MIN_H_
#define MIHN_SRC_FABRIC_MAX_MIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mihn::fabric {

struct MaxMinFlow {
  // Relative share weight (> 0). A weight-2 flow receives twice the
  // bottleneck share of a weight-1 flow.
  double weight = 1.0;
  // Demand ceiling in bytes/sec; kUnlimitedDemand for elastic flows.
  double demand = 0.0;
  // Indices into the capacity vector of every resource this flow crosses.
  // Duplicate entries are permitted and deduplicated internally.
  std::vector<int32_t> links;
};

inline constexpr double kUnlimitedDemand = 1e30;

// Reusable weighted max-min solver workspace.
//
// Usage (batch API, the fabric cold path / full rebuild):
//
//   solver.Begin(num_links);
//   solver.SetCapacity(l, cap);           // for every link, before AddFlow
//   solver.AddFlow(weight, demand, links, n);  // in flow order
//   const std::vector<double>& rates = solver.Commit();
//
// Usage (retained delta API, the fabric hot path): after a solve the solver
// keeps the problem *and* the solve trace. The one retained mutation is a
// demand change —
//
//   solver.UpdateFlowDemand(slot, demand);
//
// — then SolveDelta() re-solves. Results are bit-identical to a fresh
// Commit() of the mutated problem (and therefore to the reference). The
// delta engine scans the recorded per-round trace and proves, round by
// round, that the new demands leave the water level and every mutated
// flow's fix round unchanged. If the whole trace holds, only the mutated
// flows' rates are rewritten (a no-op splice); otherwise filling resumes
// from the O(links) checkpoint before the first round that changes. A
// demand that kills (<= 0) or revives a flow, and a batch of more than
// flows/8 + 8 changes, make the next SolveDelta() a full solve, so
// SolveDelta() is never worse than Commit() by more than the
// O(rounds × mutations) scan.
//
// A capacity, weight, add or remove change is a new problem: the caller
// loads it with Begin/SetCapacity/AddFlow again. SolveDelta() right after
// Begin() is a full solve, so a caller may end every solve with it and the
// delta counters still count every solve and every full one.
//
// |rates| is indexed by AddFlow order and remains valid until the next
// Begin()/Solve(). All internal arrays are retained between solves, so
// after a warm-up call of at least the same problem size the entire
// mutate/SolveDelta cycle allocates nothing.
//
// Guarantees (identical to SolveMaxMinReference, bit-for-bit):
//  * Feasibility: for every link, sum of rates of flows crossing it does
//    not exceed its capacity (within floating-point tolerance).
//  * Demand: no flow exceeds its demand.
//  * Weighted max-min fairness: a flow's rate can only be below its demand
//    if it crosses a saturated link on which no other flow has a larger
//    weight-normalized rate.
//  * Work conservation: no rate can be increased without violating the
//    above.
//  * Flows crossing a zero-capacity or out-of-range link get rate 0.
class MaxMinSolver {
 public:
  MaxMinSolver() = default;
  MaxMinSolver(const MaxMinSolver&) = delete;
  MaxMinSolver& operator=(const MaxMinSolver&) = delete;

  // Starts a new problem over |num_links| resources, all capacities 0.
  // Drops the retained problem and trace.
  void Begin(size_t num_links);

  // Sets one link's capacity. Must precede all AddFlow calls so dead-flow
  // detection in Commit() sees final capacities.
  void SetCapacity(int32_t link, double capacity);

  // Appends one flow crossing |count| links (duplicates allowed; a sorted,
  // deduplicated list is detected and copied without re-sorting). Returns
  // the flow's index in the rate vector.
  int32_t AddFlow(double weight, double demand, const int32_t* links, size_t count);

  // Solves the problem accumulated since Begin() from scratch, records the
  // solve trace, and primes the delta engine. The returned reference is
  // invalidated by the next Begin()/Solve().
  const std::vector<double>& Commit();

  // One-shot convenience over Begin/SetCapacity/AddFlow/Commit.
  const std::vector<double>& Solve(const std::vector<MaxMinFlow>& flows,
                                   const std::vector<double>& capacities);

  // -- Retained-problem delta API ---------------------------------------------
  // Changes one flow's demand ceiling — the one mutation the delta engine
  // replays. A demand <= 0 kills the flow (it keeps its slot at rate 0 and
  // has no effect on any other allocation: the reference's dead-flow rule),
  // and raising a dead flow's demand back above zero revives it; either
  // makes the next solve a full one. Before the first solve since Begin()
  // it only writes the input.
  void UpdateFlowDemand(int32_t flow, double demand);

  // Re-solves after the mutations recorded since the last solve. Returns
  // the same retained rate vector as Commit(), bit-identical to a fresh
  // full solve of the mutated problem.
  const std::vector<double>& SolveDelta();

  // Last solved rates without re-solving (valid after Commit/SolveDelta).
  const std::vector<double>& rates() const { return rates_; }

  // Observability for the delta engine (obs counters, benches, tests).
  struct DeltaStats {
    size_t component_links = 0;  // Active links re-waterfilled at resume.
    bool fallback_full = false;  // New problem, kill/revive or oversized batch: full path.
    bool noop_splice = false;    // Proven no divergence: spliced rates only.
  };
  DeltaStats last_delta_stats() const { return delta_stats_; }
  uint64_t delta_solves() const { return delta_solves_; }
  uint64_t delta_fallbacks() const { return delta_fallbacks_; }
  uint64_t delta_noop_splices() const { return delta_noop_splices_; }

  // Number of progressive-filling rounds of the last solve's trace
  // (observability for benches and tests).
  size_t last_rounds() const { return trace_level_.size(); }

 private:
  // Full solver state at the *entry* of one filling round: level plus the
  // canonical per-link residual/weight images (O(links) each). Flow-side
  // state (fixed flags, heaps) is reconstructed from fix_round_ at restore.
  struct Checkpoint {
    size_t round = 0;
    double level = 0.0;
    std::vector<double> res;
    std::vector<double> lw;
  };

  // One flow whose demand changed since the last solve; it is live in both
  // the retained solve and the mutated problem.
  struct FlowMut {
    int32_t flow = 0;
    double key_old = 0.0;  // Retained demand / weight: its old water-level key.
    // Scan state: fixing progress in the new world.
    bool fixed_new = false;
    double rate_new = 0.0;
    int32_t fix_round_new = 0;  // Valid once fixed_new.
  };

  void RemoveActiveLink(size_t pos);
  void FixFlow(int32_t flow, double rate);
  int32_t ForcedArgmin(double level);
  void SetupFromInputs();
  void RunRounds(double level, size_t start_round);
  void StoreCheckpoint(size_t round, double level);
  double ResidualOf(size_t link) const;
  void RecordDemandMut(int32_t flow);
  bool ScanTrace(size_t* divergence_round);
  void ResumeFrom(size_t divergence_round);

  size_t num_links_ = 0;
  size_t num_flows_ = 0;

  // Problem inputs, flat. Retained between solves; demands change in place.
  std::vector<double> capacities_;
  std::vector<double> flow_weight_;  // Clamped to >= 1e-12.
  std::vector<double> flow_demand_;
  // CSR flow -> sorted deduped link list.
  std::vector<int32_t> flow_link_off_;
  std::vector<int32_t> flow_link_ids_;

  // Solve state.
  std::vector<double> rates_;
  std::vector<double> residual_;     // Canonical for links outside the active set.
  std::vector<double> link_weight_;  // Canonical for links outside the active set.
  std::vector<uint8_t> fixed_;
  std::vector<uint8_t> dead_;  // Excluded from the problem (reference dead rule).
  size_t unfixed_ = 0;

  // CSR link -> live member flows, ascending. Rebuilt by every full solve;
  // the delta path never changes membership.
  std::vector<int32_t> link_flow_off_;
  std::vector<int32_t> link_flow_ids_;

  // Active link set with dense SoA mirrors: per active position, residual,
  // weight and saturation threshold live contiguously so the per-round
  // next-level scan and residual charge are plain vectorizable loops.
  // A link leaves the set (swap-remove, mirrors synced back to the sparse
  // arrays) when its weight drains to *exactly* zero — rounding dust from
  // weight subtraction must not leave a memberless link able to pin the
  // water level (see DESIGN.md §5).
  std::vector<int32_t> active_links_;
  std::vector<int32_t> active_pos_;  // link -> index in active_links_, -1 if absent.
  std::vector<double> act_res_;
  std::vector<double> act_lw_;
  std::vector<double> act_thr_;
  // More slot-parallel mirrors, so the per-round sweeps touch contiguous
  // memory instead of chasing link ids: unfixed-member count (mirror of
  // link_unfixed_ for active slots) and a saturation-recorded flag
  // (sat_round_ already stamped, skip the sparse probe).
  std::vector<int32_t> act_unfixed_;
  std::vector<uint8_t> act_satrec_;

  // Min-heaps over unfixed flows with lazy deletion. heap_level_ is keyed by
  // demand/weight (the exact demand-ceiling term of the water level);
  // heap_fix_ is keyed by (demand - demand_tol)/weight, a conservative lower
  // bound on the level at which the flow becomes fixable at-demand.
  std::vector<std::pair<double, int32_t>> heap_level_;
  std::vector<std::pair<double, int32_t>> heap_fix_;

  // Per link: count of unfixed live members. Lets the per-round
  // saturated-link gather skip links whose members are all fixed — a pure
  // no-op scan, so skipping it is exact — and tells the forced-fix guard
  // which links still bound an unfixed flow.
  std::vector<int32_t> link_unfixed_;
  // Per link: cursor past the fixed prefix of its member CSR slice (members
  // ascend and fixing is monotone within a solve), so the forced-fix guard
  // finds a link's lowest-index unfixed member in amortized O(1).
  std::vector<int32_t> link_cursor_;

  // Per-round scratch: candidate flows and an epoch mark for deduping them.
  std::vector<int32_t> candidates_;
  std::vector<uint32_t> candidate_epoch_;
  uint32_t epoch_ = 0;
  size_t fixed_this_round_ = 0;
  size_t cur_round_ = 0;

  // -- Retained trace (the delta engine's memory of the last solve) ----------
  bool primed_ = false;
  bool force_full_ = false;  // A demand change killed or revived a flow.
  std::vector<double> trace_level_;    // Water level after each round.
  std::vector<uint8_t> trace_forced_;  // Round used the forced-fix guard.
  std::vector<int32_t> fix_round_;     // Per flow; kNeverFixed / kDeadRound.
  std::vector<int32_t> sat_round_;     // Per link: first saturated round, kNever.
  std::vector<Checkpoint> ckpts_;      // Pooled; ckpt_count_ are valid.
  size_t ckpt_count_ = 0;
  size_t ckpt_stride_ = 1;
  size_t last_ckpt_round_ = 0;

  // Pending demand changes, and reused id buffers.
  std::vector<FlowMut> flow_muts_;
  std::vector<int32_t> id_buffer_;   // CSR fill cursors; harvested flows.
  std::vector<int32_t> tie_buffer_;  // ForcedArgmin's demand-key ties.

  DeltaStats delta_stats_;
  uint64_t delta_solves_ = 0;
  uint64_t delta_fallbacks_ = 0;
  uint64_t delta_noop_splices_ = 0;
};

// The original straightforward implementation, O(F·L) per filling round.
// Retained as the oracle for differential testing and as the baseline for
// bench_solver_scaling; not used by the fabric.
std::vector<double> SolveMaxMinReference(const std::vector<MaxMinFlow>& flows,
                                         const std::vector<double>& capacities);

}  // namespace mihn::fabric

#endif  // MIHN_SRC_FABRIC_MAX_MIN_H_
