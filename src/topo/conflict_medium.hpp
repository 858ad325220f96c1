#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mac/medium.hpp"
#include "obs/metrics.hpp"
#include "sim/timer_index.hpp"
#include "topo/topology.hpp"

namespace csmabw::topo {

/// CSMA/CA medium over a carrier-sense/interference conflict graph —
/// the spatial generalization of the classic single-collision-domain
/// mac::Medium.
///
/// Station i's channel is the set of its sensing neighbors: i defers,
/// freezes its backoff and applies EIFS against transmissions of
/// j in sense[i] only.  A transmission of i is corrupted iff the
/// airtime of some j in interfere[i] overlaps i's *first* frame (the
/// data frame, or the RTS above the RTS threshold) — once the first
/// frame survives, the exchange completes.  Both hidden terminals
/// (interferers outside the sensing set collide on any temporal
/// overlap, not just slot coincidences) and exposed terminals
/// (non-neighbors reuse the channel concurrently) fall out of the two
/// edge sets.
///
/// On a complete graph this reduces exactly to mac::Medium: fire
/// times, callback order, RNG draws and trace emission are
/// bit-identical for uniform frame airtimes (the conflict graph ends
/// each transmission at its own frame boundary, the legacy medium
/// batches all of a collision's ends at the latest one — the two
/// coincide when colliding frames share size and rate, and production
/// clique scenarios route to mac::Medium anyway; see
/// core::ScenarioCell).  Known accounting difference:
/// MediumStats::busy_time sums per-transmitter airtime (spatially
/// there is no single channel to take a union over) and successes are
/// counted when the exchange *ends*, not when it starts.
///
/// ## Scaling layout (1k–10k-station lattices)
///
/// Every per-event cost is O(degree log N), never O(N):
///
///  - Adjacency is a flat CSR copy of the topology (CsrAdjacency): a
///    neighborhood sweep reads one contiguous int32 span.
///  - Per-station channel state lives in structure-of-arrays slabs
///    (sensed-transmission counts, idle origins, EIFS poison flags,
///    transmission links) indexed by station id — a sweep over a
///    neighborhood touches parallel arrays, not scattered structs.
///  - Fire times and transmission ends live in two addressable min-heaps
///    (sim::TimerIndex) keyed (time, station): a contention change
///    rekeys one entry in O(log N); finding "everything due now" pops in
///    deterministic ascending-station order.  This generalizes the
///    O(1)-amortized cached-minimum trick of mac::Medium to O(degree):
///    a state transition touches the transitioning station's
///    neighborhood only — never all N stations.
///
/// The event-sequence discipline is unchanged from the rescanning
/// implementation: the pending fire/end timers are re-armed (or
/// disarmed) at the same call sites with the same times, and each arm
/// takes one event sequence number exactly as a cancel + schedule
/// would, so event numbering — and therefore every .cctrace/CSV byte —
/// matches a full recompute; only the cost of *finding* the minimum
/// changed.
///
/// The hot path stays allocation-free after construction: the heaps,
/// slabs and scratch lists are preallocated and transmission records
/// live in a fixed-capacity slab.
class ConflictGraphMedium : public mac::MediumBase {
 public:
  /// `topology->num_nodes()` fixes the station count: exactly that many
  /// stations must be registered before the simulation starts.  The
  /// graph is shared, never copied: every repetition of a scenario reads
  /// the one its core::Scenario built.
  ConflictGraphMedium(sim::Simulator& sim, const mac::PhyParams& phy,
                      std::shared_ptr<const Topology> topology);

  int register_station(mac::DcfStation* s) override;
  void update_contention(mac::DcfStation& s) override;
  [[nodiscard]] bool sensed_busy(const mac::DcfStation& s) const override;
  void bind_metrics(obs::Registry* reg) override;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  /// Transmissions currently on the air anywhere in the graph.
  [[nodiscard]] int active_transmissions() const {
    return static_cast<int>(txs_.size());
  }
  /// Start of station i's current idle period (meaningful while i's
  /// channel is idle).
  [[nodiscard]] TimeNs idle_since(int i) const {
    return idle_start_[static_cast<std::size_t>(i)];
  }

 private:
  /// One transmission on the air.
  struct Tx {
    int station = -1;
    TimeNs start;
    TimeNs first_end;    ///< end of the first frame (data, or RTS)
    TimeNs data_end;     ///< end of the data exchange if it succeeds
    TimeNs success_end;  ///< end of the ACK exchange if it succeeds
    bool corrupted = false;
    bool rts = false;
  };

  /// tx_state_ slab conventions.
  static constexpr std::int32_t kTxIdle = -1;     ///< not transmitting
  static constexpr std::int32_t kTxWinning = -2;  ///< firing this instant

  [[nodiscard]] TimeNs tx_end(const Tx& t) const {
    return t.corrupted ? t.first_end : t.success_end;
  }
  [[nodiscard]] TimeNs fire_time(const mac::DcfStation& s, int i) const;
  /// Recomputes station i's fire eligibility and rekeys (or erases) its
  /// fire-index entry — O(log N), no global rescan.
  void refresh_node(int i);
  /// Re-arms the pending-fire timer at the fire index's minimum (or
  /// disarms it) — always a fresh arm, the event-sequence discipline of
  /// mac::Medium.
  void sync_pending_fire();
  /// Re-arms the pending-end timer at the end index's minimum.
  void sync_pending_end();
  void fire();
  void advance();
  void mark_corrupted(Tx& t);

  std::shared_ptr<const Topology> topo_;
  CsrAdjacency sense_csr_;
  CsrAdjacency interfere_csr_;
  std::vector<mac::DcfStation*> stations_;

  // Structure-of-arrays per-station channel state, indexed by station.
  std::vector<std::int32_t> sensed_tx_;  ///< sensing neighbors on the air
  std::vector<TimeNs> idle_start_;   ///< last busy->idle transition
  std::vector<char> saw_corrupt_;    ///< corrupted neighbor tx this period
  std::vector<std::int32_t> tx_state_;  ///< txs_ index, or kTxIdle/kTxWinning

  std::vector<Tx> txs_;
  /// Stations with a live countdown, keyed by fire time: in
  /// contention, channel idle, not on air.
  sim::TimerIndex fire_idx_;
  /// Transmitting stations, keyed by their transmission's end.
  sim::TimerIndex end_idx_;
  sim::TimerId pending_fire_;  ///< runs fire() at fire_idx_'s minimum
  sim::TimerId pending_end_;   ///< runs advance() at end_idx_'s minimum

  // Hot-path instrumentation (unbound by default: one branch each).
  obs::Counter m_updates_;  ///< topo.medium.updates
  obs::Counter m_sweeps_;   ///< topo.medium.neighborhood_sweeps
  obs::Counter m_rearms_;   ///< topo.medium.fire_rearms

  // Preallocated scratch (station ids / tx indices); reused per event.
  std::vector<int> winners_;
  std::vector<int> post_backoff_;
  std::vector<int> went_busy_;
  std::vector<int> went_idle_;
  std::vector<int> ended_;
  std::vector<int> newly_corrupted_;
  std::vector<Tx> ended_txs_;
  std::vector<char> ended_now_;  ///< station transmitted until this instant
};

}  // namespace csmabw::topo
