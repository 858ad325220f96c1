#pragma once

#include <cstdint>
#include <vector>

#include "mac/phy.hpp"
#include "sim/simulator.hpp"
#include "trace/event.hpp"
#include "util/time.hpp"

namespace csmabw::obs {
class Registry;
}  // namespace csmabw::obs

namespace csmabw::mac {

class DcfStation;

/// Statistics of the shared wireless medium.
struct MediumStats {
  std::uint64_t successes = 0;
  std::uint64_t collisions = 0;        ///< collision events (>= 2 frames)
  std::uint64_t collided_frames = 0;   ///< frames involved in collisions
  TimeNs busy_time;                    ///< cumulative occupation time
};

/// Station-facing contract of a CSMA/CA medium.
///
/// A medium owns the contention clock: stations report contention-state
/// changes through update_contention() and are driven back through the
/// DcfStation callbacks (tx_started, medium_seized, tx_succeeded,
/// tx_collided, occupation_observed, finish_post_backoff).  Carrier
/// sense is a per-station question — sensed_busy(s) asks whether *s*
/// currently hears an ongoing transmission, which in a conflict-graph
/// medium (topo::ConflictGraphMedium) depends on who its sensing
/// neighbors are.  The classic single-collision-domain Medium answers
/// it globally.
class MediumBase {
 public:
  MediumBase(sim::Simulator& sim, const PhyParams& phy)
      : sim_(sim),
        phy_(validated(phy)),
        ack_tx_time_(phy_.ack_tx_time()),
        ack_timeout_(phy_.ack_timeout()),
        cts_timeout_(phy_.cts_timeout()),
        eifs_(phy_.eifs()) {}
  virtual ~MediumBase() = default;

  MediumBase(const MediumBase&) = delete;
  MediumBase& operator=(const MediumBase&) = delete;

  /// Registers a station; returns its slot in the medium's contender
  /// cache (stations pass it back via DcfStation::medium_slot()).  The
  /// station must outlive the medium.
  virtual int register_station(DcfStation* s) = 0;

  /// `s`'s contention state changed; refresh its cached fire time and
  /// the pending fire event.
  virtual void update_contention(DcfStation& s) = 0;

  /// Whether `s` currently senses the channel busy (an ongoing
  /// transmission it can hear).
  [[nodiscard]] virtual bool sensed_busy(const DcfStation& s) const = 0;

  /// Binds the medium's hot-path counters to `reg` (null-tap handles:
  /// unbound handles cost a single branch; see obs/metrics.hpp).  The
  /// default is a no-op — media without instrumentation ignore it.
  /// Call before the simulation starts; `reg` may be nullptr.
  virtual void bind_metrics(obs::Registry* reg) { (void)reg; }

  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  /// phy().eifs(), computed once.
  [[nodiscard]] TimeNs eifs() const { return eifs_; }
  [[nodiscard]] const MediumStats& stats() const { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 protected:
  sim::Simulator& sim_;
  PhyParams phy_;
  // Control-frame timings the hot path reads on every transmission,
  // derived once from phy_ (declared after it, so they initialise from
  // it) instead of recomputed in floating point per frame.
  TimeNs ack_tx_time_;
  TimeNs ack_timeout_;
  TimeNs cts_timeout_;
  TimeNs eifs_;
  MediumStats stats_;

 private:
  static const PhyParams& validated(const PhyParams& phy) {
    phy.validate();
    return phy;
  }
};

/// Single-collision-domain CSMA/CA medium.
///
/// All stations hear each other perfectly (no hidden terminals, no
/// capture, no channel errors — matching the paper's NS2 setup).  The
/// medium owns the contention clock: it computes, lazily, the next
/// instant any contending station's DIFS/EIFS deference plus backoff
/// countdown completes, fires the transmission(s) scheduled for that
/// instant and detects collisions as exact slot-boundary coincidences
/// (times are integer nanoseconds, so coincidence is exact equality).
///
/// Fire time of a contending station s during an idle period starting at
/// `idle_since()`:
///
///   fire(s) = max(idle_since, s.contend_from) + s.defer + slot * s.backoff
///
/// where `contend_from` is the earliest instant s may begin observing the
/// medium (e.g. the end of its ACK timeout after a collision) and `defer`
/// is DIFS or EIFS.
///
/// Rescheduling is incremental: the medium caches each station's fire
/// time plus the index of the cached minimum, so a single station's
/// contention change is O(1) (amortized — a full rescan happens only
/// when the minimum's owner changes or an occupation ends and the idle
/// origin moves for everyone).
class Medium : public MediumBase {
 public:
  Medium(sim::Simulator& sim, const PhyParams& phy);

  int register_station(DcfStation* s) override;
  void update_contention(DcfStation& s) override;
  /// One collision domain: every station hears every transmission.
  [[nodiscard]] bool sensed_busy(const DcfStation&) const override {
    return busy_;
  }

  [[nodiscard]] bool is_busy() const { return busy_; }
  /// Start of the current idle period.  Meaningful only when !is_busy().
  [[nodiscard]] TimeNs idle_since() const { return idle_start_; }
  /// True when the medium has been idle for at least DIFS at `now`.
  [[nodiscard]] bool idle_for_difs(TimeNs now) const;

 private:
  /// Cached contention state of one registered station.
  struct Contender {
    TimeNs fire;          ///< valid only while `active`
    bool active = false;  ///< station is in contention
  };

  [[nodiscard]] TimeNs fire_time(const DcfStation& s) const;
  void refresh_contender(int i, const DcfStation& s);
  void rescan_min();
  /// Re-arms the pending-fire timer at the cached minimum.  Every call
  /// re-arms, even at an unchanged time: each arm takes a fresh event
  /// sequence number, so the numbering is identical to a full recompute
  /// — determinism depends on it.
  void sync_pending_fire();
  /// Recomputes every station's fire time (used when the idle origin
  /// moves for all of them at once).
  void reschedule_all();
  void fire();
  /// Puts winners_ on the air (swapped into transmitters_).
  void begin_occupation();
  void end_occupation();

  std::vector<DcfStation*> stations_;
  std::vector<Contender> contenders_;
  int min_slot_ = -1;  ///< index of the cached earliest fire, -1 = none

  bool busy_ = false;
  TimeNs idle_start_ = TimeNs::zero();
  sim::TimerId pending_fire_;  ///< fires at the earliest countdown end
  sim::TimerId pending_end_;   ///< fires at the occupation end

  // Scratch for fire(), reused so the hot path does not allocate.
  std::vector<DcfStation*> winners_;
  std::vector<DcfStation*> post_backoff_done_;

  // Current occupation.
  std::vector<DcfStation*> transmitters_;
  std::vector<TimeNs> tx_data_ends_;
  TimeNs occupation_start_;
  TimeNs occupation_data_end_;
  TimeNs occupation_end_;
  bool occupation_success_ = false;
};

}  // namespace csmabw::mac
