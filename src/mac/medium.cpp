#include "mac/medium.hpp"

#include <algorithm>

#include "mac/station.hpp"
#include "util/require.hpp"

namespace csmabw::mac {

Medium::Medium(sim::Simulator& sim, const PhyParams& phy)
    : MediumBase(sim, phy),
      pending_fire_(sim_.add_timer<&Medium::fire>(*this)),
      pending_end_(sim_.add_timer<&Medium::end_occupation>(*this)) {}

int Medium::register_station(DcfStation* s) {
  CSMABW_REQUIRE(s != nullptr, "null station");
  stations_.push_back(s);
  contenders_.push_back(Contender{});
  return static_cast<int>(stations_.size()) - 1;
}

bool Medium::idle_for_difs(TimeNs now) const {
  return !busy_ && now - idle_start_ >= phy_.difs();
}

TimeNs Medium::fire_time(const DcfStation& s) const {
  const TimeNs start = std::max(idle_start_, s.contend_from());
  return start + s.defer() + phy_.slot_time * s.backoff_slots();
}

void Medium::update_contention(DcfStation& s) {
  if (busy_) {
    return;  // the cache is rebuilt wholesale when the occupation ends
  }
  refresh_contender(s.medium_slot(), s);
  sync_pending_fire();
}

void Medium::refresh_contender(int i, const DcfStation& s) {
  Contender& c = contenders_[static_cast<std::size_t>(i)];
  c.active = s.in_contention();
  if (c.active) {
    c.fire = fire_time(s);
  }
  if (i == min_slot_) {
    // The minimum's owner changed; it may no longer be the minimum.
    rescan_min();
  } else if (c.active &&
             (min_slot_ < 0 ||
              c.fire < contenders_[static_cast<std::size_t>(min_slot_)].fire)) {
    min_slot_ = i;
  }
}

void Medium::rescan_min() {
  min_slot_ = -1;
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    const Contender& c = contenders_[i];
    if (c.active &&
        (min_slot_ < 0 ||
         c.fire < contenders_[static_cast<std::size_t>(min_slot_)].fire)) {
      min_slot_ = static_cast<int>(i);
    }
  }
}

void Medium::sync_pending_fire() {
  if (min_slot_ < 0) {
    sim_.disarm_timer(pending_fire_);
    return;
  }
  const TimeNs earliest = contenders_[static_cast<std::size_t>(min_slot_)].fire;
  CSMABW_REQUIRE(earliest >= sim_.now(), "fire time in the past");
  sim_.arm_timer(pending_fire_, earliest);
}

void Medium::reschedule_all() {
  min_slot_ = -1;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    Contender& c = contenders_[i];
    const DcfStation& s = *stations_[i];
    c.active = s.in_contention();
    if (c.active) {
      c.fire = fire_time(s);
      if (min_slot_ < 0 ||
          c.fire < contenders_[static_cast<std::size_t>(min_slot_)].fire) {
        min_slot_ = static_cast<int>(i);
      }
    }
  }
  sync_pending_fire();
}

void Medium::fire() {
  const TimeNs now = sim_.now();
  CSMABW_REQUIRE(!busy_, "fire while busy");

  // Partition the stations whose countdown completes exactly now (the
  // cache is authoritative while the medium is idle: every contention
  // change while idle refreshed it).
  winners_.clear();
  post_backoff_done_.clear();
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    const Contender& c = contenders_[i];
    if (!c.active || c.fire != now) {
      continue;
    }
    DcfStation* s = stations_[i];
    if (s->has_frame()) {
      winners_.push_back(s);
    } else {
      post_backoff_done_.push_back(s);
    }
  }
  for (DcfStation* s : post_backoff_done_) {
    s->finish_post_backoff();
  }
  if (winners_.empty()) {
    reschedule_all();
    return;
  }

  // Freeze every other contender before the medium state changes: the
  // number of whole slots they observed is measured against the idle
  // period that is ending now.
  for (DcfStation* s : stations_) {
    if (s->in_contention() &&
        std::find(winners_.begin(), winners_.end(), s) == winners_.end()) {
      s->medium_seized(now, idle_start_);
    }
  }

  begin_occupation();
}

void Medium::begin_occupation() {
  const TimeNs now = sim_.now();
  busy_ = true;
  // transmitters_ is empty between occupations; the swap hands its
  // buffer back to winners_ for the next fire().
  transmitters_.swap(winners_);
  occupation_start_ = now;
  occupation_success_ = transmitters_.size() == 1;

  // The frame a station puts on the air first: the data frame itself, or
  // an RTS when the payload exceeds the RTS threshold.  Collisions
  // involve (and cost) only these first frames.
  tx_data_ends_.clear();
  occupation_data_end_ = now;
  for (DcfStation* s : transmitters_) {
    const bool rts = phy_.uses_rts(s->head_frame_bytes());
    const TimeNs first_dur =
        rts ? phy_.rts_tx_time() : s->head_frame_airtime();
    tx_data_ends_.push_back(now + first_dur);
    occupation_data_end_ = std::max(occupation_data_end_, now + first_dur);
    s->tx_started(now);
  }

  if (occupation_success_) {
    DcfStation* s = transmitters_.front();
    if (phy_.uses_rts(s->head_frame_bytes())) {
      // RTS + SIFS + CTS + SIFS + DATA + SIFS + ACK as one exchange.
      occupation_data_end_ = now + phy_.rts_tx_time() + phy_.sifs +
                             phy_.cts_tx_time() + phy_.sifs +
                             s->head_frame_airtime();
    }
    occupation_end_ = occupation_data_end_ + phy_.sifs + ack_tx_time_;
    ++stats_.successes;
  } else {
    occupation_end_ = occupation_data_end_;
    ++stats_.collisions;
    stats_.collided_frames += transmitters_.size();
    if (trace::TraceSink* sink = sim_.trace()) {
      trace::TraceEvent e;
      e.time = now;
      e.kind = trace::EventKind::kCollision;
      e.station = trace::kChannelStation;
      e.aux = occupation_end_;
      e.value = static_cast<std::int32_t>(transmitters_.size());
      sink->on_event(e);
    }
  }
  stats_.busy_time += occupation_end_ - occupation_start_;

  sim_.arm_timer(pending_end_, occupation_end_);
}

void Medium::end_occupation() {
  const TimeNs now = sim_.now();
  CSMABW_REQUIRE(busy_, "occupation end while idle");
  busy_ = false;
  idle_start_ = now;

  const bool collision = !occupation_success_;
  // Outcome for the transmitters first: they update their own contention
  // state (retry backoff after their CTS/ACK timeout, or next-packet /
  // post-backoff after success).
  for (std::size_t i = 0; i < transmitters_.size(); ++i) {
    DcfStation* s = transmitters_[i];
    if (occupation_success_) {
      s->tx_succeeded(occupation_data_end_, now);
    } else {
      const TimeNs timeout = phy_.uses_rts(s->head_frame_bytes())
                                 ? cts_timeout_
                                 : ack_timeout_;
      s->tx_collided(tx_data_ends_[i] + timeout);
    }
  }
  // Bystanders defer DIFS after a success, EIFS after a collision.
  for (DcfStation* s : stations_) {
    if (std::find(transmitters_.begin(), transmitters_.end(), s) ==
        transmitters_.end()) {
      s->occupation_observed(collision);
    }
  }
  transmitters_.clear();
  tx_data_ends_.clear();
  // The idle origin moved for every station: full recompute.
  reschedule_all();
}

}  // namespace csmabw::mac
