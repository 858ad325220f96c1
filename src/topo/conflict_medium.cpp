#include "topo/conflict_medium.hpp"

#include <algorithm>
#include <functional>

#include "mac/station.hpp"
#include "util/require.hpp"

namespace csmabw::topo {

ConflictGraphMedium::ConflictGraphMedium(
    sim::Simulator& sim, const mac::PhyParams& phy,
    std::shared_ptr<const Topology> topology)
    : MediumBase(sim, phy),
      topo_(std::move(topology)),
      pending_fire_(sim_.add_timer<&ConflictGraphMedium::fire>(*this)),
      pending_end_(sim_.add_timer<&ConflictGraphMedium::advance>(*this)) {
  CSMABW_REQUIRE(topo_ != nullptr, "null topology");
  topo_->validate();
  sense_csr_ = CsrAdjacency(topo_->sense);
  interfere_csr_ = CsrAdjacency(topo_->interfere);
  const std::size_t n = static_cast<std::size_t>(topo_->num_nodes());
  stations_.reserve(n);
  sensed_tx_.assign(n, 0);
  idle_start_.assign(n, TimeNs{});
  saw_corrupt_.assign(n, 0);
  tx_state_.assign(n, kTxIdle);
  txs_.reserve(n);
  fire_idx_.reset(static_cast<int>(n));
  end_idx_.reset(static_cast<int>(n));
  winners_.reserve(n);
  post_backoff_.reserve(n);
  went_busy_.reserve(n);
  went_idle_.reserve(n);
  ended_.reserve(n);
  newly_corrupted_.reserve(n);
  ended_txs_.reserve(n);
  ended_now_.assign(n, 0);
}

int ConflictGraphMedium::register_station(mac::DcfStation* s) {
  CSMABW_REQUIRE(s != nullptr, "null station");
  CSMABW_REQUIRE(static_cast<int>(stations_.size()) < topo_->num_nodes(),
                 "topology `" + topo_->spec + "` has " +
                     std::to_string(topo_->num_nodes()) +
                     " nodes; cannot register another station");
  stations_.push_back(s);
  return static_cast<int>(stations_.size()) - 1;
}

void ConflictGraphMedium::bind_metrics(obs::Registry* reg) {
  if (reg == nullptr) {
    m_updates_ = obs::Counter{};
    m_sweeps_ = obs::Counter{};
    m_rearms_ = obs::Counter{};
    return;
  }
  m_updates_ = reg->counter("topo.medium.updates");
  m_sweeps_ = reg->counter("topo.medium.neighborhood_sweeps");
  m_rearms_ = reg->counter("topo.medium.fire_rearms");
}

bool ConflictGraphMedium::sensed_busy(const mac::DcfStation& s) const {
  return sensed_tx_[static_cast<std::size_t>(s.medium_slot())] > 0;
}

TimeNs ConflictGraphMedium::fire_time(const mac::DcfStation& s, int i) const {
  const TimeNs start =
      std::max(idle_start_[static_cast<std::size_t>(i)], s.contend_from());
  return start + s.defer() + phy_.slot_time * s.backoff_slots();
}

void ConflictGraphMedium::update_contention(mac::DcfStation& s) {
  m_updates_.add(1);
  const int i = s.medium_slot();
  if (sensed_tx_[static_cast<std::size_t>(i)] > 0) {
    return;  // the entry is rebuilt when i's channel goes idle
  }
  refresh_node(i);
  sync_pending_fire();
}

void ConflictGraphMedium::refresh_node(int i) {
  const mac::DcfStation& s = *stations_[static_cast<std::size_t>(i)];
  const bool can_fire = s.in_contention() &&
                        sensed_tx_[static_cast<std::size_t>(i)] == 0 &&
                        tx_state_[static_cast<std::size_t>(i)] == kTxIdle;
  if (can_fire) {
    fire_idx_.set(i, fire_time(s, i));
  } else {
    fire_idx_.erase(i);
  }
}

void ConflictGraphMedium::sync_pending_fire() {
  if (fire_idx_.empty()) {
    sim_.disarm_timer(pending_fire_);
    return;
  }
  const TimeNs earliest = fire_idx_.top_time();
  CSMABW_REQUIRE(earliest >= sim_.now(), "fire time in the past");
  m_rearms_.add(1);
  sim_.arm_timer(pending_fire_, earliest);
}

void ConflictGraphMedium::sync_pending_end() {
  if (end_idx_.empty()) {
    sim_.disarm_timer(pending_end_);
    return;
  }
  const TimeNs earliest = end_idx_.top_time();
  CSMABW_REQUIRE(earliest >= sim_.now(), "transmission end in the past");
  sim_.arm_timer(pending_end_, earliest);
}

void ConflictGraphMedium::mark_corrupted(Tx& t) {
  if (!t.corrupted) {
    t.corrupted = true;  // retargets the end from ACK end to frame end
    newly_corrupted_.push_back(t.station);
  }
}

void ConflictGraphMedium::fire() {
  const TimeNs now = sim_.now();

  // The fire index is authoritative for idle-channel stations: pop
  // every countdown completing exactly now.  The (time, station) heap
  // order surfaces them in ascending station order — the same order
  // the old full scan produced.
  winners_.clear();
  post_backoff_.clear();
  while (!fire_idx_.empty() && fire_idx_.top_time() == now) {
    const int i = fire_idx_.pop_top();
    if (stations_[static_cast<std::size_t>(i)]->has_frame()) {
      winners_.push_back(i);
    } else {
      post_backoff_.push_back(i);
    }
  }
  CSMABW_REQUIRE(!winners_.empty() || !post_backoff_.empty(),
                 "fire event with no station due");
  for (int i : post_backoff_) {
    stations_[static_cast<std::size_t>(i)]->finish_post_backoff();
  }
  if (winners_.empty()) {
    for (int i : post_backoff_) {
      refresh_node(i);
    }
    sync_pending_fire();
    return;
  }

  // Mark the winners before the seize pass so a neighbor that is about
  // to transmit itself is not frozen.
  for (int w : winners_) {
    tx_state_[static_cast<std::size_t>(w)] = kTxWinning;
  }

  // Pass A: carrier-sense transitions.  A station whose channel goes
  // busy (0 -> 1 sensed transmissions) freezes against the idle period
  // that is ending now; ascending station order matches mac::Medium's
  // registration-order freeze loop.
  went_busy_.clear();
  for (int w : winners_) {
    m_sweeps_.add(1);
    for (int nb : sense_csr_.row(w)) {
      if (sensed_tx_[static_cast<std::size_t>(nb)]++ == 0) {
        went_busy_.push_back(nb);
      }
    }
  }
  std::sort(went_busy_.begin(), went_busy_.end());
  for (int nb : went_busy_) {
    fire_idx_.erase(nb);  // a busy channel has no live countdown
    if (tx_state_[static_cast<std::size_t>(nb)] != kTxIdle) {
      continue;  // about to transmit (or already on the air)
    }
    stations_[static_cast<std::size_t>(nb)]->medium_seized(
        now, idle_start_[static_cast<std::size_t>(nb)]);
  }

  // Pass B: put the winners' first frames on the air (ascending).
  for (int w : winners_) {
    mac::DcfStation* s = stations_[static_cast<std::size_t>(w)];
    const bool rts = phy_.uses_rts(s->head_frame_bytes());
    const TimeNs first_dur =
        rts ? phy_.rts_tx_time() : s->head_frame_airtime();
    Tx t;
    t.station = w;
    t.rts = rts;
    t.start = now;
    t.first_end = now + first_dur;
    t.data_end = rts ? now + phy_.rts_tx_time() + phy_.sifs +
                           phy_.cts_tx_time() + phy_.sifs +
                           s->head_frame_airtime()
                     : t.first_end;
    t.success_end = t.data_end + phy_.sifs + ack_tx_time_;
    s->tx_started(now);
    tx_state_[static_cast<std::size_t>(w)] =
        static_cast<std::int32_t>(txs_.size());
    end_idx_.set(w, tx_end(t));
    txs_.push_back(t);
  }

  // Pass C: corruption.  A new transmission is corrupted by any
  // interferer currently on the air (its first frame starts inside
  // foreign airtime); an ongoing interferer is corrupted in return only
  // while its own first frame is still in flight.
  newly_corrupted_.clear();
  for (int w : winners_) {
    Tx& wt = txs_[static_cast<std::size_t>(
        tx_state_[static_cast<std::size_t>(w)])];
    m_sweeps_.add(1);
    for (int j : interfere_csr_.row(w)) {
      const std::int32_t jt_idx = tx_state_[static_cast<std::size_t>(j)];
      if (jt_idx < 0) {
        continue;  // j is not on the air
      }
      Tx& jt = txs_[static_cast<std::size_t>(jt_idx)];
      if (&jt == &wt || tx_end(jt) <= now) {
        continue;  // self, or ending exactly now: no overlap
      }
      mark_corrupted(wt);
      if (now < jt.first_end) {
        mark_corrupted(jt);
      }
    }
  }
  if (!newly_corrupted_.empty()) {
    std::sort(newly_corrupted_.begin(), newly_corrupted_.end());
    // Corruption retargets the end from ACK end to first-frame end:
    // rekey the end index for everyone whose end just moved (winners
    // and ongoing interferers alike — set() is an O(log N) rekey).
    for (int st : newly_corrupted_) {
      end_idx_.set(st, txs_[static_cast<std::size_t>(
                              tx_state_[static_cast<std::size_t>(st)])]
                           .first_end);
    }
    ++stats_.collisions;
    stats_.collided_frames += newly_corrupted_.size();
    if (trace::TraceSink* sink = sim_.trace()) {
      trace::TraceEvent e;
      e.time = now;
      e.kind = trace::EventKind::kCollision;
      e.station = trace::kChannelStation;
      TimeNs end = now;
      for (int st : newly_corrupted_) {
        end = std::max(
            end, txs_[static_cast<std::size_t>(
                          tx_state_[static_cast<std::size_t>(st)])]
                     .first_end);
      }
      e.aux = end;
      e.value = static_cast<std::int32_t>(newly_corrupted_.size());
      sink->on_event(e);
    }
  }

  sync_pending_fire();
  sync_pending_end();
}

void ConflictGraphMedium::advance() {
  const TimeNs now = sim_.now();
  // Pop everything ending exactly now: ascending station order, so the
  // copied-out records below need no sort.
  ended_.clear();
  ended_txs_.clear();
  while (!end_idx_.empty() && end_idx_.top_time() == now) {
    const int st = end_idx_.pop_top();
    ended_.push_back(
        static_cast<int>(tx_state_[static_cast<std::size_t>(st)]));
    ended_txs_.push_back(txs_[static_cast<std::size_t>(
        tx_state_[static_cast<std::size_t>(st)])]);
  }
  CSMABW_REQUIRE(!ended_.empty(), "transmission end event with nothing ending");

  // Channel transitions first, before any callback (mac::Medium clears
  // busy_ and moves the idle origin before notifying): every sensing
  // neighbor of an ended transmission decrements its busy count, and a
  // corrupted ending poisons the next idle period (EIFS) of everyone
  // who heard it.
  went_idle_.clear();
  for (const Tx& t : ended_txs_) {
    ended_now_[static_cast<std::size_t>(t.station)] = 1;
    tx_state_[static_cast<std::size_t>(t.station)] = kTxIdle;
    m_sweeps_.add(1);
    for (int nb : sense_csr_.row(t.station)) {
      if (t.corrupted) {
        saw_corrupt_[static_cast<std::size_t>(nb)] = 1;
      }
      if (--sensed_tx_[static_cast<std::size_t>(nb)] == 0) {
        idle_start_[static_cast<std::size_t>(nb)] = now;
        went_idle_.push_back(nb);
      }
    }
  }

  // Compact the active slab before any callback runs (descending slab
  // index, so swap-erase stays valid).
  std::sort(ended_.begin(), ended_.end(), std::greater<>());
  for (int idx : ended_) {
    const int last = static_cast<int>(txs_.size()) - 1;
    if (idx != last) {
      txs_[static_cast<std::size_t>(idx)] =
          txs_[static_cast<std::size_t>(last)];
      tx_state_[static_cast<std::size_t>(
          txs_[static_cast<std::size_t>(idx)].station)] =
          static_cast<std::int32_t>(idx);
    }
    txs_.pop_back();
  }

  // Transmitter outcomes: retry backoff behind the CTS/ACK timeout, or
  // next-packet / post-backoff after a success.
  for (const Tx& t : ended_txs_) {
    mac::DcfStation* s = stations_[static_cast<std::size_t>(t.station)];
    if (t.corrupted) {
      s->tx_collided(t.first_end +
                     (t.rts ? cts_timeout_ : ack_timeout_));
    } else {
      ++stats_.successes;
      s->tx_succeeded(t.data_end, now);
    }
    stats_.busy_time += tx_end(t) - t.start;
  }

  // Bystanders whose channel just went idle defer DIFS after a clean
  // period, EIFS when a corrupted transmission ended in it.  Stations
  // that transmitted until this instant set their own deference in
  // their outcome callback; stations still transmitting have no
  // countdown to resume.
  std::sort(went_idle_.begin(), went_idle_.end());
  for (int nb : went_idle_) {
    const bool corrupt = saw_corrupt_[static_cast<std::size_t>(nb)] != 0;
    saw_corrupt_[static_cast<std::size_t>(nb)] = 0;
    if (ended_now_[static_cast<std::size_t>(nb)] != 0 ||
        tx_state_[static_cast<std::size_t>(nb)] >= 0) {
      continue;
    }
    stations_[static_cast<std::size_t>(nb)]->occupation_observed(corrupt);
  }

  // The idle origin moved for every station that went idle, and the
  // ended transmitters changed contention state: refresh exactly those
  // entries (everyone else's channel did not change).
  for (const Tx& t : ended_txs_) {
    refresh_node(t.station);
  }
  for (int nb : went_idle_) {
    refresh_node(nb);
  }
  for (const Tx& t : ended_txs_) {
    ended_now_[static_cast<std::size_t>(t.station)] = 0;
  }
  sync_pending_fire();
  sync_pending_end();
}

}  // namespace csmabw::topo
