#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "mac/medium.hpp"
#include "mac/station.hpp"
#include "mac/wlan.hpp"
#include "topo/conflict_medium.hpp"
#include "topo/topology.hpp"
#include "trace/event.hpp"
#include "traffic/probe_train.hpp"
#include "util/require.hpp"

namespace csmabw::topo {
namespace {

mac::Packet make_packet(int flow, int seq, int bytes = 1500) {
  mac::Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

struct Sink {
  std::vector<mac::Packet> delivered;
  std::vector<mac::Packet> dropped;

  explicit Sink(mac::DcfStation& st) {
    st.set_delivery_callback(
        [this](const mac::Packet& p) { delivered.push_back(p); });
    st.set_drop_callback(
        [this](const mac::Packet& p) { dropped.push_back(p); });
  }
};

class VectorSink final : public trace::TraceSink {
 public:
  void on_event(const trace::TraceEvent& e) override { events.push_back(e); }
  std::vector<trace::TraceEvent> events;
};

mac::WlanNetwork::MediumFactory graph_factory(Topology t) {
  return [t = std::make_shared<const Topology>(std::move(t))](
             sim::Simulator& sim, const mac::PhyParams& phy)
             -> std::unique_ptr<mac::MediumBase> {
    return std::make_unique<ConflictGraphMedium>(sim, phy, t);
  };
}

/// Runs a saturated 3-station burst (uniform 1500-byte frames, same
/// rate) and returns the full MAC event trace.
std::vector<trace::TraceEvent> run_burst(mac::WlanNetwork& net) {
  VectorSink sink;
  net.set_trace(&sink);
  std::vector<std::unique_ptr<Sink>> sinks;
  for (int i = 0; i < 3; ++i) {
    auto& st = net.add_station();
    sinks.push_back(std::make_unique<Sink>(st));
    net.simulator().schedule_at(TimeNs::ms(1), [&st, i] {
      for (int k = 0; k < 30; ++k) {
        st.enqueue(make_packet(i, k));
      }
    });
  }
  net.simulator().run_until(TimeNs::ms(400));
  for (const auto& s : sinks) {
    EXPECT_EQ(s->delivered.size(), 30u);
    EXPECT_TRUE(s->dropped.empty());
  }
  return sink.events;
}

// The tentpole reduction guarantee: on a complete graph the conflict
// medium replays the classic single-collision-domain mac::Medium
// bit-for-bit — every trace event (fire times, collision records,
// backoff draws, departures) at identical instants in identical order.
// Uniform frame airtimes on purpose: the two media agree on collision
// end times exactly when colliding frames share size and rate (see the
// ConflictGraphMedium header).
TEST(ConflictGraphMedium, CliqueReplaysLegacyMediumBitIdentically) {
  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  mac::WlanNetwork legacy(phy, 42);
  mac::WlanNetwork graph(phy, 42, graph_factory(Topology::clique(3)));

  const std::vector<trace::TraceEvent> legacy_events = run_burst(legacy);
  const std::vector<trace::TraceEvent> graph_events = run_burst(graph);

  // The workload must actually contend: a collision-free run would
  // vacuously agree.
  EXPECT_GT(legacy.medium().stats().collisions, 0);
  EXPECT_EQ(legacy.medium().stats().collisions,
            graph.medium().stats().collisions);
  ASSERT_EQ(legacy_events.size(), graph_events.size());
  for (std::size_t i = 0; i < legacy_events.size(); ++i) {
    ASSERT_EQ(legacy_events[i], graph_events[i]) << "event " << i;
  }
}

TEST(ConflictGraphMedium, CliqueReductionHoldsWithRts) {
  mac::PhyParams phy = mac::PhyParams::dot11b_short();
  phy.rts_threshold_bytes = 500;  // every 1500-byte frame goes RTS/CTS
  mac::WlanNetwork legacy(phy, 7);
  mac::WlanNetwork graph(phy, 7, graph_factory(Topology::clique(3)));
  const std::vector<trace::TraceEvent> legacy_events = run_burst(legacy);
  const std::vector<trace::TraceEvent> graph_events = run_burst(graph);
  EXPECT_GT(legacy.medium().stats().collisions, 0);
  ASSERT_EQ(legacy_events.size(), graph_events.size());
  for (std::size_t i = 0; i < legacy_events.size(); ++i) {
    ASSERT_EQ(legacy_events[i], graph_events[i]) << "event " << i;
  }
}

// The hidden-terminal signature the whole subsystem exists for: a
// station that cannot hear an ongoing transmission starts its own
// mid-frame — no deferral, no slot-boundary coincidence — and both
// frames are corrupted.  On a clique the second arrival would freeze
// behind carrier sense and neither frame would be lost.
TEST(ConflictGraphMedium, HiddenPairCollidesWithoutCarrierSenseDeferral) {
  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  mac::WlanNetwork net(phy, 5, graph_factory(Topology::hidden_pairs(2)));
  auto& a = net.add_station();
  auto& b = net.add_station();
  Sink sink_a(a);
  Sink sink_b(b);

  const TimeNs t_a = TimeNs::ms(1);
  // Well inside a's data frame (1500 bytes at 11 Mb/s is > 1 ms of air).
  const TimeNs t_b = t_a + TimeNs::us(500);
  net.simulator().schedule_at(t_a, [&] { a.enqueue(make_packet(0, 0)); });
  net.simulator().schedule_at(t_b, [&] { b.enqueue(make_packet(1, 0)); });
  net.simulator().run_until(TimeNs::ms(200));

  // b transmitted straight after DIFS as if the channel were idle —
  // the deferral a clique would have forced never happened.
  ASSERT_EQ(sink_b.delivered.size() + sink_b.dropped.size(), 1u);
  const mac::Packet& pb = sink_b.delivered.empty() ? sink_b.dropped[0]
                                                   : sink_b.delivered[0];
  EXPECT_EQ(pb.first_tx_time, t_b + phy.difs());
  // The temporal overlap corrupted both frames.
  EXPECT_GE(net.medium().stats().collisions, 1);
  ASSERT_EQ(sink_a.delivered.size() + sink_a.dropped.size(), 1u);
  const mac::Packet& pa = sink_a.delivered.empty() ? sink_a.dropped[0]
                                                   : sink_a.delivered[0];
  EXPECT_GE(pa.retries + pb.retries, 2);
}

// The exposed-terminal dividend: out-of-range corners of a 3x3 grid
// reuse the channel concurrently, with zero collisions.
TEST(ConflictGraphMedium, GridCornersReuseTheChannelConcurrently) {
  const mac::PhyParams phy = mac::PhyParams::dot11b_short();
  mac::WlanNetwork net(phy, 9, graph_factory(Topology::grid(3, 3)));
  std::vector<mac::DcfStation*> stations;
  for (int i = 0; i < 9; ++i) {
    stations.push_back(&net.add_station());
  }
  Sink sink0(*stations[0]);
  Sink sink8(*stations[8]);
  net.simulator().schedule_at(TimeNs::ms(1), [&] {
    stations[0]->enqueue(make_packet(0, 0));
    stations[8]->enqueue(make_packet(8, 0));
  });
  net.simulator().run_until(TimeNs::ms(50));

  ASSERT_EQ(sink0.delivered.size(), 1u);
  ASSERT_EQ(sink8.delivered.size(), 1u);
  EXPECT_EQ(net.medium().stats().collisions, 0);
  // Both fired at the same instant: fully overlapping airtime.
  EXPECT_EQ(sink0.delivered[0].first_tx_time, TimeNs::ms(1) + phy.difs());
  EXPECT_EQ(sink8.delivered[0].first_tx_time, TimeNs::ms(1) + phy.difs());
  EXPECT_EQ(sink0.delivered[0].retries, 0);
  EXPECT_EQ(sink8.delivered[0].retries, 0);
}

TEST(ConflictGraphMedium, HiddenPairRunsAreDeterministic) {
  const auto run_once = [] {
    mac::WlanNetwork net(mac::PhyParams::dot11b_short(), 11,
                         graph_factory(Topology::hidden_pairs(2)));
    VectorSink sink;
    net.set_trace(&sink);
    auto& a = net.add_station();
    auto& b = net.add_station();
    net.simulator().schedule_at(TimeNs::ms(1), [&] {
      for (int k = 0; k < 10; ++k) {
        a.enqueue(make_packet(0, k));
        b.enqueue(make_packet(1, k));
      }
    });
    net.simulator().run_until(TimeNs::ms(500));
    return sink.events;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);
}

// The hot-path counters: bound handles count contention updates,
// neighborhood sweeps and fire re-arms; unbound handles (the default)
// change nothing about the run.
TEST(ConflictGraphMedium, MetricsCountHotPathWorkWithoutPerturbing) {
  const auto run_once = [](obs::Registry* reg) {
    mac::WlanNetwork net(mac::PhyParams::dot11b_short(), 11,
                         graph_factory(Topology::grid(3, 3)));
    net.set_metrics(reg);
    VectorSink sink;
    net.set_trace(&sink);
    std::vector<mac::DcfStation*> stations;
    for (int i = 0; i < 9; ++i) {
      stations.push_back(&net.add_station());
    }
    net.simulator().schedule_at(TimeNs::ms(1), [&stations] {
      for (int i = 0; i < 9; ++i) {
        for (int k = 0; k < 5; ++k) {
          stations[static_cast<std::size_t>(i)]->enqueue(make_packet(i, k));
        }
      }
    });
    net.simulator().run_until(TimeNs::sec(2));
    return sink.events;
  };

  obs::Registry reg(/*enabled=*/true);
  const auto instrumented = run_once(&reg);
  const auto plain = run_once(nullptr);
  // Observational only: the instrumented run is bit-identical.
  ASSERT_EQ(instrumented.size(), plain.size());
  EXPECT_TRUE(instrumented == plain);

  EXPECT_GT(reg.value("topo.medium.updates"), 0);
  EXPECT_GT(reg.value("topo.medium.neighborhood_sweeps"), 0);
  EXPECT_GT(reg.value("topo.medium.fire_rearms"), 0);
  // Sweeps track medium activity (one per winner pass / ended tx), never
  // the station count per event — a 9-station burst stays in the hundreds.
  EXPECT_LT(reg.value("topo.medium.neighborhood_sweeps"), 100000);
}

// The counters surface through the standard run-report path — the
// `--metrics-out` JSON a campaign writes names every topo.medium.*
// metric.
TEST(ConflictGraphMedium, MetricsAppearInRunReport) {
  core::ScenarioConfig cfg;
  cfg.seed = 23;
  cfg.topology = "pairs-hidden:3";
  cfg.contenders = {core::StationSpec::poisson(BitRate::mbps(1.0), 1500),
                    core::StationSpec::poisson(BitRate::mbps(1.0), 1500)};
  const core::Scenario scenario(cfg);
  traffic::TrainSpec train;
  train.n = 10;
  train.size_bytes = 1500;
  train.gap = BitRate::mbps(5.0).gap_for(1500);

  obs::Registry reg(/*enabled=*/true);
  const core::TrainRun run =
      scenario.run_train(train, 0, false, nullptr, &reg);
  EXPECT_FALSE(run.packets.empty());

  std::ostringstream out;
  obs::write_run_report(out, reg, {}, obs::RunReportOptions{});
  const std::string report = out.str();
  for (const char* name :
       {"topo.medium.updates", "topo.medium.neighborhood_sweeps",
        "topo.medium.fire_rearms"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
}

TEST(ConflictGraphMedium, RegistrationIsCappedAtTheNodeCount) {
  mac::WlanNetwork net(mac::PhyParams::dot11b_short(), 1,
                       graph_factory(Topology::hidden_pairs(2)));
  net.add_station();
  net.add_station();
  EXPECT_THROW(net.add_station(), util::PreconditionError);
}

// ScenarioCell routing: clique topologies (including the default) keep
// the classic dense medium; everything else gets the conflict-graph
// medium sized to probe + contenders.
TEST(ScenarioCellTopology, CliqueRoutesToLegacyMedium) {
  core::ScenarioConfig cfg;
  cfg.contenders = {core::StationSpec::poisson(BitRate::mbps(2.0), 1500),
                    core::StationSpec::poisson(BitRate::mbps(2.0), 1500)};
  cfg.seed = 3;
  {
    core::ScenarioCell cell(cfg, 0);
    EXPECT_NE(dynamic_cast<mac::Medium*>(&cell.net().medium()), nullptr);
  }
  cfg.topology = "clique:3";
  {
    core::ScenarioCell cell(cfg, 0);
    EXPECT_NE(dynamic_cast<mac::Medium*>(&cell.net().medium()), nullptr);
  }
  cfg.topology = "ring:3";  // ring(3) is complete -> still the fast path
  {
    core::ScenarioCell cell(cfg, 0);
    EXPECT_NE(dynamic_cast<mac::Medium*>(&cell.net().medium()), nullptr);
  }
  cfg.topology = "pairs-hidden:3";
  {
    core::ScenarioCell cell(cfg, 0);
    auto* medium =
        dynamic_cast<ConflictGraphMedium*>(&cell.net().medium());
    ASSERT_NE(medium, nullptr);
    EXPECT_EQ(medium->topology().num_nodes(), 3);
  }
  cfg.topology = "grid:3x3";  // 9 nodes vs 3 stations
  EXPECT_THROW(core::ScenarioCell cell(cfg, 0), util::PreconditionError);
}

// A Scenario builds its conflict graph once: every repetition's medium
// reads that one object instead of a rebuilt copy.
TEST(ScenarioCellTopology, RepetitionsShareTheScenarioTopology) {
  core::ScenarioConfig cfg;
  cfg.contenders.assign(
      8, core::StationSpec::poisson(BitRate::mbps(0.4), 1500));
  cfg.topology = "grid:3x3";
  const core::Scenario scenario(cfg);
  ASSERT_NE(scenario.topology(), nullptr);
  core::ScenarioCell first = scenario.build_cell(0);
  core::ScenarioCell second = scenario.build_cell(1);
  for (core::ScenarioCell* cell : {&first, &second}) {
    auto* medium = dynamic_cast<ConflictGraphMedium*>(&cell->net().medium());
    ASSERT_NE(medium, nullptr);
    EXPECT_EQ(&medium->topology(), scenario.topology());
  }

  // Cliques keep the dense medium and build no graph at all.
  cfg.topology = "clique:9";
  const core::Scenario dense(cfg);
  EXPECT_EQ(dense.topology(), nullptr);
  core::ScenarioCell cell = dense.build_cell(0);
  EXPECT_NE(dynamic_cast<mac::Medium*>(&cell.net().medium()), nullptr);
}

// End-to-end through core::Scenario: a hidden-terminal cell inflates
// the probe's access delays relative to the identical clique cell.
TEST(ScenarioCellTopology, HiddenTerminalsInflateProbeDelay) {
  const core::ScenarioSpec clique = core::ScenarioSpec::parse(
      "phy=dot11b_short;contenders=1x poisson:rate=2M");
  core::ScenarioSpec hidden = clique;
  hidden.topology = "pairs-hidden:2";

  traffic::TrainSpec train;
  train.n = 40;
  train.size_bytes = 1500;
  train.gap = BitRate::mbps(5.0).gap_for(1500);

  const auto mean_delay = [&](const core::ScenarioSpec& spec) {
    const core::Scenario scenario(spec.to_config(/*seed=*/17));
    double total = 0.0;
    int packets = 0;
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      const core::TrainRun run = scenario.run_train(train, rep);
      for (const auto& p : run.packets) {
        if (!p.dropped) {
          total += p.access_delay_s();
          ++packets;
        }
      }
    }
    EXPECT_GT(packets, 0);
    return total / packets;
  };

  const double clique_delay = mean_delay(clique);
  const double hidden_delay = mean_delay(hidden);
  // Hidden contention turns every temporal overlap into a retransmission:
  // the mean access delay must rise well beyond noise.
  EXPECT_GT(hidden_delay, clique_delay * 1.5);
}

}  // namespace
}  // namespace csmabw::topo
