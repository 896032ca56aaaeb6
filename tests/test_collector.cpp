// Tests for the asynchronous collection pipeline: transport faults,
// retry/backoff, circuit breakers, the bounded queue, and crash-safe
// checkpoint/resume.  The load-bearing property throughout: the collected
// result is a pure function of (plan, config) — thread count, scheduling
// and crashes cannot change a bit of it.

#include "collect/collector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collect/poller.hpp"
#include "collect/queue.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_state.hpp"
#include "sim/streaming.hpp"
#include "util/expects.hpp"
#include "workload/profiles.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t n_nodes, std::uint64_t seed = 3) {
  ScenarioSpec spec;
  spec.name = "collect-rig";
  spec.nodes = n_nodes;
  spec.fleet_seed = 99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  rig.plan = built.plan(MethodologySpec::get(Level::kL1, Revision::kV2015),
                        seed);
  return rig;
}

CollectorConfig fast_config() {
  CollectorConfig c;
  c.campaign.meter_interval_override = Seconds{10.0};
  c.threads = 4;
  // Generous deadline: with the default latency model, a healthy meter
  // essentially never times out, so fault-free runs have clean tallies.
  c.poller.timeout_s = 5.0;
  return c;
}

std::string temp_journal(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A stable serialization of everything the user would see, for
// byte-identity comparisons between runs.
std::string result_signature(const MeasurementPlan& plan,
                             const CampaignResult& r) {
  return accuracy_report(plan, r);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Every double a collection reports except the modeled makespan, which
// divides busy time by the poller count on purpose.
std::vector<double> reported_doubles(const CampaignResult& r) {
  const DataQuality& dq = r.data_quality;
  std::vector<double> out = {r.submitted_power.value(),
                             r.submitted_energy.value(),
                             r.node_mean_ci.lo,
                             r.node_mean_ci.hi,
                             r.relative_halfwidth,
                             r.true_power.value(),
                             r.relative_error,
                             dq.planned_node_fraction,
                             dq.achieved_node_fraction,
                             dq.sample_coverage,
                             dq.collection.busy_total_s,
                             dq.collection.busy_max_meter_s};
  out.insert(out.end(), r.node_mean_powers_w.begin(),
             r.node_mean_powers_w.end());
  return out;
}

TEST(Collector, FaultFreeCollectionTracksGroundTruth) {
  const Rig rig = make_rig(160);
  const CollectionOutcome out = collect_campaign(
      *rig.cluster, *rig.electrical, rig.plan, fast_config());
  EXPECT_EQ(out.meters_polled, rig.plan.node_count());
  EXPECT_EQ(out.meters_resumed, 0u);
  const CampaignResult& r = out.result;
  EXPECT_EQ(r.nodes_measured, rig.plan.node_count());
  EXPECT_LT(r.relative_error, 0.05);  // same structural L1 bias as sync path
  const DataQuality& dq = r.data_quality;
  EXPECT_TRUE(dq.collection.used);
  EXPECT_EQ(dq.meters_lost, 0u);
  EXPECT_EQ(dq.samples_lost, 0u);
  EXPECT_EQ(dq.collection.polls_timed_out, 0u);
  EXPECT_EQ(dq.collection.breaker_trips, 0u);
  EXPECT_GT(dq.collection.polls_attempted, 0u);
  EXPECT_GT(dq.collection.busy_total_s, 0.0);
  EXPECT_GE(dq.collection.busy_total_s, dq.collection.busy_max_meter_s);
  EXPECT_GE(dq.collection.makespan_s, dq.collection.busy_max_meter_s);
  EXPECT_LE(dq.collection.makespan_s, dq.collection.busy_total_s);
}

TEST(Collector, ResultIsIndependentOfThreadCount) {
  const Rig rig = make_rig(160);
  CollectorConfig one = fast_config();
  one.threads = 1;
  CollectorConfig eight = fast_config();
  eight.threads = 8;
  const auto a =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, one);
  const auto b =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, eight);
  EXPECT_EQ(a.result.submitted_power.value(),
            b.result.submitted_power.value());
  EXPECT_EQ(a.result.submitted_energy.value(),
            b.result.submitted_energy.value());
  ASSERT_EQ(a.result.node_mean_powers_w.size(),
            b.result.node_mean_powers_w.size());
  for (std::size_t i = 0; i < a.result.node_mean_powers_w.size(); ++i) {
    EXPECT_EQ(a.result.node_mean_powers_w[i],
              b.result.node_mean_powers_w[i]);
  }
}

TEST(Collector, FlakyTransportIsDeterministicAndRecovers) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.2;
  config.transport.duplicate_prob = 0.05;
  config.poller.max_attempts = 4;
  const auto a =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  const auto b =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  EXPECT_EQ(result_signature(rig.plan, a.result),
            result_signature(rig.plan, b.result));
  // 20% drop with 4 attempts: effectively everything arrives eventually.
  const DataQuality& dq = a.result.data_quality;
  EXPECT_GT(dq.collection.polls_retried, 0u);
  EXPECT_GT(dq.collection.polls_timed_out, 0u);
  EXPECT_EQ(dq.meters_lost, 0u);
  EXPECT_LT(a.result.relative_error, 0.05);
}

TEST(Collector, BlackholeMetersAreAbandonedAndDisclosed) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.campaign.faults.dead_meters = {rig.plan.node_indices[0],
                                        rig.plan.node_indices[3]};
  const auto out =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  const DataQuality& dq = out.result.data_quality;
  EXPECT_EQ(dq.meters_lost, 2u);
  EXPECT_EQ(dq.collection.meters_abandoned, 2u);
  EXPECT_GT(dq.collection.breaker_trips, 0u);
  ASSERT_EQ(dq.lost_meter_ids.size(), 2u);
  EXPECT_EQ(dq.lost_meter_ids[0], rig.plan.node_indices[0]);
  EXPECT_EQ(dq.lost_meter_ids[1], rig.plan.node_indices[3]);
  EXPECT_EQ(out.result.nodes_measured, rig.plan.node_count() - 2);
  // The degradation path re-based the extrapolation: still near truth.
  EXPECT_LT(out.result.relative_error, 0.06);
  // And the report discloses the collection path.
  const std::string report = data_quality_report(dq);
  EXPECT_NE(report.find("collection path"), std::string::npos);
  EXPECT_NE(report.find("abandoned"), std::string::npos);
}

TEST(Collector, BreakerBoundsTheBusyTimeOfDeadMeters) {
  const Rig rig = make_rig(160);
  CollectorConfig with_breaker = fast_config();
  with_breaker.transport.blackhole_meters = {rig.plan.node_indices[1],
                                             rig.plan.node_indices[5],
                                             rig.plan.node_indices[9]};
  CollectorConfig without = with_breaker;
  without.poller.breaker.enabled = false;
  const auto guarded = collect_campaign(*rig.cluster, *rig.electrical,
                                        rig.plan, with_breaker);
  const auto unguarded =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, without);
  // Same meters lost either way, but the breaker pays far fewer timeouts.
  EXPECT_EQ(guarded.result.data_quality.meters_lost,
            unguarded.result.data_quality.meters_lost);
  EXPECT_LT(guarded.result.data_quality.collection.polls_timed_out,
            unguarded.result.data_quality.collection.polls_timed_out);
  EXPECT_LT(guarded.result.data_quality.collection.busy_max_meter_s,
            unguarded.result.data_quality.collection.busy_max_meter_s);
}

TEST(Collector, KillAndResumeIsByteIdenticalToUninterrupted) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.1;
  config.transport.blackhole_fraction = 0.1;

  CollectorConfig clean = config;
  clean.journal_path = temp_journal("collector_clean.wal");
  const auto uninterrupted =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, clean);

  CollectorConfig crashing = config;
  crashing.journal_path = temp_journal("collector_crash.wal");
  crashing.crash_after_meters = 5;
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, crashing),
      CollectionAborted);

  CollectorConfig resuming = config;
  resuming.journal_path = crashing.journal_path;
  resuming.resume = true;
  const auto resumed =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, resuming);
  EXPECT_EQ(resumed.meters_resumed, 5u);
  EXPECT_EQ(resumed.meters_polled, rig.plan.node_count() - 5);
  EXPECT_EQ(resumed.journal_torn_lines, 0u);

  // The headline contract: not close — byte-identical.
  EXPECT_EQ(result_signature(rig.plan, uninterrupted.result),
            result_signature(rig.plan, resumed.result));
  EXPECT_EQ(uninterrupted.result.submitted_power.value(),
            resumed.result.submitted_power.value());
  EXPECT_EQ(uninterrupted.result.submitted_energy.value(),
            resumed.result.submitted_energy.value());
  EXPECT_EQ(uninterrupted.result.data_quality.collection.busy_total_s,
            resumed.result.data_quality.collection.busy_total_s);
}

TEST(Collector, ResumingACompleteJournalRepollsNothing) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.journal_path = temp_journal("collector_complete.wal");
  const auto first =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  config.resume = true;
  const auto second =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  EXPECT_EQ(second.meters_polled, 0u);
  EXPECT_EQ(second.meters_resumed, rig.plan.node_count());
  EXPECT_EQ(result_signature(rig.plan, first.result),
            result_signature(rig.plan, second.result));
}

TEST(Collector, ResumeRejectsAForeignJournal) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.journal_path = temp_journal("collector_foreign.wal");
  (void)collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  config.resume = true;
  config.campaign.seed += 1;  // a different campaign identity
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      std::runtime_error);
}

TEST(Collector, FingerprintSeparatesCampaigns) {
  const Rig rig = make_rig(160);
  const CollectorConfig base = fast_config();
  CollectorConfig other = base;
  other.campaign.seed = 999;
  EXPECT_NE(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
  other = base;
  other.transport.drop_prob = 0.5;
  EXPECT_NE(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
  other = base;
  other.poller.timeout_s = 9.0;
  EXPECT_NE(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
  // Journal bookkeeping knobs do NOT change the campaign identity.
  other = base;
  other.crash_after_meters = 3;
  other.journal_path = "somewhere.wal";
  EXPECT_EQ(collection_fingerprint(rig.plan, base),
            collection_fingerprint(rig.plan, other));
}

TEST(Collector, EveryMeterDeadThrows) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.blackhole_fraction = 1.0;
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      std::runtime_error);
}

TEST(Collector, RejectsDataFaultInjectionAndNonNodePlans) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.campaign.faults.spec = FaultSpec::mild();
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      contract_error);
  MeasurementPlan facility = rig.plan;
  facility.point = MeasurementPoint::kFacilityFeed;
  EXPECT_THROW(collect_campaign(*rig.cluster, *rig.electrical, facility,
                                fast_config()),
               contract_error);
  config = fast_config();
  config.resume = true;  // resume without a journal path
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      contract_error);
  // Settings the collector has no stage for are refused, not ignored.
  config = fast_config();
  config.campaign.reconcile.enabled = true;
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      contract_error);
  config = fast_config();
  config.campaign.faults.byzantine_meters = {rig.plan.node_indices[2]};
  EXPECT_THROW(
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config),
      contract_error);
}

TEST(Collector, HandBuiltModelIsATypedError) {
  ScenarioSpec spec;
  spec.nodes = 4;
  Scenario built = build_scenario(spec);
  const MeasurementPlan plan =
      built.plan(MethodologySpec::get(Level::kL3, Revision::kV2015), 3);
  // Built the way test_hierarchy builds one: constant per-node draws.
  SystemPowerModel hand("testsys", /*nodes_per_rack=*/2);
  for (int i = 0; i < 4; ++i) {
    const double base = 100.0 + 10.0 * i;
    hand.add_node([base](double) { return base; },
                  PsuModel(Watts{400.0}, PsuEfficiencyCurve::platinum()));
  }
  hand.set_pdu_loss_fraction(0.02);
  ASSERT_EQ(hand.node_count(), built.cluster->node_count());
  EXPECT_THROW(
      (void)collect_campaign(*built.cluster, hand, plan, fast_config()),
      contract_error);
  // The lowered model of the same cluster collects.
  EXPECT_NO_THROW((void)collect_campaign(*built.cluster, *built.electrical,
                                         plan, fast_config()));
}

TEST(Collector, DcTapIsThreadCountInvariant) {
  Rig rig = make_rig(160);
  rig.plan.point = MeasurementPoint::kNodeDc;
  CollectorConfig one = fast_config();
  one.transport.drop_prob = 0.1;
  one.threads = 1;
  CollectorConfig eight = one;
  eight.threads = 8;
  const auto a =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, one);
  const auto b =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, eight);
  EXPECT_GT(a.result.data_quality.collection.polls_timed_out, 0u);
  const std::vector<double> da = reported_doubles(a.result);
  const std::vector<double> db = reported_doubles(b.result);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_TRUE(bits_equal(da[i], db[i])) << "reported double " << i;
  }
  EXPECT_EQ(a.result.data_quality.lost_meter_ids,
            b.result.data_quality.lost_meter_ids);
  EXPECT_EQ(a.result.data_quality.samples_lost,
            b.result.data_quality.samples_lost);
}

TEST(Collector, RunsTheCampaignStageList) {
  const Rig rig = make_rig(160);
  CollectorConfig config = fast_config();
  config.transport.drop_prob = 0.2;
  config.campaign.faults.dead_meters = {rig.plan.node_indices[4]};
  const CollectionOutcome out =
      collect_campaign(*rig.cluster, *rig.electrical, rig.plan, config);
  const std::vector<StageTrace>& traces = out.result.stage_traces;
  std::vector<std::string> names;
  for (const StageTrace& t : traces) names.push_back(t.stage);
  ASSERT_EQ(names, (std::vector<std::string>{"provision", "meter", "repair",
                                             "aggregate", "assess"}));
  const auto counter = [](const StageTrace& t, const std::string& key) {
    for (const auto& [name, value] : t.counters) {
      if (name == key) return value;
    }
    ADD_FAILURE() << t.stage << " has no counter " << key;
    return -1.0;
  };
  EXPECT_EQ(counter(traces[4], "memoized"), 1.0);
  const DataQuality& dq = out.result.data_quality;
  EXPECT_GT(dq.samples_lost, 0u);
  EXPECT_EQ(counter(traces[2], "samples_lost"),
            static_cast<double>(dq.samples_lost));
}

// ---------------------------------------------------------------------------
// PollChunks: the shared chunk grid, with the std::function truth chain
// metered through MeterModel::measure as the oracle.

// A cohort lowered through make_system_power_model.  MPrime's drifting
// core makes the shape vary sample to sample, so a table built on the
// wrong time grid moves bits; Firestarter's flat core exercises the
// level-indexed tables.
struct ChunkRig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
};

ChunkRig make_chunk_rig(bool drifting) {
  std::shared_ptr<const Workload> workload;
  if (drifting) {
    workload = std::make_shared<MprimeWorkload>(minutes(30.0));
  } else {
    workload = std::make_shared<FirestarterWorkload>(minutes(30.0));
  }
  ChunkRig rig;
  rig.cluster = std::make_unique<ClusterPowerModel>(
      "chunks", std::vector<double>{380.0, 402.5, 431.25}, workload);
  rig.electrical = std::make_unique<SystemPowerModel>(make_system_power_model(
      *rig.cluster, 2, PsuEfficiencyCurve::platinum(), AuxiliaryConfig{}));
  return rig;
}

TEST(PollChunks, TablesReproduceMeasureBitForBit) {
  // Two windows from a 120 s origin, neither a whole number of 7- or
  // 60-sample chunks at either interval: every chunk size ends on a
  // partial chunk, and the second window's draws continue the first's.
  const std::vector<TimeWindow> windows = {
      TimeWindow{Seconds{120.0}, Seconds{1025.0}},
      TimeWindow{Seconds{1100.0}, Seconds{1833.0}}};
  const TimeWindow campaign{Seconds{120.0}, Seconds{1920.0}};
  const std::vector<std::size_t> nodes = {0, 1, 2};
  for (const bool drifting : {true, false}) {
    const ChunkRig rig = make_chunk_rig(drifting);
    for (const bool dc_tap : {false, true}) {
      for (const MeterMode mode :
           {MeterMode::kSampled, MeterMode::kIntegrated}) {
        for (const MeterAccuracy& accuracy :
             {MeterAccuracy::perfect(), MeterAccuracy::pdu_grade()}) {
          for (const double dt : {10.0, 0.7}) {
            FleetProvisionSpec spec;
            spec.accuracy = accuracy;
            spec.mode = mode;
            spec.interval = Seconds{dt};
            spec.seed = 5;
            const FleetState fleet = build_fleet_state(
                nodes, spec, windows, rig.cluster.get(),
                dc_tap ? nullptr : rig.electrical.get());
            for (const std::size_t k : {1u, 7u, 60u}) {
              SCOPED_TRACE(std::string(drifting ? "mprime" : "firestarter") +
                           (dc_tap ? " dc" : " ac") +
                           (mode == MeterMode::kIntegrated ? " integrated"
                                                           : " sampled") +
                           " noise_sd=" + std::to_string(accuracy.noise_sd) +
                           " dt=" + std::to_string(dt) +
                           " chunk=" + std::to_string(k));
              PollerConfig config;
              config.chunk_duration = Seconds{dt * static_cast<double>(k)};
              const PollChunks plan =
                  plan_poll_chunks(*rig.cluster, windows, campaign,
                                   Seconds{dt}, mode, config);
              ASSERT_EQ(plan.window_s.size(), windows.size());

              // The grid: chunks of k samples covering each window, the
              // last one partial, at meter-global first indices.
              std::uint64_t next_first = 0;
              std::size_t ci = 0;
              for (std::size_t wi = 0; wi < windows.size(); ++wi) {
                const std::size_t n =
                    window_sample_count(windows[wi], Seconds{dt});
                if (k > 1) {
                  ASSERT_NE(n % k, 0u) << "no partial last chunk";
                }
                std::size_t covered = 0;
                while (covered < n) {
                  ASSERT_LT(ci, plan.chunks.size());
                  const PollChunk& c = plan.chunks[ci++];
                  EXPECT_EQ(c.window_index, wi);
                  EXPECT_EQ(c.first, next_first);
                  EXPECT_EQ(c.table.samples, std::min(k, n - covered));
                  covered += c.table.samples;
                  next_first += c.table.samples;
                }
                EXPECT_EQ(covered, n);
              }
              EXPECT_EQ(ci, plan.chunks.size());

              StreamScratch scratch;
              for (std::size_t lane = 0; lane < fleet.size(); ++lane) {
                const std::size_t node = fleet.node[lane];
                const SystemPowerModel& electrical = *rig.electrical;
                const PowerFunction truth =
                    dc_tap ? PowerFunction([&electrical, node](double t) {
                      return electrical.node_dc_w(node, t);
                    })
                           : electrical.node_ac_function(node);
                for (const PollChunk& c : plan.chunks) {
                  stream_node_window(c.table, fleet.mean_w[lane],
                                     fleet.curve[lane], fleet.meters[lane],
                                     fleet.noise[lane], c.first, scratch);
                  const PowerTrace oracle = fleet.meters[lane].measure(
                      truth, c.window.begin, c.window.end, fleet.noise[lane],
                      c.first);
                  ASSERT_EQ(scratch.readings.size(), oracle.size());
                  EXPECT_EQ(std::memcmp(scratch.readings.data(),
                                        oracle.watts().data(),
                                        oracle.size() * sizeof(double)),
                            0)
                      << "lane " << lane << " chunk first " << c.first;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(BoundedQueue, BackpressureBlocksUntilConsumed) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);  // must block: capacity 2
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());  // still stuck behind the full queue
  EXPECT_EQ(q.pop().value(), 1);      // frees a slot
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueue, CloseUnblocksProducersAndDrainsConsumers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::thread producer([&] {
    EXPECT_FALSE(q.push(8));  // blocked on full, woken by close -> false
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop().value(), 7);          // close still drains queued items
  EXPECT_FALSE(q.pop().has_value());      // then reports end-of-stream
  EXPECT_FALSE(q.push(9));                // closed for good
  q.close();                              // idempotent
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>{0}, contract_error);
}

}  // namespace
}  // namespace pv
