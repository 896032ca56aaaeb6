// The node-tap Meter engine against its eager reference.
//
// make_node_meter_stage() is the one node-tap metering engine: a chunked
// walk over the FleetState lanes, clean lanes through the fused chunk
// kernel, faulted lanes through stream_lane_window into one DeviceMeter
// each, batch (no sink) as one fan-out and live (collecting sink) one
// chunk at a time.  Its oracle is make_reference_node_meter_stage():
// every node metered through its std::function truth chain by the same
// meter_device loop the rack and facility taps run.  Every case swaps the
// reference into the stage list make_campaign_stages returns and memcmps
// every reported double and verdict (plus the rendered JSON document)
// against the engine across thread counts x chunk sizes {37, 4096}:
//
//   suite                    rig            faults                sink
//   StreamingEquivalence     FIRESTARTER    clean | harsh+dead+   none
//                                           byz+recon
//   StreamingAssessment      FIRESTARTER    clean | harsh+dead+   collecting
//                                           byz+recon
//   FleetEngineDifferential  FIRESTARTER    clean + reconcile     none |
//                            perfect meters (noise-free lane      collecting
//                            loops)
//   DriftingShapes           HPL CPU, HPL   clean (one harsh+     none
//                            GPU in-core,   dead+byz+recon case)
//                            MPrime
//
// the FIRESTARTER suites at threads {1, 2, 8} over seeds 1..3 x L1/L2/L3,
// plus DC taps; DriftingShapes at threads {1, 3} over L1/L2/L3 x node
// AC/DC x perfect/PDU-grade meters.  These rigs sit below the fan-out's
// work grain (kFanoutGrain), so their clean cases run inline at every
// thread count and only their faulted cases fan out; FanoutGrain runs
// clean campaigns above the grain against threads = 1 and the kept scope
// truth under threads that first use it together.  FIRESTARTER's core
// phase is one shape level, so only DriftingShapes starts shape runs
// inside campaign chunks.  Collecting sinks emit at every window close,
// so their partial transcripts must match across threads and chunk sizes
// too.  Alongside: dead-lane masking, the pinned live emission schedule,
// the facility check meter on a zero-auxiliary rig, thread invariance of
// the sharded provision and of both loop shapes (FleetSoA), the fused
// kernel against the dense path (each lane's stream_lane_window readings
// chained in sample order) on hand-built tables whose shape changes
// mid-chunk, also at the kernel's tile and noise-block edges, and the
// typed error for an analysis map naming a missing bucket row
// (FusedLevelRuns), and the scenario-scale guards.
//
// The reference clears memoize_truth, so every engine-vs-reference case
// that reconciles also compares the check meters' memoized truths with
// direct ones, and every case Assess's kept truth with the direct
// integral.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <iterator>
#include <latch>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/fleet.hpp"
#include "sim/fleet_state.hpp"
#include "util/expects.hpp"
#include "util/parallel.hpp"
#include "workload/hpl.hpp"
#include "workload/profiles.hpp"

#include "pool_gate.hpp"

namespace pv {
namespace {

struct Rig {
  std::unique_ptr<ClusterPowerModel> cluster;
  std::unique_ptr<SystemPowerModel> electrical;
  MeasurementPlan plan;
};

Rig make_rig(std::size_t nodes, Level level, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "engine-rig";
  spec.nodes = nodes;
  spec.cv = 0.03;
  spec.fleet_seed = seed ^ 0x99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.plan = built.plan(MethodologySpec::get(level, Revision::kV2015), seed);
  rig.cluster = std::move(built.cluster);
  rig.electrical = std::move(built.electrical);
  return rig;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Byte-compares the reconcile report: every diagnosis (its evidence
// doubles are functions of the per-meter analysis series) and every
// hierarchy residual.
void expect_identical_integrity(const ReconcileReport& a,
                                const ReconcileReport& b) {
  EXPECT_EQ(a.meters_checked, b.meters_checked);
  EXPECT_EQ(a.meters_quarantined, b.meters_quarantined);
  EXPECT_EQ(a.meters_corrected, b.meters_corrected);
  EXPECT_EQ(a.parents_distrusted, b.parents_distrusted);
  EXPECT_TRUE(bits_equal(a.worst_residual_before, b.worst_residual_before));
  EXPECT_TRUE(bits_equal(a.worst_residual_after, b.worst_residual_after));
  EXPECT_TRUE(bits_equal(a.mean_detection_latency_windows,
                         b.mean_detection_latency_windows));
  EXPECT_TRUE(bits_equal(a.corrected_sigma, b.corrected_sigma));
  ASSERT_EQ(a.diagnoses.size(), b.diagnoses.size());
  for (std::size_t i = 0; i < a.diagnoses.size(); ++i) {
    const MeterDiagnosis& da = a.diagnoses[i];
    const MeterDiagnosis& db = b.diagnoses[i];
    SCOPED_TRACE("diagnosis of meter " + std::to_string(da.meter_id));
    EXPECT_EQ(da.meter_id, db.meter_id);
    EXPECT_EQ(static_cast<int>(da.verdict), static_cast<int>(db.verdict));
    EXPECT_TRUE(bits_equal(da.gain_estimate, db.gain_estimate));
    EXPECT_TRUE(bits_equal(da.robust_z, db.robust_z));
    EXPECT_TRUE(bits_equal(da.cusum_max, db.cusum_max));
    EXPECT_TRUE(bits_equal(da.drift_per_window, db.drift_per_window));
    EXPECT_EQ(da.clock_lag, db.clock_lag);
    EXPECT_EQ(da.detection_window, db.detection_window);
    EXPECT_EQ(da.quarantined, db.quarantined);
    EXPECT_EQ(da.corrected, db.corrected);
    EXPECT_TRUE(bits_equal(da.correction_scale, db.correction_scale));
  }
  ASSERT_EQ(a.residuals.size(), b.residuals.size());
  for (std::size_t i = 0; i < a.residuals.size(); ++i) {
    EXPECT_EQ(a.residuals[i].label, b.residuals[i].label);
    EXPECT_TRUE(
        bits_equal(a.residuals[i].worst_before, b.residuals[i].worst_before));
    EXPECT_TRUE(
        bits_equal(a.residuals[i].worst_after, b.residuals[i].worst_after));
    EXPECT_EQ(a.residuals[i].parent_distrusted,
              b.residuals[i].parent_distrusted);
  }
}

// Byte-compares everything a campaign reports — per-node means, CI,
// energy, truth, data-quality tallies and the reconcile report — then
// the rendered JSON document as a whole.
void expect_identical(const MeasurementPlan& plan, const CampaignResult& a,
                      const CampaignResult& b, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(bits_equal(a.submitted_power.value(), b.submitted_power.value()));
  EXPECT_TRUE(
      bits_equal(a.submitted_energy.value(), b.submitted_energy.value()));
  EXPECT_EQ(a.nodes_measured, b.nodes_measured);
  ASSERT_EQ(a.node_mean_powers_w.size(), b.node_mean_powers_w.size());
  for (std::size_t i = 0; i < a.node_mean_powers_w.size(); ++i) {
    EXPECT_TRUE(bits_equal(a.node_mean_powers_w[i], b.node_mean_powers_w[i]))
        << "node mean " << i;
  }
  EXPECT_TRUE(bits_equal(a.node_mean_ci.lo, b.node_mean_ci.lo));
  EXPECT_TRUE(bits_equal(a.node_mean_ci.hi, b.node_mean_ci.hi));
  EXPECT_TRUE(bits_equal(a.relative_halfwidth, b.relative_halfwidth));
  EXPECT_TRUE(bits_equal(a.true_power.value(), b.true_power.value()));
  EXPECT_TRUE(bits_equal(a.relative_error, b.relative_error));
  const DataQuality& qa = a.data_quality;
  const DataQuality& qb = b.data_quality;
  EXPECT_EQ(qa.meters_lost, qb.meters_lost);
  EXPECT_EQ(qa.lost_meter_ids, qb.lost_meter_ids);
  EXPECT_EQ(qa.samples_lost, qb.samples_lost);
  EXPECT_EQ(qa.samples_repaired, qb.samples_repaired);
  EXPECT_EQ(qa.spikes_filtered, qb.spikes_filtered);
  EXPECT_EQ(qa.stuck_flagged, qb.stuck_flagged);
  EXPECT_TRUE(bits_equal(qa.sample_coverage, qb.sample_coverage));
  EXPECT_EQ(qa.reconcile_ran, qb.reconcile_ran);
  expect_identical_integrity(qa.integrity, qb.integrity);
  // The whole rendered document, byte for byte.
  EXPECT_EQ(render_json(assessment_document(plan, a)),
            render_json(assessment_document(plan, b)));
}

CampaignConfig base_config(std::uint64_t seed, std::size_t threads = 1) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.meter_interval_override = Seconds{5.0};
  return cfg;
}

CampaignConfig live_config(std::uint64_t seed, std::size_t threads,
                           std::size_t chunk_samples,
                           std::vector<std::string>* partials = nullptr,
                           double emit_every_s = 0.0) {
  CampaignConfig cfg = base_config(seed, threads);
  cfg.live.enabled = true;
  cfg.live.chunk_samples = chunk_samples;
  cfg.live.emit_every_s = emit_every_s;
  if (partials != nullptr) {
    cfg.live_sink = [partials](const std::string& line) {
      partials->push_back(line);
    };
  }
  return cfg;
}

enum class Faults { kClean, kCleanReconcile, kHarsh };

CampaignConfig with_faults(CampaignConfig cfg, Faults faults,
                           const MeasurementPlan& plan) {
  if (faults == Faults::kHarsh) {
    cfg.faults.spec = FaultSpec::harsh();
    cfg.faults.dead_meters = {plan.node_indices[1]};
    cfg.faults.byzantine_meters = {plan.node_indices[0],
                                   plan.node_indices[3]};
  }
  cfg.reconcile.enabled = faults != Faults::kClean;
  return cfg;
}

// The reference run: make_campaign_stages' list with the node-tap Meter
// stage swapped for the eager reference.
CampaignResult run_reference(const Rig& rig, const CampaignConfig& cfg) {
  std::vector<StagePtr> stages = make_campaign_stages(rig.plan, cfg);
  stages[1] = make_reference_node_meter_stage();  // Provision, Meter, ...
  return run_campaign_stages(*rig.cluster, *rig.electrical, rig.plan, cfg,
                             stages);
}

enum class Sink { kNone, kCollecting };

// Runs `cfg` through the engine at `thread_counts` x chunk sizes
// {37, 4096} and expects every result byte-identical to the reference.
// With a collecting sink the campaign runs live, emitting at every
// window close, and every run must emit the same partial transcript.
void expect_engine_matches_reference(
    const Rig& rig, const CampaignConfig& cfg, Sink sink,
    const std::vector<std::size_t>& thread_counts = {1, 2, 8}) {
  const CampaignResult reference = run_reference(rig, cfg);
  std::vector<std::string> first_partials;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t chunk : {std::size_t{37}, std::size_t{4096}}) {
      const std::string what = "threads=" + std::to_string(threads) +
                               ", chunk=" + std::to_string(chunk);
      CampaignConfig run = cfg;
      run.threads = threads;
      run.live.chunk_samples = chunk;
      std::vector<std::string> partials;
      if (sink == Sink::kCollecting) {
        run.live.enabled = true;
        run.live_sink = [&partials](const std::string& line) {
          partials.push_back(line);
        };
      }
      expect_identical(
          rig.plan, reference,
          run_campaign(*rig.cluster, *rig.electrical, rig.plan, run), what);
      if (sink == Sink::kNone) continue;
      EXPECT_FALSE(partials.empty()) << what;
      if (first_partials.empty()) first_partials = partials;
      EXPECT_EQ(partials, first_partials) << what;
    }
  }
}

class EngineGrid
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Level>> {
 protected:
  void expect_matches(Faults faults, Sink sink,
                      MeterAccuracy accuracy = MeterAccuracy::pdu_grade()) {
    const auto [seed, level] = GetParam();
    const Rig rig = make_rig(96, level, seed);
    CampaignConfig cfg = with_faults(base_config(seed), faults, rig.plan);
    cfg.meter_accuracy = accuracy;
    expect_engine_matches_reference(rig, cfg, sink);
  }
};

std::string grid_name(
    const ::testing::TestParamInfo<EngineGrid::ParamType>& p) {
  return "seed" + std::to_string(std::get<0>(p.param)) + "_L" +
         std::to_string(static_cast<int>(std::get<1>(p.param)));
}

const auto kSeedsAndLevels =
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(Level::kL1, Level::kL2, Level::kL3));

// ---------------------------------------------------------------------------
// Batch shape: no sink, one fan-out.

class StreamingEquivalence : public EngineGrid {};

TEST_P(StreamingEquivalence, CleanCampaignBitIdentical) {
  expect_matches(Faults::kClean, Sink::kNone);
}

TEST_P(StreamingEquivalence, FaultedReconciledCampaignBitIdentical) {
  expect_matches(Faults::kHarsh, Sink::kNone);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndLevels, StreamingEquivalence,
                         kSeedsAndLevels, grid_name);

// ---------------------------------------------------------------------------
// Live shape: a collecting sink, one chunk at a time.

class StreamingAssessment : public EngineGrid {};

TEST_P(StreamingAssessment, CleanLiveFinalByteIdenticalToBatch) {
  expect_matches(Faults::kClean, Sink::kCollecting);
}

TEST_P(StreamingAssessment, FaultedByzantineReconciledLiveMatchesBatch) {
  expect_matches(Faults::kHarsh, Sink::kCollecting);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndLevels, StreamingAssessment,
                         kSeedsAndLevels, grid_name);

// ---------------------------------------------------------------------------
// The lane kernel's other branches: reconcile buckets, noise-free lanes.

class FleetEngineDifferential : public EngineGrid {};

TEST_P(FleetEngineDifferential, CleanReconcileFusedBucketsMatchScalarPath) {
  expect_matches(Faults::kCleanReconcile, Sink::kNone);
}

TEST_P(FleetEngineDifferential, LiveFusedChunkDriverMatchesScalarPath) {
  expect_matches(Faults::kCleanReconcile, Sink::kCollecting);
}

TEST_P(FleetEngineDifferential, CleanFusedMatchesScalarPath) {
  // Perfect meters take the kernel's noise-free loops, with and without
  // bucket rows.
  for (const Faults faults : {Faults::kClean, Faults::kCleanReconcile}) {
    for (const Sink sink : {Sink::kNone, Sink::kCollecting}) {
      expect_matches(faults, sink, MeterAccuracy::perfect());
    }
  }
}

TEST_P(FleetEngineDifferential, FaultedByzantineReconciledMatchesScalarPath) {
  for (const Sink sink : {Sink::kNone, Sink::kCollecting}) {
    expect_matches(Faults::kHarsh, sink, MeterAccuracy::perfect());
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndLevels, FleetEngineDifferential,
                         kSeedsAndLevels, grid_name);

TEST(FleetEngineDifferential, DeadMeterMaskingMatchesScalarPath) {
  // Dead lanes (forced at provision) drop out of the cohort exactly as
  // the reference's dead DeviceMeters do: same lost-meter ids, same
  // coverage, same submitted numbers.
  const Rig rig = make_rig(64, Level::kL1, 5);
  CampaignConfig cfg = base_config(5);
  cfg.faults.dead_meters = {rig.plan.node_indices[0],
                            rig.plan.node_indices[7]};
  EXPECT_EQ(run_reference(rig, cfg).data_quality.meters_lost, 2u);
  for (const Sink sink : {Sink::kNone, Sink::kCollecting}) {
    expect_engine_matches_reference(rig, cfg, sink);
  }
}

TEST(FleetEngineDifferential, DcTapMatchesScalarPath) {
  // DC taps carry no PSU lane: both kernels pass the DC draw through, and
  // the readings are converted back to AC after metering.
  for (const Level level : {Level::kL1, Level::kL3}) {
    Rig rig = make_rig(64, level, 4);
    rig.plan.point = MeasurementPoint::kNodeDc;
    rig.plan.conversion = ConversionCorrection::kMeasuredCurve;
    for (const Faults faults : {Faults::kCleanReconcile, Faults::kHarsh}) {
      for (const Sink sink : {Sink::kNone, Sink::kCollecting}) {
        expect_engine_matches_reference(
            rig, with_faults(base_config(4), faults, rig.plan), sink);
      }
    }
  }
}

TEST(FleetEngineDifferential, FacilityCheckMeterMatchesScalarPath) {
  // build_scenario's rigs carry auxiliaries, so no case above builds the
  // facility check.  A zero-auxiliary lowered rig does at L3 with every
  // meter reporting: the engine's check meters read their truths through
  // the shape memo, the reference's directly.
  ScenarioSpec spec;
  spec.name = "engine-rig";
  spec.nodes = 96;
  spec.cv = 0.03;
  spec.fleet_seed = 6 ^ 0x99;
  Scenario built = build_scenario(spec);
  Rig rig;
  rig.plan = built.plan(MethodologySpec::get(Level::kL3, Revision::kV2015), 6);
  rig.electrical = std::make_unique<SystemPowerModel>(make_system_power_model(
      *built.cluster, spec.nodes_per_rack, PsuEfficiencyCurve::platinum(),
      AuxiliaryConfig{0.0, 0.0, 0.0, 0.0}));
  rig.cluster = std::move(built.cluster);
  CampaignConfig cfg = with_faults(base_config(6), Faults::kCleanReconcile,
                                   rig.plan);
  cfg.faults.byzantine_meters = {rig.plan.node_indices[2],
                                 rig.plan.node_indices[40]};
  const CampaignResult reference = run_reference(rig, cfg);
  const std::vector<HierarchyResidual>& residuals =
      reference.data_quality.integrity.residuals;
  ASSERT_FALSE(residuals.empty());
  EXPECT_EQ(residuals.back().label, "facility");
  expect_engine_matches_reference(rig, cfg, Sink::kNone);
}

// ---------------------------------------------------------------------------
// Drifting shapes.  Every case above runs FIRESTARTER, whose core phase is
// one shape level, so its chunks start no shape run after their first
// sample.  HPL's shrinking trailing matrix and MPrime's drifting core
// change the shape at almost every sample, so on these rigs both kernels
// refill their clean readings inside every chunk.  The rigs sit below the
// fan-out's work grain, so the clean threads-3 cases run inline; the
// faulted one fans out, and FanoutGrain (below) fans a drifting rig's
// clean lanes out over workers, each marking its own run starts.

enum class Drift { kHplCpu, kHplGpuInCore, kMprime };

// 64 nodes in racks of 16 with auxiliaries, on a 20-minute core phase,
// planned at `level` under the 2015 rules.
Rig make_drifting_rig(Drift drift, Level level) {
  std::shared_ptr<const Workload> workload;
  switch (drift) {
    case Drift::kHplCpu:
      workload = std::make_shared<HplWorkload>(HplParams::cpu_traditional(),
                                               minutes(20.0), Seconds{60.0},
                                               Seconds{30.0});
      break;
    case Drift::kHplGpuInCore:
      workload = std::make_shared<HplWorkload>(HplParams::gpu_incore(),
                                               minutes(20.0), Seconds{60.0},
                                               Seconds{30.0});
      break;
    case Drift::kMprime:
      workload = std::make_shared<MprimeWorkload>(minutes(20.0));
      break;
  }
  FleetVariability var = FleetVariability::typical_cpu().scaled_to(0.03);
  var.outlier_prob = 0.0;
  Rig rig;
  rig.cluster = std::make_unique<ClusterPowerModel>(
      "drift-rig", generate_node_powers(64, 400.0, var, 11),
      std::move(workload));
  rig.electrical = std::make_unique<SystemPowerModel>(make_system_power_model(
      *rig.cluster, 16, PsuEfficiencyCurve::platinum(), AuxiliaryConfig{}));
  PlanInputs inputs;
  inputs.total_nodes = 64;
  inputs.approx_node_power = Watts{400.0};
  inputs.run = rig.cluster->phases();
  Rng rng(11);
  rig.plan = plan_measurement(MethodologySpec::get(level, Revision::kV2015),
                              inputs, rng);
  return rig;
}

class DriftingShapes
    : public ::testing::TestWithParam<std::tuple<Drift, Level>> {};

TEST_P(DriftingShapes, EngineMatchesReference) {
  const auto [drift, level] = GetParam();
  for (const bool dc_tap : {false, true}) {
    Rig rig = make_drifting_rig(drift, level);
    if (dc_tap) {
      rig.plan.point = MeasurementPoint::kNodeDc;
      rig.plan.conversion = ConversionCorrection::kMeasuredCurve;
    }
    for (const MeterAccuracy& accuracy :
         {MeterAccuracy::perfect(), MeterAccuracy::pdu_grade()}) {
      SCOPED_TRACE(std::string(dc_tap ? "DC tap" : "AC tap") +
                   ", noise_sd=" + std::to_string(accuracy.noise_sd));
      CampaignConfig cfg = base_config(11);
      cfg.meter_accuracy = accuracy;
      expect_engine_matches_reference(rig, cfg, Sink::kNone, {1, 3});
    }
  }
}

std::string drift_name(
    const ::testing::TestParamInfo<DriftingShapes::ParamType>& p) {
  static const char* const kNames[] = {"HplCpu", "HplGpuInCore", "Mprime"};
  return std::string(kNames[static_cast<int>(std::get<0>(p.param))]) + "_L" +
         std::to_string(static_cast<int>(std::get<1>(p.param)));
}

INSTANTIATE_TEST_SUITE_P(
    Drifts, DriftingShapes,
    ::testing::Combine(::testing::Values(Drift::kHplCpu, Drift::kHplGpuInCore,
                                         Drift::kMprime),
                       ::testing::Values(Level::kL1, Level::kL2, Level::kL3)),
    drift_name);

TEST(DriftingShapes, HarshFaultsReconciledMatchReference) {
  // Faulted lanes meter whole windows through stream_lane_window; the
  // reconciling check meters read the drifting truths through the memo.
  const Rig rig = make_drifting_rig(Drift::kMprime, Level::kL3);
  expect_engine_matches_reference(
      rig, with_faults(base_config(11), Faults::kHarsh, rig.plan), Sink::kNone,
      {1, 3});
}

// ---------------------------------------------------------------------------
// Live emission.

TEST(StreamingAssessment, PartialsParseAndFollowThePinnedSchedule) {
  const Rig rig = make_rig(48, Level::kL2, 7);
  // Timed schedule: one partial every 300 virtual seconds.
  std::vector<std::string> partials;
  const auto result =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                   live_config(7, 1, 37, &partials, /*emit_every_s=*/300.0));
  ASSERT_FALSE(partials.empty());
  for (std::size_t i = 0; i < partials.size(); ++i) {
    SCOPED_TRACE("partial " + std::to_string(i));
    const Json doc = parse_assessment_line(partials[i]);
    const Json* live = doc.find("live");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(live->find("seq")->number_value()), i);
    // Ring capacity is respected in the emitted document.
    EXPECT_LE(live->find("recent_windows")->size(),
              static_cast<std::size_t>(
                  live->find("window_capacity")->number_value()));
  }
  // The final document carries no live block: it parses as a plain
  // assessment line.
  const std::string final_line =
      render_json(assessment_document(rig.plan, result));
  EXPECT_EQ(parse_assessment_line(final_line).find("live"), nullptr);

  // The schedule is pinned in virtual time: reruns and different thread
  // counts produce the byte-identical partial transcript.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::string> again;
    (void)run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                       live_config(7, threads, 37, &again, 300.0));
    EXPECT_EQ(partials, again) << "threads=" << threads;
  }
  // A different chunking must not move the numbers, only (possibly) the
  // emission points; with the same schedule the transcript is identical.
  std::vector<std::string> other_chunk;
  (void)run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                     live_config(7, 1, 64, &other_chunk, 300.0));
  ASSERT_EQ(partials.size(), other_chunk.size());
}

TEST(StreamingAssessment, WindowCloseScheduleEmitsOncePerWindow) {
  const Rig rig = make_rig(48, Level::kL2, 13);
  std::vector<std::string> partials;
  const auto result = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                   live_config(13, 1, 4096, &partials));
  // emit_every_s == 0: one partial per closed window, counted by the
  // meter stage's own trace.
  double windows = 0.0;
  double emitted = -1.0;
  for (const StageTrace& t : result.stage_traces) {
    if (t.stage != "meter") continue;
    for (const auto& [k, v] : t.counters) {
      if (k == "windows_stored") windows = v;
      if (k == "partials_emitted") emitted = v;
    }
  }
  EXPECT_EQ(static_cast<double>(partials.size()), emitted);
  EXPECT_GT(windows, 0.0);
  for (const std::string& line : partials) {
    EXPECT_NO_THROW((void)parse_assessment_line(line));
  }
}

TEST(StreamingAssessment, NullSinkStillRunsAndMatchesBatch) {
  // live enabled with no sink: the batch shape runs, emits nothing, and
  // the final result is byte-identical.
  const Rig rig = make_rig(48, Level::kL1, 5);
  const auto batch = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                  base_config(5));
  const auto live = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                 live_config(5, 2, 37, nullptr, 300.0));
  expect_identical(rig.plan, batch, live, "null sink");
}

// ---------------------------------------------------------------------------
// FleetSoA: the sharded provision and both loop shapes under threads.
// These run in the TSan tier (run_tier1.sh matches the suite name).  The
// 96-node campaigns sit below the fan-out's work grain, so they run
// inline at threads = 8 too; FanoutGrain (below) runs both shapes above
// it.

void expect_same_fleet(const FleetState& a, const FleetState& b,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.node, b.node);
  EXPECT_TRUE(bits_equal(a.noise_sd, b.noise_sd));
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    EXPECT_TRUE(bits_equal(a.mean_w[i], b.mean_w[i]));
    EXPECT_TRUE(bits_equal(a.gain[i], b.gain[i]));
    EXPECT_TRUE(bits_equal(a.offset_w[i], b.offset_w[i]));
    EXPECT_EQ(a.curve[i], b.curve[i]);
    // The noise streams must share their origin: every draw then agrees.
    EXPECT_EQ(a.noise[i].origin(), b.noise[i].origin());
  }
}

TEST(FleetSoA, ShardedProvisionIsThreadCountInvariant) {
  const Rig rig = make_rig(64, Level::kL1, 9);
  FleetProvisionSpec spec;
  spec.accuracy = MeterAccuracy::pdu_grade();
  spec.interval = Seconds{5.0};
  spec.seed = 9;
  const FleetState serial =
      build_fleet_state(rig.plan.node_indices, spec, rig.cluster.get(),
                        rig.electrical.get(), nullptr);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const FleetState sharded =
        build_fleet_state(rig.plan.node_indices, spec, rig.cluster.get(),
                          rig.electrical.get(), &pool);
    expect_same_fleet(serial, sharded,
                      "threads=" + std::to_string(threads));
  }
}

TEST(FleetSoA, FusedBatchIsThreadCountInvariant) {
  // Any thread count must report the byte-identical document.
  const Rig rig = make_rig(96, Level::kL1, 17);
  CampaignConfig one = base_config(17, 1);
  CampaignConfig eight = base_config(17, 8);
  one.reconcile.enabled = eight.reconcile.enabled = true;
  expect_identical(
      rig.plan, run_campaign(*rig.cluster, *rig.electrical, rig.plan, one),
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, eight),
      "batch 1 vs 8 threads");
}

TEST(FleetSoA, FusedLiveChunkDriverIsThreadCountInvariant) {
  // The live shape steps every chunk and emits between steps; the final
  // document and the partial transcript are thread-invariant.
  const Rig rig = make_rig(96, Level::kL1, 17);
  std::vector<std::string> partials_one;
  std::vector<std::string> partials_eight;
  const auto one = run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                                live_config(17, 1, 37, &partials_one, 60.0));
  const auto eight =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                   live_config(17, 8, 37, &partials_eight, 60.0));
  expect_identical(rig.plan, one, eight, "live 1 vs 8 threads");
  EXPECT_FALSE(partials_one.empty());
  EXPECT_EQ(partials_one, partials_eight);
}

// ---------------------------------------------------------------------------
// FanoutGrain: the node fan-out's work grain (kFanoutGrain,
// core/pipeline.hpp).  A clean campaign splits into one lane range per
// kFanoutGrain lane-samples, up to config.threads, so every rig above
// runs its clean cases inline; a faulted one keeps the requested width,
// and its `fanout` counter is the lane ranges parallel_chunks makes at
// it (2 lanes at threads = 8 are 2 ranges, 10 lanes are 5).  These
// campaigns are large enough to fan out: batch, live, reconcile buckets
// and drifting shapes at threads {1, 2, 8}, each byte-identical to
// threads = 1 with the Meter trace's `fanout` counter at
// min(threads, work / grain).  Below the grain a campaign at threads = 8
// runs inline while every pool worker is parked.  Threads that first use
// a fresh scenario's kept scope truth together all read the reference
// stage's bits.  These run in the TSan tier too.

double stage_counter(const CampaignResult& result, const std::string& stage,
                     const std::string& key) {
  for (const StageTrace& t : result.stage_traces) {
    if (t.stage != stage) continue;
    for (const auto& [k, v] : t.counters) {
      if (k == key) return v;
    }
  }
  ADD_FAILURE() << "no " << stage << " counter " << key;
  return 0.0;
}

// The lane-samples a campaign meters: its Provision trace's samples.
std::size_t lane_samples(const CampaignResult& result) {
  for (const StageTrace& t : result.stage_traces) {
    if (t.stage == "provision") return t.samples;
  }
  ADD_FAILURE() << "no Provision trace";
  return 0;
}

// Runs `cfg` at threads {1, 2, 8}.  The campaign must hold at least
// `min_grains` grains of work; each run must report a fan-out of
// min(threads, work / grain) and match threads = 1's run byte for byte
// (with a collecting sink, its partial transcript too).
void expect_fans_out_identically(const Rig& rig, CampaignConfig cfg, Sink sink,
                                 std::size_t min_grains) {
  std::optional<CampaignResult> serial;
  std::vector<std::string> serial_partials;
  for (const std::size_t threads : {1, 2, 8}) {
    const std::string what = "threads=" + std::to_string(threads);
    cfg.threads = threads;
    std::vector<std::string> partials;
    if (sink == Sink::kCollecting) {
      cfg.live.enabled = true;
      cfg.live.chunk_samples = 256;
      cfg.live.emit_every_s = 60.0;
      cfg.live_sink = [&partials](const std::string& line) {
        partials.push_back(line);
      };
    }
    CampaignResult result =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    const std::size_t grains = lane_samples(result) / kFanoutGrain;
    ASSERT_GE(grains, min_grains) << what;
    EXPECT_EQ(stage_counter(result, "meter", "fanout"),
              static_cast<double>(std::min(threads, grains)))
        << what;
    if (!serial) {
      serial = std::move(result);
      serial_partials = partials;
      if (sink == Sink::kCollecting) {
        EXPECT_FALSE(serial_partials.empty());
      }
      continue;
    }
    expect_identical(rig.plan, *serial, result, what);
    EXPECT_EQ(partials, serial_partials) << what;
  }
}

TEST(FanoutGrain, CleanBatchAboveTheGrainFansOutByteIdentically) {
  // 96 nodes x 7200 samples is 10 grains (fan-outs of 2 and 8), 96 x 3600
  // is 5 (2, and 5 at threads = 8).
  const Rig rig = make_rig(96, Level::kL3, 3);
  for (const double interval_s : {0.25, 0.5}) {
    SCOPED_TRACE("interval " + std::to_string(interval_s));
    CampaignConfig cfg = base_config(3);
    cfg.meter_interval_override = Seconds{interval_s};
    expect_fans_out_identically(rig, cfg, Sink::kNone, 5);
  }
}

TEST(FanoutGrain, LiveAndReconcileBucketsAboveTheGrainFanOutByteIdentically) {
  const Rig rig = make_rig(96, Level::kL3, 5);
  CampaignConfig cfg = base_config(5);
  cfg.meter_interval_override = Seconds{0.5};
  expect_fans_out_identically(rig, cfg, Sink::kCollecting, 5);
  cfg.reconcile.enabled = true;
  for (const Sink sink : {Sink::kNone, Sink::kCollecting}) {
    expect_fans_out_identically(rig, cfg, sink, 5);
  }
}

TEST(FanoutGrain, DriftingShapesAboveTheGrainFanOutByteIdentically) {
  // 64 nodes x 4800 samples of a shape that changes at almost every one:
  // 4 grains, so every lane range refills its clean row inside its chunks.
  const Rig rig = make_drifting_rig(Drift::kMprime, Level::kL3);
  for (const MeterAccuracy& accuracy :
       {MeterAccuracy::perfect(), MeterAccuracy::pdu_grade()}) {
    SCOPED_TRACE("noise_sd=" + std::to_string(accuracy.noise_sd));
    CampaignConfig cfg = base_config(11);
    cfg.meter_accuracy = accuracy;
    cfg.meter_interval_override = Seconds{0.25};
    expect_fans_out_identically(rig, cfg, Sink::kNone, 4);
  }
}

TEST(FanoutGrain, CleanCampaignBelowTheGrainRunsInlineWhileThePoolIsParked) {
  // 16 metered nodes x 360 samples: far below the grain, so threads = 8
  // runs inline and never touches the parked pool.
  const Rig rig = make_rig(96, Level::kL1, 2);
  const CampaignResult serial =
      run_campaign(*rig.cluster, *rig.electrical, rig.plan, base_config(2));
  ASSERT_LT(lane_samples(serial), kFanoutGrain);

  PoolGate gate;
  std::future<CampaignResult> run = std::async(std::launch::async, [&] {
    return run_campaign(*rig.cluster, *rig.electrical, rig.plan,
                        base_config(2, 8));
  });
  const std::future_status status = run.wait_for(std::chrono::seconds(60));
  gate.release();  // a campaign that did park finishes now, and fails below
  ASSERT_EQ(status, std::future_status::ready)
      << "a below-grain campaign waited on the pool";
  const CampaignResult eight = run.get();
  EXPECT_EQ(stage_counter(eight, "meter", "fanout"), 1.0);
  expect_identical(rig.plan, serial, eight, "threads=8 below the grain");
}

TEST(FanoutGrain, SmallFaultedCampaignKeepsTheRequestedWidth) {
  // A faulted campaign asks for its threads whatever its work, and its
  // `fanout` is the lane ranges parallel_chunks makes at that width:
  // 16 lanes split 2 and 8 ways, 2 lanes at most 2 ways, and 10 lanes at
  // a width of 8 into 5 ranges of 2.
  struct Case {
    std::size_t nodes;
    Level level;
    std::size_t lanes;
    std::vector<std::pair<std::size_t, double>> fanout_at;  // threads -> fanout
  };
  const std::vector<Case> cases = {
      {96, Level::kL1, 16, {{2, 2.0}, {8, 8.0}}},
      {2, Level::kL3, 2, {{2, 2.0}, {8, 2.0}}},
      {10, Level::kL3, 10, {{2, 2.0}, {8, 5.0}}},
  };
  for (const Case& c : cases) {
    const Rig rig = make_rig(c.nodes, c.level, 2);
    SCOPED_TRACE(std::to_string(c.lanes) + " lanes");
    ASSERT_EQ(rig.plan.node_count(), c.lanes);
    CampaignConfig cfg = base_config(2);
    cfg.faults.spec = FaultSpec::mild();
    if (c.lanes > 2) cfg.faults.dead_meters = {rig.plan.node_indices[2]};
    const CampaignResult serial =
        run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
    ASSERT_LT(lane_samples(serial), kFanoutGrain);
    EXPECT_EQ(stage_counter(serial, "meter", "fanout"), 1.0);
    for (const auto& [threads, fanout] : c.fanout_at) {
      const std::string what = "threads=" + std::to_string(threads);
      cfg.threads = threads;
      const CampaignResult result =
          run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg);
      EXPECT_EQ(stage_counter(result, "meter", "fanout"), fanout) << what;
      expect_identical(rig.plan, serial, result, what);
    }
  }
}

TEST(FanoutGrain, ThreadsFirstUsingAFreshScenariosTruthReadTheReferenceBits) {
  // The electrical model integrates its core-phase means on first use.
  // Eight campaigns start together on a scenario no campaign has assessed;
  // every one must report the reference stage's true power, which
  // integrates directly, bit for bit.  L1 scopes the compute part only,
  // L3 adds the auxiliaries.
  constexpr std::size_t kRuns = 8;
  for (const Level level : {Level::kL1, Level::kL3}) {
    SCOPED_TRACE("L" + std::to_string(static_cast<int>(level)));
    const Rig rig = make_rig(64, level, 9);
    const CampaignConfig cfg = base_config(9);
    const double reference = run_reference(rig, cfg).true_power.value();
    EXPECT_TRUE(bits_equal(
        reference,
        true_scope_power(*rig.cluster, *rig.electrical, rig.plan.spec)
            .value()));

    std::vector<double> truth(kRuns, 0.0);
    std::latch start(kRuns);
    std::vector<std::thread> runs;
    for (std::size_t i = 0; i < kRuns; ++i) {
      runs.emplace_back([&, i] {
        start.arrive_and_wait();
        truth[i] = run_campaign(*rig.cluster, *rig.electrical, rig.plan, cfg)
                       .true_power.value();
      });
    }
    for (std::thread& t : runs) t.join();
    for (std::size_t i = 0; i < kRuns; ++i) {
      EXPECT_TRUE(bits_equal(truth[i], reference)) << "run " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// FusedLevelRuns: the fused kernel computes each lane's clean reading once
// per shape run.  Campaign windows on FIRESTARTER rarely start a run inside
// a chunk (its core phase is one level), so these hand-built tables do:
// their shape levels change mid-chunk (A A B A C ...), in one plane or in
// all.  Each must match the dense path — every lane's stream_lane_window
// readings chained in sample order, each reading first checked against
// MeterModel::apply_errors on a truth evaluated afresh at every sample —
// bit for bit in every accumulator.

// A table whose quadrature plane q holds levels[planes[q][k]] at sample k
// (one plane when sampled).
ShapeTable level_table(MeterMode mode, const std::vector<double>& levels,
                       const std::vector<std::vector<std::uint32_t>>& planes) {
  ShapeTable t;
  t.t_begin = 100.0;
  t.dt = 1.0;
  t.mode = mode;
  t.samples = planes.front().size();
  for (const std::vector<std::uint32_t>& plane : planes) {
    for (const std::uint32_t l : plane) t.shape.push_back(levels[l]);
  }
  return t;
}

// The dense path over lanes [begin, n): each lane's readings from
// stream_lane_window, checked against the meter provision_meter gives the
// node applied to MeterModel::measure's truth expression at every
// sample, then chained into the lane's window sum and bucket rows in
// sample order.
void dense_chunk(const ShapeTable& table, std::span<const std::int32_t> a_idx,
                 const FleetState& fleet, const FleetProvisionSpec& spec,
                 std::uint64_t k0, std::size_t begin, FleetAccumulators& acc) {
  std::vector<double> readings;
  std::vector<std::uint8_t> run_starts;
  mark_shape_runs(table, run_starts);
  for (std::size_t lane = begin; lane < fleet.size(); ++lane) {
    stream_lane_window(table, run_starts, fleet, lane, k0, readings);
    ASSERT_EQ(readings.size(), table.samples);
    const ProvisionedMeter meter = provision_meter(spec, fleet.node[lane]);
    const CompiledPsuCurve* const curve = fleet.curve[lane];
    const auto draw = [&](double shape) {
      const double dc = fleet.mean_w[lane] * shape;
      return curve != nullptr ? curve->ac_from_dc(dc) : dc;
    };
    for (std::size_t k = 0; k < table.samples; ++k) {
      double truth = 0.0;
      if (table.mode == MeterMode::kIntegrated) {
        for (std::size_t q = 0; q < 4; ++q) {
          truth += gl4::kWs[q] * draw(table.shape[q * table.samples + k]);
        }
      } else {
        truth = draw(table.shape[k]);
      }
      ASSERT_TRUE(bits_equal(readings[k], meter.meter.apply_errors(
                                              truth, meter.noise, k0 + k)))
          << "lane " << lane << ", sample " << k;
    }
    double s = acc.win_sum[lane];
    for (const double x : readings) s += x;
    acc.win_sum[lane] = s;
    for (std::size_t k = 0; k < a_idx.size(); ++k) {
      if (a_idx[k] >= 0) {
        acc.bucket_sum[static_cast<std::size_t>(a_idx[k]) * acc.nodes +
                       lane] += readings[k];
      }
    }
  }
}

// Streams `chunks` back to back (one scratch, advancing k0, as a worker
// walks a window) over lanes [begin, n) through the fused kernel and
// through the dense path, then compares the window sums and the reconcile
// buckets.  `maps` is empty (unmapped) or holds each chunk's analysis map.
void expect_fused_matches_dense(
    const std::vector<ShapeTable>& chunks,
    const std::vector<std::vector<std::int32_t>>& maps,
    const FleetState& fleet, const FleetProvisionSpec& spec,
    std::size_t begin) {
  std::size_t buckets = 0;
  for (const std::vector<std::int32_t>& map : maps) {
    for (const std::int32_t a : map) {
      buckets = std::max(buckets, static_cast<std::size_t>(a + 1));
    }
  }
  const std::size_t n = fleet.size();
  FleetAccumulators fused;
  FleetAccumulators dense;
  fused.init(n, buckets);
  dense.init(n, buckets);
  FleetScratch scratch;
  std::uint64_t k0 = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const ShapeTable& chunk = chunks[c];
    const std::vector<std::int32_t> a_idx =
        maps.empty() ? std::vector<std::int32_t>{} : maps[c];
    stream_fleet_chunk(chunk, a_idx, fleet, k0, begin, n, fused, scratch);
    dense_chunk(chunk, a_idx, fleet, spec, k0, begin, dense);
    k0 += chunk.samples;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bits_equal(fused.win_sum[i], dense.win_sum[i])) << "lane " << i;
  }
  for (std::size_t j = 0; j < fused.bucket_sum.size(); ++j) {
    EXPECT_TRUE(bits_equal(fused.bucket_sum[j], dense.bucket_sum[j]))
        << "bucket entry " << j;
  }
}

// Noise-free meters still carry calibration error, so the clean row's
// gain and offset matter on both accumulate paths.
const MeterAccuracy kNoiseFree{.gain_error_sd = 0.01,
                                   .offset_error_sd_w = 1.5,
                                   .noise_sd = 0.0};

// Runs `planes_of(sequence)` chunks — the sequence, then reversed — on
// noisy and noise-free fleets, unmapped and mapped.
void expect_level_runs_match(
    MeterMode mode,
    const std::function<std::vector<std::vector<std::uint32_t>>(
        const std::vector<std::uint32_t>&)>& planes_of) {
  const Rig rig = make_rig(24, Level::kL3, 4);
  const std::vector<double> levels = {1.0, 0.6, 0.85, 1.1};
  std::vector<std::uint32_t> seq = {0, 0, 1, 0, 2, 2, 2, 3, 1, 1, 0, 3, 3, 2, 0};
  const ShapeTable forward = level_table(mode, levels, planes_of(seq));
  std::reverse(seq.begin(), seq.end());
  const std::vector<ShapeTable> chunks = {
      forward, level_table(mode, levels, planes_of(seq))};
  std::vector<std::vector<std::int32_t>> maps;
  for (const ShapeTable& chunk : chunks) {
    std::vector<std::int32_t>& a_idx = maps.emplace_back();
    for (std::size_t k = 0; k < chunk.samples; ++k) {
      a_idx.push_back(k % 4 == 3 ? -1
                                 : static_cast<std::int32_t>(
                                       k * 2 / chunk.samples));
    }
  }
  for (const MeterAccuracy& accuracy :
       {MeterAccuracy::pdu_grade(), kNoiseFree}) {
    FleetProvisionSpec spec;
    spec.accuracy = accuracy;
    spec.mode = mode;
    spec.seed = 4;
    const FleetState fleet =
        build_fleet_state(rig.plan.node_indices, spec, rig.cluster.get(),
                          rig.electrical.get());
    for (const bool mapped : {false, true}) {
      SCOPED_TRACE("noise_sd=" + std::to_string(accuracy.noise_sd) +
                   (mapped ? ", mapped" : ", unmapped"));
      expect_fused_matches_dense(
          chunks, mapped ? maps : std::vector<std::vector<std::int32_t>>{},
          fleet, spec, 1);
    }
  }
}

TEST(FusedLevelRuns, SampledLevelChangesMatchDensePath) {
  expect_level_runs_match(MeterMode::kSampled,
                          [](const std::vector<std::uint32_t>& seq) {
                            return std::vector<std::vector<std::uint32_t>>{seq};
                          });
}

TEST(FusedLevelRuns, IntegratedLevelChangesMatchDensePath) {
  // Every plane changes together.
  expect_level_runs_match(
      MeterMode::kIntegrated, [](const std::vector<std::uint32_t>& seq) {
        return std::vector<std::vector<std::uint32_t>>(4, seq);
      });
  // Only plane q changes; the others hold level 0 throughout.
  for (std::size_t q = 0; q < 4; ++q) {
    SCOPED_TRACE("only plane " + std::to_string(q) + " changes");
    expect_level_runs_match(
        MeterMode::kIntegrated, [q](const std::vector<std::uint32_t>& seq) {
          std::vector<std::vector<std::uint32_t>> planes(
              4, std::vector<std::uint32_t>(seq.size(), 0));
          planes[q] = seq;
          return planes;
        });
  }
}

TEST(FusedLevelRuns, TileAndBlockEdgesMatchDensePath) {
  // The fused kernel walks 64-lane tiles and draws noise in blocks of 32
  // samples.  Fleets of 1, 63, 64, 65 and 130 lanes, from lane 0 and from
  // lane 1, put tile edges everywhere; the level sequence and the analysis
  // map change at samples 31, 32 and 33 (block edges), at 63 and 64, and
  // between chunks of 70 and 33 samples.
  const Rig rig = make_rig(130, Level::kL3, 4);
  const std::vector<double> levels = {1.0, 0.6, 0.85, 1.1};
  const auto sequence = [](std::size_t samples, std::size_t shift) {
    // Level index and analysis row of each sample: a new run starts at
    // every edge; every third run is unmapped.
    constexpr std::size_t kEdges[] = {31, 32, 33, 63, 64};
    std::vector<std::uint32_t> seq;
    std::vector<std::int32_t> map;
    std::size_t run = shift;
    for (std::size_t k = 0; k < samples; ++k) {
      if (std::find(std::begin(kEdges), std::end(kEdges), k) !=
          std::end(kEdges)) {
        ++run;
      }
      seq.push_back(static_cast<std::uint32_t>(run % 4));
      map.push_back(run % 3 == 2 ? -1 : static_cast<std::int32_t>(run % 3));
    }
    return std::make_pair(seq, map);
  };
  const auto [seq0, map0] = sequence(70, 0);
  const auto [seq1, map1] = sequence(33, 1);
  const std::vector<std::vector<std::int32_t>> maps = {map0, map1};
  for (const MeterMode mode : {MeterMode::kSampled, MeterMode::kIntegrated}) {
    const std::size_t planes = mode == MeterMode::kIntegrated ? 4 : 1;
    const std::vector<ShapeTable> chunks = {
        level_table(mode, levels,
                    std::vector<std::vector<std::uint32_t>>(planes, seq0)),
        level_table(mode, levels,
                    std::vector<std::vector<std::uint32_t>>(planes, seq1))};
    for (const MeterAccuracy& accuracy :
         {MeterAccuracy::pdu_grade(), kNoiseFree}) {
      FleetProvisionSpec spec;
      spec.accuracy = accuracy;
      spec.mode = mode;
      spec.seed = 4;
      for (const std::size_t n : {1, 63, 64, 65, 130}) {
        std::vector<std::size_t> nodes(n);
        std::iota(nodes.begin(), nodes.end(), std::size_t{0});
        const FleetState fleet = build_fleet_state(
            nodes, spec, rig.cluster.get(), rig.electrical.get());
        for (const std::size_t begin : {0, 1}) {
          if (begin >= n) continue;
          for (const bool mapped : {false, true}) {
            SCOPED_TRACE(std::string(mode == MeterMode::kIntegrated
                                         ? "integrated"
                                         : "sampled") +
                         ", noise_sd=" + std::to_string(accuracy.noise_sd) +
                         ", lanes [" + std::to_string(begin) + ", " +
                         std::to_string(n) + ")" +
                         (mapped ? ", mapped" : ", unmapped"));
            expect_fused_matches_dense(
                chunks,
                mapped ? maps : std::vector<std::vector<std::int32_t>>{},
                fleet, spec, begin);
          }
        }
      }
    }
  }
}

TEST(FusedLevelRuns, MapNamingAMissingBucketIsATypedError) {
  // A map entry past the accumulators' bucket rows would write past
  // bucket_sum (and bucket_n); the kernel and the shared count refuse the
  // whole map before anything is written.
  const Rig rig = make_rig(24, Level::kL3, 4);
  FleetProvisionSpec spec;
  spec.seed = 4;
  const FleetState fleet =
      build_fleet_state(rig.plan.node_indices, spec, rig.cluster.get(),
                        rig.electrical.get());
  const std::vector<std::uint32_t> seq = {0, 0, 1, 0, 2, 2, 2, 3};
  const ShapeTable table =
      level_table(MeterMode::kSampled, {1.0, 0.6, 0.85, 1.1}, {seq});
  constexpr std::size_t kBuckets = 2;
  for (const std::int32_t bad : {std::numeric_limits<std::int32_t>::max(),
                                 static_cast<std::int32_t>(kBuckets)}) {
    SCOPED_TRACE("map entry " + std::to_string(bad));
    std::vector<std::int32_t> a_idx(seq.size(), 0);
    a_idx[3] = -1;
    a_idx[5] = bad;
    FleetAccumulators acc;
    acc.init(fleet.size(), kBuckets);
    FleetScratch scratch;
    EXPECT_THROW(stream_fleet_chunk(table, a_idx, fleet, 0, 0, fleet.size(),
                                    acc, scratch),
                 contract_error);
    std::vector<std::size_t> counts(kBuckets, 0);
    EXPECT_THROW(count_analysis_samples(a_idx, counts), contract_error);
  }
}

// ---------------------------------------------------------------------------
// Scenario-scale guard rails (the typed error the CLI maps to exit 2).

TEST(ScenarioScale, GuardsRejectAbsurdSpecs) {
  ScenarioSpec spec;
  spec.nodes = 0;
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  spec.nodes = (std::size_t{1} << 22) + 1;  // past the fleet-scale cap
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  spec.nodes = 64;
  spec.run_minutes = 0.0;
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  // A fleet-wide sample count past 2^53 throws before any allocation.
  spec.nodes = std::size_t{1} << 22;
  spec.run_minutes = 4e7;
  EXPECT_THROW((void)build_scenario(spec), ScenarioError);
  // Externally supplied fleet draws must match the node count.
  spec = ScenarioSpec{};
  spec.nodes = 8;
  EXPECT_THROW(
      (void)build_scenario_with_powers(spec, std::vector<double>(7, 400.0)),
      ScenarioError);
  EXPECT_NO_THROW(
      (void)build_scenario_with_powers(spec, std::vector<double>(8, 400.0)));
}

}  // namespace
}  // namespace pv
