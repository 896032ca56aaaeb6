// The node-tap Meter engine against its eager reference.
//
// make_node_meter_stage() is the one node-tap metering engine: a chunked
// walk over the FleetState lanes, clean lanes through the fused chunk
// kernel, faulted lanes through one DeviceMeter each, batch (no sink) as
// one fan-out and live (collecting sink) one chunk at a time.  Its oracle
// is make_reference_node_meter_stage(): every node metered through its
// std::function truth chain by the same meter_device loop the rack and
// facility taps run.  Every case swaps the reference into the stage list
// make_campaign_stages returns and memcmps every reported double and
// verdict (plus the rendered JSON document) against the engine across
// threads {1, 2, 8} x chunk sizes {37, 4096}:
//
//   suite                    faults                         sink
//   StreamingEquivalence     clean | harsh+dead+byz+recon   none
//   StreamingAssessment      clean | harsh+dead+byz+recon   collecting
//   FleetEngineDifferential  clean + reconcile              none | collecting
//                            perfect meters (noise-free lane loops)
//
// each over seeds 1..3 x L1/L2/L3, plus DC taps.  Collecting sinks emit
// at every window close, so their partial transcripts must match across
// threads and chunk sizes too.  Alongside: dead-lane masking, the pinned live
// emission schedule, the facility check meter on a zero-auxiliary rig,
// thread invariance of the sharded provision and of both loop shapes
// (FleetSoA, run under TSan), the fused kernel against the dense per-node
// path on hand-built tables whose shape level changes mid-chunk and the
// typed error for an analysis map naming a missing bucket row
// (FusedLevelRuns), and the scenario-scale guards.
//
// The reference clears memoize_truth, so every engine-vs-reference case
// that reconciles also compares the check meters' memoized truths with
// direct ones, and every case Assess's memoized truth with the direct
// integral.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "sim/fleet_state.hpp"
#include "util/expects.hpp"
#include "util/parallel.hpp"

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

// Runs `cfg` through the engine at threads {1, 2, 8} x chunk sizes
// {37, 4096} and expects every result byte-identical to the reference.
// With a collecting sink the campaign runs live, emitting at every
// window close, and every run must emit the same partial transcript.
void expect_engine_matches_reference(const Rig& rig, const CampaignConfig& cfg,
                                     Sink sink) {
  const CampaignResult reference = run_reference(rig, cfg);
  std::vector<std::string> first_partials;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
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
// These run in the TSan tier (run_tier1.sh matches the suite name).

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
    EXPECT_TRUE(bits_equal(a.meters[i].gain(), b.meters[i].gain()));
    EXPECT_TRUE(bits_equal(a.meters[i].offset_w(), b.meters[i].offset_w()));
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
  // The batch shape shards lanes across the pool; any thread count must
  // report the byte-identical document (TSan races this).
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
  // The live shape fans every chunk out and emits between barriers; the
  // final document and the partial transcript are thread-invariant.
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
// FusedLevelRuns: the fused kernel computes each lane's clean reading once
// per run of samples with equal level indices.  Campaign windows rarely
// change level inside a chunk (FIRESTARTER's core phase is one level), so
// these hand-built tables do: their level tuple changes mid-chunk
// (A A B A C ...), in one plane or in all.  Each must match the dense
// per-node path — the same table with levels/level_idx cleared — bit for
// bit in every accumulator.

// A table over `levels` whose quadrature plane q reads level indices
// planes[q] (one plane when sampled); shape[] holds the same values, so
// the dense path meters the same points.
ShapeTable level_table(MeterMode mode, const std::vector<double>& levels,
                       const std::vector<std::vector<std::uint32_t>>& planes) {
  ShapeTable t;
  t.t_begin = 100.0;
  t.dt = 1.0;
  t.mode = mode;
  t.samples = planes.front().size();
  t.levels = levels;
  for (const std::vector<std::uint32_t>& plane : planes) {
    for (const std::uint32_t l : plane) {
      t.level_idx.push_back(l);
      t.shape.push_back(levels[l]);
    }
  }
  return t;
}

// Streams `chunks` back to back (one scratch, advancing k0, as a worker
// walks a window) over lanes [1, n) through the fused kernel and through
// the dense path, then compares the window sums and, when `mapped`, the
// reconcile buckets.
void expect_fused_matches_dense(const std::vector<ShapeTable>& chunks,
                                const FleetState& fleet, bool mapped) {
  constexpr std::size_t kBuckets = 2;
  const std::size_t n = fleet.size();
  FleetAccumulators fused;
  FleetAccumulators dense;
  fused.init(n, mapped ? kBuckets : 0);
  dense.init(n, mapped ? kBuckets : 0);
  FleetScratch fused_scratch;
  FleetScratch dense_scratch;
  std::uint64_t k0 = 0;
  for (const ShapeTable& chunk : chunks) {
    std::vector<std::int32_t> a_idx;
    if (mapped) {
      for (std::size_t k = 0; k < chunk.samples; ++k) {
        a_idx.push_back(k % 4 == 3 ? -1
                                   : static_cast<std::int32_t>(
                                         k * kBuckets / chunk.samples));
      }
    }
    ShapeTable cleared = chunk;
    cleared.levels.clear();
    cleared.level_idx.clear();
    stream_fleet_chunk(chunk, a_idx, fleet, k0, 1, n, fused, fused_scratch);
    stream_fleet_chunk(cleared, a_idx, fleet, k0, 1, n, dense, dense_scratch);
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
  // Noise-free meters still carry calibration error, so the clean row's
  // gain and offset matter on both accumulate paths.
  const MeterAccuracy noise_free{.gain_error_sd = 0.01,
                                 .offset_error_sd_w = 1.5,
                                 .noise_sd = 0.0};
  for (const MeterAccuracy& accuracy :
       {MeterAccuracy::pdu_grade(), noise_free}) {
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
      expect_fused_matches_dense(chunks, fleet, mapped);
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

TEST(FusedLevelRuns, MapNamingAMissingBucketIsATypedError) {
  // A map entry past the accumulators' bucket rows would write past
  // bucket_sum (and bucket_n); both kernels and the shared count refuse
  // the whole map before anything is written.
  const Rig rig = make_rig(24, Level::kL3, 4);
  FleetProvisionSpec spec;
  spec.seed = 4;
  const FleetState fleet =
      build_fleet_state(rig.plan.node_indices, spec, rig.cluster.get(),
                        rig.electrical.get());
  const std::vector<std::uint32_t> seq = {0, 0, 1, 0, 2, 2, 2, 3};
  const ShapeTable leveled =
      level_table(MeterMode::kSampled, {1.0, 0.6, 0.85, 1.1}, {seq});
  const ShapeTable dense = [&] {
    ShapeTable t = leveled;
    t.levels.clear();
    t.level_idx.clear();
    return t;
  }();
  constexpr std::size_t kBuckets = 2;
  for (const std::int32_t bad : {std::numeric_limits<std::int32_t>::max(),
                                 static_cast<std::int32_t>(kBuckets)}) {
    SCOPED_TRACE("map entry " + std::to_string(bad));
    std::vector<std::int32_t> a_idx(seq.size(), 0);
    a_idx[3] = -1;
    a_idx[5] = bad;
    for (const ShapeTable* table : {&leveled, &dense}) {
      FleetAccumulators acc;
      acc.init(fleet.size(), kBuckets);
      FleetScratch scratch;
      EXPECT_THROW(stream_fleet_chunk(*table, a_idx, fleet, 0, 0, fleet.size(),
                                      acc, scratch),
                   contract_error)
          << (table == &dense ? "dense" : "level-indexed");
    }
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
