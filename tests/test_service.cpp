// Campaign-service contracts: request isolation, admission, deadlines,
// caching and drain (src/service).
//
// The flagship contract is isolation: N campaigns running concurrently
// inside one service — sharing the worker pool and the provision cache —
// must produce assessments byte-identical to the same campaigns run solo
// through run_campaign.  Any cross-request contamination (shared RNG
// state, a torn cache artifact, config bleed) breaks the byte compare.

#include "service/service.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "service/request.hpp"
#include "trace/wal.hpp"

namespace pv {
namespace {

/// The service-free reference: one campaign, materialized and run exactly
/// as the service would, alone in the process.
std::string solo_assessment(const ServiceRequest& req) {
  const Scenario scenario = build_scenario(scenario_spec_of(req));
  const MeasurementPlan plan = plan_of(req, scenario);
  const CampaignConfig config = campaign_config_of(req, plan);
  const CampaignResult result =
      run_campaign(*scenario.cluster, *scenario.electrical, plan, config);
  return render_json(assessment_document(plan, result));
}

/// Eight deliberately heterogeneous campaigns: different seeds, fault
/// presets, levels, thread counts, reconciliation — plus two sharing one
/// scenario spec (same nodes/cv/seed) so the cache serves both.
std::vector<ServiceRequest> mixed_requests() {
  std::vector<ServiceRequest> reqs(8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = "iso-" + std::to_string(i);
    reqs[i].nodes = 24 + 8 * (i % 3);
    reqs[i].seed = 100 + i;
    reqs[i].interval_s = 10.0;
  }
  reqs[1].faults = "mild";
  reqs[2].faults = "harsh";
  reqs[2].dropout = 0.1;
  reqs[3].level = 2;
  reqs[4].reconcile = true;
  reqs[4].threads = 2;
  reqs[5].faults = "harsh";
  reqs[5].reconcile = true;
  reqs[5].level = 3;
  reqs[5].threads = 2;
  reqs[6].dead = 2;
  // reqs[7] shares reqs[0]'s scenario spec (same nodes/cv/seed) but runs
  // a different campaign on it — cache-shared, campaign-isolated.
  reqs[7].nodes = reqs[0].nodes;
  reqs[7].seed = reqs[0].seed;
  reqs[7].faults = "mild";
  reqs[7].level = 2;
  return reqs;
}

TEST(CampaignService, ConcurrentCampaignsAreBitIdenticalToSoloRuns) {
  const std::vector<ServiceRequest> reqs = mixed_requests();
  std::vector<std::string> solo;
  solo.reserve(reqs.size());
  for (const auto& req : reqs) solo.push_back(solo_assessment(req));

  for (const unsigned workers : {1u, 4u, 8u}) {
    ServiceConfig config;
    config.workers = workers;
    config.max_queue = reqs.size();
    CampaignService service(config);
    std::vector<std::size_t> tickets;
    for (const auto& req : reqs) {
      const AdmissionVerdict verdict = service.submit(req);
      ASSERT_NE(verdict.decision, Admission::kShed);
      tickets.push_back(verdict.ticket);
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const ServiceResponse resp = service.wait(tickets[i]);
      ASSERT_EQ(resp.code, ResponseCode::kOk)
          << reqs[i].id << " with " << workers << " workers: " << resp.message;
      EXPECT_EQ(resp.assessment_json, solo[i])
          << reqs[i].id << " diverged from its solo run with " << workers
          << " workers";
    }
    const DrainReport report = service.drain();
    EXPECT_EQ(report.admitted, reqs.size());
    EXPECT_EQ(report.completed, reqs.size());
    // reqs[7] shares reqs[0]'s fingerprint: at least one cache hit, and
    // never more builds than distinct specs.
    EXPECT_GE(report.cache.hits, 1u);
    EXPECT_LE(report.cache.misses, reqs.size() - 1);
  }
}

// "engine" is a retired request field: older request files and drain
// checkpoints carry it, so it is still validated, then ignored — the
// response is byte-identical to the same request without it.
TEST(CampaignService, RetiredEngineFieldIsAcceptedAndIgnored) {
  const std::string base =
      R"({"schema":"powervar-request-v1","id":"eng","nodes":32,"seed":9,)"
      R"("level":2,"faults":"mild","interval":10)";
  const auto respond = [](const std::string& line) {
    ServiceConfig config;
    config.workers = 1;
    CampaignService service(config);
    const AdmissionVerdict verdict = service.submit(parse_request(line));
    const std::string out = render_response_json(service.wait(verdict.ticket));
    (void)service.drain();
    return out;
  };
  const std::string plain = respond(base + "}");
  EXPECT_NE(plain.find("\"code\":\"ok\""), std::string::npos) << plain;
  EXPECT_EQ(respond(base + R"(,"engine":"eager"})"), plain);
  EXPECT_EQ(respond(base + R"(,"engine":"streaming"})"), plain);
  EXPECT_THROW((void)parse_request(base + R"(,"engine":"warp"})"),
               RequestParseError);
}

TEST(CampaignService, QueuedRequestsAllCompleteInOrderOfTicket) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 8;
  CampaignService service(config);
  std::vector<std::size_t> tickets;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest req;
    req.id = "q-" + std::to_string(i);
    req.nodes = 24;
    req.interval_s = 10.0;
    const AdmissionVerdict verdict = service.submit(req);
    ASSERT_NE(verdict.decision, Admission::kShed);
    tickets.push_back(verdict.ticket);
  }
  for (const std::size_t ticket : tickets) {
    EXPECT_EQ(service.wait(ticket).code, ResponseCode::kOk);
  }
  const DrainReport report = service.drain();
  EXPECT_EQ(report.admitted, 4u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.shed, 0u);
}

TEST(CampaignService, ShedsWithRetryAfterWhenDraining) {
  ServiceConfig config;
  config.workers = 1;
  config.retry_after_s = 2.5;
  config.chaos.drain_after = 1;  // deterministic: admission 1 trips drain
  CampaignService service(config);

  ServiceRequest req;
  req.id = "first";
  req.nodes = 24;
  req.interval_s = 10.0;
  const AdmissionVerdict first = service.submit(req);
  EXPECT_EQ(first.decision, Admission::kAccepted);

  req.id = "second";
  const AdmissionVerdict second = service.submit(req);
  EXPECT_EQ(second.decision, Admission::kShed);
  EXPECT_TRUE(second.has_ticket);
  EXPECT_DOUBLE_EQ(second.retry_after_s, 2.5);

  const ServiceResponse resp = service.wait(second.ticket);
  EXPECT_EQ(resp.code, ResponseCode::kShed);
  EXPECT_DOUBLE_EQ(resp.retry_after_s, 2.5);

  EXPECT_EQ(service.wait(first.ticket).code, ResponseCode::kOk);
  const DrainReport report = service.drain();
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(report.admitted, 1u);
  EXPECT_EQ(report.completed, 1u);
}

TEST(CampaignService, ExhaustedDeadlineYieldsTypedResponseNotTornResult) {
  ServiceConfig config;
  config.workers = 2;
  CampaignService service(config);
  ServiceRequest req;
  req.id = "tight";
  req.nodes = 24;
  req.interval_s = 10.0;
  req.deadline_ms = 1e-7;  // expired by the first boundary check
  const AdmissionVerdict verdict = service.submit(req);
  ASSERT_NE(verdict.decision, Admission::kShed);
  const ServiceResponse resp = service.wait(verdict.ticket);
  EXPECT_EQ(resp.code, ResponseCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.assessment_json.empty());  // no partial document

  // A deadline casualty must not perturb a healthy neighbor.
  ServiceRequest ok;
  ok.id = "roomy";
  ok.nodes = 24;
  ok.interval_s = 10.0;
  const AdmissionVerdict v2 = service.submit(ok);
  const ServiceResponse r2 = service.wait(v2.ticket);
  EXPECT_EQ(r2.code, ResponseCode::kOk);
  EXPECT_EQ(r2.assessment_json, solo_assessment(ok));
}

TEST(CampaignService, DrainIsIdempotentAndAccountsForEverything) {
  ServiceConfig config;
  config.workers = 2;
  CampaignService service(config);
  ServiceRequest req;
  req.id = "one";
  req.nodes = 24;
  req.interval_s = 10.0;
  const AdmissionVerdict verdict = service.submit(req);
  EXPECT_EQ(service.wait(verdict.ticket).code, ResponseCode::kOk);
  const DrainReport a = service.drain();
  const DrainReport b = service.drain();
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.submitted, a.invalid + a.shed + a.admitted);
  EXPECT_EQ(a.admitted, a.completed + a.checkpointed);

  // A drained service sheds everything that still arrives.
  const AdmissionVerdict late = service.submit(req);
  EXPECT_EQ(late.decision, Admission::kShed);
}

}  // namespace
}  // namespace pv
