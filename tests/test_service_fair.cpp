// Tenant fair-share contracts: the FairShareQueue's exact dispatch
// policy (stride scheduling + aging, deterministic tie-breaks) and the
// service-level guarantees built on it — the per-tenant admission cap
// sheds a flooding tenant while others keep landing, and a 10x flood
// cannot starve steady tenants (bounded cross-tenant makespan skew,
// every response typed and byte-identical to solo).

#include "service/fair.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "util/expects.hpp"
#include "util/parallel.hpp"

#include "pool_gate.hpp"

namespace pv {
namespace {

// A request's solo run: its rendered assessment and its Meter trace's
// `fanout` counter.
struct Solo {
  std::string assessment;
  double fanout = 0.0;
};

Solo run_solo(const ServiceRequest& req) {
  const Scenario scenario = build_scenario(scenario_spec_of(req));
  const MeasurementPlan plan = plan_of(req, scenario);
  const CampaignConfig config = campaign_config_of(req, plan);
  const CampaignResult result =
      run_campaign(*scenario.cluster, *scenario.electrical, plan, config);
  Solo solo{render_json(assessment_document(plan, result))};
  for (const StageTrace& t : result.stage_traces) {
    if (t.stage != "meter") continue;
    for (const auto& [key, value] : t.counters) {
      if (key == "fanout") solo.fanout = value;
    }
  }
  return solo;
}

// A request a PoolGate can hold: faulted (mild faults) at threads = 2, so
// it keeps the requested width.  Its solo run must report a fan-out of 2;
// run it before the gate shuts, or it parks too.
ServiceRequest held_request(std::string id, std::size_t nodes,
                            std::string tenant = "default") {
  ServiceRequest req;
  req.id = std::move(id);
  req.nodes = nodes;
  req.tenant = std::move(tenant);
  req.interval_s = 10.0;
  req.threads = 2;
  req.faults = "mild";
  return req;
}

/// Pops everything, recording the tenant that owned each dispatch.
std::vector<std::string> drain_tenants(FairShareQueue& q,
                                       const std::vector<std::string>& owner) {
  std::vector<std::string> order;
  while (!q.empty()) order.push_back(owner[q.pop()]);
  return order;
}

TEST(FairShareQueue, SingleTenantIsFifo) {
  FairShareQueue q;
  for (std::size_t t = 0; t < 5; ++t) q.enqueue(t, "solo", 1);
  for (std::size_t t = 0; t < 5; ++t) EXPECT_EQ(q.pop(), t);
  EXPECT_TRUE(q.empty());
}

TEST(FairShareQueue, EqualWeightTenantsInterleaveDeterministically) {
  // Two equal-priority lanes alternate, ties falling to the
  // lexicographically smaller tenant — the exact order is a pure
  // function of the call sequence, so two identical runs agree.
  for (int run = 0; run < 2; ++run) {
    FairShareQueue q;
    std::vector<std::string> owner;
    for (std::size_t i = 0; i < 8; ++i) {
      owner.push_back(i % 2 == 0 ? "a" : "b");
      q.enqueue(i, owner.back(), 1);
    }
    const std::vector<std::string> order = drain_tenants(q, owner);
    const std::vector<std::string> want = {"a", "b", "a", "b",
                                           "a", "b", "a", "b"};
    EXPECT_EQ(order, want) << "run " << run;
  }
}

TEST(FairShareQueue, PriorityWeightsDispatchProportionally) {
  // Priority-4 "hi" advances its pass a quarter as fast as priority-1
  // "lo": under sustained contention it is dispatched exactly 4x as
  // often.  (kStride = lcm(1..8) keeps every increment an exact
  // integer, so the ratio is exact, not approximate.)
  FairShareQueue q;
  std::vector<std::string> owner;
  for (std::size_t i = 0; i < 20; ++i) {
    owner.push_back("hi");
    q.enqueue(owner.size() - 1, "hi", 4);
  }
  for (std::size_t i = 0; i < 20; ++i) {
    owner.push_back("lo");
    q.enqueue(owner.size() - 1, "lo", 1);
  }
  std::size_t hi_in_first_10 = 0;
  for (int i = 0; i < 10; ++i) {
    if (owner[q.pop()] == "hi") ++hi_in_first_10;
  }
  EXPECT_EQ(hi_in_first_10, 8u);  // 4:1 split of the first ten dispatches
}

TEST(FairShareQueue, AgingBoundsALowPriorityTenantsWait) {
  // A weight-1 lane parked behind a *continuously arriving* priority-8
  // flood (one fresh flood item lands before every dispatch, so the
  // flood's head is always young while the victim's head keeps aging).
  // Pure stride drips the victim out once per 8 flood dispatches; aging
  // discounts its waiting head every dispatch and pulls the whole lane
  // strictly forward.  Both schedules are deterministic.
  const auto last_z_position = [](double age_boost) {
    FairShareQueue q(age_boost);
    std::vector<std::string> owner;
    for (std::size_t i = 0; i < 3; ++i) {
      owner.push_back("z");
      q.enqueue(owner.size() - 1, "z", 1);
    }
    std::size_t last_z = 0;
    for (std::size_t pos = 1; pos <= 24; ++pos) {
      owner.push_back("a");
      q.enqueue(owner.size() - 1, "a", 8);
      if (owner[q.pop()] == "z") last_z = pos;
    }
    return last_z;
  };
  const std::size_t unaged = last_z_position(0.0);
  const std::size_t aged = last_z_position(0.5);
  EXPECT_LT(aged, unaged);
  EXPECT_LE(aged, 8u);     // aging drains the victim within a few rounds
  EXPECT_GE(unaged, 15u);  // pure stride makes it wait its 1/9 share out
}

TEST(FairShareQueue, IdleTenantRejoinsAtVirtualTimeNotAtZero) {
  // "b" sits idle while "a" burns 5 dispatches, then joins.  The join
  // rule snaps b's pass to the current virtual time: it interleaves from
  // now on instead of replaying its banked idle credit as a monopoly.
  FairShareQueue q;
  std::vector<std::string> owner;
  for (std::size_t i = 0; i < 10; ++i) {
    owner.push_back("a");
    q.enqueue(owner.size() - 1, "a", 1);
  }
  for (int i = 0; i < 5; ++i) EXPECT_EQ(owner[q.pop()], "a");
  for (std::size_t i = 0; i < 3; ++i) {
    owner.push_back("b");
    q.enqueue(owner.size() - 1, "b", 1);
  }
  const std::vector<std::string> tail = drain_tenants(q, owner);
  const std::vector<std::string> want = {"b", "a", "b", "a",
                                         "b", "a", "a", "a"};
  EXPECT_EQ(tail, want);
}

TEST(FairShareQueue, ClearReturnsAscendingTicketsAndWaitingCounts) {
  FairShareQueue q;
  q.enqueue(7, "b", 1);
  q.enqueue(2, "a", 3);
  q.enqueue(5, "b", 1);
  q.enqueue(1, "c", 8);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.waiting("b"), 2u);
  EXPECT_EQ(q.waiting("a"), 1u);
  EXPECT_EQ(q.waiting("nobody"), 0u);
  const std::vector<std::size_t> cleared = q.clear();
  const std::vector<std::size_t> want = {1, 2, 5, 7};
  EXPECT_EQ(cleared, want);  // drain's checkpoint order == slot order
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.waiting("b"), 0u);
}

TEST(FairShareQueue, ContractViolationsAreLoud) {
  FairShareQueue q;
  EXPECT_THROW(q.pop(), contract_error);
  EXPECT_THROW(q.enqueue(0, "t", 0), contract_error);
  EXPECT_THROW(q.enqueue(0, "t", 9), contract_error);
}

TEST(ServiceFairShare, TenantQueueCapShedsTheFloodingTenantOnly) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 32;       // global queue has plenty of room
  config.tenant_queue = 2;     // ...but each tenant may queue only 2
  CampaignService service(config);

  // Hold the single worker until the flood is queued: every request fans
  // out over the gated pool, so whichever one the worker picks up blocks
  // in its first fan-out.
  ServiceRequest busy = held_request("busy", 64);
  busy.level = 2;
  std::vector<ServiceRequest> flood;
  for (int i = 0; i < 6; ++i) {
    flood.push_back(held_request("flood-" + std::to_string(i), 24, "flood"));
  }
  const ServiceRequest calm = held_request("calm", 24, "calm");
  ASSERT_EQ(run_solo(busy).fanout, 2.0);
  ASSERT_EQ(run_solo(flood.front()).fanout, 2.0);  // all six alike
  ASSERT_EQ(run_solo(calm).fanout, 2.0);

  PoolGate gate;
  const std::size_t busy_ticket = service.submit(busy).ticket;

  std::vector<std::size_t> flood_tickets;
  std::size_t flood_shed = 0;
  for (const ServiceRequest& req : flood) {
    const AdmissionVerdict verdict = service.submit(req);
    flood_tickets.push_back(verdict.ticket);
    if (verdict.decision == Admission::kShed) ++flood_shed;
  }
  // The held worker took at most one request off the queue, so at most
  // cap+1 flood requests were admitted; everything past that is shed.
  EXPECT_GE(flood_shed, 3u);

  // A calm tenant submitted *after* the flood still gets in: the cap is
  // per-lane, not global.
  const AdmissionVerdict calm_verdict = service.submit(calm);
  EXPECT_NE(calm_verdict.decision, Admission::kShed);
  gate.release();

  std::size_t shed_seen = 0;
  for (const std::size_t t : flood_tickets) {
    const ServiceResponse resp = service.wait(t);
    if (resp.code == ResponseCode::kShed) {
      ++shed_seen;
      EXPECT_EQ(resp.message, "tenant queue is full");
    } else {
      EXPECT_EQ(resp.code, ResponseCode::kOk) << resp.message;
    }
  }
  EXPECT_EQ(shed_seen, flood_shed);
  EXPECT_EQ(service.wait(busy_ticket).code, ResponseCode::kOk);
  EXPECT_EQ(service.wait(calm_verdict.ticket).code, ResponseCode::kOk);

  const DrainReport report = service.drain();
  ASSERT_TRUE(report.tenants.contains("flood"));
  ASSERT_TRUE(report.tenants.contains("calm"));
  EXPECT_EQ(report.tenants.at("flood").shed, flood_shed);
  EXPECT_EQ(report.tenants.at("calm").shed, 0u);
  EXPECT_EQ(report.tenants.at("calm").completed, 1u);
}

TEST(ServiceFairShare, FloodingTenantCannotStarveSteadyTenants) {
  // The chaos soak the issue pins down: one tenant floods 10x the
  // others.  Fair-share dispatch must bound the steady tenants' makespan
  // skew — their requests land within the first few dispatch rounds
  // (round-robin across lanes) instead of waiting out the whole flood —
  // and every response stays typed and byte-identical to solo.
  constexpr std::size_t kFlood = 20;

  std::vector<ServiceRequest> steady;
  for (std::size_t i = 0; i < 4; ++i) {
    ServiceRequest req = held_request("steady-" + std::to_string(i), 24,
                                      i < 2 ? "steady-a" : "steady-b");
    req.seed = 500 + i;
    steady.push_back(req);
  }
  std::vector<ServiceRequest> flood;
  for (std::size_t i = 0; i < kFlood; ++i) {
    ServiceRequest req =
        held_request("flood-" + std::to_string(i), 24, "flood");
    req.seed = 900 + (i % 3);
    flood.push_back(req);
  }
  std::vector<std::string> solo;
  for (const auto& req : steady) {
    const Solo run = run_solo(req);
    EXPECT_EQ(run.fanout, 2.0) << req.id;
    solo.push_back(run.assessment);
  }
  for (std::size_t i = 0; i < 3; ++i) {  // the flood's three seeds
    EXPECT_EQ(run_solo(flood[i]).fanout, 2.0) << flood[i].id;
  }

  ServiceConfig config;
  config.workers = 2;
  config.max_queue = kFlood + steady.size();
  CampaignService service(config);

  // Both workers stay held (see PoolGate) until every request is queued,
  // so dispatch order is the fair-share policy's alone.
  PoolGate gate;

  std::vector<std::size_t> flood_tickets;
  for (const ServiceRequest& req : flood) {
    const AdmissionVerdict verdict = service.submit(req);
    ASSERT_NE(verdict.decision, Admission::kShed) << req.id;
    flood_tickets.push_back(verdict.ticket);
  }
  std::vector<std::size_t> steady_tickets;
  for (const auto& req : steady) {
    const AdmissionVerdict verdict = service.submit(req);
    ASSERT_NE(verdict.decision, Admission::kShed) << req.id;
    steady_tickets.push_back(verdict.ticket);
  }
  gate.release();

  // Every flood response is typed ok — shedding was disabled by the
  // roomy queue, so fairness (not starvation or contamination) is what
  // spreads the work.
  std::size_t flood_max_order = 0;
  for (const std::size_t t : flood_tickets) {
    const ServiceResponse resp = service.wait(t);
    EXPECT_EQ(resp.code, ResponseCode::kOk) << resp.message;
    flood_max_order = std::max(flood_max_order, resp.dispatch_order);
  }
  std::size_t steady_max_order = 0;
  std::vector<std::size_t> steady_orders;
  for (std::size_t i = 0; i < steady_tickets.size(); ++i) {
    const ServiceResponse resp = service.wait(steady_tickets[i]);
    ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
    // Zero contamination from the concurrent flood: byte-identical.
    EXPECT_EQ(resp.assessment_json, solo[i]) << steady[i].id;
    steady_max_order = std::max(steady_max_order, resp.dispatch_order);
    steady_orders.push_back(resp.dispatch_order);
  }

  // Bounded skew: lanes round-robin, so all four steady requests are
  // dispatched within the first ~2 rounds of three lanes (plus the two
  // flood requests the held workers took before the steady ones were
  // queued).  A FIFO would have given them dispatch orders 21..24.
  EXPECT_EQ(flood_max_order, kFlood + steady.size());
  EXPECT_LE(steady_max_order, 14u);
  // FIFO order *within* each steady tenant's lane is preserved.
  EXPECT_LT(steady_orders[0], steady_orders[1]);
  EXPECT_LT(steady_orders[2], steady_orders[3]);

  const DrainReport report = service.drain();
  ASSERT_TRUE(report.tenants.contains("flood"));
  EXPECT_EQ(report.tenants.at("flood").completed, kFlood);
  EXPECT_EQ(report.tenants.at("steady-a").completed, 2u);
  EXPECT_EQ(report.tenants.at("steady-b").completed, 2u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.completed, kFlood + steady.size());
}

}  // namespace
}  // namespace pv
