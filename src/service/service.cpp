#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "core/doc.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "trace/wal.hpp"
#include "util/expects.hpp"

namespace pv {

namespace {

/// Fair-share aging discount, in strides per dispatch a lane's head
/// request has waited (FairShareQueue; 0 would be pure stride
/// scheduling).
constexpr double kFairAgeBoost = 0.25;

/// Decorator injecting one stage-level fault.  kThrowStage and
/// kWorkerDeath throw before the inner stage runs; kStallStage models a
/// stage that eats the whole deadline budget — it exhausts the token and
/// returns without running the inner stage, so the *next* boundary check
/// in run_pipeline (there is one after the last stage too) unwinds the
/// campaign exactly as a real overrun would.
class ChaosStage final : public CampaignStage {
 public:
  ChaosStage(StagePtr inner, ServiceFault fault, CancelToken* token)
      : inner_(std::move(inner)), fault_(fault), token_(token) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }

  void run(CampaignContext& ctx, StageTrace& trace) override {
    switch (fault_) {
      case ServiceFault::kThrowStage:
        throw InjectedStageError(std::string("injected failure in stage '") +
                                 inner_->name() + "'");
      case ServiceFault::kWorkerDeath:
        throw WorkerDeathError(std::string("worker died in stage '") +
                               inner_->name() + "'");
      case ServiceFault::kStallStage:
        if (token_ != nullptr) token_->exhaust_deadline();
        return;  // the stalled stage never finishes; boundary check fires
      case ServiceFault::kNone:
      case ServiceFault::kCacheCorrupt:
        break;
    }
    inner_->run(ctx, trace);
  }

 private:
  StagePtr inner_;
  ServiceFault fault_;
  CancelToken* token_;
};

}  // namespace

std::uint64_t service_checkpoint_fingerprint() {
  // FNV-1a of the journal schema tag: binds drain-checkpoint journals to
  // this format so replay rejects journals written by anything else.
  const std::string tag = "powervar-service-checkpoint-v1";
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

CampaignService::CampaignService(ServiceConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<ThreadPool>(std::max(1u, config_.workers))),
      cache_(config_.cache_capacity, config_.cache_dir),
      fair_(kFairAgeBoost) {
  config_.workers = pool_->size();
}

CampaignService::~CampaignService() {
  try {
    drain();
  } catch (...) {
    // Destruction must not throw; drain errors are already reflected in
    // per-request responses.
  }
}

AdmissionVerdict CampaignService::submit_line(const std::string& json_line,
                                              bool hold) {
  try {
    return submit(parse_request(json_line), hold);
  } catch (const std::exception& e) {
    // JsonParseError or RequestParseError: the line never reaches
    // admission, but still resolves to exactly one typed response.
    std::unique_lock lock(mu_);
    ++report_.submitted;
    ++report_.invalid;
    auto slot = std::make_unique<Slot>();
    slot->state = State::kDone;
    slot->response.code = ResponseCode::kInvalidRequest;
    slot->response.message = e.what();
    AdmissionVerdict verdict;
    verdict.decision = Admission::kShed;
    verdict.ticket = slots_.size();
    verdict.has_ticket = true;
    slots_.push_back(std::move(slot));
    complete_locked(verdict.ticket);
    return verdict;
  }
}

AdmissionVerdict CampaignService::submit(const ServiceRequest& req,
                                         bool hold) {
  return admit(req, hold, /*resumed=*/false);
}

AdmissionVerdict CampaignService::admit(const ServiceRequest& req, bool hold,
                                        bool resumed) {
  bool dispatchable = false;
  AdmissionVerdict verdict;
  {
    std::unique_lock lock(mu_);
    ++report_.submitted;
    DrainReport::TenantStats& tstats = report_.tenants[req.tenant];
    ++tstats.submitted;
    const std::size_t in_flight = running_ + queued_;
    const bool over_queue =
        in_flight >= config_.workers &&
        in_flight - config_.workers >= config_.max_queue;
    // A resumed request was accepted once already — it bypasses the
    // queue bound (but never a draining service).  The per-tenant cap
    // sheds a flooding tenant even while the global queue has room.
    const bool over_tenant =
        config_.tenant_queue > 0 && !resumed &&
        fair_.waiting(req.tenant) >= config_.tenant_queue;
    if (draining_ || (over_queue && !resumed) || over_tenant) {
      ++report_.shed;
      ++tstats.shed;
      auto slot = std::make_unique<Slot>();
      slot->state = State::kDone;
      slot->response.id = req.id;
      slot->response.code = ResponseCode::kShed;
      slot->response.retry_after_s = config_.retry_after_s;
      slot->response.message = draining_     ? "service is draining"
                               : over_tenant ? "tenant queue is full"
                                             : "admission queue is full";
      verdict.decision = Admission::kShed;
      verdict.ticket = slots_.size();
      verdict.has_ticket = true;
      verdict.retry_after_s = config_.retry_after_s;
      slots_.push_back(std::move(slot));
      complete_locked(verdict.ticket);
      return verdict;
    }

    ++report_.admitted;
    ++tstats.admitted;
    ids_accepted_.insert(req.id);
    auto slot = std::make_unique<Slot>();
    slot->request = req;
    slot->cancel = std::make_unique<CancelToken>();
    const double budget =
        req.deadline_ms > 0.0 ? req.deadline_ms : config_.default_deadline_ms;
    if (budget > 0.0) slot->cancel->arm_deadline(budget);
    const std::size_t ticket = slots_.size();
    ++queued_;
    verdict.decision =
        in_flight < config_.workers ? Admission::kAccepted : Admission::kQueued;
    verdict.ticket = ticket;
    verdict.has_ticket = true;
    verdict.queue_depth =
        in_flight >= config_.workers ? in_flight - config_.workers + 1 : 0;
    slots_.push_back(std::move(slot));
    if (!hold) {
      fair_.enqueue(ticket, req.tenant, req.priority);
      dispatchable = true;
    }

    // Chaos: shutdown-mid-request — trip the drain flag after the Nth
    // admission; later submits shed, queued work gets checkpointed by
    // the (user-initiated) drain.
    if (config_.chaos.drain_after > 0 &&
        report_.admitted >= config_.chaos.drain_after) {
      draining_ = true;
    }
  }
  // One anonymous pool job per dispatchable admission: each job pops
  // whichever ticket the fair-share policy ranks first *at execution
  // time*, so priorities and aging apply to the whole backlog, not just
  // the submission order.
  if (dispatchable) {
    try {
      pool_->submit([this] { run_next(); });
    } catch (const PoolStoppedError&) {
      // Admission raced a concurrent drain: the drain's checkpoint pass
      // resolves this slot (it is still queued), so losing the job is
      // safe — the ticket never dangles.
    }
  }
  return verdict;
}

ResumeOutcome CampaignService::resume_from(const std::string& path) {
  WalReplay replay;
  try {
    replay = replay_wal(path);
  } catch (const std::exception& e) {
    throw CheckpointError(std::string("checkpoint journal is unreadable: ") +
                          e.what());
  }
  if (!replay.exists) {
    throw CheckpointError("checkpoint journal '" + path +
                          "' is missing or empty");
  }
  if (replay.fingerprint != service_checkpoint_fingerprint()) {
    throw CheckpointError(
        "checkpoint journal carries a foreign fingerprint (not a service "
        "drain checkpoint); refusing to resume");
  }
  if (replay.torn_lines != 0) {
    throw CheckpointError("checkpoint journal has " +
                          std::to_string(replay.torn_lines) +
                          " torn line(s); refusing to resume past a tear");
  }
  // Validate the whole journal before submitting anything: a defective
  // record must refuse the resume outright, never leave it half-applied.
  std::vector<ServiceRequest> reqs;
  reqs.reserve(replay.records.size());
  for (const std::string& record : replay.records) {
    try {
      reqs.push_back(parse_request(record));
    } catch (const std::exception& e) {
      throw CheckpointError(
          std::string("checkpoint record is not a valid request: ") +
          e.what());
    }
  }

  ResumeOutcome outcome;
  for (const ServiceRequest& req : reqs) {
    {
      std::unique_lock lock(mu_);
      if (ids_accepted_.contains(req.id)) {
        ++outcome.duplicates;  // keyed dedup: never double-submit an id
        continue;
      }
    }
    outcome.tickets.push_back(admit(req, /*hold=*/false, /*resumed=*/true)
                                  .ticket);
  }
  return outcome;
}

ServiceResponse CampaignService::run_request(const ServiceRequest& req,
                                             CancelToken* token,
                                             ServiceFault fault) {
  ServiceResponse resp;
  resp.id = req.id;
  try {
    token->check("admission");
    const auto scenario =
        cache_.acquire(scenario_spec_of(req), config_.strict_cache,
                       fault == ServiceFault::kCacheCorrupt);
    const MeasurementPlan plan = plan_of(req, *scenario);
    const CampaignConfig config = campaign_config_of(req, plan);
    std::vector<StagePtr> stages = make_campaign_stages(plan, config);
    if (fault == ServiceFault::kThrowStage ||
        fault == ServiceFault::kStallStage ||
        fault == ServiceFault::kWorkerDeath) {
      const std::size_t idx = config_.chaos.stage_of(req.id) % stages.size();
      stages[idx] =
          std::make_unique<ChaosStage>(std::move(stages[idx]), fault, token);
    }
    const CampaignResult result = run_campaign_stages(
        *scenario->cluster, *scenario->electrical, plan, config, stages, token);
    resp.code = ResponseCode::kOk;
    resp.assessment_json = render_json(assessment_document(plan, result));
  } catch (const DeadlineExceededError& e) {
    resp.code = ResponseCode::kDeadlineExceeded;
    resp.message = e.what();
  } catch (const CancelledError& e) {
    resp.code = ResponseCode::kCancelled;
    resp.message = e.what();
  } catch (const CacheCorruptError& e) {
    resp.code = ResponseCode::kCacheCorrupt;
    resp.message = e.what();
  } catch (const WorkerDeathError& e) {
    resp.code = ResponseCode::kWorkerLost;
    resp.message = e.what();
  } catch (const InjectedStageError& e) {
    resp.code = ResponseCode::kStageFailed;
    resp.message = e.what();
  } catch (const NoUsableDataError& e) {
    resp.code = ResponseCode::kNoUsableData;
    resp.message = e.what();
  } catch (const std::exception& e) {
    resp.code = ResponseCode::kStageFailed;
    resp.message = e.what();
  }
  return resp;
}

void CampaignService::run_next() {
  std::size_t ticket = 0;
  std::size_t order = 0;
  ServiceRequest req;
  CancelToken* token = nullptr;
  {
    std::unique_lock lock(mu_);
    // Pop until a still-queued ticket surfaces: drain may have resolved
    // queued slots between this job's submission and its execution.
    for (;;) {
      if (fair_.empty()) return;
      ticket = fair_.pop();
      if (slots_[ticket]->state == State::kQueued) break;
    }
    Slot& slot = *slots_[ticket];
    slot.state = State::kRunning;
    --queued_;
    ++running_;
    order = ++dispatched_;
    req = slot.request;
    token = slot.cancel.get();
  }
  const ServiceFault fault = config_.chaos.decide(req.id);
  ServiceResponse resp = run_request(req, token, fault);
  if (fault != ServiceFault::kNone) resp.fault_injected = to_string(fault);
  resp.dispatch_order = order;
  {
    std::unique_lock lock(mu_);
    if (resp.code == ResponseCode::kWorkerLost) ++report_.workers_replaced;
    --running_;
    finish_locked(ticket, std::move(resp));
  }
}

void CampaignService::finish_locked(std::size_t ticket, ServiceResponse resp) {
  Slot& slot = *slots_[ticket];
  slot.state = State::kDone;
  slot.response = std::move(resp);
  ++report_.completed;
  ++report_.tenants[slot.request.tenant].completed;
  complete_locked(ticket);
  cv_done_.notify_all();
}

void CampaignService::complete_locked(std::size_t ticket) {
  completions_.push_back(ticket);
  cv_completed_.notify_all();
}

ServiceResponse CampaignService::wait(std::size_t ticket) {
  std::unique_lock lock(mu_);
  PV_EXPECTS(ticket < slots_.size(), "wait() on an unknown ticket");
  cv_done_.wait(lock,
                [&] { return slots_[ticket]->state == State::kDone; });
  return slots_[ticket]->response;
}

std::optional<std::size_t> CampaignService::next_completed() {
  std::unique_lock lock(mu_);
  cv_completed_.wait(
      lock, [&] { return !completions_.empty() || completions_closed_; });
  if (completions_.empty()) return std::nullopt;
  const std::size_t ticket = completions_.front();
  completions_.pop_front();
  return ticket;
}

DrainReport CampaignService::drain() {
  std::unique_lock lock(mu_);
  if (drained_) {
    report_.cache = cache_.stats();
    return report_;
  }
  draining_ = true;

  // Checkpoint (or cancel) everything admitted but not yet started, in
  // ticket order — the WAL record order (and therefore a later resume's
  // response order) is a pure function of the submission sequence.  The
  // fair queue is emptied up front so pending run_next jobs become
  // no-ops instead of racing the checkpoint pass.
  (void)fair_.clear();
  std::unique_ptr<WalWriter> wal;
  std::size_t appended = 0;
  bool crashed = false;
  for (std::size_t ticket = 0; ticket < slots_.size(); ++ticket) {
    Slot& slot = *slots_[ticket];
    if (slot.state != State::kQueued) continue;
    slot.cancel->cancel();
    ServiceResponse resp;
    resp.id = slot.request.id;
    if (!crashed && config_.crash_after_checkpoints > 0 &&
        appended >= config_.crash_after_checkpoints) {
      // Simulated crash mid-drain: the journal keeps its valid K-record
      // prefix; everything past it is lost exactly as a real process
      // death would lose it.
      crashed = true;
    }
    if (!config_.checkpoint_path.empty() && !crashed) {
      if (!wal) {
        wal = std::make_unique<WalWriter>(config_.checkpoint_path,
                                          service_checkpoint_fingerprint());
      }
      wal->append(render_request_json(slot.request));
      ++appended;
      resp.code = ResponseCode::kCheckpointed;
      resp.message = "drained before start; request checkpointed";
    } else {
      resp.code = ResponseCode::kCancelled;
      resp.message = crashed
                         ? "lost by the simulated crash mid-drain"
                         : "drained before start (no checkpoint journal)";
    }
    slot.state = State::kDone;
    slot.response = std::move(resp);
    --queued_;
    ++report_.checkpointed;
    ++report_.tenants[slot.request.tenant].checkpointed;
    complete_locked(ticket);
  }
  cv_done_.notify_all();

  // Let running requests finish — they are never torn mid-stage.
  cv_done_.wait(lock, [&] { return running_ == 0 && queued_ == 0; });
  drained_ = true;
  lock.unlock();
  pool_->shutdown();
  lock.lock();
  report_.cache = cache_.stats();
  completions_closed_ = true;
  cv_completed_.notify_all();
  if (crashed) {
    lock.unlock();
    throw ServiceAbortedError(
        "simulated crash after " + std::to_string(appended) +
        " checkpoint append(s); the journal prefix on disk is valid");
  }
  return report_;
}

}  // namespace pv
