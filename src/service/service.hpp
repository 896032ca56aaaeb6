#pragma once
// The resident campaign service: a multi-tenant front end over the
// staged pipeline.  `powervar serve` (and the soak tests) construct one
// CampaignService, feed it request lines, and collect typed responses.
//
// Design pillars (docs/robustness.md, "The campaign service"):
//
//   admission      a bounded queue in front of a fixed worker pool.
//                  submit() returns an immediate verdict: accepted
//                  (a worker slot was free), queued (waiting, queue
//                  depth reported), or shed (queue full / draining —
//                  the response carries retry_after_s, and the service
//                  did NOT take the work).
//
//   deadlines      each request runs under its own CancelToken, armed
//                  with the request's deadline budget (or the service
//                  default).  The pipeline checks the token at every
//                  stage boundary, so an exhausted budget unwinds
//                  between stages — never a torn Document — and maps to
//                  the deadline_exceeded response.
//
//   isolation      requests share nothing mutable: every campaign's RNG
//                  is keyed by its own request seed, scratch state
//                  lives in its own CampaignContext, and the only
//                  shared artifact — the provisioned scenario — is
//                  immutable behind shared_ptr<const>.  N concurrent
//                  campaigns are bit-identical to N solo runs; a ctest
//                  enforces it.
//
//   caching        expensive Provision artifacts come from the
//                  content-addressed ScenarioCache (CRC-revalidated,
//                  quarantine on corruption — see service/cache.hpp).
//
//   drain          drain() stops admission (late submits are shed),
//                  lets running requests finish, and checkpoints
//                  still-queued ones to the PR2 WAL so no accepted
//                  request is silently lost.  The DrainReport accounts
//                  for every request the service ever saw.
//
//   chaos          a seeded ServiceFaultPlan (service/chaos.hpp) wraps
//                  pipeline stages and poisons cache reads; the soak
//                  test asserts each injected fault maps to exactly one
//                  typed response with zero cross-request contamination.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "service/cache.hpp"
#include "service/chaos.hpp"
#include "service/fair.hpp"
#include "service/request.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"

namespace pv {

struct ServiceConfig {
  unsigned workers = 4;           ///< worker threads running campaigns
  std::size_t max_queue = 8;      ///< waiting requests beyond the workers
  double default_deadline_ms = 0.0;  ///< per-request budget (0 = none)
  double retry_after_s = 1.0;     ///< hint attached to shed responses
  std::size_t cache_capacity = 8;
  bool strict_cache = false;      ///< corrupt cache refuses, not rebuilds
  /// Persistent provision tier (see ScenarioCache): misses probe this
  /// directory for spilled artifacts and fresh builds are spilled back,
  /// so a warm restart skips Provision ("" = memory-only).
  std::string cache_dir;
  /// WAL path for drain checkpoints ("" = drained-but-unstarted requests
  /// get the weaker `cancelled` response instead of `checkpointed`).
  std::string checkpoint_path;
  /// Per-tenant cap on *queued* requests (0 = none): a flooding tenant
  /// is shed once its own lane holds this many waiting requests, even
  /// while the global queue still has room for other tenants.
  std::size_t tenant_queue = 0;
  /// Chaos: simulate the process dying mid-drain after this many
  /// checkpoint records were appended (0 = disabled).  The WAL on disk
  /// keeps its valid K-record prefix; drain() throws ServiceAbortedError
  /// after cleanup and the CLI maps it to the simulated-crash exit code.
  std::size_t crash_after_checkpoints = 0;
  ServiceFaultPlan chaos;         ///< all-zeros = no injection
};

/// Typed refusal of a resume journal: missing file, foreign fingerprint,
/// torn records, or a record that does not parse back into a request.
/// resume_from never submits anything when it throws — a questionable
/// checkpoint yields no partial or forged responses, only this error
/// (CLI exit code 8).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The simulated crash-mid-drain (ServiceConfig::crash_after_checkpoints):
/// thrown by drain() after the service cleaned up its threads, leaving a
/// valid checkpoint-prefix WAL on disk for a later resume_from.
class ServiceAbortedError : public std::runtime_error {
 public:
  explicit ServiceAbortedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// submit()'s immediate verdict.
enum class Admission { kAccepted, kQueued, kShed };

struct AdmissionVerdict {
  Admission decision = Admission::kShed;
  std::size_t ticket = 0;       ///< handle for wait(); valid unless kShed...
  bool has_ticket = false;      ///< ...but shed submits get a ticket too
                                ///  (their response is pre-written)
  std::size_t queue_depth = 0;  ///< waiting requests after this verdict
  double retry_after_s = 0.0;   ///< kShed only
};

/// Everything that happened across the service's lifetime, returned by
/// drain().  The accounting identity the chaos soak asserts:
///   submitted == invalid + shed + completed + checkpointed.
struct DrainReport {
  /// Per-tenant slice of the same accounting (std::map, so rendering in
  /// iteration order is deterministically sorted by tenant name).
  struct TenantStats {
    std::size_t submitted = 0;
    std::size_t shed = 0;
    std::size_t admitted = 0;
    std::size_t completed = 0;
    std::size_t checkpointed = 0;
  };

  std::size_t submitted = 0;     ///< submit() calls, valid or not
  std::size_t invalid = 0;       ///< rejected before admission
  std::size_t shed = 0;          ///< load-shed at admission
  std::size_t admitted = 0;      ///< accepted or queued
  std::size_t completed = 0;     ///< ran to a terminal response
  std::size_t checkpointed = 0;  ///< drained before start (journaled or
                                 ///  cancelled)
  std::size_t workers_replaced = 0;  ///< worker deaths survived
  std::map<std::string, TenantStats> tenants;
  CacheStats cache;
};

/// What resume_from replayed: one ticket per checkpointed request it
/// resubmitted, plus the count of records dropped by keyed dedup (an id
/// the service already accepted — e.g. a duplicated WAL record — is
/// never double-submitted).
struct ResumeOutcome {
  std::vector<std::size_t> tickets;
  std::size_t duplicates = 0;
};

/// Fingerprint drain-checkpoint journals are written under — exposed so
/// resuming tools (and the tests) can validate a replayed journal's
/// header against it.
[[nodiscard]] std::uint64_t service_checkpoint_fingerprint();

class CampaignService {
 public:
  explicit CampaignService(ServiceConfig config);
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Parses and submits one request line.  A line that fails to parse is
  /// not admitted: it gets a ticket whose response is already
  /// `invalid_request` (decision kShed, has_ticket true).
  AdmissionVerdict submit_line(const std::string& json_line,
                               bool hold = false);

  /// Admits a parsed request.  Never blocks: the verdict is immediate
  /// and sheds carry retry_after_s.  Every non-shed verdict's ticket
  /// resolves to exactly one response via wait().
  ///
  /// `hold = true` admits the request but never dispatches it: the slot
  /// stays queued (outside the fair-share queue) until drain()
  /// checkpoints it.  That makes the drained-vs-completed split a pure
  /// function of the submission sequence — deterministic at any worker
  /// count — which is what the drain→restart→resume byte-identity gate
  /// (and the serve_drain golden) pin down.
  AdmissionVerdict submit(const ServiceRequest& req, bool hold = false);

  /// Replays a drain-checkpoint WAL and resubmits every checkpointed
  /// request under its original id/seed, bypassing the admission queue
  /// bound (the work was already accepted once).  The whole journal is
  /// validated before anything is submitted; any defect — missing file,
  /// foreign fingerprint, torn lines, unparseable record — throws
  /// CheckpointError and submits nothing.  Records whose id the service
  /// has already accepted are dropped (keyed dedup), never resubmitted.
  ResumeOutcome resume_from(const std::string& path);

  /// Blocks until the ticket's request reaches a terminal state and
  /// returns its response.  Tickets from shed/invalid submits return
  /// immediately.
  [[nodiscard]] ServiceResponse wait(std::size_t ticket);

  /// Completion stream for the streaming front-end: blocks until some
  /// ticket reaches a terminal state that has not been handed out yet,
  /// in completion order.  Every ticket — ok, faulted, shed, invalid,
  /// checkpointed — appears exactly once.  Returns nullopt once drain()
  /// has closed the stream and every completion was consumed.
  [[nodiscard]] std::optional<std::size_t> next_completed();

  /// Graceful shutdown: stops admission, cancels queued requests
  /// (checkpointing them to the WAL when configured), waits for running
  /// requests to finish, shuts the pool down and closes the completion
  /// stream.  Idempotent; the report covers the whole lifetime.
  DrainReport drain();

 private:
  enum class State { kQueued, kRunning, kDone };

  struct Slot {
    ServiceRequest request;
    State state = State::kQueued;
    ServiceResponse response;
    std::unique_ptr<CancelToken> cancel;
  };

  AdmissionVerdict admit(const ServiceRequest& req, bool hold, bool resumed);
  void run_next();
  void finish_locked(std::size_t ticket, ServiceResponse resp);
  void complete_locked(std::size_t ticket);
  ServiceResponse run_request(const ServiceRequest& req, CancelToken* token,
                              ServiceFault fault);

  ServiceConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  ScenarioCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_done_;
  std::condition_variable cv_completed_;
  std::vector<std::unique_ptr<Slot>> slots_;  ///< ticket -> slot
  FairShareQueue fair_;         ///< queued, dispatchable tickets
  std::deque<std::size_t> completions_;  ///< terminal tickets, in order
  bool completions_closed_ = false;
  std::set<std::string> ids_accepted_;   ///< keyed dedup for resume_from
  std::size_t dispatched_ = 0;  ///< global dispatch clock (1-based orders)
  std::size_t running_ = 0;
  std::size_t queued_ = 0;
  bool draining_ = false;
  bool drained_ = false;
  DrainReport report_;
};

}  // namespace pv
