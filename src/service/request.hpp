#pragma once
// Campaign-service wire schemas: one request and one response per line,
// each a single powervar-…-v1 JSON object over the core/doc Json layer.
//
// A request names a synthetic campaign exactly as the `campaign`
// subcommand would (nodes, cv, level, seed, fault knobs, threads) plus
// service-only execution knobs (deadline budget).  The
// materialization helpers below reproduce the CLI's rig assembly — the
// same fleet-seed mixing, the same methodology revision, the same fault
// wiring — byte for byte: the isolation contract compares service
// responses against solo `campaign --json` runs, so any drift here is a
// test failure, not a style choice.
//
// Parsing is strict and typed: hostile bytes throw JsonParseError (not
// JSON) or RequestParseError (JSON, but not a valid request) — never
// crash, never silently default a misspelled field.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/plan.hpp"
#include "core/scenario.hpp"

namespace pv {

/// Thrown when a syntactically valid JSON line is not a valid service
/// request: wrong schema tag, unknown field, type confusion, value out
/// of range.  Maps to the `invalid_request` response code.
class RequestParseError : public std::runtime_error {
 public:
  explicit RequestParseError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One campaign request (schema "powervar-request-v1").  Defaults match
/// the CLI's, so a request carrying only {schema, id} is the CLI's bare
/// `campaign --nodes 64`.
struct ServiceRequest {
  std::string id;              ///< caller-chosen, echoed in the response
  std::size_t nodes = 64;
  double cv = 0.02;
  int level = 1;               ///< methodology level 1..3
  std::uint64_t seed = 1;
  std::string faults = "none";  ///< none | mild | harsh
  std::optional<double> dropout;  ///< overrides the preset's rate if set
  std::size_t dead = 0;        ///< meters forced dead (plan-order prefix)
  double byzantine = 0.0;      ///< fraction of meters forced to lie
  bool reconcile = false;
  unsigned threads = 0;        ///< campaign fan-out (0 = serial)
  double interval_s = 0.0;     ///< meter interval override (0 = plan's)
  double deadline_ms = 0.0;    ///< per-request budget (0 = service default)
  /// Fair-share identity: requests of one tenant share a FIFO lane in
  /// the dispatch queue (service/fair.hpp).  Single-line, <= 64 bytes.
  std::string tenant = "default";
  /// Fair-share weight 1..8: a priority-p tenant advances its stride
  /// pass 1/p as fast, so it is dispatched p times as often under
  /// contention.  Rendered (like tenant) only when non-default, so PR6
  /// drain journals and goldens keep their exact bytes.
  unsigned priority = 1;
};

/// Parses one request line.  Throws JsonParseError (malformed bytes) or
/// RequestParseError (schema violations) — see the header comment.
[[nodiscard]] ServiceRequest parse_request(const std::string& json_line);

/// The request as its canonical JSON line (no trailing newline) —
/// parse_request(render_request_json(r)) reproduces r.  Drain
/// checkpoints journal exactly these bytes.
[[nodiscard]] std::string render_request_json(const ServiceRequest& req);

/// Every terminal outcome a request can have — the fault-taxonomy side
/// of the chaos contract: each injected fault maps to exactly one of
/// these (docs/robustness.md has the full table).
enum class ResponseCode {
  kOk,
  kInvalidRequest,     ///< line rejected before admission
  kShed,               ///< load-shed at admission; retry_after_s set
  kCheckpointed,       ///< drained before start, journaled to the WAL
  kCancelled,          ///< drained before start, no journal configured
  kDeadlineExceeded,   ///< budget spent; pipeline unwound at a boundary
  kNoUsableData,       ///< campaign ran, every meter lost
  kCacheCorrupt,       ///< strict cache refused a corrupted artifact
  kWorkerLost,         ///< worker thread died mid-request (replaced)
  kStageFailed,        ///< a stage threw (injected or internal)
};

[[nodiscard]] const char* to_string(ResponseCode code);

/// One response line (schema "powervar-response-v1").
struct ServiceResponse {
  std::string id;
  ResponseCode code = ResponseCode::kOk;
  std::string message;          ///< diagnostic, non-ok codes only
  double retry_after_s = 0.0;   ///< kShed only
  std::string fault_injected;   ///< chaos observability ("" = none)
  /// The render_json(assessment_document(...)) bytes for kOk — stored
  /// verbatim (embedded raw into the response line) so isolation tests
  /// compare bytes, not re-serializations.
  std::string assessment_json;
  /// Position in the service's global dispatch order (1-based; 0 = never
  /// dispatched: shed/invalid/checkpointed).  Observability for the
  /// fair-share soak — never rendered to the wire.
  std::size_t dispatch_order = 0;
};

/// The response as one JSON line (no trailing newline).  Field order is
/// fixed; absent-by-code fields are omitted, so the line is a
/// deterministic function of the response.
[[nodiscard]] std::string render_response_json(const ServiceResponse& resp);

/// The streaming front-end's variant: same line with a `"seq":N` tag
/// right after the schema, where N is the request's submission index.
/// Completion-order transcripts stay byte-comparable across runs as
/// *sets* (sort both), and stripping the seq field recovers the exact
/// batch-mode line.
[[nodiscard]] std::string render_response_json(const ServiceResponse& resp,
                                               std::size_t seq);

/// The scenario a request provisions — the content-addressed cache key.
/// Mirrors the CLI: fleet_seed = seed ^ 0x99 (historical mixing).
[[nodiscard]] ScenarioSpec scenario_spec_of(const ServiceRequest& req);

/// Plans the request's measurement over a built scenario, exactly as the
/// CLI does: MethodologySpec::get(level, kV2015), plan seed = seed.
[[nodiscard]] MeasurementPlan plan_of(const ServiceRequest& req,
                                      const Scenario& scenario);

/// Assembles the campaign config exactly as `cmd_campaign` does (fault
/// preset, dropout override, dead-meter prefix, forced byzantine
/// meters, reconcile, threads).
[[nodiscard]] CampaignConfig campaign_config_of(const ServiceRequest& req,
                                                const MeasurementPlan& plan);

}  // namespace pv
