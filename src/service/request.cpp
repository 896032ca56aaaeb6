#include "service/request.hpp"

#include <algorithm>
#include <cmath>

#include "core/doc.hpp"
#include "core/spec.hpp"
#include "meter/faults.hpp"

namespace pv {

namespace {

// Resource caps: a request is untrusted input, so "nodes": 1e18 must be
// rejected at parse time, not discovered as an allocation failure.
constexpr std::size_t kMaxNodes = 1u << 20;
constexpr unsigned kMaxThreads = 256;

[[noreturn]] void bad(const std::string& why) { throw RequestParseError(why); }

double need_number(const Json& v, const char* key) {
  if (!v.is_number()) bad(std::string("field '") + key + "' must be a number");
  return v.number_value();
}

std::uint64_t need_count(const Json& v, const char* key, std::uint64_t max) {
  const double d = need_number(v, key);
  if (!(d >= 0.0) || d != std::floor(d)) {
    bad(std::string("field '") + key + "' must be a non-negative integer");
  }
  if (d > static_cast<double>(max)) {
    bad(std::string("field '") + key + "' exceeds the limit of " +
        std::to_string(max));
  }
  return static_cast<std::uint64_t>(d);
}

double need_rate(const Json& v, const char* key) {
  const double d = need_number(v, key);
  if (d < 0.0 || d > 1.0) {
    bad(std::string("field '") + key + "' must be in [0, 1]");
  }
  return d;
}

bool need_bool(const Json& v, const char* key) {
  if (v.kind() != Json::Kind::kBool) {
    bad(std::string("field '") + key + "' must be a boolean");
  }
  return v.bool_value();
}

std::string need_string(const Json& v, const char* key) {
  if (v.kind() != Json::Kind::kString) {
    bad(std::string("field '") + key + "' must be a string");
  }
  return v.string_value();
}

}  // namespace

ServiceRequest parse_request(const std::string& json_line) {
  const Json root = Json::parse(json_line);
  if (root.kind() != Json::Kind::kObject) {
    bad("request must be a JSON object");
  }

  ServiceRequest req;
  bool saw_schema = false;
  bool saw_id = false;
  for (const auto& [key, value] : root.members()) {
    if (key == "schema") {
      const std::string schema = need_string(value, "schema");
      if (schema != "powervar-request-v1") {
        bad("unsupported schema '" + schema + "'");
      }
      saw_schema = true;
    } else if (key == "id") {
      req.id = need_string(value, "id");
      if (req.id.empty() || req.id.size() > 128 ||
          req.id.find('\n') != std::string::npos) {
        bad("field 'id' must be a non-empty single-line string (<= 128 "
            "bytes)");
      }
      saw_id = true;
    } else if (key == "nodes") {
      req.nodes = static_cast<std::size_t>(need_count(value, "nodes",
                                                      kMaxNodes));
      if (req.nodes < 2) bad("field 'nodes' must be >= 2");
    } else if (key == "cv") {
      req.cv = need_rate(value, "cv");
    } else if (key == "level") {
      req.level = static_cast<int>(need_count(value, "level", 3));
      if (req.level < 1) bad("field 'level' must be 1, 2 or 3");
    } else if (key == "seed") {
      req.seed = need_count(value, "seed",
                            (std::uint64_t{1} << 53));  // double-exact
    } else if (key == "faults") {
      req.faults = need_string(value, "faults");
      if (req.faults != "none" && req.faults != "mild" &&
          req.faults != "harsh") {
        bad("field 'faults' must be none, mild or harsh");
      }
    } else if (key == "dropout") {
      req.dropout = need_rate(value, "dropout");
    } else if (key == "dead") {
      req.dead = static_cast<std::size_t>(need_count(value, "dead",
                                                     kMaxNodes));
    } else if (key == "byzantine") {
      req.byzantine = need_rate(value, "byzantine");
    } else if (key == "reconcile") {
      req.reconcile = need_bool(value, "reconcile");
    } else if (key == "engine") {
      // Retired knob (one metering engine remains): still validated so
      // older request files and drain checkpoints parse, then ignored.
      const std::string engine = need_string(value, "engine");
      if (engine != "eager" && engine != "streaming") {
        bad("field 'engine' must be eager or streaming");
      }
    } else if (key == "threads") {
      req.threads = static_cast<unsigned>(need_count(value, "threads",
                                                     kMaxThreads));
    } else if (key == "interval") {
      req.interval_s = need_number(value, "interval");
      if (req.interval_s < 0.0) bad("field 'interval' must be >= 0");
    } else if (key == "deadline_ms") {
      req.deadline_ms = need_number(value, "deadline_ms");
      if (req.deadline_ms < 0.0) bad("field 'deadline_ms' must be >= 0");
    } else if (key == "tenant") {
      req.tenant = need_string(value, "tenant");
      if (req.tenant.empty() || req.tenant.size() > 64 ||
          req.tenant.find('\n') != std::string::npos) {
        bad("field 'tenant' must be a non-empty single-line string (<= 64 "
            "bytes)");
      }
    } else if (key == "priority") {
      req.priority = static_cast<unsigned>(need_count(value, "priority", 8));
      if (req.priority < 1) bad("field 'priority' must be in [1, 8]");
    } else {
      bad("unknown request field '" + key + "'");
    }
  }
  if (!saw_schema) bad("missing required field 'schema'");
  if (!saw_id) bad("missing required field 'id'");
  return req;
}

std::string render_request_json(const ServiceRequest& req) {
  Json o = Json::object();
  o["schema"] = "powervar-request-v1";
  o["id"] = req.id;
  o["nodes"] = static_cast<unsigned long long>(req.nodes);
  o["cv"] = req.cv;
  o["level"] = static_cast<long long>(req.level);
  o["seed"] = static_cast<unsigned long long>(req.seed);
  o["faults"] = req.faults;
  if (req.dropout.has_value()) o["dropout"] = *req.dropout;
  if (req.dead > 0) o["dead"] = static_cast<unsigned long long>(req.dead);
  if (req.byzantine > 0.0) o["byzantine"] = req.byzantine;
  if (req.reconcile) o["reconcile"] = true;
  if (req.threads > 0) {
    o["threads"] = static_cast<unsigned long long>(req.threads);
  }
  if (req.interval_s > 0.0) o["interval"] = req.interval_s;
  if (req.deadline_ms > 0.0) o["deadline_ms"] = req.deadline_ms;
  if (req.tenant != "default") o["tenant"] = req.tenant;
  if (req.priority != 1) {
    o["priority"] = static_cast<unsigned long long>(req.priority);
  }
  return o.dump();
}

const char* to_string(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk:
      return "ok";
    case ResponseCode::kInvalidRequest:
      return "invalid_request";
    case ResponseCode::kShed:
      return "shed";
    case ResponseCode::kCheckpointed:
      return "checkpointed";
    case ResponseCode::kCancelled:
      return "cancelled";
    case ResponseCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ResponseCode::kNoUsableData:
      return "no_usable_data";
    case ResponseCode::kCacheCorrupt:
      return "cache_corrupt";
    case ResponseCode::kWorkerLost:
      return "worker_lost";
    case ResponseCode::kStageFailed:
      return "stage_failed";
  }
  return "unknown";
}

std::string render_response_json(const ServiceResponse& resp,
                                 std::size_t seq) {
  std::string out = "{\"schema\":\"powervar-response-v1\",\"seq\":";
  out += std::to_string(seq);
  out += ",\"id\":";
  const std::string body = render_response_json(resp);
  // Splice the tagged prefix onto the batch-mode line so the two
  // renderings can never drift: everything after "id": is shared bytes.
  out += body.substr(body.find("\"id\":") + 5);
  return out;
}

std::string render_response_json(const ServiceResponse& resp) {
  std::string out = "{\"schema\":\"powervar-response-v1\",\"id\":";
  out += Json::quote(resp.id);
  out += ",\"code\":\"";
  out += to_string(resp.code);
  out += '"';
  if (!resp.message.empty()) {
    out += ",\"message\":";
    out += Json::quote(resp.message);
  }
  if (resp.code == ResponseCode::kShed) {
    out += ",\"retry_after_s\":";
    out += Json::number_repr(resp.retry_after_s);
  }
  if (!resp.fault_injected.empty()) {
    out += ",\"fault_injected\":";
    out += Json::quote(resp.fault_injected);
  }
  if (!resp.assessment_json.empty()) {
    // The assessment is already serialized JSON (render_json output, one
    // trailing newline) — embed the bytes verbatim, newline stripped.
    std::string body = resp.assessment_json;
    while (!body.empty() && body.back() == '\n') body.pop_back();
    out += ",\"assessment\":";
    out += body;
  }
  out += '}';
  return out;
}

ScenarioSpec scenario_spec_of(const ServiceRequest& req) {
  ScenarioSpec scenario;
  scenario.nodes = req.nodes;
  scenario.cv = req.cv;
  scenario.fleet_seed = req.seed ^ 0x99;  // the CLI's historical mixing
  return scenario;
}

MeasurementPlan plan_of(const ServiceRequest& req, const Scenario& scenario) {
  const Level lvl = req.level == 3   ? Level::kL3
                    : req.level == 2 ? Level::kL2
                                     : Level::kL1;
  const auto spec = MethodologySpec::get(lvl, Revision::kV2015);
  return scenario.plan(spec, req.seed);
}

CampaignConfig campaign_config_of(const ServiceRequest& req,
                                  const MeasurementPlan& plan) {
  CampaignConfig config;
  config.seed = req.seed;
  config.meter_interval_override = Seconds{req.interval_s};
  if (req.faults == "mild") {
    config.faults.spec = FaultSpec::mild();
  } else if (req.faults == "harsh") {
    config.faults.spec = FaultSpec::harsh();
  }
  if (req.dropout.has_value()) config.faults.spec.dropout_prob = *req.dropout;
  for (std::size_t i = 0; i < req.dead && i < plan.node_indices.size(); ++i) {
    config.faults.dead_meters.push_back(plan.node_indices[i]);
  }
  force_byzantine_meters(config, plan, req.byzantine);
  config.reconcile.enabled = req.reconcile;
  config.threads = std::max<std::size_t>(1, req.threads);
  return config;
}

}  // namespace pv
