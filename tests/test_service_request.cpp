// Deterministic fuzz corpus for the service request parser — the same
// discipline as test_fuzz_trace_io applied to the third external-input
// surface: powervar-request-v1 JSON lines.  Every input must either
// parse into a valid ServiceRequest or throw a typed error
// (JsonParseError for malformed bytes, RequestParseError for
// schema-level violations) — never crash, never accept-and-mangle.

#include "service/request.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/doc.hpp"

namespace pv {
namespace {

// Tiny deterministic generator for the mutation schedule, kept
// self-contained so the corpus is independent of any library change.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

std::string valid_line() {
  ServiceRequest req;
  req.id = "fuzz-base";
  req.nodes = 48;
  req.cv = 0.03;
  req.level = 2;
  req.seed = 42;
  req.faults = "harsh";
  req.dropout = 0.1;
  req.dead = 2;
  req.byzantine = 0.05;
  req.reconcile = true;
  req.threads = 2;
  req.interval_s = 10.0;
  req.deadline_ms = 5000.0;
  return render_request_json(req);
}

/// Either a clean parse or one of the two typed rejections — any other
/// exception type (or a crash) fails the test.
void expect_parse_or_typed_reject(const std::string& line) {
  try {
    const ServiceRequest req = parse_request(line);
    // Accepted requests must respect every documented invariant.
    EXPECT_FALSE(req.id.empty());
    EXPECT_GE(req.nodes, 2u);
    EXPECT_GE(req.level, 1);
    EXPECT_LE(req.level, 3);
    EXPECT_GE(req.cv, 0.0);
    EXPECT_LE(req.cv, 1.0);
    EXPECT_TRUE(req.faults == "none" || req.faults == "mild" ||
                req.faults == "harsh");
  } catch (const JsonParseError&) {
  } catch (const RequestParseError&) {
  }
}

TEST(FuzzServiceRequest, CanonicalRoundTrip) {
  const std::string line = valid_line();
  const ServiceRequest req = parse_request(line);
  EXPECT_EQ(render_request_json(req), line);
  EXPECT_EQ(req.id, "fuzz-base");
  EXPECT_EQ(req.nodes, 48u);
  EXPECT_EQ(req.level, 2);
  EXPECT_EQ(req.seed, 42u);
  ASSERT_TRUE(req.dropout.has_value());
  EXPECT_DOUBLE_EQ(*req.dropout, 0.1);
  EXPECT_TRUE(req.reconcile);
  EXPECT_DOUBLE_EQ(req.deadline_ms, 5000.0);
}

TEST(FuzzServiceRequest, HandCraftedHostileInputs) {
  const std::vector<std::string> must_reject = {
      "",                                        // empty
      "   ",                                     // whitespace only
      "{",                                       // truncated object
      "null",                                    // non-object root
      "[]",                                      // array root
      "42",                                      // number root
      "\"powervar-request-v1\"",                 // string root
      "{}",                                      // missing schema and id
      R"({"schema":"powervar-request-v1"})",     // missing id
      R"({"id":"x"})",                           // missing schema
      R"({"schema":"powervar-request-v2","id":"x"})",   // wrong schema
      R"({"schema":42,"id":"x"})",               // schema type confusion
      R"({"schema":"powervar-request-v1","id":""})",    // empty id
      R"({"schema":"powervar-request-v1","id":"x","nodes":"64"})",  // string
      R"({"schema":"powervar-request-v1","id":"x","nodes":1})",     // < 2
      R"({"schema":"powervar-request-v1","id":"x","nodes":-64})",
      R"({"schema":"powervar-request-v1","id":"x","nodes":64.5})",
      R"({"schema":"powervar-request-v1","id":"x","nodes":1e30})",  // cap
      R"({"schema":"powervar-request-v1","id":"x","cv":1.5})",      // > 1
      R"({"schema":"powervar-request-v1","id":"x","level":4})",
      R"({"schema":"powervar-request-v1","id":"x","level":0})",
      R"({"schema":"powervar-request-v1","id":"x","seed":1e300})",
      R"({"schema":"powervar-request-v1","id":"x","faults":"brutal"})",
      R"({"schema":"powervar-request-v1","id":"x","engine":"warp"})",
      R"({"schema":"powervar-request-v1","id":"x","reconcile":1})",  // int
      R"({"schema":"powervar-request-v1","id":"x","threads":1e6})",
      R"({"schema":"powervar-request-v1","id":"x","interval":-1})",
      R"({"schema":"powervar-request-v1","id":"x","deadline_ms":-1})",
      R"({"schema":"powervar-request-v1","id":"x","tenant":""})",
      R"({"schema":"powervar-request-v1","id":"x","tenant":42})",
      "{\"schema\":\"powervar-request-v1\",\"id\":\"x\",\"tenant\":\"a\\nb\"}",
      R"({"schema":"powervar-request-v1","id":"x","priority":0})",
      R"({"schema":"powervar-request-v1","id":"x","priority":9})",
      R"({"schema":"powervar-request-v1","id":"x","priority":2.5})",
      R"({"schema":"powervar-request-v1","id":"x","priority":"3"})",
      R"({"schema":"powervar-request-v1","id":"x","wibble":1})",    // unknown
      R"({"schema":"powervar-request-v1","id":"x","nodes":64,"nodes":32})",
      R"({"schema":"powervar-request-v1","id":"x"} trailing)",
      R"({"schema":"powervar-request-v1","id":"x","nodes":})",
      R"({"schema":"powervar-request-v1","id":{"deep":"object"}})",
      R"({"schema":"powervar-request-v1","id":"x","nodes":Infinity})",
      R"({"schema":"powervar-request-v1","id":"x","nodes":NaN})",
      "{\"schema\":\"powervar-request-v1\",\"id\":\"a\nb\"}",  // raw newline
  };
  for (const std::string& line : must_reject) {
    EXPECT_THROW(parse_request(line), std::runtime_error)
        << "accepted: " << line.substr(0, 60);
  }
  // The id length cap (128 bytes) is enforced.
  std::string long_id(129, 'a');
  EXPECT_THROW(
      parse_request(R"({"schema":"powervar-request-v1","id":")" + long_id +
                    R"("})"),
      RequestParseError);
  // So is the tenant cap (64 bytes).
  std::string long_tenant(65, 't');
  EXPECT_THROW(
      parse_request(R"({"schema":"powervar-request-v1","id":"x","tenant":")" +
                    long_tenant + R"("})"),
      RequestParseError);
  // A nesting bomb must be a loud parse error, not a stack overflow.
  std::string bomb = R"({"schema":"powervar-request-v1","id":)";
  for (int i = 0; i < 200; ++i) bomb += "[";
  EXPECT_THROW(parse_request(bomb), JsonParseError);
  // Escaped-newline ids are fine bytes-wise but violate the single-line
  // contract after unescaping.
  EXPECT_THROW(
      parse_request(R"({"schema":"powervar-request-v1","id":"a\nb"})"),
      RequestParseError);
}

TEST(FuzzServiceRequest, MinimalRequestGetsCliDefaults) {
  const ServiceRequest req =
      parse_request(R"({"schema":"powervar-request-v1","id":"min"})");
  EXPECT_EQ(req.nodes, 64u);
  EXPECT_DOUBLE_EQ(req.cv, 0.02);
  EXPECT_EQ(req.level, 1);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_EQ(req.faults, "none");
  EXPECT_FALSE(req.dropout.has_value());
  EXPECT_DOUBLE_EQ(req.deadline_ms, 0.0);
}

TEST(FuzzServiceRequest, TruncationAtEveryByte) {
  const std::string base = valid_line();
  for (std::size_t cut = 0; cut <= base.size(); ++cut) {
    expect_parse_or_typed_reject(base.substr(0, cut));
  }
}

TEST(FuzzServiceRequest, DeterministicMutationSchedule) {
  const std::string base = valid_line();
  static constexpr char kAlphabet[] = "0123456789.,-+eE{}[]\":\\tfn \0u";
  Lcg rng{0x5E7F00Du};
  for (int iter = 0; iter < 2500; ++iter) {
    std::string s = base;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (rng.below(4)) {
        case 0:  // overwrite a byte
          s[rng.below(s.size())] = kAlphabet[rng.below(sizeof kAlphabet - 1)];
          break;
        case 1:  // delete a byte
          s.erase(rng.below(s.size()), 1);
          break;
        case 2:  // insert a byte
          s.insert(rng.below(s.size() + 1), 1,
                   kAlphabet[rng.below(sizeof kAlphabet - 1)]);
          break;
        default:  // splice a random chunk over another position
          if (s.size() > 8) {
            const std::size_t from = rng.below(s.size() - 4);
            const std::size_t len = 1 + rng.below(4);
            s.insert(rng.below(s.size()), s.substr(from, len));
          }
          break;
      }
    }
    expect_parse_or_typed_reject(s);
  }
}

TEST(FuzzServiceRequest, TenantAndPriorityRoundTripWhenNonDefault) {
  ServiceRequest req;
  req.id = "fair";
  req.tenant = "acme";
  req.priority = 5;
  const std::string line = render_request_json(req);
  EXPECT_NE(line.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(line.find("\"priority\":5"), std::string::npos);
  const ServiceRequest back = parse_request(line);
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.priority, 5u);
  EXPECT_EQ(render_request_json(back), line);
}

TEST(FuzzServiceRequest, DefaultTenantAndPriorityKeepTheOldWireBytes) {
  // Backward compatibility with PR6 drain journals and goldens: a
  // default-tenant, priority-1 request renders the exact pre-fair-share
  // line — the new fields appear only when they say something.
  const std::string line = valid_line();
  EXPECT_EQ(line.find("tenant"), std::string::npos);
  EXPECT_EQ(line.find("priority"), std::string::npos);
  const ServiceRequest req = parse_request(line);
  EXPECT_EQ(req.tenant, "default");
  EXPECT_EQ(req.priority, 1u);
}

TEST(ServiceResponseJson, SeqTagSplicesOntoTheExactBatchLine) {
  ServiceResponse resp;
  resp.id = "stream-1";
  resp.code = ResponseCode::kShed;
  resp.message = "admission queue is full";
  resp.retry_after_s = 1.5;
  const std::string batch = render_response_json(resp);
  const std::string tagged = render_response_json(resp, 7);
  EXPECT_EQ(tagged.rfind("{\"schema\":\"powervar-response-v1\",\"seq\":7,", 0),
            0u);
  // Stripping the seq field recovers the batch line byte for byte — the
  // contract the determinism gate's sed pipeline relies on.
  std::string stripped = tagged;
  const std::size_t at = stripped.find("\"seq\":7,");
  ASSERT_NE(at, std::string::npos);
  stripped.erase(at, std::string("\"seq\":7,").size());
  EXPECT_EQ(stripped, batch);
}

TEST(FuzzServiceRequest, JsonParserRoundTripsSerializerOutput) {
  // The strict parser must accept (and reproduce byte-for-byte through
  // dump()) everything the serializer emits — objects, arrays, the three
  // number kinds, escapes and unicode.
  Json doc = Json::object();
  doc["text"] = "quote \" slash \\ newline \n tab \t unicode µ";
  doc["int"] = static_cast<long long>(-42);
  doc["uint"] = static_cast<unsigned long long>(1) << 63;
  doc["num"] = 0.1;
  doc["tiny"] = 5e-324;
  doc["huge"] = 1.7976931348623157e308;
  doc["yes"] = true;
  doc["no"] = false;
  doc["nil"] = Json();  // null member
  Json arr = Json::array();
  arr.push_back(1.5);
  arr.push_back("two");
  Json inner = Json::object();
  inner["k"] = "v";
  arr.push_back(std::move(inner));
  doc["arr"] = std::move(arr);
  const std::string dumped = doc.dump();
  const Json parsed = Json::parse(dumped);
  EXPECT_EQ(parsed.dump(), dumped);
}

}  // namespace
}  // namespace pv
