// Tests of the network serving tier: the TaskSpec codec (DecodeTaskSpec as
// the inverse of EncodeCacheKey), the framed wire protocol (net/wire.h),
// the result serialization (io/result_io.h), and — on Linux, where the
// epoll server exists — end-to-end loopback parity for all six algorithms,
// the two-shard router merge vs the union corpus, and the typed fault
// paths (dead worker, client timeout, malformed frame).

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/lash_api.h"
#include "io/io_error.h"
#include "io/result_io.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "net/service_backend.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/mining_service.h"
#include "serve/task_spec.h"
#include "test_util.h"

#ifdef __linux__
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>
#endif

namespace lash::net {
namespace {

using serve::ServeError;
using serve::ServeErrorCode;
using serve::TaskSpec;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kSequential, Algorithm::kLash,  Algorithm::kMgFsm,
    Algorithm::kGsp,        Algorithm::kNaive, Algorithm::kSemiNaive,
};

TaskSpec PaperSpec(Algorithm algorithm) {
  TaskSpec spec;
  spec.algorithm = algorithm;
  spec.params = {.sigma = 2, .gamma = 1, .lambda = 3};
  return spec;
}

// ---- TaskSpec codec -------------------------------------------------------

TEST(TaskSpecCodec, RoundTripsEveryCoveredKnobCombination) {
  for (Algorithm algorithm : kAllAlgorithms) {
    for (PatternFilter filter : {PatternFilter::kNone, PatternFilter::kClosed,
                                 PatternFilter::kMaximal}) {
      for (size_t top_k : {size_t{0}, size_t{17}}) {
        for (bool engage_optionals : {false, true}) {
          TaskSpec spec = PaperSpec(algorithm);
          spec.filter = filter;
          spec.top_k = top_k;
          spec.flat = algorithm == Algorithm::kSequential && top_k == 0;
          if (engage_optionals) {
            spec.miner = MinerKind::kBfs;
            spec.rewrite = RewriteLevel::kGeneralizeOnly;
            spec.combiner = false;
          }
          spec.limits.max_emitted_records = 12345;

          const std::string key = serve::EncodeCacheKey(42, spec);
          uint64_t dataset_id = 0;
          const TaskSpec decoded = serve::DecodeTaskSpec(key, &dataset_id);
          EXPECT_EQ(dataset_id, 42u);
          EXPECT_EQ(decoded.algorithm, spec.algorithm);
          EXPECT_EQ(decoded.params.sigma, spec.params.sigma);
          EXPECT_EQ(decoded.params.gamma, spec.params.gamma);
          EXPECT_EQ(decoded.params.lambda, spec.params.lambda);
          EXPECT_EQ(decoded.filter, spec.filter);
          EXPECT_EQ(decoded.top_k, spec.top_k);
          EXPECT_EQ(decoded.miner, spec.miner);
          EXPECT_EQ(decoded.rewrite, spec.rewrite);
          EXPECT_EQ(decoded.combiner, spec.combiner);
          // Canonicalizing-stable: re-encoding reproduces the key bytes.
          EXPECT_EQ(serve::EncodeCacheKey(42, decoded), key);
        }
      }
    }
  }
}

TEST(TaskSpecCodec, ExecutionShapeKnobsDoNotSurvive) {
  TaskSpec spec = PaperSpec(Algorithm::kLash);
  spec.shard = 3;
  spec.threads = 7;
  spec.job_config.num_map_tasks = 11;
  spec.deadline_ms = 1500;
  spec.shard_sigma = 9;
  const TaskSpec decoded =
      serve::DecodeTaskSpec(serve::EncodeCacheKey(0, spec));
  EXPECT_EQ(decoded.shard, 0u);
  EXPECT_EQ(decoded.threads, 0u);
  EXPECT_EQ(decoded.deadline_ms, 0.0);
  EXPECT_EQ(decoded.shard_sigma, 0u);
  EXPECT_EQ(decoded.job_config.num_map_tasks, TaskSpec{}.job_config.num_map_tasks);
  // And the key bytes themselves are invariant under the override — how a
  // router gathers candidates must not change what a worker's answer hits
  // or coalesces with.
  TaskSpec plain = PaperSpec(Algorithm::kLash);
  TaskSpec overridden = plain;
  overridden.shard_sigma = 9;
  EXPECT_EQ(serve::EncodeCacheKey(0, overridden),
            serve::EncodeCacheKey(0, plain));
}

TEST(TaskSpecCodec, EveryStrictPrefixThrowsTypedError) {
  TaskSpec spec = PaperSpec(Algorithm::kSemiNaive);  // Includes the emit cap.
  spec.miner = MinerKind::kPsmIndex;
  spec.combiner = true;
  const std::string key = serve::EncodeCacheKey(7, spec);
  for (size_t len = 0; len < key.size(); ++len) {
    EXPECT_THROW(serve::DecodeTaskSpec(key.substr(0, len)), IoError)
        << "prefix of length " << len << " did not throw";
  }
  EXPECT_NO_THROW(serve::DecodeTaskSpec(key));
}

TEST(TaskSpecCodec, RejectsBadVersionEnumAndTrailingGarbage) {
  const std::string key = serve::EncodeCacheKey(0, PaperSpec(Algorithm::kGsp));

  std::string bad_version = key;
  bad_version[0] = 99;
  try {
    serve::DecodeTaskSpec(bad_version);
    FAIL() << "bad version accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
  }

  // Byte 2 (after version + varint dataset id 0) is the algorithm.
  std::string bad_algorithm = key;
  bad_algorithm[2] = 17;
  try {
    serve::DecodeTaskSpec(bad_algorithm);
    FAIL() << "bad algorithm byte accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
  }

  try {
    serve::DecodeTaskSpec(key + "x");
    FAIL() << "trailing garbage accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
  }
}

// ---- Framing --------------------------------------------------------------

TEST(WireFraming, FrameRoundTripsByteByByte) {
  std::string wire;
  AppendFrame(&wire, "hello");
  AppendFrame(&wire, "");  // Empty payloads are legal frames.

  std::string buffer, payload;
  std::vector<std::string> frames;
  for (char byte : wire) {
    buffer.push_back(byte);
    while (TryExtractFrame(&buffer, &payload) == FrameStatus::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "hello");
  EXPECT_EQ(frames[1], "");
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFraming, ExtractsBackToBackFrames) {
  std::string buffer;
  AppendFrame(&buffer, "one");
  AppendFrame(&buffer, "two");
  std::string payload;
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "one");
  ASSERT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "two");
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), FrameStatus::kNeedMore);
}

TEST(WireFraming, OversizedLengthPrefixThrowsBeforeBuffering) {
  // A 4GiB-1 length prefix: the receiver must throw on the header alone,
  // without waiting for (or allocating) the announced payload.
  std::string buffer("\xff\xff\xff\xff", 4);
  std::string payload;
  try {
    TryExtractFrame(&buffer, &payload);
    FAIL() << "oversized frame accepted";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
  }
}

// ---- Message payloads -----------------------------------------------------

/// The wire mutation sweep over one valid payload: every strict prefix must
/// throw a typed IoError, and every single-byte mutant (each byte XOR 0x01
/// and XOR 0x80) must either throw IoError or decode to a value that
/// survives a round trip — its re-encoding decodes back to the same value,
/// i.e. to the same (canonical) bytes.
template <typename Decode, typename Encode>
void ExpectMutantsRejectedOrStable(const std::string& payload, Decode decode,
                                   Encode encode) {
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode(payload.substr(0, len)), IoError)
        << "prefix of length " << len << " did not throw";
  }
  for (size_t i = 0; i < payload.size(); ++i) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string mutant = payload;
      mutant[i] = static_cast<char>(static_cast<uint8_t>(mutant[i]) ^ mask);
      std::string bytes;
      try {
        bytes = encode(decode(mutant));
      } catch (const IoError&) {
        continue;  // Rejected with a typed error.
      }
      EXPECT_EQ(encode(decode(bytes)), bytes)
          << "byte " << i << " ^ " << static_cast<int>(mask)
          << " decoded to a value that does not round-trip";
    }
  }
}

TEST(WireMessages, MineRequestRoundTrip) {
  TaskSpec spec = PaperSpec(Algorithm::kLash);
  spec.shard = 2;
  spec.deadline_ms = 750.5;
  spec.top_k = 9;
  const std::string payload = EncodeMineRequest(spec);
  EXPECT_EQ(payload[0], static_cast<char>(kWireVersion));
  EXPECT_EQ(PeekMessageType(payload), MessageType::kMineRequest);
  const TaskSpec decoded = DecodeMineRequest(payload);
  EXPECT_EQ(decoded.shard, 2u);
  EXPECT_EQ(decoded.deadline_ms, 750.5);
  EXPECT_EQ(decoded.algorithm, Algorithm::kLash);
  EXPECT_EQ(decoded.top_k, 9u);
  EXPECT_EQ(decoded.params.sigma, 2u);
  // An untraced request without an override carries the same fields: an
  // inactive trace as 24 zero bytes, and shard_sigma 0.
  EXPECT_FALSE(decoded.trace.active());
  EXPECT_EQ(decoded.shard_sigma, 0u);
  EXPECT_EQ(payload.substr(2, 24), std::string(24, '\0'));
  EXPECT_EQ(EncodeMineRequest(decoded), payload);
}

TEST(WireMessages, MineResponseRoundTrip) {
  MineResponse response;
  response.run.algorithm = Algorithm::kMgFsm;
  response.run.used_flat_hierarchy = true;
  response.run.patterns_mined = 120;
  response.run.patterns_emitted = 2;
  response.run.mine_ms = 3.25;
  response.run.total_ms = 4.5;
  response.cache_hit = true;
  response.server_ms = 0.125;
  response.patterns = {{{"a", "B"}, 3}, {{"a"}, 2}};

  const std::string payload = EncodeMineResponse(response);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kMineResponse);
  const MineResponse decoded = DecodeMineResponse(payload);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.coalesced);
  EXPECT_EQ(decoded.server_ms, 0.125);
  EXPECT_EQ(decoded.patterns, response.patterns);
  EXPECT_EQ(decoded.run.algorithm, Algorithm::kMgFsm);
  EXPECT_TRUE(decoded.run.used_flat_hierarchy);
  EXPECT_EQ(decoded.run.patterns_mined, 120u);
  EXPECT_EQ(decoded.run.mine_ms, 3.25);
  // Re-encoding the decoded response reproduces the payload bytes — every
  // transmitted RunResult field round-trips.
  EXPECT_EQ(EncodeMineResponse(decoded), payload);
}

TEST(WireMessages, ErrorAndStatsRoundTrip) {
  const std::string error_payload =
      EncodeErrorResponse(ServeErrorCode::kQueueFull, "try later");
  EXPECT_EQ(PeekMessageType(error_payload), MessageType::kErrorResponse);
  const ErrorResponse error = DecodeErrorResponse(error_payload);
  EXPECT_EQ(error.code, ServeErrorCode::kQueueFull);
  EXPECT_EQ(error.message, "try later");

  serve::ServiceStats stats;
  stats.submitted = 10;
  stats.hits = 4;
  stats.cache_oversized_rejects = 2;
  stats.queue_depth = 3;
  stats.mine_p95_ms = 17.5;
  const std::string stats_payload = EncodeStatsResponse(stats);
  EXPECT_EQ(PeekMessageType(stats_payload), MessageType::kStatsResponse);
  const serve::ServiceStats decoded = DecodeStatsResponse(stats_payload);
  EXPECT_EQ(decoded.submitted, 10u);
  EXPECT_EQ(decoded.hits, 4u);
  EXPECT_EQ(decoded.cache_oversized_rejects, 2u);
  EXPECT_EQ(decoded.queue_depth, 3u);
  EXPECT_EQ(decoded.mine_p95_ms, 17.5);
  EXPECT_EQ(EncodeStatsResponse(decoded), stats_payload);
}

TEST(WireMessages, MineRequestCarriesTraceAndShardSigmaOutsideTheKey) {
  TaskSpec spec = PaperSpec(Algorithm::kLash);
  spec.shard = 1;
  spec.deadline_ms = 33.5;
  spec.shard_sigma = 7;
  spec.trace.trace_id = obs::TraceId::Make();
  spec.trace.parent_span = 0x0123456789abcdefULL;

  const std::string payload = EncodeMineRequest(spec);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kMineRequest);
  const TaskSpec decoded = DecodeMineRequest(payload);
  EXPECT_EQ(decoded.shard_sigma, 7u);
  EXPECT_EQ(decoded.shard, 1u);
  EXPECT_EQ(decoded.deadline_ms, 33.5);
  EXPECT_EQ(decoded.trace.trace_id, spec.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span, spec.trace.parent_span);
  EXPECT_EQ(decoded.algorithm, Algorithm::kLash);
  EXPECT_EQ(decoded.params.sigma, 2u);
  EXPECT_EQ(EncodeMineRequest(decoded), payload);

  // Routing, deadline, σ′ and trace all sit in front of the cache-key
  // bytes, which end the payload verbatim; and a traced request is exactly
  // as long as an untraced one.
  const std::string key = serve::EncodeCacheKey(0, spec);
  EXPECT_EQ(payload.substr(payload.size() - key.size()), key);
  TaskSpec untraced = spec;
  untraced.trace = obs::TraceContext{};
  EXPECT_EQ(EncodeMineRequest(untraced).size(), payload.size());

  // Truncations throw; single-byte mutants throw or round-trip.
  ExpectMutantsRejectedOrStable(payload, DecodeMineRequest, EncodeMineRequest);
}

TEST(WireMessages, CountRequestRoundTripAndTruncationMatrix) {
  CountRequest request;
  request.trace.trace_id = obs::TraceId::Make();
  request.trace.parent_span = 0xdeadbeef12345678ULL;
  request.shard = 3;
  request.deadline_ms = 125.5;
  request.flat = true;
  request.gamma = 2;
  request.lambda = 5;
  request.candidates = {{{"a", "B"}, 0}, {{"c"}, 0}, {{"d1", "e", "f"}, 0}};

  const std::string payload = EncodeCountRequest(request);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kCountRequest);
  const CountRequest decoded = DecodeCountRequest(payload);
  EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span, request.trace.parent_span);
  EXPECT_EQ(decoded.shard, 3u);
  EXPECT_EQ(decoded.deadline_ms, 125.5);
  EXPECT_TRUE(decoded.flat);
  EXPECT_EQ(decoded.gamma, 2u);
  EXPECT_EQ(decoded.lambda, 5u);
  EXPECT_EQ(decoded.candidates, request.candidates);
  // Re-encoding the decoded request reproduces the payload bytes.
  EXPECT_EQ(EncodeCountRequest(decoded), payload);

  // Truncations and trailing junk are typed decode errors; single-byte
  // mutants throw or round-trip.
  ExpectMutantsRejectedOrStable(payload, DecodeCountRequest,
                                EncodeCountRequest);
  EXPECT_THROW(DecodeCountRequest(payload + "x"), IoError);
}

TEST(WireMessages, CountResponseRoundTripAndTruncationMatrix) {
  CountResponse response;
  response.server_ms = 1.75;
  response.supports = {4, 0, 123456789012ULL};

  const std::string payload = EncodeCountResponse(response);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kCountResponse);
  const CountResponse decoded = DecodeCountResponse(payload);
  EXPECT_EQ(decoded.server_ms, 1.75);
  EXPECT_EQ(decoded.supports, response.supports);
  EXPECT_EQ(EncodeCountResponse(decoded), payload);

  // The empty support list is legal (a count of zero candidates).
  EXPECT_TRUE(DecodeCountResponse(EncodeCountResponse(CountResponse{}))
                  .supports.empty());

  ExpectMutantsRejectedOrStable(payload, DecodeCountResponse,
                                EncodeCountResponse);
  EXPECT_THROW(DecodeCountResponse(payload + "x"), IoError);
}

TEST(WireMessages, MetricsMessagesRoundTrip) {
  EXPECT_EQ(PeekMessageType(EncodeMetricsRequest()),
            MessageType::kMetricsRequest);

  const std::vector<obs::MetricSample> samples = {
      {"serve.requests.submitted", 12},
      {"serve.latency.hit_ms.p95_ms", 0.256},
      {"net.server.bytes_in", 1.5e9},
  };
  const std::string payload = EncodeMetricsResponse(samples);
  EXPECT_EQ(PeekMessageType(payload), MessageType::kMetricsResponse);
  const std::vector<obs::MetricSample> decoded =
      DecodeMetricsResponse(payload);
  ASSERT_EQ(decoded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(decoded[i].name, samples[i].name);
    EXPECT_EQ(decoded[i].value, samples[i].value);
  }

  // The empty snapshot is a legal response (a router with no registry).
  EXPECT_TRUE(DecodeMetricsResponse(EncodeMetricsResponse({})).empty());
  // Truncation and trailing garbage are typed decode errors.
  EXPECT_THROW(DecodeMetricsResponse(
                   std::string_view(payload).substr(0, payload.size() - 3)),
               IoError);
  EXPECT_THROW(DecodeMetricsResponse(payload + "x"), IoError);
}

TEST(WireMessages, MalformedPayloadsThrow) {
  // Wrong type for the decoder.
  EXPECT_THROW(DecodeMineResponse(EncodeStatsRequest()), IoError);
  EXPECT_THROW(DecodeMineRequest(EncodeStatsRequest()), IoError);
  // Unknown wire versions, including version 1 (the layouts of the retired
  // mine-request variants): the payload is kBadVersion, whatever its body.
  const std::string mine = EncodeMineRequest(PaperSpec(Algorithm::kLash));
  for (const char version : {char{1}, char{9}}) {
    std::string bad_version = mine;
    bad_version[0] = version;
    try {
      PeekMessageType(bad_version);
      FAIL() << "wire version " << int{version} << " accepted";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
    }
    try {
      DecodeMineRequest(bad_version);
      FAIL() << "wire version " << int{version} << " decoded";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kBadVersion);
    }
  }
  // Type bytes that name no message are kMalformed, not reinterpreted —
  // among them 6 and 11, the retired version-1 traced and shard-σ mine
  // requests.
  for (const char type : {char{0}, char{6}, char{11}, char{12}}) {
    std::string unknown = mine;
    unknown[1] = type;
    try {
      PeekMessageType(unknown);
      FAIL() << "message type " << int{type} << " accepted";
    } catch (const IoError& e) {
      EXPECT_EQ(e.kind(), IoErrorKind::kMalformed);
    }
    EXPECT_THROW(DecodeMineRequest(unknown), IoError);
  }
  // Truncated mid-message.
  const std::string response = EncodeMineResponse(MineResponse{});
  EXPECT_THROW(DecodeMineResponse(
                   std::string_view(response).substr(0, response.size() - 1)),
               IoError);
  // Empty payload.
  EXPECT_THROW(PeekMessageType(""), IoError);
}

// ---- Canonical pattern order ----------------------------------------------

TEST(ResultIo, CanonicalOrderIsDescFrequencyThenLexItems) {
  NamedPatternList patterns = {
      {{"b"}, 2}, {{"a", "c"}, 5}, {{"a", "b"}, 5}, {{"a"}, 2}};
  SortNamedPatterns(&patterns);
  const NamedPatternList expected = {
      {{"a", "b"}, 5}, {{"a", "c"}, 5}, {{"a"}, 2}, {{"b"}, 2}};
  EXPECT_EQ(patterns, expected);
  // The merge key ignores frequency and is injective on item vectors.
  EXPECT_EQ(NamedPatternKey({{"a", "b"}, 5}), NamedPatternKey({{"a", "b"}, 9}));
  EXPECT_NE(NamedPatternKey({{"a", "b"}, 5}), NamedPatternKey({{"ab"}, 5}));
}

#ifdef __linux__

// ---- Loopback end-to-end --------------------------------------------------

/// A server on its own thread, bound to an ephemeral loopback port.
struct TestServer {
  explicit TestServer(Backend* backend, ServerOptions options = {})
      : server(std::move(options), backend),
        thread([this] { server.Run(); }) {}
  ~TestServer() {
    server.Shutdown();
    thread.join();
  }
  uint16_t port() const { return server.port(); }

  NetServer server;
  std::thread thread;
};

class NetLoopbackTest : public ::testing::Test {
 protected:
  NetLoopbackTest() : dataset_(Dataset::FromMemory(ex_.raw_db, ex_.vocab)) {}

  /// Canonical wire bytes of the in-process answer for `spec` — the parity
  /// baseline both network paths must reproduce exactly.
  std::string BaselineBytes(const TaskSpec& spec) {
    serve::MiningService service(dataset_);
    // Get() returns into the pending result's state: keep it alive.
    const serve::PendingResult pending = service.Submit(spec);
    const serve::Response& response = pending.Get();
    std::string bytes;
    EncodeNamedPatterns(&bytes,
                        NamePatterns(dataset_, response.patterns(),
                                     response.run().used_flat_hierarchy));
    return bytes;
  }

  static std::string Bytes(const NamedPatternList& patterns) {
    std::string bytes;
    EncodeNamedPatterns(&bytes, patterns);
    return bytes;
  }

  testing::PaperExample ex_;
  Dataset dataset_;
};

/// One loopback worker per shard corpus, all over one vocabulary.
struct ShardCluster {
  ShardCluster(const std::vector<Database>& shard_dbs, const Vocabulary& vocab) {
    for (const Database& db : shard_dbs) {
      datasets.emplace_back(new Dataset(Dataset::FromMemory(db, vocab)));
      backends.push_back(std::make_unique<ServiceBackend>(
          std::vector<const Dataset*>{datasets.back().get()},
          serve::ServiceOptions{}));
      servers.push_back(std::make_unique<TestServer>(backends.back().get()));
      addresses.push_back({"127.0.0.1", servers.back()->port()});
    }
  }

  /// The round-robin transaction split of `db` into k shards.
  static std::vector<Database> RoundRobin(const Database& db, size_t k) {
    std::vector<Database> shards(k);
    for (size_t i = 0; i < db.size(); ++i) shards[i % k].push_back(db[i]);
    return shards;
  }

  std::vector<std::unique_ptr<Dataset>> datasets;
  std::vector<std::unique_ptr<ServiceBackend>> backends;
  std::vector<std::unique_ptr<TestServer>> servers;
  std::vector<WorkerAddress> addresses;
};

/// A counter's value in `registry` (0 when never registered).
uint64_t CounterValue(obs::MetricsRegistry& registry, const char* name) {
  return registry.GetCounter(name)->Value();
}

/// The value of `key` among a span's tags ("" when absent).
std::string TagValue(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.tags) {
    if (k == key) return v;
  }
  return "";
}

TEST_F(NetLoopbackTest, AllSixAlgorithmsAreByteIdenticalOverTheWire) {
  ServiceBackend backend({&dataset_}, serve::ServiceOptions{});
  TestServer server(&backend);
  NetClient client("127.0.0.1", server.port());
  for (Algorithm algorithm : kAllAlgorithms) {
    const TaskSpec spec = PaperSpec(algorithm);
    const MineReply reply = client.Mine(spec);
    EXPECT_EQ(Bytes(reply.patterns), BaselineBytes(spec))
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_EQ(reply.run.algorithm, algorithm);
  }
}

TEST_F(NetLoopbackTest, SecondRequestHitsTheCacheAndStatsTravel) {
  ServiceBackend backend({&dataset_}, serve::ServiceOptions{});
  TestServer server(&backend);
  NetClient client("127.0.0.1", server.port());

  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  const MineReply cold = client.Mine(spec);
  EXPECT_FALSE(cold.cache_hit);
  const MineReply hit = client.Mine(spec);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(Bytes(hit.patterns), Bytes(cold.patterns));

  const serve::ServiceStats stats = client.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST_F(NetLoopbackTest, RouterMergesTwoShardsExactly) {
  // Even/odd transaction split of the paper corpus, sharing the vocabulary:
  // the shard union IS dataset_, so the router's merged answer must be
  // byte-identical to mining dataset_ in process.
  Database even_db, odd_db;
  for (size_t i = 0; i < ex_.raw_db.size(); ++i) {
    (i % 2 == 0 ? even_db : odd_db).push_back(ex_.raw_db[i]);
  }
  Dataset even(Dataset::FromMemory(even_db, ex_.vocab));
  Dataset odd(Dataset::FromMemory(odd_db, ex_.vocab));

  ServiceBackend backend_even({&even}, serve::ServiceOptions{});
  ServiceBackend backend_odd({&odd}, serve::ServiceOptions{});
  TestServer worker_even(&backend_even);
  TestServer worker_odd(&backend_odd);
  RouterBackend router({{"127.0.0.1", worker_even.port()},
                        {"127.0.0.1", worker_odd.port()}},
                       RouterOptions{});
  TestServer router_server(&router);
  NetClient client("127.0.0.1", router_server.port());

  for (Algorithm algorithm : kAllAlgorithms) {
    const TaskSpec spec = PaperSpec(algorithm);
    const MineReply merged = client.Mine(spec);
    EXPECT_EQ(Bytes(merged.patterns), BaselineBytes(spec))
        << "algorithm " << static_cast<int>(algorithm);
  }

  // Top-k re-cut: the merged answer truncated to k is the prefix of the
  // full merged answer in canonical order.
  const TaskSpec full_spec = PaperSpec(Algorithm::kSequential);
  TaskSpec topk_spec = full_spec;
  topk_spec.top_k = 3;
  const MineReply full = client.Mine(full_spec);
  const MineReply topk = client.Mine(topk_spec);
  ASSERT_EQ(topk.patterns.size(), 3u);
  EXPECT_EQ(topk.patterns,
            NamedPatternList(full.patterns.begin(), full.patterns.begin() + 3));

  // The router's stats RPC fans out too and sums the workers' counters.
  const serve::ServiceStats total = client.Stats();
  NetClient even_client("127.0.0.1", worker_even.port());
  NetClient odd_client("127.0.0.1", worker_odd.port());
  const serve::ServiceStats even_stats = even_client.Stats();
  const serve::ServiceStats odd_stats = odd_client.Stats();
  EXPECT_GT(total.submitted, 0u);
  EXPECT_EQ(total.submitted, even_stats.submitted + odd_stats.submitted);
  EXPECT_EQ(total.executions, even_stats.executions + odd_stats.executions);
  EXPECT_EQ(total.mine_p95_ms,
            std::max(even_stats.mine_p95_ms, odd_stats.mine_p95_ms));
}

TEST_F(NetLoopbackTest, TwoPhaseCountPhaseMatchesLegacyAndInProcess) {
  // Round-robin splits of the paper corpus into k = 2 and 3 shards, at σ
  // where the pigeonhole σ′ = ⌈σ/k⌉ exceeds 1, so the count phase runs
  // (unlike the σ=2 paper spec over 2 shards, where σ′=1 and phase 1 is
  // already exact). The missing-only, bound-pruned two-phase answer must
  // be byte-identical to both the σ′=1 router and the in-process union
  // mine, for every algorithm, with and without a top-k cut.
  uint64_t pruned = 0, shipped = 0, union_candidates = 0;
  for (const size_t k : {size_t{2}, size_t{3}}) {
    ShardCluster cluster(ShardCluster::RoundRobin(ex_.raw_db, k), ex_.vocab);
    obs::MetricsRegistry registry;
    RouterOptions options;
    options.metrics = &registry;
    RouterBackend two_phase(cluster.addresses, options);
    RouterOptions baseline_options;
    baseline_options.shard_sigma = 1;  // One phase: every pattern visible.
    RouterBackend baseline(cluster.addresses, baseline_options);

    for (const Frequency sigma : {Frequency{3}, Frequency{4}, Frequency{5}}) {
      for (Algorithm algorithm : kAllAlgorithms) {
        for (const size_t top_k : {size_t{0}, size_t{1}, size_t{3}}) {
          TaskSpec spec = PaperSpec(algorithm);
          spec.params.sigma = sigma;
          spec.top_k = top_k;
          const MineResponse fast = two_phase.Scatter(spec);
          const MineResponse exact = baseline.Scatter(spec);
          const std::string where = "k=" + std::to_string(k) +
                                    " sigma=" + std::to_string(sigma) +
                                    " top_k=" + std::to_string(top_k) +
                                    " algorithm " +
                                    std::to_string(static_cast<int>(algorithm));
          EXPECT_EQ(Bytes(fast.patterns), BaselineBytes(spec))
              << "two-phase vs in-process, " << where;
          EXPECT_EQ(Bytes(fast.patterns), Bytes(exact.patterns))
              << "two-phase vs sigma'=1, " << where;
        }
      }
    }
    pruned += CounterValue(registry, "router.count.pruned");
    shipped += CounterValue(registry, "router.count.patterns_shipped");
    union_candidates += CounterValue(registry, "router.count.candidates");
  }
  // The grid exercised both cuts: some candidate was dropped by the bound,
  // and fewer candidate-shard counts were shipped than union candidates
  // times shards would have been.
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(shipped, 0u);
  EXPECT_LT(shipped, 2 * union_candidates);
}

TEST_F(NetLoopbackTest, PigeonholeBoundIsLoadBearing) {
  // The adversarial corpus: "x y" has support 2 on each shard and 4 in the
  // union — below σ=4 on every individual shard, so any scatter at σ′=σ
  // loses it. The pigeonhole bound σ′=⌈4/2⌉=2 keeps it as a candidate and
  // the count phase restores its exact union support.
  Vocabulary vocab;
  const ItemId x = vocab.AddItem("x");
  const ItemId y = vocab.AddItem("y");
  const ItemId z = vocab.AddItem("z");
  const Database shard_db = {{x, y}, {x, y}, {z}};
  Database union_db = shard_db;
  union_db.insert(union_db.end(), shard_db.begin(), shard_db.end());
  Dataset a(Dataset::FromMemory(shard_db, vocab));
  Dataset b(Dataset::FromMemory(shard_db, vocab));
  Dataset u(Dataset::FromMemory(union_db, vocab));

  ServiceBackend backend_a({&a}, serve::ServiceOptions{});
  ServiceBackend backend_b({&b}, serve::ServiceOptions{});
  TestServer worker_a(&backend_a);
  TestServer worker_b(&backend_b);
  RouterBackend router({{"127.0.0.1", worker_a.port()},
                        {"127.0.0.1", worker_b.port()}},
                       RouterOptions{});
  TestServer router_server(&router);
  NetClient client("127.0.0.1", router_server.port());

  TaskSpec spec;
  spec.algorithm = Algorithm::kSequential;
  spec.params = {.sigma = 4, .gamma = 0, .lambda = 2};

  // Traced, so the count phase's spans are visible below.
  obs::Tracer::Global().StartCollecting();
  TaskSpec traced = spec;
  traced.trace.trace_id = obs::TraceId::Make();
  const MineReply found = client.Mine(traced);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();

  // The union answer, exactly: in-process parity over the union corpus.
  serve::MiningService service(u);
  const serve::PendingResult pending = service.Submit(spec);
  const serve::Response& baseline = pending.Get();
  std::string baseline_bytes;
  EncodeNamedPatterns(&baseline_bytes,
                      NamePatterns(u, baseline.patterns(),
                                   baseline.run().used_flat_hierarchy));
  EXPECT_EQ(Bytes(found.patterns), baseline_bytes);
  ASSERT_FALSE(found.patterns.empty());
  const NamedPattern expected{{"x", "y"}, 4};
  EXPECT_NE(std::find(found.patterns.begin(), found.patterns.end(), expected),
            found.patterns.end())
      << "the union-frequent pattern below per-shard sigma is missing";

  // Both shards reported every candidate ("x y" with 2 each), so the sum
  // of the phase-1 supports is exact and the count phase sends no leg
  // (NoCountLegWhenEveryShardReportedEveryCandidate checks the metrics;
  // TightUpperBoundKeepsTheCandidate checks a leg's spans).
  uint64_t scatter_id = 0;
  size_t count_legs = 0, serve_counts = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.scatter") scatter_id = span.span_id;
  }
  ASSERT_NE(scatter_id, 0u);
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.count") {
      ++count_legs;
      EXPECT_EQ(span.parent_id, scatter_id);
    }
    if (span.name == "serve.count") ++serve_counts;
  }
  EXPECT_EQ(count_legs, 0u);
  EXPECT_EQ(serve_counts, 0u);

  // The per-request override proves the bound is load-bearing: scattering
  // at σ′=σ=4 finds nothing on either shard, so the answer is empty — the
  // exactness/latency trade the override exists to expose.
  TaskSpec overridden = spec;
  overridden.shard_sigma = 4;
  const MineReply dropped = client.Mine(overridden);
  EXPECT_TRUE(dropped.patterns.empty());

  // And an explicit override at the pigeonhole bound is the default answer.
  TaskSpec pigeonhole = spec;
  pigeonhole.shard_sigma = 2;
  const MineReply same = client.Mine(pigeonhole);
  EXPECT_EQ(Bytes(same.patterns), baseline_bytes);
}

TEST_F(NetLoopbackTest, TightUpperBoundKeepsTheCandidate) {
  // k=2, σ=4, σ′=2 (patterns have length ≥ 2). Shard a reports "x y" with
  // support 3; shard b holds it once (below σ′, so it stays silent) and
  // reports "z w" with 2. For "x y" the upper bound s + (k−|R|)(σ′−1) is
  // 3 + 1·1 = 4 = σ exactly: it must be counted on b (missing-only) and
  // kept, reaching 4. The bound of "z w", 2 + 1·1 = 3 < 4, drops it
  // uncounted.
  Vocabulary vocab;
  const ItemId x = vocab.AddItem("x");
  const ItemId y = vocab.AddItem("y");
  const ItemId z = vocab.AddItem("z");
  const ItemId w = vocab.AddItem("w");
  const Database a_db = {{x, y}, {x, y}, {x, y}};
  const Database b_db = {{x, y}, {z, w}, {z, w}};
  Database union_db = a_db;
  union_db.insert(union_db.end(), b_db.begin(), b_db.end());
  Dataset u(Dataset::FromMemory(union_db, vocab));
  ShardCluster cluster({a_db, b_db}, vocab);
  obs::MetricsRegistry registry;
  RouterOptions options;
  options.metrics = &registry;
  RouterBackend router(cluster.addresses, options);

  TaskSpec spec;
  spec.algorithm = Algorithm::kSequential;
  spec.params = {.sigma = 4, .gamma = 0, .lambda = 2};
  serve::MiningService service(u);
  const serve::PendingResult pending = service.Submit(spec);
  const serve::Response& baseline = pending.Get();

  TaskSpec traced = spec;
  traced.trace.trace_id = obs::TraceId::Make();
  obs::Tracer::Global().StartCollecting();
  const MineResponse found = router.Scatter(traced);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();

  EXPECT_EQ(Bytes(found.patterns),
            Bytes(NamePatterns(u, baseline.patterns(),
                               baseline.run().used_flat_hierarchy)));
  const NamedPatternList expected = {{{"x", "y"}, 4}};
  EXPECT_EQ(found.patterns, expected)
      << "a candidate whose upper bound equals sigma was pruned";

  EXPECT_EQ(CounterValue(registry, "router.count.candidates"), 2u);
  EXPECT_EQ(CounterValue(registry, "router.count.pruned"), 1u);
  EXPECT_EQ(CounterValue(registry, "router.count.requests"), 1u);
  EXPECT_EQ(CounterValue(registry, "router.count.patterns_shipped"), 1u);

  // One count leg, to b only, under router.scatter and tagged with its own
  // list size; one serve.count on the worker.
  uint64_t scatter_id = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.scatter") {
      scatter_id = span.span_id;
      EXPECT_EQ(TagValue(span, "candidates"), "2");
      EXPECT_EQ(TagValue(span, "counted"), "1");
      EXPECT_EQ(TagValue(span, "pruned"), "1");
    }
  }
  ASSERT_NE(scatter_id, 0u);
  size_t count_legs = 0, serve_counts = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.count") {
      ++count_legs;
      EXPECT_EQ(span.parent_id, scatter_id);
      EXPECT_EQ(TagValue(span, "candidates"), "1");
      EXPECT_EQ(TagValue(span, "worker"),
                "127.0.0.1:" + std::to_string(cluster.addresses[1].port));
    }
    if (span.name == "serve.count") {
      ++serve_counts;
      EXPECT_EQ(TagValue(span, "candidates"), "1");
    }
  }
  EXPECT_EQ(count_legs, 1u);
  EXPECT_EQ(serve_counts, 1u);
}

TEST_F(NetLoopbackTest, NoCountLegWhenEveryShardReportedEveryCandidate) {
  // Both shards hold "x y" twice, so at σ=4 (σ′=2) each reports it with
  // its exact support: the phase-1 sum is the union support, and no shard
  // has anything left to count.
  Vocabulary vocab;
  const ItemId x = vocab.AddItem("x");
  const ItemId y = vocab.AddItem("y");
  const ItemId z = vocab.AddItem("z");
  const Database shard_db = {{x, y}, {x, y}, {z}};
  ShardCluster cluster({shard_db, shard_db}, vocab);
  obs::MetricsRegistry registry;
  RouterOptions options;
  options.metrics = &registry;
  RouterBackend router(cluster.addresses, options);

  TaskSpec spec;
  spec.algorithm = Algorithm::kSequential;
  spec.params = {.sigma = 4, .gamma = 0, .lambda = 2};
  spec.trace.trace_id = obs::TraceId::Make();
  obs::Tracer::Global().StartCollecting();
  const MineResponse found = router.Scatter(spec);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();

  const NamedPatternList expected = {{{"x", "y"}, 4}};
  EXPECT_EQ(found.patterns, expected);
  EXPECT_EQ(CounterValue(registry, "router.count.candidates"), 1u);
  EXPECT_EQ(CounterValue(registry, "router.count.requests"), 0u);
  EXPECT_EQ(CounterValue(registry, "router.count.patterns_shipped"), 0u);
  EXPECT_EQ(CounterValue(registry, "router.count.pruned"), 0u);
  size_t count_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.count" || span.name == "serve.count") {
      ++count_spans;
    }
  }
  EXPECT_EQ(count_spans, 0u);
}

TEST_F(NetLoopbackTest, AbortedPhaseOneSkipsPruning) {
  // k=2, σ=6, σ′=3, naive. Shard a holds "x y" four times, shard b holds
  // "z w" three times. Uncapped, b reports "z w" with 3 and its bound
  // 3 + 1·2 = 5 < 6 drops it. Every transaction emits one subsequence, so
  // an emit cap of 2 admits exactly three transactions whatever the map
  // order: b's answer is whole, a's is cut short ("x y" with 3 of its 4).
  // a's silence then no longer means "fewer than σ′", so nothing may be
  // pruned, and "z w" is counted on a instead.
  Vocabulary vocab;
  const ItemId x = vocab.AddItem("x");
  const ItemId y = vocab.AddItem("y");
  const ItemId z = vocab.AddItem("z");
  const ItemId w = vocab.AddItem("w");
  ShardCluster cluster(
      {{{x, y}, {x, y}, {x, y}, {x, y}}, {{z, w}, {z, w}, {z, w}}}, vocab);
  TaskSpec spec;
  spec.algorithm = Algorithm::kNaive;
  spec.params = {.sigma = 6, .gamma = 0, .lambda = 2};

  {
    obs::MetricsRegistry registry;
    RouterOptions options;
    options.metrics = &registry;
    RouterBackend router(cluster.addresses, options);
    const MineResponse complete = router.Scatter(spec);
    EXPECT_FALSE(complete.run.aborted);
    EXPECT_TRUE(complete.patterns.empty());
    EXPECT_EQ(CounterValue(registry, "router.count.candidates"), 2u);
    EXPECT_EQ(CounterValue(registry, "router.count.pruned"), 1u);
    // "x y" is counted on b; "z w" is not counted at all.
    EXPECT_EQ(CounterValue(registry, "router.count.patterns_shipped"), 1u);
  }

  obs::MetricsRegistry registry;
  RouterOptions options;
  options.metrics = &registry;
  RouterBackend router(cluster.addresses, options);
  TaskSpec capped = spec;
  capped.limits.max_emitted_records = 2;
  const MineResponse aborted = router.Scatter(capped);
  EXPECT_TRUE(aborted.run.aborted);
  EXPECT_TRUE(aborted.patterns.empty());
  EXPECT_EQ(CounterValue(registry, "router.count.candidates"), 2u);
  EXPECT_EQ(CounterValue(registry, "router.count.pruned"), 0u);
  EXPECT_EQ(CounterValue(registry, "router.count.requests"), 2u);
  EXPECT_EQ(CounterValue(registry, "router.count.patterns_shipped"), 2u);
}

TEST_F(NetLoopbackTest, MetricsRpcExposesServiceAndServerInstruments) {
  // One registry wired into both the service and the event loop, exactly
  // as lash_served does with the process-global one.
  obs::MetricsRegistry registry;
  serve::ServiceOptions service_options;
  service_options.metrics = &registry;
  ServiceBackend backend({&dataset_}, service_options);
  ServerOptions server_options;
  server_options.metrics = &registry;
  TestServer server(&backend, server_options);
  NetClient client("127.0.0.1", server.port());

  client.Mine(PaperSpec(Algorithm::kSequential));
  const std::vector<obs::MetricSample> samples = client.Metrics();
  auto value_of = [&samples](const std::string& name) -> double {
    for (const obs::MetricSample& s : samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "metric " << name << " missing from snapshot";
    return -1;
  };
  EXPECT_EQ(value_of("serve.requests.submitted"), 1.0);
  EXPECT_EQ(value_of("serve.requests.misses"), 1.0);
  EXPECT_EQ(value_of("serve.cache.entries"), 1.0);
  EXPECT_GT(value_of("serve.cache.bytes"), 0.0);
  EXPECT_GE(value_of("serve.latency.mine_ms.count"), 1.0);
  // The event loop's own instruments: the mine exchange plus this metrics
  // request have both passed through by the time the response arrives.
  EXPECT_GE(value_of("net.server.frames_in"), 2.0);
  EXPECT_GE(value_of("net.server.frames_out"), 1.0);
  EXPECT_GT(value_of("net.server.bytes_in"), 0.0);
  EXPECT_EQ(value_of("net.server.connections"), 1.0);
  EXPECT_EQ(value_of("net.server.accepted"), 1.0);
}

TEST_F(NetLoopbackTest, OneTraceIdSpansClientRouterAndBothWorkers) {
  // The propagation parity check: a traced mine through a 2-shard router
  // must yield ONE trace whose spans cover the router's scatter/merge legs
  // and each worker's serve pipeline, nested by parent ids. Everything
  // runs in-process, so every component records into the same Global
  // tracer — the multi-process analogue (separate JSONL files sharing the
  // trace id) is net_smoke.sh's job.
  Database even_db, odd_db;
  for (size_t i = 0; i < ex_.raw_db.size(); ++i) {
    (i % 2 == 0 ? even_db : odd_db).push_back(ex_.raw_db[i]);
  }
  Dataset even(Dataset::FromMemory(even_db, ex_.vocab));
  Dataset odd(Dataset::FromMemory(odd_db, ex_.vocab));
  ServiceBackend backend_even({&even}, serve::ServiceOptions{});
  ServiceBackend backend_odd({&odd}, serve::ServiceOptions{});
  TestServer worker_even(&backend_even);
  TestServer worker_odd(&backend_odd);
  RouterBackend router({{"127.0.0.1", worker_even.port()},
                        {"127.0.0.1", worker_odd.port()}},
                       RouterOptions{});
  TestServer router_server(&router);
  NetClient client("127.0.0.1", router_server.port());

  // The traced request goes first, so it is a cold miss on both workers
  // and exercises the full pipeline (queue, mine, MapReduce export). The
  // untraced request follows through the same collecting tracer; the
  // single-trace-id assertion below doubles as the proof that it recorded
  // nothing. (Collection drains once, after both: a worker's serve.deliver
  // span lands just after its reply is sent, so a drain between the two
  // requests would race it.)
  obs::Tracer::Global().StartCollecting();
  TaskSpec traced = PaperSpec(Algorithm::kLash);
  traced.trace.trace_id = obs::TraceId::Make();
  const MineReply traced_reply = client.Mine(traced);
  TaskSpec untraced = PaperSpec(Algorithm::kLash);
  const MineReply untraced_reply = client.Mine(untraced);
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().TakeCollected();
  obs::Tracer::Global().StopCollecting();

  // Tracing must not change the answer: the traced (cold) reply is
  // pattern-identical to the untraced (cache-hit) one.
  EXPECT_EQ(Bytes(traced_reply.patterns), Bytes(untraced_reply.patterns));

  // First pass: index the spans. Every span belongs to THE trace — the
  // untraced request contributed none.
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  std::multiset<std::string> names;
  uint64_t scatter_id = 0;
  std::set<uint64_t> leg_ids;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, traced.trace.trace_id) << span.name;
    by_id[span.span_id] = &span;
    names.insert(span.name);
    if (span.name == "router.scatter") scatter_id = span.span_id;
    if (span.name == "router.leg") leg_ids.insert(span.span_id);
  }
  // The router's legs...
  ASSERT_NE(scatter_id, 0u);
  ASSERT_EQ(names.count("router.scatter"), 1u);
  ASSERT_EQ(leg_ids.size(), 2u);
  ASSERT_EQ(names.count("router.merge"), 1u);
  // ...and each worker's serve pipeline plus its MapReduce timeline.
  EXPECT_EQ(names.count("serve.request"), 2u);
  EXPECT_EQ(names.count("serve.validate"), 2u);
  EXPECT_EQ(names.count("serve.cache"), 2u);
  EXPECT_EQ(names.count("serve.queue"), 2u);
  EXPECT_EQ(names.count("serve.mine"), 2u);
  EXPECT_EQ(names.count("api.mine"), 2u);
  EXPECT_EQ(names.count("mr.job"), 2u);

  // Second pass: nesting by parent ids. leg and merge hang off scatter,
  // each worker's serve.request off a distinct leg, the mine-path spans
  // off their serve.request, the facade span off serve.mine, and the
  // MapReduce job off the facade's api.mine.
  std::set<uint64_t> request_parents;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "router.leg" || span.name == "router.merge") {
      EXPECT_EQ(span.parent_id, scatter_id) << span.name;
    }
    if (span.name == "serve.request") {
      EXPECT_EQ(leg_ids.count(span.parent_id), 1u)
          << "serve.request parented outside the router's legs";
      request_parents.insert(span.parent_id);
    }
    if (span.name == "serve.mine" || span.name == "serve.queue") {
      ASSERT_EQ(by_id.count(span.parent_id), 1u) << span.name;
      EXPECT_EQ(by_id[span.parent_id]->name, "serve.request") << span.name;
    }
    if (span.name == "api.mine") {
      ASSERT_EQ(by_id.count(span.parent_id), 1u);
      EXPECT_EQ(by_id[span.parent_id]->name, "serve.mine");
    }
    if (span.name == "mr.job") {
      ASSERT_EQ(by_id.count(span.parent_id), 1u);
      EXPECT_EQ(by_id[span.parent_id]->name, "api.mine");
    }
  }
  EXPECT_EQ(request_parents, leg_ids);
}

TEST_F(NetLoopbackTest, RouterRejectsFiltersAndExplicitShards) {
  // Validation precedes any worker I/O, so an unreachable worker is fine.
  RouterBackend router({{"127.0.0.1", 1}}, RouterOptions{});

  TaskSpec filtered = PaperSpec(Algorithm::kSequential);
  filtered.filter = PatternFilter::kMaximal;
  try {
    router.Scatter(filtered);
    FAIL() << "filter distributed";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kInvalidTask);
  }

  TaskSpec sharded = PaperSpec(Algorithm::kSequential);
  sharded.shard = 1;
  try {
    router.Scatter(sharded);
    FAIL() << "explicit shard accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kInvalidTask);
  }
}

// ---- Fault paths ----------------------------------------------------------

/// Client options tuned so fault tests fail fast instead of retrying for
/// seconds.
ClientOptions FastFail() {
  ClientOptions options;
  options.connect_timeout_ms = 500;
  options.connect_retries = 0;
  options.retry_backoff_ms = 1;
  return options;
}

/// An ephemeral port with nothing listening: bind, read the port, close.
uint16_t DeadPort() {
  ListenSocket listener = ListenTcp("127.0.0.1", 0);
  return listener.bound_port;  // fd closes on return.
}

TEST(NetFaultTest, DeadWorkerIsExecutionFailed) {
  NetClient client("127.0.0.1", DeadPort(), FastFail());
  try {
    client.Mine(PaperSpec(Algorithm::kSequential));
    FAIL() << "mined through a dead port";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
  }
}

TEST(NetFaultTest, RouterSurfacesDeadWorkerAsExecutionFailed) {
  RouterOptions options;
  options.client = FastFail();
  RouterBackend router({{"127.0.0.1", DeadPort()}}, options);
  try {
    router.Scatter(PaperSpec(Algorithm::kSequential));
    FAIL() << "scattered to a dead worker";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  // The stats fan-out fails the same way.
  try {
    router.AggregateStats();
    FAIL() << "aggregated stats from a dead worker";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
}

TEST(NetFaultTest, SilentServerTimesOutAsDeadlineExceeded) {
  // A listener that never accepts: the TCP handshake completes from the
  // backlog, the request is buffered, and no reply ever comes.
  ListenSocket listener = ListenTcp("127.0.0.1", 0);
  ClientOptions options = FastFail();
  options.io_timeout_ms = 200;
  NetClient client("127.0.0.1", listener.bound_port, options);
  try {
    client.Mine(PaperSpec(Algorithm::kSequential));
    FAIL() << "mined against a silent server";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kDeadlineExceeded);
  }
}

TEST(NetFaultTest, PeerDeathMidExchangeIsExecutionFailed) {
  // Accept the connection and immediately close it: the client loses the
  // peer between sending the request and reading the reply.
  ListenSocket listener = ListenTcp("127.0.0.1", 0);
  std::promise<void> accepted;
  std::thread killer([&] {
    pollfd pfd{listener.fd.get(), POLLIN, 0};
    ::poll(&pfd, 1, 5000);
    const int conn = ::accept(listener.fd.get(), nullptr, nullptr);
    if (conn >= 0) ::close(conn);
    accepted.set_value();
  });
  NetClient client("127.0.0.1", listener.bound_port, FastFail());
  try {
    client.Mine(PaperSpec(Algorithm::kSequential));
    FAIL() << "mined through a dying peer";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExecutionFailed);
  }
  accepted.get_future().wait();
  killer.join();
}

TEST(NetFaultTest, MalformedFrameClosesOnlyThatConnection) {
  testing::PaperExample ex;
  Dataset dataset(Dataset::FromMemory(ex.raw_db, ex.vocab));
  ServiceBackend backend({&dataset}, serve::ServiceOptions{});
  TestServer server(&backend);

  // A raw connection speaking garbage: well-formed frame, wire version 9.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string frame;
  AppendFrame(&frame, std::string("\x09\x01", 2));
  ASSERT_EQ(::send(raw, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  // The server must close this connection (recv returns 0 / reset), not
  // crash or reply.
  char byte;
  const ssize_t got = ::recv(raw, &byte, 1, 0);
  EXPECT_LE(got, 0);
  ::close(raw);

  // ...while a well-behaved client on a fresh connection is still served.
  NetClient client("127.0.0.1", server.port(), FastFail());
  const TaskSpec spec = PaperSpec(Algorithm::kSequential);
  const MineReply reply = client.Mine(spec);
  EXPECT_GT(reply.patterns.size(), 0u);
}

#endif  // __linux__

}  // namespace
}  // namespace lash::net
