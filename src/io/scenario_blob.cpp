#include "io/scenario_blob.hpp"

#include <bit>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace mrwsn::io {

namespace {

static_assert(sizeof(double) == 8, "the blob layout stores IEEE-754 binary64");

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// One-pass bounds-checked cursor over the blob bytes. Every decode
/// assembles its value from bytes least-significant first, so the result
/// is the little-endian wire value on any host.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint32_t u32(const char* what) {
    const std::uint8_t* p = take(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    return v;
  }

  std::uint64_t u64(const char* what) {
    const std::uint8_t* p = take(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
  }

  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }

  /// Bulk-decode `count` doubles into `out` (appended). Little-endian
  /// hosts take the memcpy fast path over the whole run.
  void f64_run(std::size_t count, std::vector<double>& out, const char* what) {
    const std::uint8_t* p = take(count * 8, what);
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t base = out.size();
      out.resize(base + count);
      std::memcpy(out.data() + base, p, count * 8);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t v = 0;
        for (int b = 0; b < 8; ++b) v |= std::uint64_t{p[8 * i + b]} << (8 * b);
        out.push_back(std::bit_cast<double>(v));
      }
    }
  }

  std::size_t remaining() const { return bytes_.size() - at_; }

 private:
  const std::uint8_t* take(std::size_t n, const char* what) {
    MRWSN_REQUIRE(remaining() >= n,
                  std::string("scenario blob truncated reading ") + what);
    const std::uint8_t* p = bytes_.data() + at_;
    at_ += n;
    return p;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

/// Item counts are validated against the bytes actually present before any
/// allocation, so a malicious header cannot request a huge reserve.
std::size_t checked_count(std::uint64_t count, std::size_t min_item_bytes,
                          const Cursor& cursor, const char* what) {
  MRWSN_REQUIRE(count <= cursor.remaining() / min_item_bytes,
                std::string("scenario blob ") + what +
                    " count exceeds the bytes present");
  return static_cast<std::size_t>(count);
}

}  // namespace

std::vector<std::uint8_t> write_scenario_blob(const ScenarioFile& scenario) {
  std::vector<std::uint8_t> out;
  std::size_t flow_nodes = 0;
  for (const auto& flow : scenario.flows) flow_nodes += flow.nodes.size();
  out.reserve(44 + 16 * scenario.positions.size() + 16 * scenario.flows.size() +
              8 * flow_nodes + 24 * scenario.requests.size());
  put_u32(out, kScenarioBlobMagic);
  put_u32(out, kScenarioBlobVersion);
  put_u64(out, scenario.positions.size());
  put_u64(out, scenario.flows.size());
  put_u64(out, scenario.requests.size());
  put_f64(out, scenario.shadowing_sigma_db);
  put_u64(out, scenario.shadowing_seed);
  for (const geom::Point& p : scenario.positions) {
    put_f64(out, p.x);
    put_f64(out, p.y);
  }
  for (const auto& flow : scenario.flows) {
    put_f64(out, flow.demand_mbps);
    put_u64(out, flow.nodes.size());
    for (const net::NodeId node : flow.nodes) put_u64(out, node);
  }
  for (const auto& request : scenario.requests) {
    put_u64(out, request.src);
    put_u64(out, request.dst);
    put_f64(out, request.demand_mbps);
  }
  return out;
}

bool is_scenario_blob(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return false;
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) magic |= std::uint32_t{bytes[i]} << (8 * i);
  return magic == kScenarioBlobMagic;
}

ScenarioFile read_scenario_blob(std::span<const std::uint8_t> bytes) {
  Cursor cursor(bytes);
  MRWSN_REQUIRE(cursor.u32("magic") == kScenarioBlobMagic,
                "not a scenario blob (bad magic)");
  const std::uint32_t version = cursor.u32("version");
  MRWSN_REQUIRE(version == kScenarioBlobVersion,
                "unsupported scenario blob version " + std::to_string(version));
  const std::uint64_t node_count = cursor.u64("node count");
  const std::uint64_t flow_count = cursor.u64("flow count");
  const std::uint64_t request_count = cursor.u64("request count");

  ScenarioFile scenario;
  scenario.shadowing_sigma_db = cursor.f64("shadowing sigma");
  scenario.shadowing_seed = cursor.u64("shadowing seed");

  const std::size_t nodes = checked_count(node_count, 16, cursor, "node");
  {
    // The wire run of {x, y} pairs decodes with one bulk copy on
    // little-endian hosts (f64_run's fast path) and one byte-assembly
    // pass elsewhere; either way it is a single pass over the bytes.
    std::vector<double> raw;
    raw.reserve(nodes * 2);
    cursor.f64_run(nodes * 2, raw, "node positions");
    scenario.positions.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i)
      scenario.positions.push_back({raw[2 * i], raw[2 * i + 1]});
  }

  scenario.flows.reserve(checked_count(flow_count, 16, cursor, "flow"));
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    ScenarioFile::FlowSpec flow;
    flow.demand_mbps = cursor.f64("flow demand");
    const std::size_t hops =
        checked_count(cursor.u64("flow hop count"), 8, cursor, "flow node");
    flow.nodes.reserve(hops);
    for (std::size_t k = 0; k < hops; ++k)
      flow.nodes.push_back(cursor.u64("flow node"));
    scenario.flows.push_back(std::move(flow));
  }

  scenario.requests.reserve(checked_count(request_count, 24, cursor, "request"));
  for (std::uint64_t i = 0; i < request_count; ++i) {
    ScenarioFile::Request request;
    request.src = cursor.u64("request src");
    request.dst = cursor.u64("request dst");
    request.demand_mbps = cursor.f64("request demand");
    scenario.requests.push_back(request);
  }

  MRWSN_REQUIRE(cursor.remaining() == 0,
                "scenario blob has trailing bytes past the declared payload");
  MRWSN_REQUIRE(!scenario.positions.empty(), "scenario blob declares no nodes");
  check_scenario_values(scenario);
  return scenario;
}

void save_scenario_blob(const ScenarioFile& scenario, const std::string& path) {
  const std::vector<std::uint8_t> bytes = write_scenario_blob(scenario);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  MRWSN_REQUIRE(file.good(), "cannot create scenario blob file: " + path);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  MRWSN_REQUIRE(file.good(), "short write to scenario blob file: " + path);
}

std::uint64_t scenario_hash(const ScenarioFile& scenario) {
  // FNV-1a 64 over the canonical blob serialization.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : write_scenario_blob(scenario)) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace mrwsn::io
