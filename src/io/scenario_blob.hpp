#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "io/scenario.hpp"

namespace mrwsn::io {

/// Versioned binary scenario container ("blob"): the on-disk format the
/// admission service loads instead of the line-oriented text format, so a
/// scenario open costs one read + one pass of fixed-width little-endian
/// decodes instead of a tokenizing parse. Layout (all integers and doubles
/// little-endian, no padding):
///
///   u32  magic    0x4257524D ("MRWB")
///   u32  version  1
///   u64  node_count
///   u64  flow_count
///   u64  request_count
///   f64  shadowing_sigma_db
///   u64  shadowing_seed
///   node_count x { f64 x, f64 y }
///   flow_count x { f64 demand_mbps, u64 hop_count, hop_count x u64 node }
///   request_count x { u64 src, u64 dst, f64 demand_mbps }
///
/// The layout round-trips ScenarioFile exactly (doubles are stored
/// bit-for-bit), so text -> blob -> ScenarioFile equals text ->
/// ScenarioFile. On little-endian hosts the reader decodes the position
/// array with one bulk copy (the wire layout IS the in-memory layout of
/// geom::Point); on big-endian hosts it falls back to per-field assembly
/// from bytes, which is endianness-safe by construction.
constexpr std::uint32_t kScenarioBlobMagic = 0x4257524Du;  // "MRWB"
constexpr std::uint32_t kScenarioBlobVersion = 1;

/// Serialize to the binary layout above.
std::vector<std::uint8_t> write_scenario_blob(const ScenarioFile& scenario);

/// Decode a blob; throws PreconditionError on bad magic, unsupported
/// version, truncation, or trailing bytes.
ScenarioFile read_scenario_blob(std::span<const std::uint8_t> bytes);

/// True when `bytes` starts with the blob magic (sniffing, any length).
bool is_scenario_blob(std::span<const std::uint8_t> bytes);

/// Write a blob file; throws PreconditionError when the file cannot be
/// created.
void save_scenario_blob(const ScenarioFile& scenario, const std::string& path);

/// Stable 64-bit scenario identity: FNV-1a over the canonical blob bytes.
/// Two scenarios hash equal iff their ScenarioFile contents are
/// bit-identical; `mrwsn scenario` prints it.
std::uint64_t scenario_hash(const ScenarioFile& scenario);

}  // namespace mrwsn::io
