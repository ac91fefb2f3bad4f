#pragma once

// Token helpers shared by the io text loaders (scenario and mobility
// documents). Internal to src/io: nothing outside the loaders includes it.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mrwsn::io::detail {

/// Split a line on whitespace.
inline std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

/// The whole token as a double; throws PreconditionError naming `what`.
inline double parse_double(const std::string& token, const char* what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    MRWSN_REQUIRE(used == token.size(), std::string("trailing junk in ") + what);
    return value;
  } catch (const std::logic_error&) {
    throw PreconditionError(std::string("cannot parse ") + what + ": '" + token +
                            "'");
  }
}

/// The whole token as an unsigned id or count; throws PreconditionError
/// naming `what`, also for a negative token.
inline std::uint64_t parse_u64(const std::string& token, const char* what) {
  // std::stoull accepts "-1" by wrapping it to 2^64 - 1; ids are never
  // negative.
  if (token.find('-') != std::string::npos)
    throw PreconditionError(std::string(what) + " cannot be negative: '" +
                            token + "'");
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(token, &used);
    MRWSN_REQUIRE(used == token.size(), std::string("trailing junk in ") + what);
    return static_cast<std::uint64_t>(value);
  } catch (const std::logic_error&) {
    throw PreconditionError(std::string("cannot parse ") + what + ": '" + token +
                            "'");
  }
}

}  // namespace mrwsn::io::detail
