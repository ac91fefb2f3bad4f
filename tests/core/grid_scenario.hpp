#pragma once

// The 5x5 grid fixture shared by the column-generation and joint-bandwidth
// tests.

#include <gtest/gtest.h>

#include <vector>

#include "core/available_bandwidth.hpp"
#include "geom/topology.hpp"
#include "net/network.hpp"

namespace mrwsn::core {

struct GridScenario {
  net::Network net;
  std::vector<net::LinkId> snake;
  std::vector<LinkFlow> background;
};

/// A 5x5 grid (70 m spacing) with a 24-link serpentine "new path" through
/// every node and background flows on column-2 vertical links the snake
/// does not use: a 28-link universe with two-dimensional interference.
inline GridScenario make_grid_scenario() {
  constexpr std::size_t kRows = 5, kCols = 5;
  net::Network net(geom::grid(kRows, kCols, 70.0),
                   phy::PhyModel::paper_default());
  const auto node = [](std::size_t r, std::size_t c) { return r * kCols + c; };
  std::vector<net::LinkId> snake;
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c + 1 < kCols; ++c) {
      const std::size_t lo = (r % 2 == 0) ? c : kCols - 2 - c;
      const auto id = net.find_link(node(r, lo), node(r, lo + 1));
      EXPECT_TRUE(id.has_value());
      snake.push_back(*id);
    }
    if (r + 1 < kRows) {
      const std::size_t c = (r % 2 == 0) ? kCols - 1 : 0;
      const auto id = net.find_link(node(r, c), node(r + 1, c));
      EXPECT_TRUE(id.has_value());
      snake.push_back(*id);
    }
  }
  std::vector<LinkFlow> background;
  std::vector<net::LinkId> upper, lower;
  for (std::size_t r = 0; r + 1 < kRows; ++r) {
    const auto id = net.find_link(node(r, 2), node(r + 1, 2));
    EXPECT_TRUE(id.has_value());
    (r < 2 ? upper : lower).push_back(*id);
  }
  background.push_back({upper, 1.0});
  background.push_back({lower, 1.0});
  return {std::move(net), std::move(snake), std::move(background)};
}

}  // namespace mrwsn::core
