#include "geom/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <vector>

namespace mrwsn::geom {
namespace {

std::vector<std::size_t> query(const SpatialGrid& grid, Point centre,
                               double radius) {
  std::vector<std::size_t> out;
  grid.neighbors_within(centre, radius, &out);
  return out;
}

SpatialGrid three_points() {
  SpatialGrid grid(10.0);
  grid.build({{0.0, 0.0}, {25.0, 0.0}, {-300.0, 400.0}});
  return grid;
}

TEST(SpatialGrid, HugeRadiusScansTheOccupiedCells) {
  // Windows far wider than 2^32 cells per axis: every tracked id within
  // range, none lost to an integer cast.
  const SpatialGrid grid = three_points();
  const std::vector<std::size_t> all{0, 1, 2};
  for (const double radius :
       {1e12, 1e75, 1e150, std::numeric_limits<double>::infinity()})
    EXPECT_EQ(query(grid, {5.0, -5.0}, radius), all) << radius;
}

TEST(SpatialGrid, CentreBeyondTheGridFindsOnlyWhatIsInRange) {
  const SpatialGrid grid = three_points();
  EXPECT_TRUE(query(grid, {1e300, 0.0}, 100.0).empty());
  EXPECT_TRUE(query(grid, {-1e300, 1e300}, 0.0).empty());
  EXPECT_EQ(query(grid, {1e300, 0.0}, 2e300),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SpatialGrid, RemovedIdsNeverAppear) {
  SpatialGrid grid = three_points();
  grid.remove(1);
  grid.move(2, {5.0, 5.0});
  EXPECT_EQ(query(grid, {0.0, 0.0}, 30.0), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(query(grid, {0.0, 0.0}, 1e200), (std::vector<std::size_t>{0, 2}));
}

}  // namespace
}  // namespace mrwsn::geom
