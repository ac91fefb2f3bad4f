#include "geom/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace mrwsn::geom {

namespace {

// The cell indices a key can hold: 32 bits per axis.
constexpr double kMaxCell = std::numeric_limits<std::int32_t>::max();
constexpr double kMinCell = std::numeric_limits<std::int32_t>::min();

}  // namespace

SpatialGrid::SpatialGrid(double cell_size) : cell_size_(cell_size) {
  MRWSN_REQUIRE(cell_size > 0.0, "spatial grid cell size must be positive");
}

std::int64_t SpatialGrid::cell_of(double coord) const {
  return static_cast<std::int64_t>(std::floor(coord / cell_size_));
}

std::uint64_t SpatialGrid::key_of(Point p) const {
  // Pack the two signed cell indices into one 64-bit key. 2^32 cells per
  // axis at any practical cell size dwarfs every scenario extent.
  const auto cx = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(cell_of(p.x)));
  const auto cy = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(cell_of(p.y)));
  return (cx << 32) | cy;
}

void SpatialGrid::build(const std::vector<Point>& points) {
  cells_.clear();
  position_ = points;
  present_.assign(points.size(), 1);
  tracked_ = points.size();
  for (std::size_t id = 0; id < points.size(); ++id)
    cells_[key_of(points[id])].push_back(id);
}

void SpatialGrid::insert(std::size_t id, Point position) {
  MRWSN_REQUIRE(!contains(id), "spatial grid id already present");
  if (id >= position_.size()) {
    position_.resize(id + 1);
    present_.resize(id + 1, 0);
  }
  position_[id] = position;
  present_[id] = 1;
  ++tracked_;
  cells_[key_of(position)].push_back(id);
}

void SpatialGrid::remove(std::size_t id) {
  MRWSN_REQUIRE(contains(id), "spatial grid id not present");
  auto& bucket = cells_[key_of(position_[id])];
  bucket.erase(std::find(bucket.begin(), bucket.end(), id));
  present_[id] = 0;
  --tracked_;
}

void SpatialGrid::move(std::size_t id, Point position) {
  MRWSN_REQUIRE(contains(id), "spatial grid id not present");
  const std::uint64_t from = key_of(position_[id]);
  const std::uint64_t to = key_of(position);
  position_[id] = position;
  if (from == to) return;
  auto& bucket = cells_[from];
  bucket.erase(std::find(bucket.begin(), bucket.end(), id));
  cells_[to].push_back(id);
}

bool SpatialGrid::indexes(Point p) const {
  // NaN compares false, so it fails too.
  return std::abs(std::floor(p.x / cell_size_)) <= kMaxCell &&
         std::abs(std::floor(p.y / cell_size_)) <= kMaxCell;
}

bool SpatialGrid::contains(std::size_t id) const {
  return id < present_.size() && present_[id] != 0;
}

void SpatialGrid::neighbors_within(Point centre, double radius,
                                   std::vector<std::size_t>* out) const {
  out->clear();
  MRWSN_REQUIRE(radius >= 0.0, "query radius must be non-negative");
  const double r_sq = radius * radius;
  const auto collect = [&](const std::vector<std::size_t>& bucket) {
    for (const std::size_t id : bucket)
      if (distance_sq(position_[id], centre) <= r_sq) out->push_back(id);
  };
  // The window's cell span, in double so a huge radius (or centre) cannot
  // overflow an integer cast. Tracked points sit in cells that fit 32 bits
  // per axis (indexes()), so clamping the window to that range is exact.
  const double x_lo = std::max(std::floor((centre.x - radius) / cell_size_), kMinCell);
  const double x_hi = std::min(std::floor((centre.x + radius) / cell_size_), kMaxCell);
  const double y_lo = std::max(std::floor((centre.y - radius) / cell_size_), kMinCell);
  const double y_hi = std::min(std::floor((centre.y + radius) / cell_size_), kMaxCell);
  if (!(x_lo <= x_hi && y_lo <= y_hi)) return;  // nothing tracked out there
  if ((x_hi - x_lo + 1.0) * (y_hi - y_lo + 1.0) > double(cells_.size())) {
    // The window covers more cells than the grid holds: scan those instead.
    for (const auto& [key, bucket] : cells_) collect(bucket);
  } else {
    for (auto cx = std::int64_t(x_lo); cx <= std::int64_t(x_hi); ++cx) {
      for (auto cy = std::int64_t(y_lo); cy <= std::int64_t(y_hi); ++cy) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
        const auto it = cells_.find(key);
        if (it != cells_.end()) collect(it->second);
      }
    }
  }
  std::sort(out->begin(), out->end());
}

}  // namespace mrwsn::geom
