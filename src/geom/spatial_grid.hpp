#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/point.hpp"

namespace mrwsn::geom {

/// Uniform-cell spatial hash over 2-D points, the localization structure of
/// the dynamic-topology machinery (core::TopologyDelta): a node move or
/// join must discover which other nodes are close enough to gain or lose a
/// link, and the grid answers that with a handful of cell probes instead of
/// a full O(n) position scan.
///
/// Cells are `cell_size` metres square. A radius-r query inspects the
/// ceil(r / cell_size)-ring of cells around the centre (every occupied cell
/// instead, when the ring spans more cells than the grid holds) and filters
/// by exact squared distance, so results are independent of the cell size
/// chosen; `cell_size` only tunes how many candidates each probe touches.
/// Ids are dense indices chosen by the caller (node ids); the grid tracks
/// each id's current position so movement is a two-cell update.
///
/// Deterministic: query results are returned sorted ascending by id.
class SpatialGrid {
 public:
  /// `cell_size` must be positive; pick the dominant query radius (the
  /// maximum link-discovery range) so radius queries touch ~9 cells.
  explicit SpatialGrid(double cell_size);

  /// Rebuild from scratch: id i sits at points[i].
  void build(const std::vector<Point>& points);

  /// Track a new id (id must not be present).
  void insert(std::size_t id, Point position);

  /// Stop tracking `id` (must be present).
  void remove(std::size_t id);

  /// Update `id`'s position (must be present). Cheap when the move stays
  /// within one cell.
  void move(std::size_t id, Point position);

  bool contains(std::size_t id) const;
  /// True when `p`'s cell indices fit the grid's 32-bit-per-axis cell key;
  /// false for non-finite coordinates. build(), insert() and move() do not
  /// check: callers pass only positions that pass this.
  bool indexes(Point p) const;
  std::size_t size() const { return tracked_; }

  /// Every tracked id within `radius` metres of `centre` (inclusive),
  /// ascending. `out` is cleared first. Ids the caller removed never
  /// appear; the queried centre need not be a tracked point.
  void neighbors_within(Point centre, double radius,
                        std::vector<std::size_t>* out) const;

 private:
  std::int64_t cell_of(double coord) const;
  std::uint64_t key_of(Point p) const;

  double cell_size_;
  std::size_t tracked_ = 0;
  // id -> current position; parallel `present_` flags (ids are dense).
  std::vector<Point> position_;
  std::vector<char> present_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> cells_;
};

}  // namespace mrwsn::geom
