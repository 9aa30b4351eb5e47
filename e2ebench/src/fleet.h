// The benchmark's one input generator: a seeded fleet of 1 Hz car trips
// from sim/ (road network, trip generator, GPS noise), so compression
// ratios and query selectivities look like the paper's data.
//
// Each object's feed is endless: its trip is driven forth, back, forth...
// (the reversed laps reuse the noisy fixes, so positions stay continuous
// and timestamps keep rising at the trip's own spacing). Fix j of object i
// is a pure function of (seed, i, j), which lets a run stop anywhere and
// still rebuild exactly what each object was fed.

#ifndef E2EBENCH_FLEET_H_
#define E2EBENCH_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stcomp/core/trajectory.h"
#include "stcomp/geom/geometry.h"
#include "stcomp/sim/random.h"

namespace e2ebench {

struct FleetConfig {
  uint64_t seed = 1;
  size_t num_objects = 64;
};

class Fleet {
 public:
  static Fleet Generate(const FleetConfig& config);

  size_t size() const { return trips_.size(); }
  const std::string& id(size_t object) const { return ids_[object]; }
  // Lap 0 of the object's feed: one trip, start to end.
  const stcomp::Trajectory& trip(size_t object) const {
    return trips_[object];
  }

  // Fix `j` of object `object`'s endless feed.
  stcomp::TimedPoint FixAt(size_t object, uint64_t j) const;
  // The first `count` fixes of the object's feed.
  stcomp::Trajectory Feed(size_t object, uint64_t count) const;

  // Bounding box and time span of lap 0 over the whole fleet.
  const stcomp::BoundingBox& extent() const { return extent_; }
  double t_min() const { return t_min_; }
  double t_max() const { return t_max_; }
  size_t lap0_fixes() const { return lap0_fixes_; }

 private:
  std::vector<std::string> ids_;
  std::vector<stcomp::Trajectory> trips_;
  stcomp::BoundingBox extent_;
  double t_min_ = 0.0;
  double t_max_ = 0.0;
  size_t lap0_fixes_ = 0;
};

// n stratified uniforms on [0, 1) in shuffled order: value i lies in its
// own stratum [k/n, (k+1)/n). Using one draw per dimension (a Latin
// hypercube) keeps a fleet's or a query list's mix close to the intended
// one for every seed, which is what keeps runs on different seeds
// comparable.
std::vector<double> Stratified(size_t n, stcomp::Rng* rng);

// The interleaved fleet order the ingest workloads push in: global fix g
// belongs to object g % n and is that object's fix g / n.
inline size_t ObjectOf(uint64_t g, size_t n) { return g % n; }
inline uint64_t FixIndexOf(uint64_t g, size_t n) { return g / n; }
// How many of the first `total` interleaved fixes went to `object`.
inline uint64_t FixesOf(uint64_t total, size_t object, size_t n) {
  return total / n + (object < total % n ? 1 : 0);
}

}  // namespace e2ebench

#endif  // E2EBENCH_FLEET_H_
