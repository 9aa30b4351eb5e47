#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/sim/gps_noise.h"
#include "stcomp/sim/random.h"
#include "stcomp/sim/road_network.h"
#include "stcomp/sim/trip_generator.h"

namespace e2ebench {

namespace {

// Trips start at whole seconds drawn from [0, kStartSpreadS).
constexpr double kStartSpreadS = 3600.0;

}  // namespace

std::vector<double> Stratified(size_t n, stcomp::Rng* rng) {
  std::vector<double> values(n);
  for (size_t k = 0; k < n; ++k) {
    values[k] = (static_cast<double>(k) + rng->NextDouble()) / n;
  }
  // Fisher-Yates with the portable generator.
  for (size_t k = n; k > 1; --k) {
    std::swap(values[k - 1], values[rng->NextBelow(k)]);
  }
  return values;
}

Fleet Fleet::Generate(const FleetConfig& config) {
  STCOMP_CHECK(config.num_objects > 0);
  // The paper dataset's network (sim/paper_dataset.cc): a 23 km city whose
  // speed limits put the average trip speed near the paper's Table 2.
  stcomp::RoadNetworkConfig network_config;
  network_config.grid_width = 36;
  network_config.grid_height = 36;
  network_config.spacing_m = 650.0;
  network_config.min_speed_mps = 7.5;
  network_config.max_speed_mps = 11.1;
  network_config.arterial_min_speed_mps = 13.3;
  network_config.arterial_max_speed_mps = 18.0;
  network_config.traffic_light_probability = 0.5;
  const stcomp::RoadNetwork network =
      stcomp::RoadNetwork::Generate(network_config, config.seed);

  Fleet fleet;
  stcomp::Rng rng(config.seed ^ 0x5bd1e9955bd1e995ULL);
  fleet.extent_ = {{std::numeric_limits<double>::max(),
                    std::numeric_limits<double>::max()},
                   {std::numeric_limits<double>::lowest(),
                    std::numeric_limits<double>::lowest()}};
  fleet.t_min_ = std::numeric_limits<double>::max();
  fleet.t_max_ = std::numeric_limits<double>::lowest();
  const size_t n = config.num_objects;
  const std::vector<double> start = Stratified(n, &rng);
  const std::vector<double> length = Stratified(n, &rng);
  const std::vector<double> speed = Stratified(n, &rng);
  const std::vector<double> stops = Stratified(n, &rng);
  for (size_t i = 0; i < n; ++i) {
    // Trip lengths and driving styles span the paper's urban errands to
    // long rural drives (Table 2: 20 km mean, 13 km deviation).
    stcomp::TripConfig trip;
    trip.sample_interval_s = 1.0;
    trip.start_time_s = std::floor(start[i] * kStartSpreadS);
    trip.target_length_m = 4500.0 + length[i] * (46000.0 - 4500.0);
    trip.speed_factor = 0.85 + speed[i] * (1.1 - 0.85);
    trip.stop_probability = 0.25 + stops[i] * (0.7 - 0.25);
    trip.max_stop_s = 90.0;
    stcomp::Trajectory trajectory;
    bool generated = false;
    for (int attempt = 0; attempt < 16 && !generated; ++attempt) {
      stcomp::Result<stcomp::Trajectory> result =
          stcomp::GenerateTrip(network, trip, -1, &rng);
      if (result.ok() && result->size() >= 10) {
        trajectory = std::move(result).value();
        generated = true;
      }
    }
    STCOMP_CHECK(generated);
    trajectory = stcomp::AddGpsNoise(trajectory, {}, &rng);
    for (const stcomp::TimedPoint& fix : trajectory.points()) {
      fleet.extent_.min.x = std::min(fleet.extent_.min.x, fix.position.x);
      fleet.extent_.min.y = std::min(fleet.extent_.min.y, fix.position.y);
      fleet.extent_.max.x = std::max(fleet.extent_.max.x, fix.position.x);
      fleet.extent_.max.y = std::max(fleet.extent_.max.y, fix.position.y);
    }
    fleet.t_min_ = std::min(fleet.t_min_, trajectory.front().t);
    fleet.t_max_ = std::max(fleet.t_max_, trajectory.back().t);
    fleet.lap0_fixes_ += trajectory.size();
    fleet.ids_.push_back(stcomp::StrFormat("veh-%03zu", i));
    fleet.trips_.push_back(std::move(trajectory));
  }
  return fleet;
}

stcomp::TimedPoint Fleet::FixAt(size_t object, uint64_t j) const {
  const std::vector<stcomp::TimedPoint>& points = trips_[object].points();
  const uint64_t m1 = points.size() - 1;  // Steps per lap.
  const double t0 = points.front().t;
  const double lap_s = points.back().t - t0;
  const uint64_t period = j / (2 * m1);
  const uint64_t r = j % (2 * m1);
  // Forth: fix r at its own offset. Back: the mirror fix, reached after the
  // whole forth lap plus the time from it to the trip's end.
  const size_t k = r <= m1 ? r : 2 * m1 - r;
  const double offset = r <= m1 ? points[k].t - t0
                                : lap_s + (points.back().t - points[k].t);
  return {t0 + static_cast<double>(period) * 2.0 * lap_s + offset,
          points[k].position};
}

stcomp::Trajectory Fleet::Feed(size_t object, uint64_t count) const {
  std::vector<stcomp::TimedPoint> points;
  points.reserve(count);
  for (uint64_t j = 0; j < count; ++j) {
    points.push_back(FixAt(object, j));
  }
  return stcomp::Trajectory::FromPoints(std::move(points)).value();
}

}  // namespace e2ebench
