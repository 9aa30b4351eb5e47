// paper_sweep: the paper's Sec. 4 procedure on one thread. SweepThresholds
// runs over a 10-trip paper dataset (10 s sampling) at the 15 paper
// thresholds for TD-TR and OPW-TR, TD-SP and OPW-SP at each paper speed
// threshold, and the NDP and NOPW baselines: 150 cells per pass. Short
// windows dominate, which is where the vector kernels lose.
//
// A run sweeps kDatasets such datasets in turn, one per pass. A single
// dataset's cost per point depends on its trips, so runs on different
// seeds would differ by up to 15%; the mix of eight holds them closer.
//
// The traced run replays the same cells through the algorithm's run_view
// and error::Evaluate with a span around each, averaging exactly as the
// sweep does, so the replay is gated against the first pass too. The
// replay is a copy of SweepThresholds' cell loop (exp/sweep.cc), because
// the library offers no hook between run_view and Evaluate.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cpu_rotation.h"
#include "gates.h"
#include "stats.h"
#include "stcomp/algo/registry.h"
#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/error/evaluation.h"
#include "stcomp/exp/sweep.h"
#include "stcomp/sim/paper_dataset.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int kSetupRepeats = 9;
constexpr size_t kDatasets = 8;

using Clock = std::chrono::steady_clock;

struct Row {
  const stcomp::algo::AlgorithmInfo* algorithm = nullptr;
  stcomp::algo::AlgorithmParams base;
};

struct Dataset {
  std::vector<stcomp::Trajectory> trips;
  size_t points = 0;  // One cell processes them all.
};

struct SweepSetup {
  std::vector<Dataset> datasets;  // kDatasets, one per pass in turn.
  std::vector<Row> rows;
  std::vector<double> thresholds;
  size_t cells = 0;  // Per pass.
};

SweepSetup BuildSweep(uint64_t seed, SetupStages* stages) {
  SweepSetup setup;
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < kDatasets; ++k) {
    stcomp::PaperDatasetConfig config;
    config.seed = seed * kDatasets + k;
    Dataset dataset;
    dataset.trips = stcomp::GeneratePaperDataset(config);
    for (const stcomp::Trajectory& trip : dataset.trips) {
      dataset.points += trip.size();
    }
    setup.datasets.push_back(std::move(dataset));
  }
  stages->generate_s += SecondsSince(start);
  setup.thresholds = stcomp::PaperThresholds();
  auto add = [&setup](const char* name, double speed_threshold_mps) {
    Row row;
    row.algorithm = stcomp::algo::FindAlgorithm(name).value();
    if (speed_threshold_mps > 0.0) {
      row.base.speed_threshold_mps = speed_threshold_mps;
    }
    setup.rows.push_back(row);
  };
  add("td-tr", 0.0);
  add("opw-tr", 0.0);
  for (const double speed : stcomp::PaperSpeedThresholds()) {
    add("td-sp", speed);
    add("opw-sp", speed);
  }
  add("ndp", 0.0);
  add("nopw", 0.0);
  setup.cells = setup.rows.size() * setup.thresholds.size();
  return setup;
}

stcomp::Result<SweepPass> LibraryPass(const SweepSetup& setup,
                                      const Dataset& dataset) {
  SweepPass pass;
  for (const Row& row : setup.rows) {
    STCOMP_ASSIGN_OR_RETURN(
        std::vector<stcomp::SweepPoint> points,
        stcomp::SweepThresholds(dataset.trips, row.algorithm->name, row.base,
                                setup.thresholds));
    pass.push_back(std::move(points));
  }
  return pass;
}

struct LayerTotals {
  std::map<std::string, uint64_t> kept;  // Kept points per algorithm.
};

// The sweep's cell evaluation (exp/sweep.cc's EvaluateCell, one workspace
// per row as SweepThresholds keeps it) with a span around each layer call;
// a null tracer records nothing.
stcomp::Result<SweepPass> TracedPass(const SweepSetup& setup,
                                     const Dataset& dataset, Tracer* tracer,
                                     const std::vector<Tracer::NameId>& algo,
                                     Tracer::NameId evaluate,
                                     LayerTotals* totals) {
  SweepPass pass;
  for (size_t r = 0; r < setup.rows.size(); ++r) {
    const Row& row = setup.rows[r];
    stcomp::algo::Workspace workspace;
    stcomp::algo::IndexList kept;
    uint64_t kept_points = 0;
    std::vector<stcomp::SweepPoint> points;
    for (const double epsilon : setup.thresholds) {
      stcomp::algo::AlgorithmParams params = row.base;
      params.epsilon_m = epsilon;
      STCOMP_RETURN_IF_ERROR(params.Validate());
      stcomp::SweepPoint point;
      point.epsilon_m = params.epsilon_m;
      point.speed_threshold_mps = params.speed_threshold_mps;
      for (const stcomp::Trajectory& trajectory : dataset.trips) {
        {
          ScopedSpan span(tracer, algo[r]);
          row.algorithm->run_view(trajectory, params, workspace, kept);
        }
        kept_points += kept.size();
        const stcomp::Result<stcomp::Evaluation> evaluation = [&] {
          ScopedSpan span(tracer, evaluate);
          return stcomp::Evaluate(trajectory, kept);
        }();
        STCOMP_RETURN_IF_ERROR(evaluation.status());
        point.compression_percent += evaluation->compression_percent;
        point.sync_error_mean_m += evaluation->sync_error_mean_m;
        point.sync_error_max_m += evaluation->sync_error_max_m;
        point.perp_error_mean_m += evaluation->perp_error_mean_m;
        point.area_error_m += evaluation->area_error_m;
      }
      const double n = static_cast<double>(dataset.trips.size());
      point.compression_percent /= n;
      point.sync_error_mean_m /= n;
      point.sync_error_max_m /= n;
      point.perp_error_mean_m /= n;
      point.area_error_m /= n;
      points.push_back(point);
    }
    totals->kept[row.algorithm->name] += kept_points;
    pass.push_back(std::move(points));
  }
  return pass;
}

}  // namespace

Report RunPaperSweep(const RunOptions& options) {
  Report report;
  report.workload = "paper_sweep";
  std::vector<double> setup_s;
  SetupStages stages;
  SweepSetup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    setup = BuildSweep(options.seed, &stages);
    setup_s.push_back(SecondsSince(start));
    stages.total_s += setup_s.back();
  }

  // Untraced: library passes until the deadline, each gated against the
  // first pass over its dataset. The traced run takes just one per dataset.
  CpuRotation rotation;
  std::vector<SweepPass> first(kDatasets);
  size_t passes = 0;
  std::vector<double> pass_ms;
  const double untraced_s = options.trace ? 0.0 : options.seconds;
  Clock::time_point start = Clock::now();
  while (passes < kDatasets || SecondsSince(start) < untraced_s) {
    rotation.Tick();
    const size_t k = passes % kDatasets;
    const Clock::time_point pass_start = Clock::now();
    stcomp::Result<SweepPass> pass = LibraryPass(setup, setup.datasets[k]);
    pass_ms.push_back(SecondsSince(pass_start) * 1e3);
    ++passes;
    report.attempted += setup.cells;
    if (!pass.ok()) {
      report.failed += setup.cells;
      report.Fail("sweep: " + pass.status().ToString());
      return report;
    }
    if (first[k].empty()) {
      first[k] = std::move(pass).value();
    } else if (const size_t bad = CountSweepMismatches(*pass, first[k]);
               bad > 0) {
      report.failed += bad;
      report.Fail(stcomp::StrFormat("%zu cells differ from the first pass",
                                    bad));
    }
  }
  const double untraced_total_s = SecondsSince(start);

  if (!options.trace) {
    const stcomp::Result<double> peak_rss_mb = ReadPeakRssMb();
    STCOMP_CHECK_OK(peak_rss_mb.status());
    report.Add("setup_s", "s", Percentile(setup_s, 50));
    report.Add("peak_rss_mb", "MB", *peak_rss_mb);
    report.Add("throughput_per_s", "1/s",  // cells/s
               setup.cells * passes / untraced_total_s);
    const Latency latency = WindowedLatency(pass_ms);
    report.Add("latency_ms_p50", "ms", latency.p50);
    report.Add("latency_ms_p90", "ms", latency.tail.value);
    size_t points = 0;
    for (const Dataset& dataset : setup.datasets) {
      points += dataset.points;
    }
    report.notes.push_back(stcomp::StrFormat(
        "%zu passes of %zu cells, taking turns over %zu datasets of 10 trips "
        "(%zu points in all); latency_ms_p90 reports p%g of the passes",
        passes, setup.cells, kDatasets, points, latency.tail.percentile));
    return report;
  }

  Tracer tracer;
  std::vector<Tracer::NameId> algo_spans;
  for (const Row& row : setup.rows) {
    algo_spans.push_back(tracer.Intern("algo." + row.algorithm->name));
  }
  const Tracer::NameId evaluate_span = tracer.Intern("error.evaluate");
  // Three kinds of pass take turns, so slow spells of the machine hit them
  // alike: the library's, the replay with tracing off, and the replay with
  // tracing on. The trace overhead compares the two replays, the same code.
  enum Kind { kLibrary, kReplayOff, kReplayOn, kKinds };
  LayerTotals totals;
  LayerTotals untraced_totals;  // Discarded; only traced passes count.
  std::vector<double> kind_s[kKinds];
  double traced_points = 0.0;  // Dataset points over the traced passes.
  start = Clock::now();
  for (size_t turn = 0;
       kind_s[kReplayOn].empty() || SecondsSince(start) < options.seconds;
       ++turn) {
    rotation.Tick();
    const Kind kind = static_cast<Kind>(turn % kKinds);
    const size_t k = turn / kKinds % kDatasets;
    const Dataset& dataset = setup.datasets[k];
    Tracer::SetTraceId(turn / kKinds);
    const Clock::time_point pass_start = Clock::now();
    stcomp::Result<SweepPass> pass =
        kind == kLibrary
            ? LibraryPass(setup, dataset)
            : TracedPass(setup, dataset,
                         kind == kReplayOn ? &tracer : nullptr, algo_spans,
                         evaluate_span,
                         kind == kReplayOn ? &totals : &untraced_totals);
    kind_s[kind].push_back(SecondsSince(pass_start));
    traced_points += kind == kReplayOn ? dataset.points : 0;
    report.attempted += setup.cells;
    const size_t bad =
        pass.ok() ? CountSweepMismatches(*pass, first[k]) : setup.cells;
    if (bad > 0) {
      report.failed += bad;
      report.Fail(stcomp::StrFormat("%zu cells of a traced-run pass differ "
                                    "from the first pass",
                                    bad));
      return report;
    }
  }
  const size_t traced_passes = kind_s[kReplayOn].size();

  // Six algorithms: the speed rows of td-sp / opw-sp share one name.
  std::map<std::string, size_t> rows_per_algorithm;
  for (const Row& row : setup.rows) {
    ++rows_per_algorithm[row.algorithm->name];
  }
  // Shares of the traced replay passes' time.
  double replay_on_ns = 0.0;
  for (const double seconds : kind_s[kReplayOn]) {
    replay_on_ns += seconds * 1e9;
  }
  uint64_t layer_ns = 0;
  std::string per_point = "ns per point:";
  for (const auto& [name, rows] : rows_per_algorithm) {
    const Tracer::Totals run = tracer.TotalsFor("algo." + name);
    const double points = traced_points * setup.thresholds.size() * rows;
    report.Add("algo." + name + ".time_share", "ratio",
               run.total_ns / replay_on_ns);
    report.Add("algo." + name + ".kept_ratio", "ratio",
               Ratio{static_cast<double>(totals.kept[name]), points}.value());
    per_point += stcomp::StrFormat(" %s %.1f,", name.c_str(),
                                   run.total_ns / points);
    layer_ns += run.total_ns;
  }
  const Tracer::Totals evaluate = tracer.TotalsFor(evaluate_span);
  layer_ns += evaluate.total_ns;
  report.Add("error.evaluate_share", "ratio", evaluate.total_ns / replay_on_ns);
  report.notes.push_back(stcomp::StrFormat(
      "%s error.evaluate %.1f", per_point.c_str(),
      evaluate.total_ns / (traced_points * setup.cells)));
  stages.AddShares(&report);
  // What SweepThresholds spends outside the algorithm and the error
  // evaluation: the mean library pass against the traced layers' time per
  // pass. Means, because each kind's passes mix the datasets alike and a
  // median would pick one dataset's pass.
  double library_pass_s = 0.0;
  for (const double seconds : kind_s[kLibrary]) {
    library_pass_s += seconds / kind_s[kLibrary].size();
  }
  const Ratio other{library_pass_s - layer_ns / 1e9 / traced_passes,
                    library_pass_s};
  report.Add("exp.sweep_other_share", "ratio", other.value());
  // Median replay pass, traced over untraced.
  const double replay_off_s = Percentile(kind_s[kReplayOff], 50);
  const double replay_on_s = Percentile(kind_s[kReplayOn], 50);
  report.Add("obs.trace_overhead", "ratio", replay_on_s / replay_off_s - 1.0);
  report.notes.push_back(stcomp::StrFormat(
      "bases: %zu library passes (mean %.3f ms); replay %zu untraced "
      "(median %.3f ms) and %zu traced (median %.3f ms); algo+error %.3f ms "
      "per traced pass",
      kind_s[kLibrary].size(), library_pass_s * 1e3,
      kind_s[kReplayOff].size(),
      replay_off_s * 1e3, traced_passes, replay_on_s * 1e3,
      layer_ns / 1e6 / traced_passes));
  const std::string trace_path = options.work_dir + "/trace-paper_sweep.json";
  if (const stcomp::Status status = tracer.WriteJson(trace_path);
      !status.ok()) {
    report.notes.push_back("span file not written: " + status.ToString());
  } else {
    report.notes.push_back("spans written to " + trace_path);
  }
  return report;
}

}  // namespace e2ebench
