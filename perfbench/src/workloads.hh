/**
 * @file
 * The benchmark's three workloads. Each one generates every input from
 * the run seed, calls the library's public entry points directly on
 * one thread, and checks every output.
 *
 *  - sweep_replay: per robot, capture once (Tartan machine, Optimized
 *    tier), save the .tcap, load it back, replay it under six
 *    timing-only configurations; then one four-robot replayFleet.
 *  - sweep_direct: the six robots x Legacy/Optimized/Approximate, run
 *    directly on the Tartan machine with ANL off.
 *  - nn_train: tab02's two trained evaluations (192/32/32/6 MSE pose
 *    regression; PCA(50) + 50/1024/512/1 BCE classification) on
 *    synthetic data.
 *
 * sweep_direct runs the robots at scale 1, as fig12_endtoend does, so
 * robot work, timing model and in-robot training keep their production
 * shares of the time; sweep_replay runs them at 0.5, as fig11_fcp does,
 * which keeps each of its layers' share of the time within 6 points of
 * its share at scale 1. FlyBot always flies the drivers' seed-42 city.
 *
 * Every cell builds a fresh Machine, so the modelled caches start
 * empty in every cell.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

/** What a workload is built from. */
struct Params {
    std::uint64_t seed = 1;
    /**
     * Robot-size factor of the sweeps (WorkloadOptions::scale): the
     * workload's productionScale(); the self-test uses a smaller one.
     */
    double scale = 1.0;
    /** Private directory for capture files (sweep_replay). */
    std::string workDir;
    /** Self-test fault: flip one replayed counter before checking. */
    bool flipReplayCounter = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Prepare everything an iteration needs that is not part of the
     * measured work: machine specs, datasets, a first construction of
     * each Machine. Idempotent; timed several times per run.
     */
    virtual void setup() = 0;

    /**
     * One full pass over the workload. With a tracer, every library
     * call is wrapped in a span and extra probe work derives the
     * per-layer numbers into Outcome::layer.
     */
    virtual Outcome iterate(Tracer *tracer) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Robot scale a run of workload @p name uses: 1.0 for sweep_direct, as
 * fig12_endtoend; 0.5 for sweep_replay, as fig11_fcp (at 1.0 one
 * iteration takes over 20 s, too long to repeat within a run).
 */
double productionScale(const std::string &name);

/** Build workload @p name (null for an unknown name). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Params &params);

/**
 * Every per-layer metric the traced run reports, with its unit, in
 * BENCHMARK.json order. A workload that does not run a layer reports 0.
 */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

std::unique_ptr<Workload> makeSweepReplay(const Params &params);
std::unique_ptr<Workload> makeSweepDirect(const Params &params);
std::unique_ptr<Workload> makeNnTrain(const Params &params);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
