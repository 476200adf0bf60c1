/**
 * @file
 * Simulator self-benchmark: host throughput of the per-access pipeline.
 *
 * A simulator is only useful at the scale its own host speed allows
 * (ZSim's core argument), so this driver measures the simulator, not
 * the modeled machine. For every robot it times the run (best of
 * reps) and reports absolute host throughput in millions of simulated
 * demand accesses per second, plus a per-layer host-time breakdown
 * (translate / cache / prefetch / fill / other) from a profiled run,
 * which must be observationally identical to the plain one.
 *
 * It also measures the capture/replay engine: each robot is captured
 * once, then the replay of its op stream is timed against the direct
 * run. The ratio shows how much host time is robot code rather than
 * timing model (close to 1x: replay still runs the whole timing
 * model, which is why single-core sweeps run direct), and the
 * replayed result must be observationally identical to the direct run
 * as well.
 *
 * Runs are strictly serial (this bench measures host time; concurrent
 * runs would contend for the same cores). Knobs: TARTAN_SELFBENCH_REPS
 * timing repetitions per timed cell (best-of, default 3) and
 * TARTAN_SELFBENCH_SCALE workload scale (default 1.0).
 *
 * Exits non-zero if a profiled or replayed run diverges from the
 * direct run, making the observational-equivalence guarantee
 * CI-enforceable. Absolute throughput is host-speed-dependent and is
 * tracked, not gated; perfbench's end-to-end no-regression check is
 * the host-time gate.
 */

#include <cinttypes>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/capture.hh"
#include "sim/env.hh"
#include "sim/hostprof.hh"
#include "workloads/replay.hh"

using namespace tartan::bench;
using namespace tartan::workloads;
using tartan::sim::HostProfiler;
using tartan::sim::RunEnv;

namespace {

/** One timed cell: best-of-reps host seconds plus the run's result. */
struct TimedRun {
    RunResult result;
    double bestSeconds = 0.0;
};

/** One timed repetition, folded into the running best. */
void
timeRobotOnce(const RobotEntry &robot, const MachineSpec &spec,
              const WorkloadOptions &opt, unsigned rep, TimedRun *timed)
{
    const std::uint64_t t0 = HostProfiler::now();
    RunResult res = robot.run(spec, opt);
    const double sec = double(HostProfiler::now() - t0) * 1e-9;
    if (rep == 0 || sec < timed->bestSeconds)
        timed->bestSeconds = sec;
    timed->result = std::move(res);
}

/**
 * Compare every simulated observable of two runs. Host-time fields do
 * not exist in RunResult, so field-for-field equality is exactly the
 * observational-equivalence contract of the profiler and the replay.
 */
std::string
diffResults(const RunResult &a, const RunResult &b)
{
    std::string diff;
    const auto check = [&](const char *field, double va, double vb) {
        if (va != vb) {
            diff += "  ";
            diff += field;
            diff += ": " + std::to_string(va) + " vs " +
                    std::to_string(vb) + "\n";
        }
    };
    check("wallCycles", double(a.wallCycles), double(b.wallCycles));
    check("workCycles", double(a.workCycles), double(b.workCycles));
    check("instructions", double(a.instructions), double(b.instructions));
    check("l1Accesses", double(a.l1Accesses), double(b.l1Accesses));
    check("l1Misses", double(a.l1Misses), double(b.l1Misses));
    check("l2Accesses", double(a.l2Accesses), double(b.l2Accesses));
    check("l2Misses", double(a.l2Misses), double(b.l2Misses));
    check("l3Traffic", double(a.l3Traffic), double(b.l3Traffic));
    check("pfIssued", double(a.pfIssued), double(b.pfIssued));
    check("pfHitsTimely", double(a.pfHitsTimely), double(b.pfHitsTimely));
    check("pfHitsLate", double(a.pfHitsLate), double(b.pfHitsLate));
    check("udmFetchedBytes", double(a.udmFetchedBytes),
          double(b.udmFetchedBytes));
    check("udmUsedBytes", double(a.udmUsedBytes), double(b.udmUsedBytes));
    check("npuInvocations", double(a.npuInvocations),
          double(b.npuInvocations));
    check("npuCommCycles", double(a.npuCommCycles),
          double(b.npuCommCycles));
    if (a.kernels.size() != b.kernels.size()) {
        diff += "  kernel count: " + std::to_string(a.kernels.size()) +
                " vs " + std::to_string(b.kernels.size()) + "\n";
    } else {
        for (std::size_t i = 0; i < a.kernels.size(); ++i) {
            const auto &ka = a.kernels[i];
            const auto &kb = b.kernels[i];
            if (ka.name != kb.name || ka.cycles != kb.cycles ||
                ka.memStallCycles != kb.memStallCycles ||
                ka.instructions != kb.instructions) {
                diff += "  kernel " + ka.name + "/" + kb.name +
                        " counters differ\n";
            }
            // The CPI decomposition is an observable too: every run
            // must charge identical categories.
            if (!(ka.cpi == kb.cpi))
                diff += "  kernel " + ka.name + " CPI stack differs\n";
        }
    }
    if (a.metrics != b.metrics)
        diff += "  quality-metrics map differs\n";
    return diff;
}

} // namespace

int
main()
{
    const RunEnv &env = RunEnv::get();
    const unsigned reps = env.selfbenchReps;
    const double scale = env.selfbenchScale;

    BenchReporter rep("selfbench",
                      "simulator host throughput in M simulated accesses "
                      "per second; profiled and replayed runs "
                      "observationally identical to direct runs");
    rep.config("machine", "tartan");
    rep.config("tier", "optimized");
    rep.config("reps", double(reps));
    rep.config("scale", scale);

    const MachineSpec spec = MachineSpec::tartan();
    const WorkloadOptions opt = options(SoftwareTier::Optimized, scale);

    std::printf("%-10s %12s %6s %9s | %s\n", "robot", "accesses", "miss",
                "M acc/s", "host-time breakdown (profiled run)");

    std::vector<double> throughput, replay_ratios;
    bool all_equivalent = true;
    for (const auto &robot : robotSuite()) {
        TimedRun direct;
        for (unsigned r = 0; r < reps; ++r)
            timeRobotOnce(robot, spec, opt, r, &direct);

        // One profiled run for the per-layer breakdown. The profiler
        // times the production walk, so the shares describe where the
        // simulator spends its host time.
        HostProfiler prof;
        WorkloadOptions prof_opt = opt;
        prof_opt.hostProf = &prof;
        const std::uint64_t p0 = HostProfiler::now();
        RunResult prof_res = robot.run(spec, prof_opt);
        const std::uint64_t prof_wall = HostProfiler::now() - p0;
        const std::string prof_diff = diffResults(direct.result, prof_res);
        if (!prof_diff.empty()) {
            all_equivalent = false;
            std::fprintf(stderr,
                         "selfbench: %s profiled run diverges:\n%s",
                         robot.name, prof_diff.c_str());
        }
        // Close the per-layer breakdown: 'other' becomes the explicit
        // remainder and the five buckets sum to the wall exactly.
        prof.finalizeWall(prof_wall);

        // Capture once, then time the replay of the op stream.
        const std::uint64_t c0 = HostProfiler::now();
        const tartan::sim::CaptureTrace trace =
            captureRobot(robot.run, spec, opt);
        const double capture_sec =
            double(HostProfiler::now() - c0) * 1e-9;
        TimedRun replay;
        for (unsigned r = 0; r < reps; ++r) {
            const std::uint64_t r0 = HostProfiler::now();
            RunResult res = replayTrace(trace, spec, opt);
            const double sec = double(HostProfiler::now() - r0) * 1e-9;
            if (r == 0 || sec < replay.bestSeconds)
                replay.bestSeconds = sec;
            replay.result = std::move(res);
        }
        const std::string replay_diff =
            diffResults(direct.result, replay.result);
        if (!replay_diff.empty()) {
            all_equivalent = false;
            std::fprintf(stderr,
                         "selfbench: %s replay diverges from direct "
                         "run:\n%s",
                         robot.name, replay_diff.c_str());
        }
        const double replay_ratio =
            speedup(direct.bestSeconds, replay.bestSeconds);
        replay_ratios.push_back(replay_ratio);

        const double accesses = double(direct.result.l1Accesses);
        const double miss_pct =
            accesses > 0
                ? 100.0 * double(direct.result.l1Misses) / accesses
                : 0.0;
        const double macc = direct.bestSeconds > 0
                                ? accesses / direct.bestSeconds * 1e-6
                                : 0.0;
        throughput.push_back(macc);

        const double wall = double(prof.wallNs);
        const auto pct = [&](std::uint64_t ns) {
            return wall > 0 ? 100.0 * double(ns) / wall : 0.0;
        };
        std::printf("%-10s %12.0f %5.1f%% %9.2f | "
                    "xlat %4.1f%% cache %4.1f%% pf %4.1f%% fill %4.1f%% "
                    "other %4.1f%%\n",
                    robot.name, accesses, miss_pct, macc,
                    pct(prof.translateNs), pct(prof.cacheNs),
                    pct(prof.prefetchNs), pct(prof.fillNs),
                    pct(prof.otherNs));

        const std::string row = robot.name;
        rep.kernelMetric(row, "accesses", accesses);
        rep.kernelMetric(row, "maccPerSec", macc);
        rep.kernelMetric(row, "translateShare",
                         pct(prof.translateNs) / 100.0);
        rep.kernelMetric(row, "cacheShare", pct(prof.cacheNs) / 100.0);
        rep.kernelMetric(row, "prefetchShare",
                         pct(prof.prefetchNs) / 100.0);
        rep.kernelMetric(row, "fillShare", pct(prof.fillNs) / 100.0);
        rep.kernelMetric(row, "otherShare", pct(prof.otherNs) / 100.0);
        rep.kernelMetric(row, "profiledEquivalent",
                         prof_diff.empty() ? 1.0 : 0.0);
        rep.kernelMetric(row, "captureSeconds", capture_sec);
        rep.kernelMetric(row, "directSeconds", direct.bestSeconds);
        rep.kernelMetric(row, "replaySeconds", replay.bestSeconds);
        rep.kernelMetric(row, "replaySpeedup", replay_ratio);
        rep.kernelMetric(row, "replayEquivalent",
                         replay_diff.empty() ? 1.0 : 0.0);
        reportCpi(rep, row, direct.result);
        std::printf("%-10s capture %.3fs direct %.3fs replay %.3fs "
                    "(%.2fx per replayed sweep point)\n",
                    robot.name, capture_sec, direct.bestSeconds,
                    replay.bestSeconds, replay_ratio);
    }

    const double gm_macc = geomean(throughput);
    const double gm_replay = geomean(replay_ratios);
    rep.metric("gmeanMaccPerSec", gm_macc);
    rep.metric("gmeanReplaySpeedup", gm_replay);
    rep.metric("allEquivalent", all_equivalent ? 1.0 : 0.0);
    rep.note("profiled and replayed runs identical to direct runs for "
             "all robots; absolute throughput tracked across PRs");

    std::printf("\ngeomean: %.2f M acc/s, replay vs direct %.2fx\n",
                gm_macc, gm_replay);
    if (!all_equivalent) {
        std::fprintf(stderr, "selfbench: OBSERVATIONAL DIVERGENCE\n");
        return 1;
    }
    return 0;
}
