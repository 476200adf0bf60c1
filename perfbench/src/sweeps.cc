/**
 * @file
 * The two simulator sweeps: sweep_replay (capture once, replay many,
 * then a fleet) and sweep_direct (the fig12 robot x tier grid).
 */

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "checks.hh"
#include "workloads.hh"
#include "workloads/cellcodec.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

namespace perfbench {

namespace {

using tartan::sim::CaptureSession;
using tartan::sim::CaptureTrace;
using tartan::sim::PrefetcherKind;
using tartan::workloads::FleetUncoreSnapshot;
using tartan::workloads::MachineSpec;
using tartan::workloads::RunResult;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;
using tartan::workloads::robotSuite;

/** Robots replayed together by the fleet (suite order, as fleet_contention). */
constexpr std::size_t kFleetSize = 4;

/**
 * FlyBot's workload seed in every run: the bench drivers' default. Its
 * planner's search cost depends on the city it generates from its seed
 * (heavy-tailed: 0.09 s to over 4 s at scale 1, and a city with no path
 * to the goal costs ~100x more), so a drawn city would make both
 * sweeps' time a property of the seed rather than of the code.
 */
constexpr std::uint64_t kFlyBotSeed = 42;

/** The workload seed of robot slot @p slot, derived from the run seed. */
std::uint64_t
robotSeed(std::uint64_t seed, std::size_t slot, std::string_view robot)
{
    if (robot == "FlyBot")
        return kFlyBotSeed;
    std::uint64_t h = tartan::sim::fnv1a64("perfbench.robot");
    h = tartan::sim::fnv1a64Mix(h, seed);
    h = tartan::sim::fnv1a64Mix(h, slot);
    return h % 1000000007ull;
}

WorkloadOptions
robotOptions(SoftwareTier tier, double scale, std::uint64_t seed)
{
    WorkloadOptions opt;
    opt.tier = tier;
    opt.scale = scale;
    opt.seed = seed;
    return opt;
}

const char *
tierName(SoftwareTier tier)
{
    switch (tier) {
      case SoftwareTier::Legacy:
        return "legacy";
      case SoftwareTier::Optimized:
        return "optimized";
      case SoftwareTier::Approximate:
        return "approximate";
    }
    return "?";
}

/** Capture run of one robot: the result plus its finished trace. */
RunResult
captureRun(const tartan::workloads::RobotEntry &robot,
           const MachineSpec &spec, const WorkloadOptions &opt,
           CaptureTrace &trace)
{
    const std::uint64_t hash = tartan::workloads::cellConfigHash(
        robot.name, spec, opt, "capture");
    CaptureSession session(hash, opt.seed);
    WorkloadOptions copt = opt;
    copt.capture = &session;
    RunResult res = robot.run(spec, copt);
    session.setRobot(res.robot);
    for (const auto &[name, value] : res.metrics)
        session.addMetric(name, value);
    trace = session.take();
    return res;
}

bool
sameTrace(const CaptureTrace &a, const CaptureTrace &b)
{
    return a.configHash == b.configHash && a.seed == b.seed &&
           a.records.size() == b.records.size() &&
           a.aux.size() == b.aux.size() &&
           std::memcmp(a.records.data(), b.records.data(),
                       a.records.size() * sizeof(a.records[0])) == 0 &&
           std::memcmp(a.aux.data(), b.aux.data(), a.aux.size()) == 0;
}

/** Add the cache counters of @p r to the per-layer numbers. */
void
addCacheCounts(Outcome &out, const RunResult &r)
{
    out.layer["sim.cache.l1_accesses"] += double(r.l1Accesses);
    out.layer["sim.cache.l1_misses"] += double(r.l1Misses);
    out.layer["sim.cache.l2_misses"] += double(r.l2Misses);
    out.layer["sim.cache.l3_traffic"] += double(r.l3Traffic);
}

/** One timing-only replay configuration of sweep_replay. */
struct ReplayConfig {
    const char *name;
    MachineSpec spec;
};

class SweepReplay : public Workload
{
  public:
    explicit SweepReplay(const Params &p) : params(p) {}

    void
    setup() override
    {
        const MachineSpec tartan = MachineSpec::tartan();
        MachineSpec anl_off = tartan;
        anl_off.useAnl = false;
        MachineSpec plain = anl_off;
        plain.sys.fcpEnabled = false;
        MachineSpec bingo = plain;
        bingo.sys.prefetcher = PrefetcherKind::Bingo;
        MachineSpec next_line = plain;
        next_line.sys.prefetcher = PrefetcherKind::NextLine;
        MachineSpec l2_1mib = tartan;
        l2_1mib.sys.l2Size = 1024 * 1024;
        configs = {{"tartan", tartan},     {"anl_off", anl_off},
                   {"anl_fcp_off", plain}, {"bingo", bingo},
                   {"nextline", next_line}, {"l2_1mib", l2_1mib}};
        fleetSpec = tartan;
        fleetSpec.sys.simCores = std::uint32_t(kFleetSize);
        // A first construction of every machine the iteration builds.
        for (const ReplayConfig &c : configs)
            tartan::workloads::Machine m(c.spec, WorkloadOptions{});
        tartan::workloads::Machine fleet(fleetSpec, WorkloadOptions{});
    }

    Outcome
    iterate(Tracer *tracer) override
    {
        Outcome out;
        const auto &suite = robotSuite();
        const MachineSpec &tartan = configs[0].spec;
        // Every loaded capture stays alive until the iteration ends, as a
        // bench sweep's CaptureSource keeps them for later replays.
        std::vector<CaptureTrace> held;
        held.reserve(suite.size());
        double soloTartan = 0.0; // Tartan replays of the fleet robots
        double records = 0.0;
        double plainAccesses = 0.0;
        double pfUseful[2] = {0.0, 0.0}, pfIssued[2] = {0.0, 0.0};
        bool fleetComplete = true;

        for (std::size_t i = 0; i < suite.size(); ++i) {
            const auto &robot = suite[i];
            const WorkloadOptions opt = robotOptions(
                SoftwareTier::Optimized, params.scale,
                robotSeed(params.seed, i, robot.name));
            const std::string cell = robot.name;

            RunResult direct;
            if (tracer) {
                ScopedSpan span(tracer, "probe.robot.run");
                direct = robot.run(tartan, opt);
            }

            RunResult cap;
            CaptureTrace loaded;
            std::uint64_t digest = 0;
            std::string cap_payload;
            std::string err = guarded(cell + "/capture", [&] {
                CaptureTrace trace;
                {
                    ScopedSpan span(tracer, "robot.run+capture");
                    cap = captureRun(robot, tartan, opt, trace);
                }
                const std::string path = params.workDir + "/capture_" +
                                         std::to_string(i) + ".tcap";
                std::string ioerr;
                bool ok = false;
                {
                    ScopedSpan span(tracer, "capture.save");
                    ok = trace.save(path, &ioerr);
                }
                if (!ok)
                    return "capture save failed: " + ioerr;
                out.captureBytes += double(std::filesystem::file_size(path));
                {
                    ScopedSpan span(tracer, "capture.load");
                    ok = CaptureTrace::load(path, loaded, &ioerr);
                }
                std::filesystem::remove(path);
                if (!ok)
                    return "capture load failed: " + ioerr;
                ScopedSpan span(tracer, "check");
                if (!sameTrace(trace, loaded))
                    return std::string("loaded capture differs from the "
                                       "recorded one");
                return std::string();
            });
            if (err.empty())
                err = checkCell(cap, tracer, digest, &cap_payload);
            if (err.empty() && tracer) {
                ScopedSpan span(tracer, "probe.check");
                err = diffPayloads(
                    tartan::workloads::encodeRunResult(direct), cap_payload);
                if (!err.empty())
                    err = "capture run differs from direct run: " + err;
            }
            out.cell(cell + "/capture", digest, err);
            if (!err.empty()) {
                for (const ReplayConfig &cfg : configs)
                    out.cell(cell + "/" + cfg.name, 0, "no capture");
                fleetComplete = fleetComplete && i >= kFleetSize;
                held.emplace_back();
                continue;
            }
            out.simInstructions += double(cap.instructions);
            records += double(loaded.records.size());
            if (tracer) {
                out.layer["sim.capture.records"] +=
                    double(loaded.records.size());
            }

            for (std::size_t c = 0; c < configs.size(); ++c) {
                const ReplayConfig &cfg = configs[c];
                RunResult rep;
                const std::string span_name =
                    std::string("replay.") + cfg.name;
                err = guarded(cell + "/" + cfg.name, [&] {
                    if (!tartan::workloads::replayCompatible(
                            tartan, opt, cfg.spec, opt))
                        return std::string("config is not replay-compatible");
                    const double t0 = nowSec();
                    {
                        ScopedSpan span(tracer, span_name);
                        rep = tartan::workloads::replayTrace(loaded,
                                                             cfg.spec, opt);
                    }
                    if (c == 0 && i < kFleetSize)
                        soloTartan += nowSec() - t0;
                    if (c == 0 && params.flipReplayCounter && i == 0)
                        rep.l1Misses ^= 1;
                    return std::string();
                });
                std::string rep_payload;
                if (err.empty())
                    err = checkCell(rep, tracer, digest, &rep_payload);
                if (err.empty() && c == 0) {
                    // The Tartan point is the capture's own machine.
                    ScopedSpan span(tracer, "check");
                    err = diffPayloads(cap_payload, rep_payload);
                    if (!err.empty())
                        err = "replay differs from capture: " + err;
                }
                out.cell(cell + "/" + cfg.name, digest, err);
                out.simInstructions += double(rep.instructions);
                if (c == 0) {
                    addCacheCounts(out, rep);
                    out.layer["core.anl.pf_issued"] += double(rep.pfIssued);
                    out.layer["core.anl.pf_useful"] +=
                        double(rep.pfHitsTimely + rep.pfHitsLate);
                } else if (c == 2) {
                    plainAccesses += double(rep.l1Accesses);
                } else if (c == 3 || c == 4) {
                    pfIssued[c - 3] += double(rep.pfIssued);
                    pfUseful[c - 3] +=
                        double(rep.pfHitsTimely + rep.pfHitsLate);
                }
            }
            held.push_back(std::move(loaded));
        }

        // The fleet: the first four robots' captures on one 4-core machine.
        std::vector<const CaptureTrace *> fleet;
        for (std::size_t n = 0; n < kFleetSize; ++n)
            fleet.push_back(&held[n]);
        FleetUncoreSnapshot uncore;
        std::uint64_t digest = 0;
        const std::string err = guarded("fleet", [&] {
            if (!fleetComplete)
                return std::string("no capture");
            std::vector<RunResult> cores;
            {
                ScopedSpan span(tracer, "replay.fleet");
                cores = tartan::workloads::replayFleet(
                    fleet, fleetSpec,
                    robotOptions(SoftwareTier::Optimized, params.scale,
                                 params.seed),
                    &uncore);
            }
            if (cores.size() != fleet.size())
                return std::string("fleet returned a wrong core count");
            digest = tartan::sim::fnv1a64("fleet");
            for (const RunResult &r : cores) {
                std::uint64_t d = 0;
                const std::string e = checkCell(r, tracer, d);
                if (!e.empty())
                    return "fleet core " + r.robot + ": " + e;
                digest = tartan::sim::fnv1a64Mix(digest, d);
                out.simInstructions += double(r.instructions);
            }
            for (std::uint64_t v :
                 {uncore.coherence.snoops, uncore.coherence.invalidations,
                  uncore.xbar.traversals, uncore.memctrl.bankConflicts})
                digest = tartan::sim::fnv1a64Mix(digest, v);
            return std::string();
        });
        out.cell("fleet", digest, err);

        if (!tracer)
            return out;
        // Differential and derived per-layer numbers.
        auto &L = out.layer;
        const double t_tartan = tracer->total("replay.tartan");
        const double t_anl_off = tracer->total("replay.anl_off");
        const double t_plain = tracer->total("replay.anl_fcp_off");
        L["core.anl.host_s"] = t_tartan - t_anl_off;
        L["core.anl.useful_frac"] =
            L["core.anl.pf_issued"] > 0
                ? L["core.anl.pf_useful"] / L["core.anl.pf_issued"]
                : 0.0;
        L.erase("core.anl.pf_useful");
        L["sim.fcp.host_s"] = t_anl_off - t_plain;
        L["sim.bingo.host_s"] = tracer->total("replay.bingo") - t_plain;
        L["sim.nextline.host_s"] = tracer->total("replay.nextline") - t_plain;
        L["sim.prefetch.useful_frac"] =
            pfIssued[0] + pfIssued[1] > 0
                ? (pfUseful[0] + pfUseful[1]) / (pfIssued[0] + pfIssued[1])
                : 0.0;
        L["sim.capture.record_s"] = tracer->total("robot.run+capture") -
                                    tracer->total("probe.robot.run");
        L["sim.capture.save_s"] = tracer->total("capture.save");
        L["sim.capture.load_s"] = tracer->total("capture.load");
        L["sim.capture.bytes"] = out.captureBytes;
        double replay_s = 0.0;
        for (const ReplayConfig &c : configs)
            replay_s += tracer->total(std::string("replay.") + c.name);
        L["workloads.replay.s"] = replay_s;
        L["workloads.replay.ns_per_record"] =
            records > 0 ? t_plain * 1e9 / records : 0.0;
        L["sim.memsystem.ns_per_access"] =
            plainAccesses > 0 ? t_plain * 1e9 / plainAccesses : 0.0;
        L["sim.uncore.host_s"] = tracer->total("replay.fleet") - soloTartan;
        L["sim.uncore.snoops"] = double(uncore.coherence.snoops);
        L["sim.uncore.invalidations"] =
            double(uncore.coherence.invalidations);
        L["sim.uncore.xbar_traversals"] = double(uncore.xbar.traversals);
        L["sim.uncore.bank_conflicts"] =
            double(uncore.memctrl.bankConflicts);
        return out;
    }

  private:
    Params params;
    std::vector<ReplayConfig> configs;
    MachineSpec fleetSpec;
};

class SweepDirect : public Workload
{
  public:
    explicit SweepDirect(const Params &p) : params(p) {}

    void
    setup() override
    {
        spec = MachineSpec::tartan();
        spec.useAnl = false;
        tartan::workloads::Machine m(spec, WorkloadOptions{});
    }

    Outcome
    iterate(Tracer *tracer) override
    {
        Outcome out;
        const auto &suite = robotSuite();
        for (SoftwareTier tier :
             {SoftwareTier::Legacy, SoftwareTier::Optimized,
              SoftwareTier::Approximate}) {
            for (std::size_t i = 0; i < suite.size(); ++i) {
                const auto &robot = suite[i];
                const WorkloadOptions opt = robotOptions(
                    tier, params.scale,
                    robotSeed(params.seed, i, robot.name));
                const std::string cell =
                    std::string(robot.name) + "/" + tierName(tier);
                RunResult res;
                double direct_s = 0.0;
                std::uint64_t digest = 0;
                std::string err = guarded(cell, [&] {
                    const double t0 = nowSec();
                    {
                        ScopedSpan span(tracer, std::string("robot.run.") +
                                                    tierName(tier));
                        res = robot.run(spec, opt);
                    }
                    direct_s = nowSec() - t0;
                    return std::string();
                });
                std::string payload;
                if (err.empty())
                    err = checkCell(res, tracer, digest, &payload);
                if (err.empty() && tracer)
                    err = guarded(cell + "/probe", [&] {
                        return probeRobotics(robot, opt, payload, direct_s,
                                             tracer, out);
                    });
                out.cell(cell, digest, err);
                out.simInstructions += double(res.instructions);
                if (tracer)
                    addCacheCounts(out, res);
            }
        }
        return out;
    }

  private:
    /**
     * Robot-side host time of one cell: its direct time minus the replay
     * of its own capture. Also checks that the capture run and the
     * replay both equal the direct run (encoded as @p direct) field for
     * field.
     */
    std::string
    probeRobotics(const tartan::workloads::RobotEntry &robot,
                  const WorkloadOptions &opt, const std::string &direct,
                  double direct_s, Tracer *tracer, Outcome &out)
    {
        CaptureTrace trace;
        RunResult cap;
        {
            ScopedSpan span(tracer, "probe.robot.run+capture");
            cap = captureRun(robot, spec, opt, trace);
        }
        const double t0 = nowSec();
        RunResult rep;
        {
            ScopedSpan span(tracer, "probe.replay");
            rep = tartan::workloads::replayTrace(trace, spec, opt);
        }
        const double host = direct_s - (nowSec() - t0);
        const std::string name = std::string("robotics.") + robot.name +
                                 "." + tierName(opt.tier) + ".host_s";
        out.layer[name] = host;
        out.layer["robotics.host_s"] += host;
        ScopedSpan span(tracer, "probe.check");
        std::string d =
            diffPayloads(direct, tartan::workloads::encodeRunResult(cap));
        if (!d.empty())
            return "capture run differs from direct run: " + d;
        d = diffPayloads(direct, tartan::workloads::encodeRunResult(rep));
        return d.empty() ? d : "replay differs from direct run: " + d;
    }

    Params params;
    MachineSpec spec;
};

} // namespace

std::unique_ptr<Workload>
makeSweepReplay(const Params &params)
{
    return std::make_unique<SweepReplay>(params);
}

std::unique_ptr<Workload>
makeSweepDirect(const Params &params)
{
    return std::make_unique<SweepDirect>(params);
}

} // namespace perfbench
