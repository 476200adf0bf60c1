/**
 * @file
 * perfbench: host-time benchmark of the Tartan simulator.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--workdir DIR] [--references FILE] [--git DESCRIBE]
 *   perfbench --selftest --workdir DIR
 *
 * One process; all work runs on one thread (the library's cell
 * watchdog adds an idle helper thread). It sets the workload up
 * several times (setup_s is the median), then repeats whole iterations
 * while the next one is expected to end within S seconds, and reports
 * medians over them; a run makes at least one iteration (a traced run
 * at least one of each kind), so it may overrun S by one iteration.
 * A pass of the HostReference work runs before the first iteration and
 * after each one. The end-to-end times, wall_rel and cpu_rel, are the
 * median over untraced iterations of the iteration's time divided by
 * the mean of the reference passes around it: the shared host's speed
 * moves by up to 1.9x in phases of seconds to minutes, and the ratio
 * cancels most of that. The raw seconds are per-layer metrics.
 * With --trace 0 every iteration is untraced and the end-to-end
 * metrics are printed;
 * with --trace 1 untraced and traced iterations alternate and the
 * per-layer metrics are printed, with the tracing overhead measured
 * against the untraced median of the same run.
 *
 * Every cell's outputs are checked; a mismatch, exception or timeout
 * counts the cell as failed. Cell digests must repeat on every
 * iteration and, for a (workload, seed) listed in the references
 * file, equal the committed digests.
 *
 * stdout: "provenance {...}", one "digest ..." line per cell plus a
 * combined one, and as the last line the result JSON. stderr: the
 * human-readable report.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "checks.hh"
#include "harness.hh"
#include "workloads.hh"
#include "sim/watchdog.hh"
#include "workloads/robots.hh"

extern char **environ;

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep_replay",
                                                   "sweep_direct", "nn_train"};
    return names;
}

double
productionScale(const std::string &name)
{
    return name == "sweep_replay" ? 0.5 : 1.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Params &params)
{
    if (name == "sweep_replay")
        return makeSweepReplay(params);
    if (name == "sweep_direct")
        return makeSweepDirect(params);
    if (name == "nn_train")
        return makeNnTrain(params);
    return nullptr;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = [] {
        std::vector<std::pair<std::string, std::string>> m = {
            {"wall_s", "s"},
            {"cpu_s", "s"},
            {"ref_s", "s"},
            {"sim_minstr_per_s", "Minstr/s"},
            {"train_ksamples_per_s", "ksamples/s"},
            {"capture_mb", "MB"},
            {"failed_frac", "frac"},
            {"unattributed_frac", "frac"},
            {"trace_overhead_frac", "frac"},
            {"core.anl.host_s", "s"},
            {"core.anl.pf_issued", "count"},
            {"core.anl.useful_frac", "frac"},
            {"sim.capture.record_s", "s"},
            {"sim.capture.save_s", "s"},
            {"sim.capture.load_s", "s"},
            {"sim.capture.records", "count"},
            {"sim.capture.bytes", "B"},
            {"workloads.replay.s", "s"},
            {"workloads.replay.ns_per_record", "ns"},
            {"sim.memsystem.ns_per_access", "ns"},
            {"sim.cache.l1_accesses", "count"},
            {"sim.cache.l1_misses", "count"},
            {"sim.cache.l2_misses", "count"},
            {"sim.cache.l3_traffic", "count"},
            {"sim.fcp.host_s", "s"},
            {"sim.bingo.host_s", "s"},
            {"sim.nextline.host_s", "s"},
            {"sim.prefetch.useful_frac", "frac"},
            {"sim.uncore.host_s", "s"},
            {"sim.uncore.snoops", "count"},
            {"sim.uncore.invalidations", "count"},
            {"sim.uncore.xbar_traversals", "count"},
            {"sim.uncore.bank_conflicts", "count"},
            {"robotics.host_s", "s"},
        };
        for (const char *tier : {"legacy", "optimized", "approximate"})
            for (const auto &robot : tartan::workloads::robotSuite())
                m.push_back({std::string("robotics.") + robot.name + "." +
                                 tier + ".host_s",
                             "s"});
        for (const char *name :
             {"nn.mlp.192-32-32-6.train_s", "nn.mlp.50-1024-512-1.train_s"})
            m.push_back({name, "s"});
        m.push_back({"nn.mlp.train_samples", "count"});
        m.push_back({"nn.mlp.gmac_per_s", "GMAC/s"});
        for (const char *name :
             {"nn.mlp.infer_s", "nn.pca.fit_s", "nn.pca.transform_s",
              "workloads.cellcodec.encode_s", "workloads.cellcodec.decode_s"})
            m.push_back({name, "s"});
        return m;
    }();
    return list;
}

namespace {

/** Setups timed per run; setup_s is their median. */
constexpr int kSetupReps = 25;

/**
 * TARTAN_* variables that do not change what the benchmark's calls
 * simulate (knobs of the bench programs: report paths, pools, campaign
 * policy, tolerances, logging). Any other TARTAN_* variable that is set
 * makes the benchmark refuse to run.
 */
const std::set<std::string> kInertEnv = {
    "TARTAN_BENCH_DIR",     "TARTAN_JOBS",          "TARTAN_SELFBENCH_REPS",
    "TARTAN_SELFBENCH_SCALE", "TARTAN_SELFBENCH_FLOOR", "TARTAN_DIFF_TOL",
    "TARTAN_DIFF_TOL_CPI",  "TARTAN_LOG_LEVEL",     "TARTAN_TIMEOUT",
    "TARTAN_RETRIES",       "TARTAN_BACKOFF_MS",    "TARTAN_RESUME",
    "TARTAN_CACHE_DIR",     "TARTAN_REPLAY",        "TARTAN_CAPTURE_DIR",
    "TARTAN_TRACE",         "TARTAN_TRACE_EPOCH",   "TARTAN_CPISTACK",
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string workDir = ".";
    std::string references;
    std::string git = "unknown";
    bool selftest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] "
                 "[--references FILE] [--git DESCRIBE]\n"
                 "       perfbench --selftest [--workdir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = int(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--workdir") {
            a.workDir = v;
        } else if (k == "--references") {
            a.references = v;
        } else if (k == "--git") {
            a.git = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end && (*end || v.empty()))
            usage(("bad value for " + k).c_str());
    }
    if (a.selftest)
        return a;
    if (!makeWorkload(a.workload, Params{}))
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1))
        usage("bad --seconds or --trace");
    return a;
}

/** Every TARTAN_* variable that is set; false if one is not inert. */
bool
checkEnvironment(std::vector<std::string> &set_vars)
{
    bool ok = true;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (!kv.starts_with("TARTAN_"))
            continue;
        set_vars.push_back(kv);
        const std::string key = kv.substr(0, kv.find('='));
        if (!kInertEnv.count(key)) {
            std::fprintf(stderr,
                         "perfbench: refusing to run: %s may change what is "
                         "simulated; unset it\n",
                         key.c_str());
            ok = false;
        }
    }
    return ok;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::string
provenance(const Args &a, double scale, const std::vector<std::string> &env)
{
    char host[256] = {};
    gethostname(host, sizeof(host) - 1);
    std::ostringstream os;
    os << "{\"host\": \"" << jsonEscape(host) << "\", \"nproc\": "
       << sysconf(_SC_NPROCESSORS_ONLN) << ", \"compiler\": \""
#ifdef __VERSION__
       << jsonEscape(__VERSION__)
#endif
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"git\": \"" << jsonEscape(a.git) << "\", \"workload\": \""
       << a.workload << "\", \"seed\": " << a.seed << ", \"scale\": " << scale
       << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
       << ", \"tartan_env\": [";
    for (std::size_t i = 0; i < env.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(env[i]) << "\"";
    os << "]}";
    return os.str();
}

/** Committed digests of one (workload, seed), by cell. */
std::map<std::string, std::uint64_t>
loadReferences(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    std::map<std::string, std::uint64_t> refs;
    if (path.empty())
        return refs;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot read references '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag, wl, cell, hex;
        std::uint64_t s = 0;
        if (!(ls >> tag >> wl >> s >> cell >> hex) || tag != "digest")
            continue;
        if (wl == workload && s == seed && cell != "*")
            refs[cell] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return refs;
}

/**
 * Mark the cells of @p out whose digest differs from @p expected
 * failed. An empty @p expected is filled from @p out: the first
 * iteration becomes the reference of the later ones.
 */
void
checkDigests(Outcome &out, std::map<std::string, std::uint64_t> &expected,
             bool from_references)
{
    if (expected.empty() && !from_references) {
        for (const Cell &c : out.cells)
            expected[c.name] = c.digest;
        return;
    }
    for (Cell &c : out.cells) {
        auto it = expected.find(c.name);
        if (it == expected.end())
            Outcome::fail(c, "no expected digest");
        else if (it->second != c.digest)
            Outcome::fail(c, "digest " + tartan::sim::hex64(c.digest) +
                                 ", expected " +
                                 tartan::sim::hex64(it->second));
    }
}

/** Everything one run measured. */
struct RunStats {
    double setupS = 0.0;
    std::vector<double> wall, cpu;        //!< untraced iterations
    /** Untraced iterations' wall and CPU time over the host reference's. */
    std::vector<double> wallRel, cpuRel;
    std::vector<double> refWall;          //!< every reference pass
    std::vector<double> tracedWall;       //!< traced, probe time removed
    std::vector<double> unattributed;     //!< traced, fraction
    std::vector<std::map<std::string, double>> layers;
    std::map<std::string, double> selfTime; //!< summed over traced iterations
    std::uint64_t attempted = 0, failed = 0;
    double simInstructions = 0.0, trainSamples = 0.0, captureBytes = 0.0;
    std::vector<Cell> cells; //!< of the first iteration
    std::string summary;
};

RunStats
measure(Workload &wl, double seconds, int trace,
        std::map<std::string, std::uint64_t> expected, bool from_references)
{
    RunStats st;
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
        const double t0 = nowSec();
        wl.setup();
        setups.push_back(nowSec() - t0);
    }
    st.setupS = median(setups);

    // Host time of whole iterations, untraced [0] and traced [1], probes
    // and the following reference pass included: what the next iteration
    // of that kind is expected to take.
    std::vector<double> spent[2];
    // A reference pass before the first iteration, after every one, and
    // between the cells of an untraced one; an iteration is compared with
    // the mean of the passes during and around it.
    HostReference reference;
    reference.run(); // warm-up
    HostReference::Pass before = reference.run();
    st.refWall.push_back(before.wall);
    const double start = nowSec();
    for (int it = 0;; ++it) {
        const bool traced = trace && it % 2 == 1;
        Tracer tracer;
        activeReference = traced ? nullptr : &reference;
        const double c0 = cpuSec();
        const double t0 = nowSec();
        Outcome out = wl.iterate(traced ? &tracer : nullptr);
        double wall = nowSec() - t0;
        double cpu = cpuSec() - c0;
        activeReference = nullptr;
        const HostReference::Pass after = reference.run();
        double ref_wall = before.wall + after.wall;
        double ref_cpu = before.cpu + after.cpu;
        const std::vector<HostReference::Pass> ticks = reference.takeTicks();
        for (const HostReference::Pass &p : ticks) {
            wall -= p.wall;
            cpu -= p.cpu;
            ref_wall += p.wall;
            ref_cpu += p.cpu;
            st.refWall.push_back(p.wall);
        }
        st.refWall.push_back(after.wall);
        ref_wall /= double(ticks.size() + 2);
        ref_cpu /= double(ticks.size() + 2);
        before = after;
        spent[traced].push_back(nowSec() - t0);
        checkDigests(out, expected, from_references);
        st.attempted += out.cells.size();
        st.failed += out.failedCount();
        if (traced) {
            const double probe = tracer.totalTopPrefix(kProbePrefix);
            const double real = wall - probe;
            double spanned = 0.0;
            for (const Tracer::Span &s : tracer.all())
                if (s.parent < 0 && !s.name.starts_with(kProbePrefix))
                    spanned += s.end - s.start;
            st.tracedWall.push_back(real);
            st.unattributed.push_back(real > 0 ? 1.0 - spanned / real : 0.0);
            out.layer["workloads.cellcodec.encode_s"] =
                tracer.total("cellcodec.encode");
            out.layer["workloads.cellcodec.decode_s"] =
                tracer.total("cellcodec.decode");
            st.layers.push_back(out.layer);
            for (const auto &[name, t] : tracer.selfTimes())
                st.selfTime[name] += t;
        } else {
            st.wall.push_back(wall);
            st.cpu.push_back(cpu);
            st.wallRel.push_back(wall / ref_wall);
            st.cpuRel.push_back(cpu / ref_cpu);
            st.simInstructions = out.simInstructions;
            st.trainSamples = out.trainSamples;
            st.captureBytes = out.captureBytes;
        }
        if (st.cells.empty()) {
            st.cells = out.cells;
            st.summary = out.summary;
        }
        const bool have_all = !trace || !st.tracedWall.empty();
        const bool next_traced = trace && it % 2 == 0;
        const double next = median(spent[next_traced].empty()
                                       ? spent[!next_traced]
                                       : spent[next_traced]);
        if (have_all && nowSec() - start + next > seconds)
            break;
    }
    return st;
}

/** Print the traced-run report: self time and share of wall per span. */
void
reportLayers(const RunStats &st)
{
    const double n = double(st.tracedWall.size());
    const double wall = median(st.tracedWall);
    std::fprintf(stderr, "\n  traced iterations: %zu   untraced: %zu\n",
                 st.tracedWall.size(), st.wall.size());
    std::fprintf(stderr, "  %-32s %12s %8s\n", "span (self time)", "s/iter",
                 "share");
    for (const auto &[name, t] : st.selfTime) {
        if (name.starts_with(kProbePrefix))
            std::fprintf(stderr, "  %-32s %12.6f %8s\n", name.c_str(), t / n,
                         "(probe)");
        else
            std::fprintf(stderr, "  %-32s %12.6f %7.2f%%\n", name.c_str(),
                         t / n, wall > 0 ? 100.0 * t / n / wall : 0.0);
    }
}

std::string
metricJson(const std::string &name, double value, const std::string &unit)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
}

int
runOne(const Args &a, const std::vector<std::string> &env)
{
    Params p;
    p.seed = a.seed;
    p.scale = productionScale(a.workload);
    p.workDir = a.workDir;
    std::printf("provenance %s\n", provenance(a, p.scale, env).c_str());
    std::fflush(stdout);

    const auto refs = loadReferences(a.references, a.workload, a.seed);
    auto wl = makeWorkload(a.workload, p);
    const RunStats st = measure(*wl, a.seconds, a.trace, refs, !refs.empty());

    std::uint64_t combined = tartan::sim::fnv1a64("perfbench");
    for (const Cell &c : st.cells) {
        std::printf("digest %s %llu %s %s\n", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), c.name.c_str(),
                    tartan::sim::hex64(c.digest).c_str());
        combined = tartan::sim::fnv1a64Mix(combined, c.digest);
    }
    std::printf("digest %s %llu * %s\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                tartan::sim::hex64(combined).c_str());

    const double wall = median(st.wall);
    const double failed_frac =
        st.attempted ? double(st.failed) / double(st.attempted) : 1.0;
    std::fprintf(stderr,
                 "perfbench %s seed=%llu scale=%g: %zu untraced iterations, "
                 "wall %.4f s, cpu %.4f s, host reference %.4f s, "
                 "wall/reference %.2f, setup %.4f s, peak RSS %.1f MB, "
                 "cells %llu, failed %llu, references %s\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 p.scale, st.wall.size(), wall, median(st.cpu),
                 median(st.refWall), median(st.wallRel), st.setupS,
                 peakRssMb(), static_cast<unsigned long long>(st.attempted),
                 static_cast<unsigned long long>(st.failed),
                 refs.empty() ? "none (iteration 1 is the reference)"
                              : "committed");

    if (!st.summary.empty())
        std::fprintf(stderr, "  outputs: %s\n", st.summary.c_str());
    std::fprintf(stderr, "  untraced iteration walls (s):");
    for (double w : st.wall)
        std::fprintf(stderr, " %.4f", w);
    std::fprintf(stderr, "\n  host reference passes (s):");
    for (double w : st.refWall)
        std::fprintf(stderr, " %.4f", w);
    std::fprintf(stderr, "\n");

    std::vector<std::string> metrics;
    if (!a.trace) {
        metrics.push_back(metricJson("wall_rel", median(st.wallRel), "ref"));
        metrics.push_back(metricJson("cpu_rel", median(st.cpuRel), "ref"));
        metrics.push_back(metricJson("peak_rss_mb", peakRssMb(), "MB"));
        metrics.push_back(metricJson("setup_s", st.setupS, "s"));
    } else {
        reportLayers(st);
        std::map<std::string, double> layer;
        for (const auto &[name, unit] : layerMetrics()) {
            std::vector<double> v;
            for (const auto &m : st.layers) {
                auto it = m.find(name);
                v.push_back(it == m.end() ? 0.0 : it->second);
            }
            layer[name] = median(v);
        }
        layer["wall_s"] = wall;
        layer["cpu_s"] = median(st.cpu);
        layer["ref_s"] = median(st.refWall);
        layer["sim_minstr_per_s"] =
            wall > 0 ? st.simInstructions / wall / 1e6 : 0.0;
        layer["train_ksamples_per_s"] =
            wall > 0 ? st.trainSamples / wall / 1e3 : 0.0;
        layer["capture_mb"] = st.captureBytes / 1e6;
        layer["failed_frac"] = failed_frac;
        layer["unattributed_frac"] = median(st.unattributed);
        layer["trace_overhead_frac"] =
            wall > 0 ? median(st.tracedWall) / wall - 1.0 : 0.0;
        std::fprintf(stderr,
                     "  unattributed %.2f%% of wall, tracing overhead %.2f%% "
                     "(traced %.4f s vs untraced %.4f s)\n",
                     100.0 * layer["unattributed_frac"],
                     100.0 * layer["trace_overhead_frac"],
                     median(st.tracedWall), wall);
        for (const auto &[name, unit] : layerMetrics())
            metrics.push_back(metricJson(name, layer[name], unit));
    }

    std::string json = "{\"correct\": ";
    json += st.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(st.attempted);
    json += ", \"failed\": " + std::to_string(st.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", " : "") + metrics[i];
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

/**
 * Harness self-test: a clean run of every workload (the sweeps at a
 * reduced scale; nn_train as measured, the least training after which
 * both networks beat their trivial models) reports no failure; a
 * flipped replayed counter and a wrong expected digest each count
 * exactly one failed cell, and a hung cell times out as a failure.
 */
int
selftest(const Args &a)
{
    bool ok = true;
    const auto expect = [&](const char *what, std::uint64_t failed,
                            std::uint64_t want) {
        const bool pass = failed == want;
        std::fprintf(stderr, "selftest: %-44s failed=%llu want=%llu %s\n",
                     what, static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(want),
                     pass ? "ok" : "FAIL");
        ok = ok && pass;
    };
    Params small;
    small.scale = 0.05;
    small.workDir = a.workDir;

    std::map<std::string, std::uint64_t> direct_digests;
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name, small);
        const RunStats st = measure(*wl, 1e-9, 1, {}, false);
        expect((name + ": clean run").c_str(), st.failed, 0);
        if (name == "sweep_direct")
            for (const Cell &c : st.cells)
                direct_digests[c.name] = c.digest;
    }
    {
        Params p = small;
        p.flipReplayCounter = true;
        auto wl = makeWorkload("sweep_replay", p);
        wl->setup();
        Outcome out = wl->iterate(nullptr);
        expect("sweep_replay: one flipped replayed counter",
               out.failedCount(), 1);
    }
    {
        auto wrong = direct_digests;
        wrong.begin()->second ^= 1;
        auto wl = makeWorkload("sweep_direct", small);
        wl->setup();
        Outcome out = wl->iterate(nullptr);
        checkDigests(out, wrong, true);
        expect("sweep_direct: one wrong expected digest", out.failedCount(),
               1);
    }
    {
        Outcome out;
        out.cell("hang", 0, guarded("hang", [] {
                     tartan::sim::hangUntilWatchdog();
                     return std::string();
                 }, 0.2));
        expect("a hung cell under a 0.2 s deadline", out.failedCount(), 1);
    }
    std::fprintf(stderr, "selftest: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    std::vector<std::string> env;
    if (!checkEnvironment(env))
        return 2;
    if (!std::filesystem::is_directory(args.workDir)) {
        std::fprintf(stderr, "perfbench: no work directory '%s'\n",
                     args.workDir.c_str());
        return 2;
    }
    return args.selftest ? selftest(args) : runOne(args, env);
}
