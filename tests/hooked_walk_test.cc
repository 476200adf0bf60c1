/**
 * @file
 * Golden digests of the memory walk with its hooks attached: the
 * coherent uncore (N = 2 and 4 cores sharing lines, Bingo on every
 * path), the fault injector (memory-latency spikes and prefetch
 * blackouts) and a trace session. The fleet baseline and perfbench
 * never run these branches together with the shared data or injected
 * faults, so the digests are the only guard that a rewrite of the walk
 * keeps their timing and counters bit-identical.
 *
 * Each digest is FNV-1a 64 of the run's full stats dump (the manifest's
 * timestamp and git fields pinned). The expected values live in
 * tests/golden/hooked_walk.txt, one "<name> <hex digest>" line each;
 * a mismatch prints the digest this build computed, which is how the
 * file is regenerated after a deliberate timing change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "sim/capture.hh"
#include "sim/checksum.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/system.hh"
#include "sim/trace.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

namespace {

using namespace tartan::sim;
using tartan::workloads::Machine;
using tartan::workloads::MachineSpec;
using tartan::workloads::ReplayStream;
using tartan::workloads::WorkloadOptions;

/** Expected digests, keyed by scenario name. */
const std::map<std::string, std::string> &
golden()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(TARTAN_GOLDEN_DIR "/hooked_walk.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string name, digest;
            fields >> name >> digest;
            t[name] = digest;
        }
        return t;
    }();
    return table;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** FNV-1a of the registry's JSON dump, run-identity fields pinned. */
std::string
digestOf(StatsRegistry &registry)
{
    registry.setMeta("timestamp", "pinned");
    registry.setMeta("git", "pinned");
    std::ostringstream os;
    registry.dumpJson(os);
    return hex(fnv1a64(os.str()));
}

void
expectGolden(const std::string &name, const std::string &digest)
{
    const auto it = golden().find(name);
    ASSERT_NE(it, golden().end()) << "no golden digest for " << name
                                  << "; this build computes " << digest;
    EXPECT_EQ(digest, it->second)
        << name << " digest changed: expected " << it->second
        << ", this build computes " << digest;
}

/**
 * Seeded random loads, stores and ranged loads from @p cores cores
 * over a small pool of shared lines, with a write-through and a
 * no-allocate range inside the pool. The caches are tiny so every
 * access pattern — snoops, upgrades, dirty forwards, victim write-back
 * chains, Bingo replays — occurs thousands of times.
 */
std::string
randomStreamDigest(std::uint32_t cores)
{
    SysConfig cfg;
    cfg.lineBytes = 64;
    cfg.l1Size = 1024;
    cfg.l1Assoc = 2;
    cfg.l2Size = 4096;
    cfg.l2Assoc = 4;
    cfg.l3Size = 16 * 1024;
    cfg.l3Assoc = 8;
    cfg.simCores = cores;
    cfg.prefetcher = PrefetcherKind::Bingo;
    cfg.trackUdm = true;
    System sys(cfg);

    constexpr Addr kPool = 0x40000000;
    constexpr std::uint64_t kLines = 640;  // 40 KB: > L3, many sets
    for (std::uint32_t c = 0; c < cores; ++c) {
        sys.mem(c).addWriteThroughRange(kPool + 32 * 64, 8 * 64);
        sys.mem(c).addNoAllocateRange(kPool + 96 * 64, 16 * 64);
    }

    std::mt19937_64 rng(0x5eed0000u + cores);
    std::vector<Cycles> now(cores, 0);
    for (int op = 0; op < 200000; ++op) {
        const std::uint32_t c = static_cast<std::uint32_t>(rng() % cores);
        const std::uint64_t r = rng();
        // Skewed line choice: a hot eighth of the pool takes half the
        // accesses, so lines are both shared and repeatedly evicted.
        const std::uint64_t line =
            (r & 1) ? (r >> 8) % (kLines / 8) : (r >> 8) % kLines;
        const Addr addr = kPool + line * 64 + ((r >> 40) % 16) * 4;
        const PcId pc = static_cast<PcId>((r >> 50) % 12);
        AccessResult res;
        switch ((r >> 4) % 8) {
          case 0:
          case 1:
          case 2:
            res = sys.mem(c).access(addr, AccessType::Store, 4, pc,
                                    now[c]);
            break;
          case 3:
            res = sys.mem(c).accessRange(addr, 200, pc, now[c]);
            break;
          default:
            res = sys.mem(c).access(addr, AccessType::Load, 8, pc,
                                    now[c]);
            break;
        }
        now[c] += 1 + res.latency;
    }
    for (std::uint32_t c = 0; c < cores; ++c)
        sys.mem(c).drainDirty();

    StatsRegistry registry;
    sys.registerStats(registry);
    return digestOf(registry);
}

/** DeliBot's op stream, captured once per process (scale 0.5). */
const CaptureTrace &
deliBotCapture()
{
    static const CaptureTrace trace = [] {
        WorkloadOptions opt;
        opt.scale = 0.5;
        return tartan::workloads::captureRobot(
            tartan::workloads::runDeliBot, MachineSpec::tartan(), opt);
    }();
    return trace;
}

/** Replay DeliBot's capture on @p machine, then dump its stats. */
std::string
replayDigest(Machine &machine)
{
    ReplayStream stream(deliBotCapture(), machine);
    while (!stream.done())
        stream.step();
    stream.finalize();
    StatsRegistry registry;
    machine.registerStats(registry);
    return digestOf(registry);
}

TEST(HookedWalkGolden, CoherentRandomStreamTwoCores)
{
    expectGolden("coherent_random_n2", randomStreamDigest(2));
}

TEST(HookedWalkGolden, CoherentRandomStreamFourCores)
{
    expectGolden("coherent_random_n4", randomStreamDigest(4));
}

TEST(HookedWalkGolden, DeliBotUnderMemoryFaults)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=11;mem:spike=0.02@300,blackout=0.002@400", plan));
    const auto injector = plan.makeInjector("DeliBot");
    Machine machine(MachineSpec::tartan(), nullptr, injector.get());
    const std::string digest = replayDigest(machine);
    EXPECT_GT(injector->stats().memSpikes, 0u);
    EXPECT_GT(injector->stats().memBlackouts, 0u);
    expectGolden("delibot_mem_faults", digest);
}

TEST(HookedWalkGolden, DeliBotTraced)
{
    TraceConfig cfg;
    cfg.dir = ::testing::TempDir();
    cfg.bench = "hw";
    cfg.run = "golden";
    cfg.epochCycles = 20000;
    auto session = std::make_unique<TraceSession>(cfg);
    std::string digest;
    {
        Machine machine(MachineSpec::tartan(), session.get(), nullptr);
        digest = replayDigest(machine);
    }
    EXPECT_GT(session->epochs(), 0u);
    session->finalize();
    std::remove(session->tracePath().c_str());
    std::remove(session->epochsPath().c_str());
    expectGolden("delibot_traced", digest);
}

} // namespace
