/**
 * @file
 * Replay-vs-direct byte identity across every timing-only configuration
 * the sweep drivers vary. Each row captures one robot once, at its
 * driver's capture configuration and a reduced scale, then replays the
 * capture under each swept machine and requires the encoded RunResult
 * to equal a direct run's byte for byte:
 *
 *  - fig10: no prefetcher, ANL, next-line and Bingo, for all six robots;
 *  - fig11: the 12 FCP configurations (function x region x xor bits),
 *    for all six robots;
 *  - abl: the ANL geometry grid on MoveBot, FCP none/L2/L2+L3 on
 *    CarriBot, and the NPU link latency on Approximate-tier FlyBot;
 *  - tab03: 2, 4 and 8 PEs on PatrolBot, HomeBot and FlyBot.
 *
 * Every row is its own test, so ctest spreads the rows over the cores.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "workloads/cellcodec.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"

using tartan::sim::FcpReplacement;
using tartan::workloads::MachineSpec;
using tartan::workloads::RobotFn;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;

namespace {

/** Workload scale of every row: small enough for the sanitizer job. */
constexpr double kScale = 0.25;

/** One capture and the timing-only machines replayed from it. */
struct SweepRow {
    std::string name;  //!< <driver>_<robot>[_<sweep>], the test suffix
    RobotFn run = nullptr;
    MachineSpec capSpec;
    WorkloadOptions opt;
    std::vector<std::pair<std::string, MachineSpec>> configs;
};

WorkloadOptions
rowOptions(SoftwareTier tier, std::uint64_t seed = 42)
{
    WorkloadOptions opt;
    opt.tier = tier;
    opt.scale = kScale;
    opt.seed = seed;
    return opt;
}

MachineSpec
anlSpec(std::uint32_t entries, std::uint32_t region)
{
    MachineSpec spec = MachineSpec::baseline();
    spec.useAnl = true;
    spec.anlCfg.entries = entries;
    spec.anlCfg.regionBytes = region;
    spec.anlCfg.lineBytes = spec.sys.lineBytes;
    return spec;
}

std::vector<SweepRow>
sweepRows()
{
    std::vector<SweepRow> rows;
    const MachineSpec base = MachineSpec::baseline();
    const MachineSpec tartan = MachineSpec::tartan();
    const WorkloadOptions optimized = rowOptions(SoftwareTier::Optimized);
    const WorkloadOptions approximate =
        rowOptions(SoftwareTier::Approximate);

    for (const auto &robot : tartan::workloads::robotSuite()) {
        SweepRow fig10{std::string("fig10_") + robot.name, robot.run, base,
                       optimized, {}};
        fig10.configs.emplace_back("none", base);
        MachineSpec anl = base;
        anl.useAnl = true;
        anl.anlCfg.lineBytes = anl.sys.lineBytes;
        fig10.configs.emplace_back("ANL", anl);
        MachineSpec nl = base;
        nl.sys.prefetcher = tartan::sim::PrefetcherKind::NextLine;
        fig10.configs.emplace_back("NL", nl);
        MachineSpec bingo = base;
        bingo.sys.prefetcher = tartan::sim::PrefetcherKind::Bingo;
        fig10.configs.emplace_back("Bingo", bingo);
        rows.push_back(std::move(fig10));
    }

    const std::pair<FcpReplacement::Func, const char *> funcs[] = {
        {FcpReplacement::Func::XPlus1, "x+1"},
        {FcpReplacement::Func::TwoX, "2x"},
        {FcpReplacement::Func::XSquared, "x^2"}};
    for (const auto &robot : tartan::workloads::robotSuite()) {
        SweepRow fig11{std::string("fig11_") + robot.name, robot.run, base,
                       optimized, {}};
        for (const auto &[func, func_name] : funcs)
            for (std::uint32_t region : {512u, 1024u})
                for (std::uint32_t bits : {2u, 3u}) {
                    MachineSpec spec = base;
                    spec.sys.fcpEnabled = true;
                    spec.sys.fcpRegionBytes = region;
                    spec.sys.fcpXorBits = bits;
                    spec.sys.fcpFunc = func;
                    fig11.configs.emplace_back(
                        std::string(func_name) + "/" +
                            std::to_string(region) + "B-" +
                            std::to_string(bits) + "b",
                        spec);
                }
        rows.push_back(std::move(fig11));
    }

    SweepRow anl_grid{"abl_MoveBot_anl", tartan::workloads::runMoveBot,
                      base, rowOptions(SoftwareTier::Optimized, 123), {}};
    for (std::uint32_t entries : {8u, 16u, 32u, 64u})
        for (std::uint32_t region : {512u, 1024u, 2048u})
            anl_grid.configs.emplace_back(std::to_string(entries) + "e-" +
                                              std::to_string(region) + "B",
                                          anlSpec(entries, region));
    rows.push_back(std::move(anl_grid));

    SweepRow fcp_level{"abl_CarriBot_fcp", tartan::workloads::runCarriBot,
                       base, optimized, {}};
    fcp_level.configs.emplace_back("none", base);
    MachineSpec l2 = base;
    l2.sys.fcpEnabled = true;
    fcp_level.configs.emplace_back("L2", l2);
    MachineSpec l3 = l2;
    l3.sys.fcpAtL3 = true;
    fcp_level.configs.emplace_back("L2+L3", l3);
    rows.push_back(std::move(fcp_level));

    SweepRow npu_link{"abl_FlyBot_npuLink", tartan::workloads::runFlyBot,
                      tartan, approximate, {}};
    for (tartan::sim::Cycles lat : {1u, 4u, 16u, 48u, 104u}) {
        MachineSpec spec = tartan;
        spec.npuCfg.commLatency = lat;
        npu_link.configs.emplace_back(std::to_string(lat) + "cyc", spec);
    }
    rows.push_back(std::move(npu_link));

    const std::pair<const char *, RobotFn> npu_robots[] = {
        {"PatrolBot", tartan::workloads::runPatrolBot},
        {"HomeBot", tartan::workloads::runHomeBot},
        {"FlyBot", tartan::workloads::runFlyBot}};
    for (const auto &[name, run] : npu_robots) {
        SweepRow tab03{std::string("tab03_") + name, run, tartan,
                       approximate, {}};
        for (std::uint32_t pes : {2u, 4u, 8u}) {
            MachineSpec spec = tartan;
            spec.npuCfg.pes = pes;
            tab03.configs.emplace_back(std::to_string(pes) + "PE", spec);
        }
        rows.push_back(std::move(tab03));
    }
    return rows;
}

/** Name the row in gtest's failure output, not its bytes. */
void
PrintTo(const SweepRow &row, std::ostream *os)
{
    *os << row.name;
}

class SweepReplay : public ::testing::TestWithParam<SweepRow>
{
};

} // namespace

TEST_P(SweepReplay, TimingConfigsReplayByteIdentically)
{
    const SweepRow &row = GetParam();
    const tartan::sim::CaptureTrace trace =
        tartan::workloads::captureRobot(row.run, row.capSpec, row.opt);
    for (const auto &[label, spec] : row.configs) {
        SCOPED_TRACE(label);
        ASSERT_TRUE(tartan::workloads::replayCompatible(row.capSpec,
                                                        row.opt, spec,
                                                        row.opt));
        const std::string direct =
            tartan::workloads::encodeRunResult(row.run(spec, row.opt));
        const std::string replayed = tartan::workloads::encodeRunResult(
            tartan::workloads::replayTrace(trace, spec, row.opt));
        EXPECT_TRUE(replayed == direct)
            << "replayed payload differs from the direct run:\n  direct   "
            << direct << "\n  replayed " << replayed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SweepReplay, ::testing::ValuesIn(sweepRows()),
    [](const ::testing::TestParamInfo<SweepRow> &info) {
        return info.param.name;
    });
