/**
 * @file
 * google-benchmark microbenchmarks of the *host* (native) performance
 * of the library's hot kernels: ray casting, the NNS backends, MLP
 * inference and training (also on the paper's Table II topologies),
 * weighted A* and the CRC-32 that guards capture files, journal records
 * and cache payloads. These measure real wall-clock of the functional code
 * (instrumentation detached), complementing the simulated-cycle figure
 * benches.
 */

#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "nn/mlp.hh"
#include "robotics/astar.hh"
#include "robotics/geometry.hh"
#include "robotics/grid.hh"
#include "robotics/kdtree.hh"
#include "robotics/lsh.hh"
#include "robotics/nns.hh"
#include "robotics/raycast.hh"
#include "sim/arena.hh"
#include "sim/checksum.hh"
#include "sim/rng.hh"

namespace {

using namespace tartan;
using namespace tartan::robotics;
using sim::Arena;
using sim::Rng;

void
BM_RaycastScalar(benchmark::State &state)
{
    Arena arena(8 << 20);
    OccupancyGrid2D grid(512, 512, arena);
    Rng rng(3);
    grid.scatterObstacles(rng, 0.03, 6);
    Mem mem;
    ScalarOrientedEngine engine;
    RayConfig cfg;
    cfg.maxRange = 200;
    int a = 0;
    for (auto _ : state) {
        const double theta = (a++ % 64) * 2.0 * kPi / 64.0;
        benchmark::DoNotOptimize(
            castRay(mem, grid, 256, 256, theta, cfg, engine));
    }
}
BENCHMARK(BM_RaycastScalar);

void
BM_NnsBackends(benchmark::State &state)
{
    const std::uint32_t dim = 5;
    const std::size_t n = 4096;
    Rng rng(7);
    std::vector<float> pts(n * dim);
    for (auto &v : pts)
        v = float(rng.uniform());
    Mem mem;
    std::unique_ptr<NnsBackend> backend;
    switch (state.range(0)) {
      case 0:
        backend = std::make_unique<BruteForceNns>(pts.data(), dim);
        break;
      case 1:
        backend = std::make_unique<KdTreeNns>(pts.data(), dim);
        break;
      default: {
        LshConfig cfg;
        cfg.bucketWidth = 0.8f;
        backend = std::make_unique<LshNns>(pts.data(), dim, cfg,
                                           state.range(0) == 3);
        break;
      }
    }
    for (std::uint32_t i = 0; i < n; ++i)
        backend->insert(mem, i);
    Rng qrng(11);
    for (auto _ : state) {
        float q[5];
        for (auto &v : q)
            v = float(qrng.uniform());
        benchmark::DoNotOptimize(backend->nearest(mem, q));
    }
    state.SetLabel(backend->name());
}
BENCHMARK(BM_NnsBackends)->DenseRange(0, 3);

void
BM_MlpInference(benchmark::State &state)
{
    Rng rng(13);
    nn::MlpConfig cfg;
    cfg.layers = {6, 16, 16, 1};
    nn::Mlp net(cfg, rng);
    float in[6] = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f};
    float out[1];
    for (auto _ : state) {
        net.forward(in, out);
        benchmark::DoNotOptimize(out[0]);
    }
}
BENCHMARK(BM_MlpInference);

void
BM_MlpInferenceLut(benchmark::State &state)
{
    Rng rng(13);
    nn::MlpConfig cfg;
    cfg.layers = {6, 16, 16, 1};
    nn::Mlp net(cfg, rng);
    nn::SigmoidLut lut;
    float in[6] = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f};
    float out[1];
    for (auto _ : state) {
        net.forwardLut(in, out, lut);
        benchmark::DoNotOptimize(out[0]);
    }
}
BENCHMARK(BM_MlpInferenceLut);

/** Table II topologies (FlyBot, HomeBot, PatrolBot): in, h1, h2, out. */
const std::vector<std::vector<std::uint32_t>> kPaperNets = {
    {6, 16, 16, 1}, {192, 32, 32, 6}, {50, 1024, 512, 1}};

/** Seeded net plus one input/target pair for topology range(0). */
struct PaperNet {
    explicit PaperNet(benchmark::State &state)
    {
        Rng rng(13);
        nn::MlpConfig cfg;
        cfg.layers = kPaperNets[std::size_t(state.range(0))];
        cfg.loss = nn::Loss::AsymmetricMse;
        cfg.l2Lambda = 0.0001f;
        cfg.gradClip = 2.5f;
        net.emplace(cfg, rng);
        in.resize(cfg.layers.front());
        target.assign(cfg.layers.back(), 0.5f);
        out.resize(cfg.layers.back());
        for (auto &v : in)
            v = float(rng.uniform());
        std::string label;
        for (auto w : cfg.layers)
            label += (label.empty() ? "" : "/") + std::to_string(w);
        state.SetLabel(label);
    }
    std::optional<nn::Mlp> net;
    std::vector<float> in, target, out;
};

void
BM_MlpTrainSample(benchmark::State &state)
{
    PaperNet p(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(p.net->trainSample(p.in, p.target));
}
BENCHMARK(BM_MlpTrainSample)->DenseRange(0, 2);

void
BM_MlpForwardLutPaper(benchmark::State &state)
{
    PaperNet p(state);
    nn::SigmoidLut lut;
    for (auto _ : state) {
        p.net->forwardLut(p.in, p.out, lut);
        benchmark::DoNotOptimize(p.out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MlpForwardLutPaper)->Arg(2);

void
BM_WeightedAStar(benchmark::State &state)
{
    Arena arena(16 << 20);
    OccupancyGrid2D grid(128, 128, arena);
    Rng rng(17);
    grid.scatterObstacles(rng, 0.08, 5);
    grid.at(2, 2) = 0.0f;
    grid.at(125, 125) = 0.0f;
    SearchArrays arrays(static_cast<std::uint32_t>(grid.cells()), arena);
    Mem mem;
    const double eps = double(state.range(0));
    HeuristicFn h = [&](Mem &, std::uint32_t s) {
        const double dx = double(s % 128) - 125.0;
        const double dy = double(s / 128) - 125.0;
        return std::fabs(dx) + std::fabs(dy);
    };
    auto expand = [&](Mem &, std::uint32_t s,
                      std::vector<Successor> &out) {
        const std::uint32_t x = s % 128, y = s / 128;
        const int dirs[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (auto &d : dirs) {
            const std::int64_t nx = x + d[0], ny = y + d[1];
            if (grid.inBounds(nx, ny) &&
                !grid.occupied(std::uint32_t(nx), std::uint32_t(ny)))
                out.push_back(Successor{
                    std::uint32_t(ny) * 128 + std::uint32_t(nx), 1.0f});
        }
    };
    for (auto _ : state) {
        auto res = weightedAStar(mem, arrays, 2 * 128 + 2,
                                 125 * 128 + 125, expand, h, eps);
        benchmark::DoNotOptimize(res.cost);
    }
}
BENCHMARK(BM_WeightedAStar)->Arg(1)->Arg(2)->Arg(8);

void
BM_Crc32(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    std::vector<std::uint8_t> buf(n);
    Rng rng(23);
    for (auto &b : buf)
        b = std::uint8_t(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::crc32Update(0, buf.data(), n));
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(n));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(1 << 20)->Arg(64 << 20);

} // namespace

BENCHMARK_MAIN();
