/**
 * @file
 * Unit tests for the neural substrate: MLP inference and training,
 * the AXAR training techniques (asymmetric loss, L2, gradient
 * clipping), the NPU sigmoid LUT, and PCA. The blocked dense-layer
 * kernels are held bit-exact against a serial reference MLP.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/mlp.hh"
#include "nn/pca.hh"
#include "sim/system.hh"

namespace {

using namespace tartan::nn;
using tartan::sim::Rng;

MlpConfig
smallNet(Loss loss = Loss::Mse)
{
    MlpConfig cfg;
    cfg.layers = {2, 8, 1};
    cfg.loss = loss;
    cfg.learningRate = 0.1f;
    return cfg;
}

TEST(Mlp, ParameterCount)
{
    Rng rng(1);
    Mlp net(smallNet(), rng);
    // 2*8 weights + 8 biases + 8*1 weights + 1 bias.
    EXPECT_EQ(net.parameterCount(), 16u + 8u + 8u + 1u);
}

TEST(Mlp, MacsPerInference)
{
    Rng rng(1);
    MlpConfig cfg;
    cfg.layers = {6, 16, 16, 1};
    Mlp net(cfg, rng);
    EXPECT_EQ(net.macsPerInference(), 6u * 16 + 16u * 16 + 16u * 1);
}

TEST(Mlp, ForwardDeterministic)
{
    Rng rng(7);
    Mlp net(smallNet(), rng);
    float in[2] = {0.3f, -0.2f};
    float a[1], b[1];
    net.forward(in, a);
    net.forward(in, b);
    EXPECT_EQ(a[0], b[0]);
}

TEST(Mlp, LearnsLinearFunction)
{
    Rng rng(3);
    Mlp net(smallNet(), rng);
    std::vector<float> ins, outs;
    Rng data(5);
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        const float x = static_cast<float>(data.uniform(-1, 1));
        const float y = static_cast<float>(data.uniform(-1, 1));
        ins.push_back(x);
        ins.push_back(y);
        outs.push_back(0.5f * x - 0.3f * y + 0.1f);
    }
    float first = net.trainEpoch(ins, outs, n);
    float last = 0.0f;
    for (int e = 0; e < 60; ++e)
        last = net.trainEpoch(ins, outs, n);
    EXPECT_LT(last, first * 0.2f);
    EXPECT_LT(last, 0.01f);
}

TEST(Mlp, LearnsXor)
{
    Rng rng(11);
    MlpConfig cfg;
    cfg.layers = {2, 8, 1};
    cfg.loss = Loss::Bce;
    cfg.sigmoidOutput = true;
    cfg.learningRate = 0.5f;
    Mlp net(cfg, rng);
    const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    const float ys[4] = {0, 1, 1, 0};
    for (int e = 0; e < 3000; ++e)
        for (int s = 0; s < 4; ++s)
            net.trainSample({xs[s], 2}, {&ys[s], 1});
    int correct = 0;
    for (int s = 0; s < 4; ++s) {
        float out[1];
        net.forward({xs[s], 2}, out);
        if ((out[0] > 0.5f) == (ys[s] > 0.5f))
            ++correct;
    }
    EXPECT_EQ(correct, 4);
}

TEST(Mlp, AsymmetricLossBiasesBelowTheTarget)
{
    // Train two nets on noisy targets: the asymmetric loss (alpha = 8)
    // must push predictions to the underestimating side relative to
    // plain MSE (paper §V-F: overestimations penalised 8x harder).
    auto meanBias = [](Loss loss) {
        Rng rng(21);
        MlpConfig cfg;
        cfg.layers = {1, 8, 1};
        cfg.loss = loss;
        cfg.asymAlpha = 8.0f;
        cfg.learningRate = 0.05f;
        Mlp net(cfg, rng);
        Rng data(23);
        std::vector<float> ins, outs;
        const int n = 300;
        for (int i = 0; i < n; ++i) {
            const float x = static_cast<float>(data.uniform(0, 1));
            ins.push_back(x);
            outs.push_back(
                0.8f * x + static_cast<float>(data.gaussian(0, 0.1)));
        }
        for (int e = 0; e < 200; ++e)
            net.trainEpoch(ins, outs, n);
        double bias = 0.0;
        int over = 0;
        for (int i = 0; i < 100; ++i) {
            const float x = i / 100.0f;
            float out[1];
            net.forward({&x, 1}, out);
            bias += out[0] - 0.8 * x;
            if (out[0] > 0.8f * x)
                ++over;
        }
        return std::make_pair(bias / 100.0, over);
    };
    const auto [bias_mse, over_mse] = meanBias(Loss::Mse);
    const auto [bias_asym, over_asym] = meanBias(Loss::AsymmetricMse);
    EXPECT_LT(bias_asym, bias_mse - 0.02);
    EXPECT_LE(over_asym, over_mse);
}

TEST(Mlp, L2RegularisationShrinksWeights)
{
    auto norm = [](float lambda) {
        Rng rng(31);
        MlpConfig cfg;
        cfg.layers = {1, 8, 1};
        cfg.l2Lambda = lambda;
        cfg.learningRate = 0.05f;
        Mlp net(cfg, rng);
        Rng data(33);
        std::vector<float> ins, outs;
        for (int i = 0; i < 100; ++i) {
            ins.push_back(static_cast<float>(data.uniform(0, 1)));
            outs.push_back(ins.back() * 2.0f);
        }
        for (int e = 0; e < 100; ++e)
            net.trainEpoch(ins, outs, 100);
        double acc = 0.0;
        for (float w : net.weights())
            acc += w * w;
        return acc;
    };
    EXPECT_LT(norm(0.05f), norm(0.0f));
}

TEST(Mlp, GradientClippingBoundsUpdates)
{
    // With extreme targets, the clipped net's weights must stay small
    // relative to the unclipped one after a single aggressive step.
    auto biggest = [](float clip) {
        Rng rng(41);
        MlpConfig cfg;
        cfg.layers = {1, 4, 1};
        cfg.gradClip = clip;
        cfg.learningRate = 1.0f;
        Mlp net(cfg, rng);
        const float x = 1.0f;
        const float t = 1000.0f;  // extreme target -> huge gradient
        net.trainSample({&x, 1}, {&t, 1});
        float mx = 0.0f;
        for (float w : net.weights())
            mx = std::max(mx, std::fabs(w));
        return mx;
    };
    EXPECT_LT(biggest(2.5f), biggest(0.0f));
}

TEST(SigmoidLut, MatchesFloatSigmoid)
{
    SigmoidLut lut;
    for (float x = -7.5f; x <= 7.5f; x += 0.37f) {
        const float exact = 1.0f / (1.0f + std::exp(-x));
        EXPECT_NEAR(lut.eval(x), exact, 2e-3f) << "x=" << x;
    }
}

TEST(SigmoidLut, SaturatesAtRangeEnds)
{
    SigmoidLut lut;
    EXPECT_NEAR(lut.eval(-100.0f), 0.0f, 1e-3f);
    EXPECT_NEAR(lut.eval(100.0f), 1.0f, 1e-3f);
}

TEST(Mlp, LutForwardCloseToExact)
{
    Rng rng(51);
    MlpConfig cfg;
    cfg.layers = {4, 16, 16, 2};
    Mlp net(cfg, rng);
    SigmoidLut lut;
    float in[4] = {0.2f, -0.4f, 0.9f, 0.1f};
    float exact[2], approx[2];
    net.forward(in, exact);
    net.forwardLut(in, approx, lut);
    EXPECT_NEAR(approx[0], exact[0], 0.02f);
    EXPECT_NEAR(approx[1], exact[1], 0.02f);
}

TEST(Mlp, TracedForwardMatchesPlainAndChargesCore)
{
    tartan::sim::SysConfig sys_cfg;
    tartan::sim::System sys(sys_cfg);
    Rng rng(61);
    MlpConfig cfg;
    cfg.layers = {4, 8, 2};
    Mlp net(cfg, rng);
    float in[4] = {0.1f, 0.2f, 0.3f, 0.4f};
    float plain[2], traced[2];
    net.forward(in, plain);
    net.forwardTraced(in, traced, sys.core(), 99);
    EXPECT_EQ(plain[0], traced[0]);
    EXPECT_EQ(plain[1], traced[1]);
    // One load + 3 ops per MAC at minimum.
    EXPECT_GE(sys.core().instructions(), net.macsPerInference() * 4);
    EXPECT_GT(sys.core().cycles(), 0u);
}

TEST(Pca, RecoversDominantDirection)
{
    Rng rng(71);
    // Data stretched along (1, 1)/sqrt(2) in 2D.
    std::vector<float> data;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        const double a = rng.gaussian(0, 3.0);
        const double b = rng.gaussian(0, 0.3);
        data.push_back(static_cast<float>(a + b));
        data.push_back(static_cast<float>(a - b));
    }
    Pca pca(data, n, 2, 2, rng);
    // First eigenvalue much larger than the second.
    EXPECT_GT(pca.eigenvalue(0), 10 * pca.eigenvalue(1));
    // Projection of (1,1) onto PC0 has large magnitude; onto PC1 small.
    float sample[2] = {5.0f, 5.0f};
    float out[2];
    pca.transform(sample, out);
    EXPECT_GT(std::fabs(out[0]), 5.0f);
    EXPECT_LT(std::fabs(out[1]), 1.5f);
}

TEST(Pca, TransformOfMeanIsZero)
{
    Rng rng(81);
    std::vector<float> data;
    const int n = 100;
    const std::size_t dim = 6;
    std::vector<float> mean(dim, 0.0f);
    for (int i = 0; i < n; ++i)
        for (std::size_t d = 0; d < dim; ++d) {
            data.push_back(static_cast<float>(rng.uniform(0, 1)));
            mean[d] += data.back();
        }
    for (auto &m : mean)
        m /= n;
    Pca pca(data, n, dim, 3, rng);
    float out[3];
    pca.transform(mean, out);
    for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(out[c], 0.0f, 1e-4f);
}

TEST(Pca, EigenvaluesOrderedOnAnisotropicData)
{
    Rng rng(91);
    std::vector<float> data;
    const int n = 300;
    const std::size_t dim = 8;
    // Per-dimension variance decays geometrically: the learned
    // eigenvalues must come out in decreasing order.
    for (int i = 0; i < n; ++i)
        for (std::size_t d = 0; d < dim; ++d)
            data.push_back(static_cast<float>(
                rng.gaussian(0.0, std::pow(0.6, double(d)) * 4.0)));
    Pca pca(data, n, dim, 4, rng);
    for (int c = 1; c < 4; ++c)
        EXPECT_LT(pca.eigenvalue(c), pca.eigenvalue(c - 1));
}

/** Parameterised sweep: training converges for several topologies. */
class MlpTopologySweep
    : public ::testing::TestWithParam<std::vector<std::uint32_t>>
{
};

TEST_P(MlpTopologySweep, ConvergesOnSmoothTarget)
{
    Rng rng(101);
    MlpConfig cfg;
    cfg.layers = GetParam();
    cfg.learningRate = 0.05f;
    Mlp net(cfg, rng);
    const std::size_t in_n = cfg.layers.front();
    Rng data(103);
    std::vector<float> ins, outs;
    const int n = 150;
    for (int i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t d = 0; d < in_n; ++d) {
            const double v = data.uniform(0, 1);
            ins.push_back(static_cast<float>(v));
            acc += v;
        }
        const std::size_t out_n = cfg.layers.back();
        for (std::size_t o = 0; o < out_n; ++o)
            outs.push_back(static_cast<float>(acc / in_n));
    }
    float first = net.trainEpoch(ins, outs, n);
    float last = first;
    for (int e = 0; e < 120; ++e)
        last = net.trainEpoch(ins, outs, n);
    EXPECT_LT(last, first);
    EXPECT_LT(last, 0.02f);
}

/**
 * Bit-exactness oracle: the straightforward serial loops (one output
 * at a time, each sum in input order), kept as the reference the
 * blocked kernels in Mlp must reproduce exactly. Same weight layout as
 * Mlp: per layer a row-major (out x in) matrix, then the biases.
 */
class RefMlp
{
  public:
    RefMlp(const MlpConfig &config, std::vector<float> weights)
        : cfg(config), w(std::move(weights))
    {
        std::size_t total = 0;
        for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
            wOff.push_back(total);
            total += std::size_t(cfg.layers[l]) * cfg.layers[l + 1];
            bOff.push_back(total);
            total += cfg.layers[l + 1];
        }
        EXPECT_EQ(total, w.size());
    }

    /** Activations of every layer; @p lut replaces the sigmoid. */
    std::vector<std::vector<float>>
    forward(std::span<const float> input, const SigmoidLut *lut) const
    {
        std::vector<std::vector<float>> acts(cfg.layers.size());
        acts[0].assign(input.begin(), input.end());
        for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
            const std::uint32_t in_n = cfg.layers[l];
            const std::uint32_t out_n = cfg.layers[l + 1];
            const float *wl = w.data() + wOff[l];
            const float *b = w.data() + bOff[l];
            acts[l + 1].resize(out_n);
            const bool last = (l + 2 == cfg.layers.size());
            for (std::uint32_t o = 0; o < out_n; ++o) {
                float acc = b[o];
                const float *row = wl + std::size_t(o) * in_n;
                for (std::uint32_t i = 0; i < in_n; ++i)
                    acc += row[i] * acts[l][i];
                if (last && !cfg.sigmoidOutput)
                    acts[l + 1][o] = acc;
                else
                    acts[l + 1][o] = lut ? lut->eval(acc)
                                         : 1.0f / (1.0f + std::exp(-acc));
            }
        }
        return acts;
    }

    float
    trainSample(std::span<const float> input, std::span<const float> target)
    {
        const std::size_t num_layers = cfg.layers.size();
        const auto acts = forward(input, nullptr);
        const auto &y = acts.back();
        std::vector<float> delta(y.size());
        float loss = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i) {
            const float t = target[i];
            switch (cfg.loss) {
              case Loss::Mse: {
                const float d = y[i] - t;
                loss += d * d;
                delta[i] = 2.0f * d;
                break;
              }
              case Loss::AsymmetricMse: {
                const float d = y[i] - t;
                const float wt = d > 0.0f ? cfg.asymAlpha : 1.0f;
                loss += wt * d * d;
                delta[i] = 2.0f * wt * d;
                break;
              }
              case Loss::Bce: {
                const float eps = 1e-7f;
                const float yc = std::clamp(y[i], eps, 1.0f - eps);
                loss += -(t * std::log(yc) +
                          (1.0f - t) * std::log(1.0f - yc));
                delta[i] = (yc - t) / (yc * (1.0f - yc));
                break;
              }
            }
        }
        loss /= float(y.size());
        if (cfg.sigmoidOutput)
            for (std::size_t i = 0; i < delta.size(); ++i)
                delta[i] *= y[i] * (1.0f - y[i]);
        const float clip = cfg.gradClip;
        auto clipped = [clip](float g) {
            return clip <= 0.0f ? g : std::clamp(g, -clip, clip);
        };
        std::vector<float> prev_delta;
        for (std::size_t l = num_layers - 1; l-- > 0;) {
            const std::uint32_t in_n = cfg.layers[l];
            const std::uint32_t out_n = cfg.layers[l + 1];
            float *wl = w.data() + wOff[l];
            float *b = w.data() + bOff[l];
            prev_delta.assign(in_n, 0.0f);
            for (std::uint32_t o = 0; o < out_n; ++o) {
                float *row = wl + std::size_t(o) * in_n;
                const float d = delta[o];
                for (std::uint32_t i = 0; i < in_n; ++i) {
                    prev_delta[i] += row[i] * d;
                    const float grad = clipped(d * acts[l][i]) +
                                       2.0f * cfg.l2Lambda * row[i];
                    row[i] -= cfg.learningRate * grad;
                }
                b[o] -= cfg.learningRate * clipped(d);
            }
            if (l > 0)
                for (std::uint32_t i = 0; i < in_n; ++i)
                    prev_delta[i] *= acts[l][i] * (1.0f - acts[l][i]);
            delta.swap(prev_delta);
        }
        return loss;
    }

    MlpConfig cfg;
    std::vector<float> w;

  private:
    std::vector<std::size_t> wOff, bOff;
};

bool
sameBits(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(MlpOracle, BlockedKernelsAreBitExact)
{
    // Random widths 1..37 cover the 8-output blocks, the outputs left
    // over after them and input counts that are not a multiple of 4.
    Rng topo(2024);
    bool block = false, rows_left = false, cols_left = false;
    const SigmoidLut lut;
    const Loss losses[] = {Loss::Mse, Loss::AsymmetricMse, Loss::Bce};
    for (int trial = 0; trial < 24; ++trial) {
        MlpConfig base;
        const int n_layers = 2 + int(topo.uniformInt(3));
        for (int l = 0; l < n_layers; ++l)
            base.layers.push_back(1 + std::uint32_t(topo.uniformInt(37)));
        for (std::size_t l = 0; l + 1 < base.layers.size(); ++l) {
            block |= base.layers[l + 1] >= 8;
            rows_left |= base.layers[l + 1] > 8 && base.layers[l + 1] % 8;
            cols_left |= base.layers[l] > 4 && base.layers[l] % 4;
        }
        for (Loss loss : losses)
            for (float clip : {0.0f, 0.01f})
                for (float l2 : {0.0f, 0.01f}) {
                    MlpConfig cfg = base;
                    cfg.loss = loss;
                    cfg.gradClip = clip;
                    cfg.l2Lambda = l2;
                    cfg.learningRate = 0.05f;
                    cfg.sigmoidOutput = loss == Loss::Bce || trial % 2;
                    Rng init(std::uint64_t(trial) + 1);
                    Mlp net(cfg, init);
                    RefMlp ref(cfg, net.weights());
                    Rng data(std::uint64_t(trial) + 100);
                    std::vector<float> in(cfg.layers.front());
                    std::vector<float> target(cfg.layers.back());
                    std::vector<float> out(cfg.layers.back());
                    for (int step = 0; step < 12; ++step) {
                        for (auto &v : in)
                            v = float(data.uniform(-3, 3));
                        for (auto &v : target)
                            v = loss == Loss::Bce
                                    ? float(data.uniformInt(2))
                                    : float(data.uniform(-1, 1));
                        const float a = net.trainSample(in, target);
                        const float b = ref.trainSample(in, target);
                        ASSERT_TRUE(sameBits({&a, 1}, {&b, 1}))
                            << "loss, trial " << trial << " step " << step;
                        ASSERT_TRUE(sameBits(net.weights(), ref.w))
                            << "weights, trial " << trial << " step "
                            << step;
                    }
                    net.forward(in, out);
                    EXPECT_TRUE(sameBits(out, ref.forward(in, nullptr).back()))
                        << "forward, trial " << trial;
                    net.forwardLut(in, out, lut);
                    EXPECT_TRUE(sameBits(out, ref.forward(in, &lut).back()))
                        << "forwardLut, trial " << trial;
                }
    }
    EXPECT_TRUE(block && rows_left && cols_left);
}

TEST(MlpOracle, TracedForwardKeepsItsCoreCallSequence)
{
    // forwardTraced charges one load + exec(3) per weight, in row
    // order, and exec(12) per neuron: replaying exactly that sequence
    // on an identical core must give identical counts.
    tartan::sim::SysConfig sys_cfg;
    tartan::sim::System traced(sys_cfg), replayed(sys_cfg);
    Rng rng(5);
    MlpConfig cfg;
    cfg.layers = {13, 19, 6};
    Mlp net(cfg, rng);
    std::vector<float> in(13, 0.25f), out(6), plain(6);
    net.forwardTraced(in, out, traced.core(), 7);
    net.forward(in, plain);
    EXPECT_TRUE(sameBits(out, plain));
    const float *w = net.weights().data();
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        for (std::uint32_t o = 0; o < cfg.layers[l + 1]; ++o) {
            for (std::uint32_t i = 0; i < cfg.layers[l]; ++i) {
                replayed.core().load(
                    reinterpret_cast<tartan::sim::Addr>(w++), 7,
                    tartan::sim::MemDep::Independent);
                replayed.core().exec(3, tartan::sim::OpClass::FpAlu);
            }
            replayed.core().exec(12, tartan::sim::OpClass::FpAlu);
        }
        w += cfg.layers[l + 1];  // skip the layer's biases
    }
    EXPECT_EQ(traced.core().instructions(), replayed.core().instructions());
    EXPECT_EQ(traced.core().cycles(), replayed.core().cycles());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MlpTopologySweep,
    ::testing::Values(std::vector<std::uint32_t>{2, 4, 1},
                      std::vector<std::uint32_t>{4, 8, 8, 1},
                      std::vector<std::uint32_t>{6, 16, 16, 1},
                      std::vector<std::uint32_t>{8, 16, 2}));

} // namespace
