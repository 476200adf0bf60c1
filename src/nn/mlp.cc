/**
 * @file
 * MLP implementation: forward passes, SGD with the AXAR training
 * techniques, and the NPU sigmoid LUT.
 */

#include "nn/mlp.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hh"

namespace tartan::nn {

using tartan::sim::Core;
using tartan::sim::MemDep;
using tartan::sim::PcId;

SigmoidLut::SigmoidLut() : table(entries)
{
    for (std::uint32_t i = 0; i < entries; ++i) {
        const float x =
            -range + 2.0f * range * static_cast<float>(i) / (entries - 1);
        table[i] = 1.0f / (1.0f + std::exp(-x));
    }
}

float
SigmoidLut::eval(float x) const
{
    if (x <= -range)
        return table.front();
    if (x >= range)
        return table.back();
    const float pos = (x + range) / (2.0f * range) * (entries - 1);
    const std::uint32_t idx = static_cast<std::uint32_t>(pos);
    const float frac = pos - static_cast<float>(idx);
    const std::uint32_t nxt = std::min(idx + 1, entries - 1);
    return table[idx] * (1.0f - frac) + table[nxt] * frac;
}

Mlp::Mlp(const MlpConfig &config, tartan::sim::Rng &rng) : cfg(config)
{
    TARTAN_ASSERT(cfg.layers.size() >= 2, "MLP needs at least two layers");
    std::size_t total = 0;
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        weightOffsets.push_back(total);
        total += static_cast<std::size_t>(cfg.layers[l]) * cfg.layers[l + 1];
        biasOffsets.push_back(total);
        total += cfg.layers[l + 1];
    }
    weightData.resize(total);
    // Xavier-style initialisation.
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const float scale =
            std::sqrt(2.0f / static_cast<float>(cfg.layers[l] +
                                                cfg.layers[l + 1]));
        const std::size_t w0 = weightOffsets[l];
        const std::size_t count =
            static_cast<std::size_t>(cfg.layers[l]) * cfg.layers[l + 1];
        for (std::size_t i = 0; i < count; ++i)
            weightData[w0 + i] =
                static_cast<float>(rng.gaussian(0.0, scale));
        for (std::uint32_t i = 0; i < cfg.layers[l + 1]; ++i)
            weightData[biasOffsets[l] + i] = 0.0f;
    }
    scratch.resize(cfg.layers.size());
    for (std::size_t l = 0; l < cfg.layers.size(); ++l)
        scratch[l].resize(cfg.layers[l]);
}

float
Mlp::sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

std::size_t
Mlp::parameterCount() const
{
    return weightData.size();
}

std::uint64_t
Mlp::macsPerInference() const
{
    std::uint64_t macs = 0;
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l)
        macs += static_cast<std::uint64_t>(cfg.layers[l]) *
                cfg.layers[l + 1];
    return macs;
}

namespace {

/** Four floats in one SSE register (GCC vector extension). */
typedef float V4 __attribute__((vector_size(16)));

V4
load4(const float *p)
{
    V4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
store4(float *p, V4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * acc[k] += r_k[j] * x[j] for j = 0..3 in that order, where row k
 * starts at r + k * stride: the four row products are formed as
 * vectors, transposed, and added column by column.
 */
inline V4
accumulate4x4(V4 acc, const float *r, std::size_t stride, V4 x)
{
    const V4 p0 = load4(r) * x;
    const V4 p1 = load4(r + stride) * x;
    const V4 p2 = load4(r + 2 * stride) * x;
    const V4 p3 = load4(r + 3 * stride) * x;
    const V4 t0 = __builtin_shufflevector(p0, p1, 0, 4, 1, 5);
    const V4 t1 = __builtin_shufflevector(p0, p1, 2, 6, 3, 7);
    const V4 t2 = __builtin_shufflevector(p2, p3, 0, 4, 1, 5);
    const V4 t3 = __builtin_shufflevector(p2, p3, 2, 6, 3, 7);
    acc += __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    acc += __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    acc += __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    acc += __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
    return acc;
}

/**
 * Pre-activations of one dense layer, out[o] = b[o] + sum_i w[o][i] *
 * in[i]. Each output's sum runs in input order, bit-identical to the
 * serial loop; only independent outputs are interleaved, so that the
 * add latency of one sum no longer bounds the layer: eight at a time
 * as two 4-lane chains, then the remainder one by one.
 */
void
denseLayer(const float *w, const float *b, const float *in, float *out,
           std::uint32_t in_n, std::uint32_t out_n)
{
    const std::size_t s = in_n;
    const std::uint32_t in4 = in_n & ~3u;
    std::uint32_t o = 0;
    for (; o + 8 <= out_n; o += 8) {
        const float *r = w + o * s;
        V4 lo = load4(b + o), hi = load4(b + o + 4);
        for (std::uint32_t i = 0; i < in4; i += 4) {
            const V4 x = load4(in + i);
            lo = accumulate4x4(lo, r + i, s, x);
            hi = accumulate4x4(hi, r + 4 * s + i, s, x);
        }
        store4(out + o, lo);
        store4(out + o + 4, hi);
        for (std::uint32_t i = in4; i < in_n; ++i)
            for (std::size_t k = 0; k < 8; ++k)
                out[o + k] += r[k * s + i] * in[i];
    }
    for (; o < out_n; ++o) {
        const float *row = w + o * s;
        float acc = b[o];
        for (std::uint32_t i = 0; i < in_n; ++i)
            acc += row[i] * in[i];
        out[o] = acc;
    }
}

/**
 * SGD step on one weight row: first (when Propagate) pd[i] += row[i] *
 * d with the pre-step weights, then row[i] -= lr * (clip(d * a[i]) +
 * l2 * row[i]), four lanes at a time.
 */
template <bool Clip, bool Propagate>
void
updateRow(float *row, float *pd, const float *a, std::uint32_t n, float d,
          float lr, float l2, float clip)
{
    const V4 hi = V4{} + clip, lo = -hi;
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const V4 r = load4(row + i);
        if constexpr (Propagate)
            store4(pd + i, load4(pd + i) + r * d);
        V4 g = d * load4(a + i);
        if constexpr (Clip)
            g = g < lo ? lo : (hi < g ? hi : g);  // std::clamp
        store4(row + i, r - lr * (g + l2 * r));
    }
    for (; i < n; ++i) {
        if constexpr (Propagate)
            pd[i] += row[i] * d;
        float g = d * a[i];
        if constexpr (Clip)
            g = std::clamp(g, -clip, clip);
        row[i] -= lr * (g + l2 * row[i]);
    }
}

void
copyOut(const std::vector<float> &out, std::span<float> output)
{
    TARTAN_ASSERT(output.size() == out.size(), "output size mismatch");
    std::copy(out.begin(), out.end(), output.begin());
}

} // namespace

void
Mlp::forwardInternal(std::span<const float> input,
                     const SigmoidLut *lut) const
{
    TARTAN_ASSERT(input.size() == cfg.layers.front(), "input size mismatch");
    std::copy(input.begin(), input.end(), scratch[0].begin());
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const std::uint32_t out_n = cfg.layers[l + 1];
        float *z = scratch[l + 1].data();
        denseLayer(weightData.data() + weightOffsets[l],
                   weightData.data() + biasOffsets[l], scratch[l].data(), z,
                   cfg.layers[l], out_n);
        if (l + 2 < cfg.layers.size() || cfg.sigmoidOutput)
            for (std::uint32_t o = 0; o < out_n; ++o)
                z[o] = lut ? lut->eval(z[o]) : sigmoid(z[o]);
    }
}

void
Mlp::forward(std::span<const float> input, std::span<float> output) const
{
    forwardInternal(input, nullptr);
    copyOut(scratch.back(), output);
}

void
Mlp::forwardLut(std::span<const float> input, std::span<float> output,
                const SigmoidLut &lut) const
{
    forwardInternal(input, &lut);
    copyOut(scratch.back(), output);
}

void
Mlp::forwardTraced(std::span<const float> input, std::span<float> output,
                   Core &core, PcId pc) const
{
    // Software-executed neural model: each MAC costs a weight load, an
    // activation load (usually L1-resident), address arithmetic, and the
    // fused multiply-add itself; each neuron adds library-call and
    // activation overhead. The values are forward()'s.
    for (std::size_t l = 0; l + 1 < cfg.layers.size(); ++l) {
        const std::uint32_t in_n = cfg.layers[l];
        const float *w = weightData.data() + weightOffsets[l];
        for (std::uint32_t o = 0; o < cfg.layers[l + 1]; ++o) {
            const float *row = w + static_cast<std::size_t>(o) * in_n;
            for (std::uint32_t i = 0; i < in_n; ++i) {
                core.load(reinterpret_cast<tartan::sim::Addr>(row + i), pc,
                          MemDep::Independent);
                core.exec(3, tartan::sim::OpClass::FpAlu);
            }
            core.exec(12, tartan::sim::OpClass::FpAlu);
        }
    }
    forward(input, output);
}

float
Mlp::lossAndGradient(std::span<const float> output,
                     std::span<const float> target,
                     std::vector<float> &dOut) const
{
    const std::size_t n = output.size();
    dOut.resize(n);
    float loss = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        const float y = output[i];
        const float t = target[i];
        switch (cfg.loss) {
          case Loss::Mse: {
            const float d = y - t;
            loss += d * d;
            dOut[i] = 2.0f * d;
            break;
          }
          case Loss::AsymmetricMse: {
            // Paper §V-F: overestimation (y > t) penalised alpha times
            // harder than underestimation.
            const float d = y - t;
            const float w = d > 0.0f ? cfg.asymAlpha : 1.0f;
            loss += w * d * d;
            dOut[i] = 2.0f * w * d;
            break;
          }
          case Loss::Bce: {
            const float eps = 1e-7f;
            const float yc = std::clamp(y, eps, 1.0f - eps);
            loss += -(t * std::log(yc) + (1.0f - t) * std::log(1.0f - yc));
            // With a sigmoid output the delta w.r.t. the pre-activation
            // is (y - t); we fold the sigmoid derivative cancellation in
            // by dividing out later; here report dL/dy.
            dOut[i] = (yc - t) / (yc * (1.0f - yc));
            break;
          }
        }
    }
    return loss / static_cast<float>(n);
}

float
Mlp::trainSample(std::span<const float> input,
                 std::span<const float> target)
{
    const std::size_t num_layers = cfg.layers.size();
    forwardInternal(input, nullptr);
    const auto &acts = scratch;
    const float loss = lossAndGradient(acts.back(), target, delta);

    // delta currently holds dL/dy of the output layer; convert to
    // dL/dz (pre-activation) where the output is sigmoidal.
    if (cfg.sigmoidOutput) {
        for (std::size_t i = 0; i < delta.size(); ++i) {
            const float y = acts.back()[i];
            delta[i] *= y * (1.0f - y);
        }
    }

    const float lr = cfg.learningRate;
    const float l2 = 2.0f * cfg.l2Lambda;
    const float clip = cfg.gradClip;
    const bool clipping = clip > 0.0f;
    auto clipped = [clip, clipping](float g) {
        return clipping ? std::clamp(g, -clip, clip) : g;
    };

    for (std::size_t l = num_layers - 1; l-- > 0;) {
        const std::uint32_t in_n = cfg.layers[l];
        const std::uint32_t out_n = cfg.layers[l + 1];
        float *w = weightData.data() + weightOffsets[l];
        float *b = weightData.data() + biasOffsets[l];
        // The input layer's delta would never be read: skip it.
        const bool propagate = l > 0;
        const auto update =
            clipping ? (propagate ? updateRow<true, true>
                                  : updateRow<true, false>)
                     : (propagate ? updateRow<false, true>
                                  : updateRow<false, false>);

        if (propagate)
            prevDelta.assign(in_n, 0.0f);
        for (std::uint32_t o = 0; o < out_n; ++o) {
            update(w + static_cast<std::size_t>(o) * in_n, prevDelta.data(),
                   acts[l].data(), in_n, delta[o], lr, l2, clip);
            b[o] -= lr * clipped(delta[o]);
        }
        if (propagate) {
            // Hidden activations are sigmoidal.
            for (std::uint32_t i = 0; i < in_n; ++i) {
                const float a = acts[l][i];
                prevDelta[i] *= a * (1.0f - a);
            }
            delta.swap(prevDelta);
        }
    }
    return loss;
}

float
Mlp::trainEpoch(std::span<const float> inputs,
                std::span<const float> targets, std::size_t count)
{
    const std::size_t in_n = cfg.layers.front();
    const std::size_t out_n = cfg.layers.back();
    TARTAN_ASSERT(inputs.size() >= count * in_n, "epoch input underflow");
    TARTAN_ASSERT(targets.size() >= count * out_n, "epoch target underflow");
    float acc = 0.0f;
    for (std::size_t s = 0; s < count; ++s) {
        acc += trainSample(inputs.subspan(s * in_n, in_n),
                           targets.subspan(s * out_n, out_n));
    }
    return count ? acc / static_cast<float>(count) : 0.0f;
}

} // namespace tartan::nn
