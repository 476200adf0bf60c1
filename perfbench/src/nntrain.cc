/**
 * @file
 * nn_train: the two trained evaluations of tab02 on data generated
 * from the run seed.
 *
 *  - HomeBot T-prediction: 192/32/32/6 MSE regression from a pair of
 *    32-point clouds (fixed 8x4 lattice and its noisy rigid motion) to
 *    the motion's six pose parameters.
 *  - PatrolBot detector: PCA(50) of 16x16 images, then a 50/1024/512/1
 *    BCE classifier of "suspicious blob present".
 *
 * Both networks are initialised afresh every iteration from the seed,
 * so every iteration trains the same model and must reproduce the same
 * weights and errors.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>

#include "checks.hh"
#include "workloads.hh"
#include "nn/mlp.hh"
#include "nn/pca.hh"
#include "robotics/icp.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using tartan::sim::Rng;

constexpr std::size_t kPoseTrain = 2500;   //!< pose samples per epoch
constexpr std::size_t kPoseTest = 200;
constexpr std::size_t kPoseEpochs = 8;
constexpr std::size_t kImageCal = 360;     //!< PCA + training images
constexpr std::size_t kImageTest = 400;
constexpr std::size_t kImageEpochs = 4;
constexpr std::size_t kImageDim = 256;
constexpr std::size_t kPcaComponents = 50;
constexpr float kPoseScale = 5.0f;         //!< target scaling (tab02)

std::uint64_t
subSeed(std::uint64_t seed, const char *what)
{
    return tartan::sim::fnv1a64Mix(tartan::sim::fnv1a64(what), seed);
}

/** One pose sample: 192 cloud coordinates in, 6 scaled pose values out. */
void
poseSample(Rng &r, std::vector<float> &in, std::array<float, 6> &out)
{
    const double rots[3] = {r.uniform(-0.1, 0.1), r.uniform(-0.1, 0.1),
                            r.uniform(-0.1, 0.1)};
    const tartan::robotics::Vec3 t{r.uniform(-0.3, 0.3),
                                   r.uniform(-0.3, 0.3),
                                   r.uniform(-0.1, 0.1)};
    const auto tf =
        tartan::robotics::makeTransform(rots[0], rots[1], rots[2], t);
    in.assign(192, 0.0f);
    for (int p = 0; p < 32; ++p) {
        const tartan::robotics::Vec3 v{(p % 8) * 0.5 + 0.25,
                                       ((p / 8) % 4) * 1.0 + 0.5,
                                       (p / 8) * 0.5};
        tartan::robotics::Vec3 w = tf.apply(v);
        w.x += r.gaussian(0, 0.005);
        w.y += r.gaussian(0, 0.005);
        w.z += r.gaussian(0, 0.005);
        in[3 * p + 0] = float(v.x / 4);
        in[3 * p + 1] = float(v.y / 4);
        in[3 * p + 2] = float(v.z / 4);
        in[96 + 3 * p + 0] = float(w.x / 4);
        in[96 + 3 * p + 1] = float(w.y / 4);
        in[96 + 3 * p + 2] = float(w.z / 4);
    }
    for (int k = 0; k < 3; ++k)
        out[k] = float(rots[k]) * kPoseScale;
    out[3] = float(t.x) * kPoseScale;
    out[4] = float(t.y) * kPoseScale;
    out[5] = float(t.z) * kPoseScale;
}

/** One 16x16 image; a "suspicious" one carries a faint 5x5 blob. */
std::vector<float>
image(Rng &r, bool suspicious)
{
    std::vector<float> img(kImageDim);
    for (auto &px : img)
        px = float(r.uniform());
    if (suspicious) {
        const int ox = int(r.uniformInt(8)), oy = int(r.uniformInt(8));
        for (int y = 0; y < 5; ++y)
            for (int x = 0; x < 5; ++x)
                img[(y + 4 + oy) * 16 + (x + 4 + ox)] += 0.9f;
    }
    return img;
}

/** Digest of a network's weights and an error value. */
std::uint64_t
modelDigest(const tartan::nn::Mlp &net, double error)
{
    const auto &w = net.weights();
    std::uint64_t h = tartan::sim::fnv1a64(std::string_view(
        reinterpret_cast<const char *>(w.data()), w.size() * sizeof(float)));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &error, sizeof(bits));
    return tartan::sim::fnv1a64Mix(h, bits);
}

/**
 * An error in percent must be finite and below @p trivial, the error
 * of the trivial model (predict zero motion: 100%; guess: 50%).
 */
std::string
checkError(const char *what, double pct, double trivial)
{
    if (!std::isfinite(pct) || pct < 0.0 || pct >= trivial)
        return std::string(what) + " error " + std::to_string(pct) +
               "% is no better than the trivial model's " +
               std::to_string(trivial) + "%";
    return {};
}

class NnTrain : public Workload
{
  public:
    explicit NnTrain(const Params &p) : params(p) {}

    void
    setup() override
    {
        Rng train(subSeed(params.seed, "pose.train"));
        poseIn.assign(kPoseTrain, {});
        poseOut.assign(kPoseTrain, {});
        for (std::size_t s = 0; s < kPoseTrain; ++s)
            poseSample(train, poseIn[s], poseOut[s]);
        Rng test(subSeed(params.seed, "pose.test"));
        poseTestIn.assign(kPoseTest, {});
        poseTestOut.assign(kPoseTest, {});
        for (std::size_t s = 0; s < kPoseTest; ++s)
            poseSample(test, poseTestIn[s], poseTestOut[s]);

        Rng img(subSeed(params.seed, "image.cal"));
        calib.clear();
        for (std::size_t s = 0; s < kImageCal; ++s) {
            const auto v = image(img, s % 2 == 0);
            calib.insert(calib.end(), v.begin(), v.end());
        }
        Rng timg(subSeed(params.seed, "image.test"));
        testImages.clear();
        for (std::size_t s = 0; s < kImageTest; ++s) {
            const auto v = image(timg, s % 2 == 0);
            testImages.insert(testImages.end(), v.begin(), v.end());
        }
    }

    Outcome
    iterate(Tracer *tracer) override
    {
        Outcome out;
        double gmac = 0.0;

        // --- HomeBot T-prediction, 192/32/32/6 MSE.
        double pose_err = 0.0;
        std::uint64_t digest = 0;
        std::string err = guarded("homebot_tpred", [&] {
            Rng init(subSeed(params.seed, "pose.init"));
            tartan::nn::MlpConfig mc;
            mc.layers = {192, 32, 32, 6};
            mc.loss = tartan::nn::Loss::Mse;
            mc.learningRate = 0.02f;
            mc.l2Lambda = 0.0001f;
            std::optional<tartan::nn::Mlp> net;
            {
                ScopedSpan span(tracer, "nn.mlp.init");
                net.emplace(mc, init);
            }
            const std::size_t epochs = kPoseEpochs;
            const double t0 = nowSec();
            {
                ScopedSpan span(tracer, "nn.mlp.train.192-32-32-6");
                float lr = 0.02f;
                for (std::size_t e = 0; e < epochs; ++e) {
                    net->setLearningRate(lr);
                    for (std::size_t s = 0; s < kPoseTrain; ++s)
                        net->trainSample(poseIn[s], poseOut[s]);
                    lr *= 0.992f;
                }
            }
            out.layer["nn.mlp.192-32-32-6.train_s"] = nowSec() - t0;
            out.trainSamples += double(epochs * kPoseTrain);
            gmac += 3.0 * double(epochs * kPoseTrain) *
                    double(net->macsPerInference()) * 1e-9;

            double abs_err = 0.0, mag = 0.0;
            {
                ScopedSpan span(tracer, "nn.mlp.infer");
                float pred[6];
                for (std::size_t s = 0; s < kPoseTest; ++s) {
                    net->forward(poseTestIn[s], pred);
                    for (int k = 0; k < 6; ++k) {
                        abs_err += std::fabs(pred[k] - poseTestOut[s][k]);
                        mag += std::fabs(poseTestOut[s][k]);
                    }
                }
            }
            pose_err = 100.0 * abs_err / mag;
            digest = modelDigest(*net, pose_err);
            return checkError("pose", pose_err, 100.0);
        });
        out.cell("homebot_tpred", digest, err);

        // --- PatrolBot detector, PCA(50) + 50/1024/512/1 BCE.
        digest = 0;
        err = guarded("patrolbot_detector", [&] {
            Rng init(subSeed(params.seed, "image.init"));
            std::optional<tartan::nn::Pca> pca;
            {
                ScopedSpan span(tracer, "nn.pca.fit");
                pca.emplace(calib, kImageCal, kImageDim, kPcaComponents,
                            init, 12);
            }
            std::vector<float> reduced(kImageCal * kPcaComponents);
            std::vector<float> test_reduced(kImageTest * kPcaComponents);
            {
                ScopedSpan span(tracer, "nn.pca.transform");
                for (std::size_t s = 0; s < kImageCal; ++s)
                    pca->transform({calib.data() + s * kImageDim, kImageDim},
                                   {reduced.data() + s * kPcaComponents,
                                    kPcaComponents});
                for (std::size_t s = 0; s < kImageTest; ++s)
                    pca->transform(
                        {testImages.data() + s * kImageDim, kImageDim},
                        {test_reduced.data() + s * kPcaComponents,
                         kPcaComponents});
            }
            tartan::nn::MlpConfig mc;
            mc.layers = {50, 1024, 512, 1};
            mc.loss = tartan::nn::Loss::Bce;
            mc.sigmoidOutput = true;
            mc.learningRate = 0.02f;
            std::optional<tartan::nn::Mlp> net;
            {
                ScopedSpan span(tracer, "nn.mlp.init");
                net.emplace(mc, init);
            }
            const std::size_t epochs = kImageEpochs;
            const double t0 = nowSec();
            {
                ScopedSpan span(tracer, "nn.mlp.train.50-1024-512-1");
                for (std::size_t e = 0; e < epochs; ++e)
                    for (std::size_t s = 0; s < kImageCal; ++s) {
                        const float target = s % 2 == 0 ? 1.0f : 0.0f;
                        net->trainSample({reduced.data() +
                                              s * kPcaComponents,
                                          kPcaComponents},
                                         {&target, 1});
                    }
            }
            out.layer["nn.mlp.50-1024-512-1.train_s"] = nowSec() - t0;
            out.trainSamples += double(epochs * kImageCal);
            gmac += 3.0 * double(epochs * kImageCal) *
                    double(net->macsPerInference()) * 1e-9;

            int wrong = 0;
            {
                ScopedSpan span(tracer, "nn.mlp.infer");
                for (std::size_t s = 0; s < kImageTest; ++s) {
                    float score[1];
                    net->forward({test_reduced.data() + s * kPcaComponents,
                                  kPcaComponents},
                                 score);
                    if ((score[0] > 0.5f) != (s % 2 == 0))
                        ++wrong;
                }
            }
            const double class_err = 100.0 * wrong / double(kImageTest);
            digest = modelDigest(*net, class_err);
            out.summary = "pose error " + std::to_string(pose_err) +
                          "%, classification error " +
                          std::to_string(class_err) + "%";
            return checkError("classification", class_err, 50.0);
        });
        out.cell("patrolbot_detector", digest, err);

        if (tracer) {
            auto &L = out.layer;
            const double train_s = L["nn.mlp.192-32-32-6.train_s"] +
                                   L["nn.mlp.50-1024-512-1.train_s"];
            L["nn.mlp.train_samples"] = out.trainSamples;
            L["nn.mlp.gmac_per_s"] = train_s > 0 ? gmac / train_s : 0.0;
            L["nn.mlp.infer_s"] = tracer->total("nn.mlp.infer");
            L["nn.pca.fit_s"] = tracer->total("nn.pca.fit");
            L["nn.pca.transform_s"] = tracer->total("nn.pca.transform");
        }
        return out;
    }

  private:
    Params params;
    std::vector<std::vector<float>> poseIn, poseTestIn;
    std::vector<std::array<float, 6>> poseOut, poseTestOut;
    std::vector<float> calib, testImages;
};

} // namespace

std::unique_ptr<Workload>
makeNnTrain(const Params &params)
{
    return std::make_unique<NnTrain>(params);
}

} // namespace perfbench
