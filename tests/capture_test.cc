/**
 * @file
 * Capture / replay engine: the byte-identity contract fleet replay and
 * saved .tcap files rely on. The tests pin down (1) the capture file's
 * corruption policy — truncated tails, bit-flipped bodies, foreign
 * format versions and implausible headers never load, mirroring the run
 * journal; (2) replay-vs-direct equivalence — for every robot in the
 * suite, a replayed capture reproduces the direct run's counters and
 * per-kernel CPI stacks exactly at the capture configuration
 * (sweep_replay_test.cc covers the timing-only sweeps); (3) capture
 * density — fig10's captures, saved and reloaded, stay within 16 file
 * bytes per captured op; (4) the resume-mode mix — journaled replayed
 * cells resume byte-identically; (5) the capture I/O substrate — the
 * sliced CRC-32 equals the bytewise definition, the pinned format-v2
 * file loads and saves to the same bytes, and a session whose record
 * reservation cannot be mapped still records; (6) a mutation corpus
 * over the pinned file — truncation at every length, a bit flip in
 * every header and record byte, aux cursor overruns and the retired v1
 * pin — where every mutant is rejected with a reason; (7) record fusion
 * — the session fuses exactly the memory-then-compute pairs it may, and
 * replaying a capture with its fused records split back into primitives
 * changes nothing.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/capture.hh"
#include "sim/checksum.hh"
#include "sim/runpool.hh"
#include "sim/stats.hh"
#include "workloads/cellcodec.hh"
#include "workloads/common.hh"
#include "workloads/replay.hh"
#include "workloads/robots.hh"
#include "fused_split.hh"

namespace fs = std::filesystem;

using tartan::sim::CapOp;
using tartan::sim::CapRecord;
using tartan::sim::CaptureSession;
using tartan::sim::CaptureTrace;
using tartan::workloads::captureRobot;
using tartan::workloads::MachineSpec;
using tartan::workloads::RunResult;
using tartan::workloads::SoftwareTier;
using tartan::workloads::WorkloadOptions;

namespace {

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("capture_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small synthetic capture exercising every aux-bearing record. */
CaptureTrace
sampleTrace()
{
    CaptureSession session(0xfeedc0de, 7);
    session.registerKernel("raycast");
    session.setKernel(0);
    session.exec(120, 1);
    session.stall(35, 2);
    session.countInstructions(99);
    session.load(0x1000, 3, 1, 8);
    session.store(0x2000, 4, 16);
    session.vecOp(5);
    const std::uint64_t lanes[] = {0x3000, 0x3040, 0x3080};
    session.vecLoadLanes(lanes, 5, 2, 4, 1);
    session.deviceLoadLanes(lanes, 6, 10, 1);
    session.mapSegment(0x4000, 4096);
    session.serialBegin();
    session.serialEnd();
    session.overlapBegin();
    session.overlapEnd();
    session.discountRegion(4);
    const std::uint32_t ids[] = {0, 2};
    session.discountKernels(ids, 4);
    const std::uint32_t layers[] = {50, 256, 1};
    session.npuInfer(50, 1, layers);
    session.addMetric("planCost", 2.5);
    session.setRobot("TestBot");
    return session.take();
}

/**
 * The fixed synthetic trace behind tests/data/capture_v2_pin.tcap. It
 * depends on nothing but this code, so every build must record it as
 * the same records and aux bytes and save it as the same file; editing
 * it invalidates the pinned file.
 */
CaptureTrace
pinTrace()
{
    CaptureSession session(0x0123456789abcdefull, 1234);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 17;
    };
    const std::uint64_t base = 0x7f0000000000ull;
    session.registerKernel("pin.scan");
    session.registerKernel("pin.plan");
    session.mapSegment(base, 1 << 20);
    session.writeThroughRange(base + 0x100000, 4096);
    session.noAllocateRange(base + 0x200000, 8192);
    session.npuConfigure(4097);
    for (std::uint32_t i = 0; i < 8; ++i) {
        session.setKernel(i % 2);
        session.stageBegin(1 + i % 4);
        session.itemBegin();
        session.load(base + next() % (1 << 20), 100 + i,
                     std::uint8_t(i % 3), 8);
        session.exec(next() % 64, std::uint8_t(i % 4));
        session.store(base + next() % (1 << 20), 200 + i, 4);
        session.stall(next() % 500, std::uint8_t(i % 13));
        session.countInstructions(next() % 1000);
        session.vecOp(1 + i);
        std::uint64_t lanes[4];
        for (auto &lane : lanes)
            lane = base + next() % 4096;
        session.vecLoadLanes(std::span<const std::uint64_t>(lanes, 1 + i % 4),
                             300 + i, 2, 4, 1);
        session.deviceLoadLanes(
            std::span<const std::uint64_t>(lanes, 1 + (i + 1) % 4), 400 + i,
            10 + i, 9);
        session.vecLoadContiguous(base + 64 * i, 64, 500 + i);
        session.itemEnd();
        session.stageEnd();
    }
    session.serialBegin();
    session.exec(7, 0);
    session.serialEnd();
    session.overlapBegin();
    session.stall(90, 4);
    session.overlapEnd();
    session.discountRegion(3);
    const std::uint32_t ids[] = {0, 1};
    session.discountKernels(ids, 2);
    const std::uint32_t layers[] = {50, 1024, 512, 1};
    session.npuInfer(50, 1, layers);
    {
        tartan::sim::CaptureSuppress quiet(&session);
        session.exec(999, 0); // suppressed: not recorded
    }
    session.setRobot("PinBot");
    session.addMetric("pin.quality", 0.8125);
    session.addMetric("pin.cost", -3.0e9);
    return session.take();
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.robot, b.robot);
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.workCycles, b.workCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.bottleneckKernel, b.bottleneckKernel);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Traffic, b.l3Traffic);
    EXPECT_EQ(a.pfIssued, b.pfIssued);
    EXPECT_EQ(a.pfHitsTimely, b.pfHitsTimely);
    EXPECT_EQ(a.pfHitsLate, b.pfHitsLate);
    EXPECT_EQ(a.udmFetchedBytes, b.udmFetchedBytes);
    EXPECT_EQ(a.udmUsedBytes, b.udmUsedBytes);
    EXPECT_EQ(a.npuInvocations, b.npuInvocations);
    EXPECT_EQ(a.npuCommCycles, b.npuCommCycles);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].name, b.kernels[i].name) << i;
        EXPECT_EQ(a.kernels[i].cycles, b.kernels[i].cycles)
            << a.kernels[i].name;
        EXPECT_EQ(a.kernels[i].memStallCycles,
                  b.kernels[i].memStallCycles)
            << a.kernels[i].name;
        EXPECT_EQ(a.kernels[i].instructions, b.kernels[i].instructions)
            << a.kernels[i].name;
        for (std::size_t c = 0; c < tartan::sim::kNumCpiCats; ++c)
            EXPECT_EQ(a.kernels[i].cpi.cat[c], b.kernels[i].cpi.cat[c])
                << a.kernels[i].name << " cat " << c;
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[key, val] : a.metrics) {
        const auto it = b.metrics.find(key);
        ASSERT_NE(it, b.metrics.end()) << key;
        std::uint64_t av, bv;
        std::memcpy(&av, &val, 8);
        std::memcpy(&bv, &it->second, 8);
        EXPECT_EQ(av, bv) << key;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Capture files: round-trip and corruption policy
// ---------------------------------------------------------------------------

TEST(CaptureFile, RoundTripsExactly)
{
    const fs::path dir = scratchDir("roundtrip");
    const fs::path path = dir / "t.tcap";
    const CaptureTrace trace = sampleTrace();
    ASSERT_TRUE(trace.validate());

    std::string err;
    ASSERT_TRUE(trace.save(path.string(), &err)) << err;
    // Atomic save leaves no temp sibling behind.
    EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

    CaptureTrace back;
    ASSERT_TRUE(CaptureTrace::load(path.string(), back, &err)) << err;
    EXPECT_EQ(back.configHash, trace.configHash);
    EXPECT_EQ(back.seed, trace.seed);
    ASSERT_EQ(back.records.size(), trace.records.size());
    EXPECT_EQ(std::memcmp(back.records.data(), trace.records.data(),
                          trace.records.size() * sizeof(CapRecord)),
              0);
    ASSERT_EQ(back.aux.size(), trace.aux.size());
    EXPECT_EQ(std::memcmp(back.aux.data(), trace.aux.data(),
                          trace.aux.size()),
              0);
}

TEST(CaptureFile, AbsentFileIsAMissNotCorruption)
{
    CaptureTrace out;
    std::string err = "sentinel";
    err.clear();
    EXPECT_FALSE(CaptureTrace::load("/nonexistent/nowhere.tcap", out,
                                    &err));
    EXPECT_TRUE(err.empty());
}

TEST(CaptureFile, TruncatedTailRejected)
{
    const fs::path dir = scratchDir("trunc");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    // SIGKILL mid-write: chop bytes off the end.
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 5));

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(CaptureFile, TrailingGarbageRejected)
{
    const fs::path dir = scratchDir("trailing");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));
    spit(path, slurp(path) + "junk");

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(CaptureFile, BitFlippedBodyRejectedByCrc)
{
    const fs::path dir = scratchDir("bitflip");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    std::string bytes = slurp(path);
    bytes[bytes.size() - 3] ^= 0x40; // bit rot inside the aux stream
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST(CaptureFile, ForeignFormatVersionRejected)
{
    const fs::path dir = scratchDir("version");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    // The version field sits right after the 8-byte magic.
    std::string bytes = slurp(path);
    const std::uint32_t foreign = 999;
    std::memcpy(bytes.data() + 8, &foreign, 4);
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(CaptureFile, BadMagicRejected)
{
    const fs::path dir = scratchDir("magic");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));
    std::string bytes = slurp(path);
    bytes[0] = 'X';
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(CaptureFile, ImplausibleRecordCountRejectedBeforeAllocation)
{
    const fs::path dir = scratchDir("hugecount");
    const fs::path path = dir / "t.tcap";
    ASSERT_TRUE(sampleTrace().save(path.string()));

    // A corrupt header claiming 2^60 records must be rejected by the
    // file-size check, never turned into a giant allocation.
    std::string bytes = slurp(path);
    const std::uint64_t huge = 1ull << 60;
    std::memcpy(bytes.data() + 32, &huge, 8); // recordCount field
    spit(path, bytes);

    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err));
    EXPECT_NE(err.find("truncated or oversized"), std::string::npos)
        << err;
}

TEST(CaptureTrace, ValidateRejectsBadOpsAndAuxOverruns)
{
    CaptureTrace trace = sampleTrace();
    ASSERT_TRUE(trace.validate());

    // Unknown op tag.
    CaptureTrace bad_op = sampleTrace();
    bad_op.records[0].op = std::uint8_t(CapOp::NumOps);
    std::string err;
    EXPECT_FALSE(bad_op.validate(&err));
    EXPECT_NE(err.find("op tag"), std::string::npos) << err;

    // A record claiming more aux bytes than the stream holds (the
    // RegisterKernel record is aux-bearing): the cursor overruns.
    CaptureTrace bad_aux = sampleTrace();
    ASSERT_EQ(CapOp(bad_aux.records[0].op), CapOp::RegisterKernel);
    bad_aux.records[0].a32 = std::uint32_t(bad_aux.aux.size() + 1);
    err.clear();
    EXPECT_FALSE(bad_aux.validate(&err));
    EXPECT_NE(err.find("aux cursor"), std::string::npos) << err;

    // One byte fewer claimed: the cursor stops short of the stream's
    // end, leaving bytes no record owns.
    CaptureTrace short_aux = sampleTrace();
    short_aux.records[0].a32 -= 1;
    err.clear();
    EXPECT_FALSE(short_aux.validate(&err));
    EXPECT_NE(err.find("aux bytes"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// CRC-32, format pin and record reservation
// ---------------------------------------------------------------------------

namespace {

/** The CRC-32 definition: one reflected-polynomial step per bit. */
std::uint32_t
bitwiseCrc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

/** The capture file pinned at format version 2. */
fs::path
pinPath()
{
    return fs::path(__FILE__).parent_path() / "data" /
           "capture_v2_pin.tcap";
}

/** pinTrace() as saved by format version 1, kept as a foreign file. */
fs::path
v1PinPath()
{
    return fs::path(__FILE__).parent_path() / "data" /
           "capture_v1_pin.tcap";
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    using tartan::sim::crc32;
    using tartan::sim::crc32Update;
    EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_EQ(crc32Update(0, nullptr, 0), 0u);
    EXPECT_EQ(crc32Update(0xcbf43926u, nullptr, 0), 0xcbf43926u);
    // Long enough to take the 16-byte blocks as well as the tail.
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
              0x414fa339u);
}

TEST(Crc32, MatchesTheBitwiseDefinitionAtEveryLengthAndOffset)
{
    std::mt19937_64 rng(13);
    std::vector<unsigned char> buf(300 + 16);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng());
    for (std::size_t off = 0; off < 16; ++off)
        for (std::size_t len = 0; len <= 300; ++len) {
            const unsigned char *p = buf.data() + off;
            ASSERT_EQ(tartan::sim::crc32Update(0, p, len),
                      bitwiseCrc32(p, len))
                << "offset " << off << " length " << len;
        }
}

TEST(Crc32, ChainedUpdatesEqualOneShot)
{
    std::mt19937_64 rng(29);
    std::string data(4099, '\0');
    for (char &ch : data)
        ch = static_cast<char>(rng());
    const std::uint32_t whole = tartan::sim::crc32(data);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint32_t c = 0;
        std::size_t at = 0;
        while (at < data.size()) {
            const std::size_t n =
                std::min<std::size_t>(rng() % 70, data.size() - at);
            c = tartan::sim::crc32Update(c, data.data() + at, n);
            at += n;
        }
        ASSERT_EQ(c, whole) << "trial " << trial;
    }
}

TEST(CaptureFormatPin, VersionTwoFileLoadsAndSavesToTheSameBytes)
{
    const std::string pinned = slurp(pinPath());
    ASSERT_FALSE(pinned.empty()) << "missing " << pinPath();
    std::uint32_t version = 0;
    std::memcpy(&version, pinned.data() + 8, 4);
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(version, tartan::sim::kCaptureFormatVersion);

    CaptureTrace loaded;
    std::string err;
    ASSERT_TRUE(CaptureTrace::load(pinPath().string(), loaded, &err))
        << err;
    const fs::path dir = scratchDir("pin");
    const fs::path resaved = dir / "resaved.tcap";
    ASSERT_TRUE(loaded.save(resaved.string(), &err)) << err;
    EXPECT_TRUE(slurp(resaved) == pinned)
        << "a loaded v2 capture no longer saves to its own bytes";

    // The same synthetic trace recorded and saved by this build.
    const fs::path fresh = dir / "fresh.tcap";
    ASSERT_TRUE(pinTrace().save(fresh.string(), &err)) << err;
    EXPECT_TRUE(slurp(fresh) == pinned)
        << "this build writes the pinned trace differently";
}

// ---------------------------------------------------------------------------
// Mutation corpus over the pinned v2 file
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kHeaderBytes = 64;

/** Write @p bytes to @p path and load them; false (with @p err) = rejected. */
bool
loadsAs(const fs::path &path, const std::string &bytes, std::string *err)
{
    spit(path, bytes);
    CaptureTrace out;
    return CaptureTrace::load(path.string(), out, err);
}

} // namespace

TEST(CaptureCorpus, TruncationAtEveryLengthIsRejected)
{
    const std::string pinned = slurp(pinPath());
    ASSERT_FALSE(pinned.empty()) << "missing " << pinPath();
    const fs::path path = scratchDir("corpus_trunc") / "t.tcap";
    for (std::size_t len = 0; len < pinned.size(); ++len) {
        std::string err;
        ASSERT_FALSE(loadsAs(path, pinned.substr(0, len), &err))
            << "a " << len << "-byte prefix loaded";
        ASSERT_FALSE(err.empty()) << "length " << len;
    }
}

TEST(CaptureCorpus, BitFlipInEveryHeaderAndRecordByteIsRejected)
{
    const std::string pinned = slurp(pinPath());
    CaptureTrace pin;
    std::string err;
    ASSERT_TRUE(CaptureTrace::load(pinPath().string(), pin, &err)) << err;
    const std::size_t records_end =
        kHeaderBytes + pin.records.size() * sizeof(CapRecord);
    ASSERT_LT(records_end, pinned.size());  // the aux bytes follow
    const fs::path path = scratchDir("corpus_flip") / "t.tcap";
    for (std::size_t at = 0; at < records_end; ++at)
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = pinned;
            mutant[at] = char(mutant[at] ^ (1 << bit));
            err.clear();
            ASSERT_FALSE(loadsAs(path, mutant, &err))
                << "byte " << at << " bit " << bit << " flipped still loads";
            ASSERT_FALSE(err.empty()) << "byte " << at << " bit " << bit;
        }
}

TEST(CaptureCorpus, AuxCursorOverrunIsRejected)
{
    // Correctly framed and checksummed files whose records claim more
    // aux than the stream holds: save() writes any trace, so only the
    // cursor walk in validate() stands between them and replay.
    const fs::path dir = scratchDir("corpus_aux");
    CaptureTrace pin = pinTrace();
    ASSERT_TRUE(pin.validate());

    std::vector<CaptureTrace> mutants;
    // The last aux-bearing record claims one lane more.
    for (std::size_t i = pin.records.size(); i-- > 0;)
        if (tartan::sim::capAuxBytes(pin.records[i]) &&
            CapOp(pin.records[i].op) != CapOp::Metric) {
            mutants.push_back(pin);
            mutants.back().records[i].a32 += 1;
            break;
        }
    // A plain store whose size field says "wide" with no aux behind it.
    for (std::size_t i = 0; i < pin.records.size(); ++i)
        if (CapOp(pin.records[i].op) == CapOp::Store) {
            mutants.push_back(pin);
            mutants.back().records[i].a16 = tartan::sim::kCapWide16;
            break;
        }
    // A lane op whose packed cycle count says "wide" likewise.
    for (std::size_t i = 0; i < pin.records.size(); ++i)
        if (CapOp(pin.records[i].op) == CapOp::DeviceLoadLanes) {
            mutants.push_back(pin);
            mutants.back().records[i].b |=
                std::uint64_t(tartan::sim::kCapWide32) << 32;
            break;
        }
    // The final metric's name runs off the end of the stream.
    mutants.push_back(pin);
    ASSERT_EQ(CapOp(mutants.back().records.back().op), CapOp::Metric);
    mutants.back().records.back().a32 += 1;
    ASSERT_EQ(mutants.size(), 4u);

    for (std::size_t m = 0; m < mutants.size(); ++m) {
        const fs::path path = dir / ("m" + std::to_string(m) + ".tcap");
        std::string err;
        ASSERT_TRUE(mutants[m].save(path.string(), &err)) << err;
        CaptureTrace out;
        EXPECT_FALSE(CaptureTrace::load(path.string(), out, &err))
            << "mutant " << m;
        EXPECT_NE(err.find("aux cursor overruns"), std::string::npos)
            << "mutant " << m << ": " << err;
    }
}

TEST(CaptureCorpus, VersionOnePinIsRejectedAsForeign)
{
    // Format v1 files are re-captured, never read: there is no v1 reader.
    CaptureTrace out;
    std::string err;
    EXPECT_FALSE(CaptureTrace::load(v1PinPath().string(), out, &err));
    EXPECT_NE(err.find("foreign format version 1"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------------------
// Record fusion rules
// ---------------------------------------------------------------------------

namespace {

std::vector<CapOp>
opsOf(const CaptureTrace &trace)
{
    std::vector<CapOp> ops;
    for (const CapRecord &r : trace.records)
        ops.push_back(CapOp(r.op));
    return ops;
}

} // namespace

TEST(CaptureFusion, MemoryThenComputePairsFuseAndSplitBack)
{
    CaptureSession session(1, 2);
    const std::uint64_t lanes[] = {0x5000, 0x5040};
    session.load(0x1000, 7, 1, 8);
    session.exec(3, 1);
    session.store(0x2000, 8, 4);
    session.exec(2, 3);
    session.vecLoadContiguous(0x3000, 64, 9);
    session.vecOp(2);
    session.vecLoadLanes(lanes, 10, 5, 4, 10);
    session.vecOp(255);
    const CaptureTrace trace = session.take();
    EXPECT_EQ(opsOf(trace),
              (std::vector<CapOp>{CapOp::LoadExec, CapOp::StoreExec,
                                  CapOp::VecLoadContiguousVecOp,
                                  CapOp::VecLoadLanesVecOp}));
    ASSERT_TRUE(trace.validate());

    const CaptureTrace split = tartan::testutil::splitFused(trace);
    ASSERT_TRUE(split.validate());
    ASSERT_EQ(opsOf(split),
              (std::vector<CapOp>{CapOp::Load, CapOp::Exec, CapOp::Store,
                                  CapOp::Exec, CapOp::VecLoadContiguous,
                                  CapOp::VecOp, CapOp::VecLoadLanes,
                                  CapOp::VecOp}));
    const auto &r = split.records;
    EXPECT_EQ(r[0].b, 0x1000u);
    EXPECT_EQ(r[0].a32, 7u);
    EXPECT_EQ(r[0].a8, 1u);
    EXPECT_EQ(r[0].a16, 8u);
    EXPECT_EQ(r[1].b, 3u);
    EXPECT_EQ(r[1].a8, 1u);
    EXPECT_EQ(r[2].a16, 4u);
    EXPECT_EQ(r[3].b, 2u);
    EXPECT_EQ(r[3].a8, 3u);
    EXPECT_EQ(r[4].a16, 64u);
    EXPECT_EQ(r[5].b, 2u);
    EXPECT_EQ(r[6].a16, 4u);
    EXPECT_EQ(r[6].a8, 10u);
    EXPECT_EQ(r[6].b, 10u | std::uint64_t(5) << 32);
    EXPECT_EQ(r[7].b, 255u);
}

TEST(CaptureFusion, OnlyAdjacentMemoryThenComputeFusesWhenItFits)
{
    const std::uint64_t lanes[] = {0x5000};
    CaptureSession session(1, 2);
    // Compute then memory never fuses.
    session.exec(3, 1);
    session.load(0x1000, 7, 0, 8);
    // A memory op absorbs one compute op, not two.
    session.exec(1, 0);
    session.exec(1, 0);
    // Mismatched pairs.
    session.load(0x1000, 7, 0, 8);
    session.vecOp(1);
    session.vecLoadContiguous(0x3000, 64, 9);
    session.exec(1, 0);
    // Not across a suppressed stretch, even an empty one.
    session.load(0x1000, 7, 0, 8);
    {
        tartan::sim::CaptureSuppress quiet(&session);
        session.exec(5, 0);
    }
    session.exec(1, 0);
    session.store(0x2000, 8, 4);
    {
        tartan::sim::CaptureSuppress quiet(&session);
    }
    session.exec(1, 0);
    // Arguments that do not fit the head's spare bits.
    session.load(0x1000, 7, 0, 8);
    session.exec(256, 0);
    session.load(0x1000, 7, 0, 256);
    session.exec(1, 0);
    session.load(0x1000, 7, 0, 8);
    session.exec(1, 16);
    session.vecLoadLanes(lanes, 10, 0, 256, 1);
    session.vecOp(1);
    session.vecLoadContiguous(0x3000, 64, 9);
    session.vecOp(256);
    const CaptureTrace trace = session.take();
    ASSERT_TRUE(trace.validate());
    EXPECT_EQ(opsOf(trace),
              (std::vector<CapOp>{
                  CapOp::Exec, CapOp::LoadExec, CapOp::Exec,
                  CapOp::Load, CapOp::VecOp,
                  CapOp::VecLoadContiguous, CapOp::Exec,
                  CapOp::Load, CapOp::Exec,
                  CapOp::Store, CapOp::Exec,
                  CapOp::Load, CapOp::Exec,
                  CapOp::Load, CapOp::Exec,
                  CapOp::Load, CapOp::Exec,
                  CapOp::VecLoadLanes, CapOp::VecOp,
                  CapOp::VecLoadContiguous, CapOp::VecOp}));
}

TEST(CaptureFusion, WideArgumentsReplayThroughTheAuxCursor)
{
    // Drive a core directly with arguments too wide for their record
    // fields (and the pairs they may still fuse into), then replay the
    // capture on a second machine: identical stats, and the replay
    // cursor ends exactly at the end of the aux stream.
    const MachineSpec spec = MachineSpec::tartan();
    CaptureSession session(1, 2);
    WorkloadOptions opt;
    opt.capture = &session;
    tartan::workloads::Machine direct(spec, opt);
    tartan::sim::Core &core = direct.core();
    tartan::sim::MemPath &mem = direct.system().mem();
    const std::uint64_t base = 0x7f0000000000ull;
    mem.mapSegment(base, std::size_t(1) << 24);
    mem.addWriteThroughRange(base + 0x100000, 4096);
    mem.addNoAllocateRange(base + 0x200000, 8192);
    core.registerKernel("wide");
    core.load(base, 1, tartan::sim::MemDep::Dependent, 70000);
    core.exec(4);
    core.store(base + 64, 2, 0xffff);
    core.exec(1);
    core.vecLoadContiguous(base + 4096, 1u << 17, 3);
    core.vecOp(2);
    const std::uint64_t lanes[] = {base + 128, base + 8192};
    core.vecLoadLanes(lanes, 4, std::uint64_t(1) << 33, 1u << 20,
                      tartan::sim::CpiCat::Ovec);
    core.vecOp(3);
    core.vecLoadLanes(lanes, 5, std::uint64_t(1) << 34, 8,
                      tartan::sim::CpiCat::Ovec);
    core.vecOp(1);
    core.deviceLoadLanes(lanes, 6, std::uint64_t(1) << 35,
                         tartan::sim::CpiCat::Ovec);
    core.load(base + 256, 7, tartan::sim::MemDep::Independent, 8);
    core.exec(2);
    const CaptureTrace trace = session.take();
    ASSERT_TRUE(trace.validate());
    EXPECT_EQ(opsOf(trace),
              (std::vector<CapOp>{
                  CapOp::MapSegment, CapOp::WriteThroughRange,
                  CapOp::NoAllocateRange, CapOp::RegisterKernel,
                  CapOp::Load, CapOp::Exec,
                  CapOp::Store, CapOp::Exec, CapOp::VecLoadContiguous,
                  CapOp::VecOp, CapOp::VecLoadLanes, CapOp::VecOp,
                  CapOp::VecLoadLanesVecOp, CapOp::DeviceLoadLanes,
                  CapOp::LoadExec}));

    tartan::workloads::Machine replayed(spec, WorkloadOptions{});
    tartan::workloads::ReplayStream stream(trace, replayed);
    while (!stream.done())
        stream.step();
    EXPECT_EQ(stream.auxCursor(), trace.aux.size());

    const auto dump = [](tartan::workloads::Machine &m) {
        tartan::sim::StatsRegistry registry;
        m.registerStats(registry);
        registry.setMeta("timestamp", "pinned");
        registry.setMeta("git", "pinned");
        std::ostringstream os;
        registry.dumpJson(os);
        return os.str();
    };
    EXPECT_EQ(replayed.core().cycles(), direct.core().cycles());
    EXPECT_EQ(replayed.core().instructions(), direct.core().instructions());
    EXPECT_TRUE(dump(replayed) == dump(direct));
}

TEST(CaptureSessionDeathTest, UnmappableReservationFallsBackToGrowth)
{
    // Cap the address space 256 MiB above what is mapped now: the 1 GiB
    // record reservation cannot be mapped, ordinary growth still can.
    EXPECT_EXIT(
        {
            std::uint64_t pages = 0;
            std::ifstream("/proc/self/statm") >> pages;
            const rlim_t cap = rlim_t(pages) * rlim_t(::sysconf(_SC_PAGESIZE)) +
                               (rlim_t(256) << 20);
            rlimit lim;
            lim.rlim_cur = cap;
            lim.rlim_max = cap;
            if (pages == 0 || ::setrlimit(RLIMIT_AS, &lim) != 0)
                std::_Exit(2);
            CaptureSession session(1, 2);
            bool ok = session.trace().records.capacity() <
                      CaptureSession::kReservedRecords;
            const std::uint64_t n = 100000;
            for (std::uint64_t i = 0; i < n; ++i)
                session.exec(i, 0);
            const CaptureTrace trace = session.take();
            ok = ok && trace.records.size() == n;
            for (std::uint64_t i = 0; ok && i < n; ++i)
                ok = trace.records[i].b == i;
            std::_Exit(ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(CaptureSession, RecordsIntoTheReservationWithoutRegrowth)
{
    CaptureSession session(1, 2);
    ASSERT_GE(session.trace().records.capacity(),
              CaptureSession::kReservedRecords);
    const CapRecord *first = session.trace().records.data();
    for (std::uint64_t i = 0; i < 100000; ++i)
        session.exec(i, 0);
    EXPECT_EQ(session.trace().records.data(), first);
}

// ---------------------------------------------------------------------------
// Capture density: file bytes per captured op
// ---------------------------------------------------------------------------

TEST(CaptureDensity, Fig10CapturesSaveAtMostSixteenBytesPerOp)
{
    // fig10's capture configuration (baseline machine, Optimized tier)
    // at reduced scale. Each capture goes through a .tcap file and back,
    // so the loader's full CRC and aux-cursor validation runs on it.
    // File bytes (header, records, aux) are charged per Core-boundary
    // op, a fused memory+compute record counting as two: unfused 16-byte
    // records alone would already spend 16 bytes per op.
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    const MachineSpec spec = MachineSpec::baseline();
    const fs::path dir = scratchDir("density");
    for (const auto &robot : tartan::workloads::robotSuite()) {
        SCOPED_TRACE(robot.name);
        const std::string path =
            (dir / (std::string(robot.name) + ".tcap")).string();
        std::string err;
        ASSERT_TRUE(captureRobot(robot.run, spec, opt).save(path, &err))
            << err;
        CaptureTrace loaded;
        ASSERT_TRUE(CaptureTrace::load(path, loaded, &err)) << err;
        const std::uintmax_t bytes = fs::file_size(path);
        fs::remove(path);
        std::uint64_t ops = 0;
        for (const CapRecord &r : loaded.records)
            ops += tartan::sim::capOpCount(r);
        ASSERT_GT(ops, 0u);
        EXPECT_LE(double(bytes) / double(ops), 16.0)
            << bytes << " file bytes for " << ops << " ops";
    }
}

// ---------------------------------------------------------------------------
// Replay-vs-direct equivalence
// ---------------------------------------------------------------------------

TEST(ReplayEquivalence, EveryRobotReplaysExactlyAtTheCaptureConfig)
{
    // Randomised (but reproducible) workload seeds: equivalence must
    // hold for arbitrary seeds, not just the suite default.
    std::mt19937_64 rng(20260809);
    for (const auto &robot : tartan::workloads::robotSuite()) {
        WorkloadOptions opt;
        opt.tier = SoftwareTier::Optimized;
        opt.scale = 0.25;
        opt.seed = rng() % 10000;
        const MachineSpec spec = MachineSpec::baseline();

        const RunResult direct = robot.run(spec, opt);
        const CaptureTrace trace = captureRobot(robot.run, spec, opt);
        ASSERT_TRUE(trace.validate());
        const RunResult replayed =
            tartan::workloads::replayTrace(trace, spec, opt);

        SCOPED_TRACE(std::string(robot.name) + " seed " +
                     std::to_string(opt.seed));
        expectIdentical(direct, replayed);

        // Payload byte-identity is the CI contract, so assert exactly
        // that — the encoded cell payloads must match bit for bit.
        EXPECT_EQ(tartan::workloads::encodeRunResult(replayed),
                  tartan::workloads::encodeRunResult(direct));
    }
}

namespace {

/** Replay @p trace on a fresh machine: its result and its stats dump. */
std::pair<RunResult, std::string>
replayWithStats(const CaptureTrace &trace, const MachineSpec &spec,
                const WorkloadOptions &opt)
{
    tartan::workloads::Machine machine(spec, opt);
    tartan::workloads::ReplayStream stream(trace, machine);
    while (!stream.done())
        stream.step();
    EXPECT_EQ(stream.auxCursor(), trace.aux.size());
    RunResult res = stream.finalize();
    tartan::sim::StatsRegistry registry;
    machine.registerStats(registry);
    registry.setMeta("timestamp", "pinned");
    registry.setMeta("git", "pinned");
    std::ostringstream os;
    registry.dumpJson(os);
    return {std::move(res), os.str()};
}

} // namespace

TEST(ReplayEquivalence, FusedAndSplitTracesReplayIdentically)
{
    // Fusion is a storage encoding only: every robot's capture replays
    // to the same result, payload and stats dump with its fused records
    // split back into the primitive pairs they stand for.
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 17;
    const MachineSpec spec = MachineSpec::tartan();
    std::map<CapOp, std::uint64_t> fused_seen;
    for (const auto &robot : tartan::workloads::robotSuite()) {
        SCOPED_TRACE(robot.name);
        const CaptureTrace trace = captureRobot(robot.run, spec, opt);
        for (const CapRecord &r : trace.records)
            if (tartan::sim::capOpCount(r) == 2)
                ++fused_seen[CapOp(r.op)];
        const CaptureTrace split = tartan::testutil::splitFused(trace);
        ASSERT_TRUE(split.validate());
        ASSERT_GT(split.records.size(), trace.records.size());

        const auto fused = replayWithStats(trace, spec, opt);
        const auto unfused = replayWithStats(split, spec, opt);
        expectIdentical(fused.first, unfused.first);
        EXPECT_EQ(tartan::workloads::encodeRunResult(fused.first),
                  tartan::workloads::encodeRunResult(unfused.first));
        EXPECT_TRUE(fused.second == unfused.second)
            << "stats dumps differ";
    }
    // Every fused kind occurs in the suite, so each decoding is covered.
    for (CapOp op : {CapOp::LoadExec, CapOp::StoreExec,
                     CapOp::VecLoadContiguousVecOp,
                     CapOp::VecLoadLanesVecOp})
        EXPECT_GT(fused_seen[op], 0u) << "fused op " << int(op);
}

TEST(ReplayEquivalence, TimingOnlyMachineChangesReplayExactly)
{
    // The point of the engine: capture once, sweep timing knobs. An
    // ANL-equipped machine reorders nothing in the op stream, so the
    // replay must match a direct run on that machine exactly.
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 123;
    const MachineSpec base = MachineSpec::baseline();

    MachineSpec anl = base;
    anl.useAnl = true;
    anl.anlCfg.lineBytes = anl.sys.lineBytes;

    for (const auto &robot : tartan::workloads::robotSuite()) {
        if (std::string(robot.name) != "MoveBot" &&
            std::string(robot.name) != "CarriBot")
            continue; // two representatives keep the test fast
        ASSERT_TRUE(tartan::workloads::replayCompatible(base, opt, anl,
                                                        opt));
        const CaptureTrace trace = captureRobot(robot.run, base, opt);
        const RunResult direct = robot.run(anl, opt);
        const RunResult replayed =
            tartan::workloads::replayTrace(trace, anl, opt);
        SCOPED_TRACE(robot.name);
        expectIdentical(direct, replayed);
    }
}

TEST(ReplayEquivalence, NpuConfigSweepsReplayExactly)
{
    // NPU stall charges depend on NpuConfig, the one sweepable knob
    // that shapes op *arguments*: the capture records semantic
    // configure/infer events and replay recomputes the charges, so a
    // PE-count sweep must still match direct runs exactly.
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Approximate;
    opt.scale = 0.25;
    opt.seed = 99;
    const MachineSpec cap_spec = MachineSpec::tartan();
    const CaptureTrace trace =
        captureRobot(tartan::workloads::runPatrolBot, cap_spec, opt);

    for (std::uint32_t pes : {2u, 8u}) {
        MachineSpec swept = cap_spec;
        swept.npuCfg.pes = pes;
        ASSERT_TRUE(tartan::workloads::replayCompatible(cap_spec, opt,
                                                        swept, opt));
        const RunResult direct =
            tartan::workloads::runPatrolBot(swept, opt);
        const RunResult replayed =
            tartan::workloads::replayTrace(trace, swept, opt);
        SCOPED_TRACE("pes " + std::to_string(pes));
        expectIdentical(direct, replayed);
    }
}

TEST(ReplayEquivalence, SequenceShapingChangesAreIncompatible)
{
    const MachineSpec base = MachineSpec::baseline();
    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;

    using tartan::workloads::replayCompatible;
    EXPECT_TRUE(replayCompatible(base, opt, base, opt));

    MachineSpec ovec = base;
    ovec.ovec = true; // different kernels run: different op stream
    EXPECT_FALSE(replayCompatible(base, opt, ovec, opt));

    WorkloadOptions other_seed = opt;
    other_seed.seed = opt.seed + 1;
    EXPECT_FALSE(replayCompatible(base, opt, base, other_seed));

    WorkloadOptions other_tier = opt;
    other_tier.tier = SoftwareTier::Legacy;
    EXPECT_FALSE(replayCompatible(base, opt, base, other_tier));

    // Observation hooks see events replay does not re-raise.
    WorkloadOptions faulted = opt;
    tartan::sim::FaultInjector injector(tartan::sim::FaultPlan{}, 1);
    faulted.faults = &injector;
    EXPECT_FALSE(replayCompatible(base, opt, base, faulted));
}

// ---------------------------------------------------------------------------
// Resume mix: replayed cells journal and resume byte-identically
// ---------------------------------------------------------------------------

TEST(ReplayEquivalence, ResumeMixReplaysJournaledCellsByteIdentically)
{
    const fs::path dir = scratchDir("resume_mix");
    tartan::sim::CampaignConfig cfg;
    cfg.resume = true;
    cfg.journalDir = dir.string();
    cfg.retries = 0;
    const std::uint64_t schema =
        tartan::workloads::cellSchemaVersion();

    WorkloadOptions opt;
    opt.tier = SoftwareTier::Optimized;
    opt.scale = 0.25;
    opt.seed = 31;
    const MachineSpec base = MachineSpec::baseline();
    MachineSpec anl = base;
    anl.useAnl = true;
    anl.anlCfg.lineBytes = anl.sys.lineBytes;

    const auto direct_cell = [&] {
        return tartan::workloads::encodeRunResult(
            tartan::workloads::runCarriBot(base, opt));
    };
    const CaptureTrace trace =
        captureRobot(tartan::workloads::runCarriBot, base, opt);
    const auto replay_cell = [&] {
        return tartan::workloads::encodeRunResult(
            tartan::workloads::replayTrace(trace, anl, opt));
    };

    // First sweep mixes a direct and a replayed cell.
    std::vector<std::string> payloads;
    {
        tartan::sim::RunPool pool(1);
        tartan::sim::CampaignRunner runner("mix", pool, cfg, schema);
        runner.submit(tartan::sim::CellSpec{"direct", 1, opt.seed, true},
                      direct_cell);
        runner.submit(tartan::sim::CellSpec{"replayed", 2, opt.seed,
                                            true},
                      replay_cell);
        for (const auto &out : runner.gather())
            payloads.push_back(out.payload);
        EXPECT_EQ(runner.stats().simulated, 2u);
    }

    // The replayed cell's payload must equal the direct run at the
    // same machine config — replay is invisible to the journal.
    EXPECT_EQ(payloads[1],
              tartan::workloads::encodeRunResult(
                  tartan::workloads::runCarriBot(anl, opt)));

    // Resume: both cells replay from the journal, closures never run.
    {
        tartan::sim::RunPool pool(1);
        tartan::sim::CampaignRunner runner("mix", pool, cfg, schema);
        runner.submit(tartan::sim::CellSpec{"direct", 1, opt.seed, true},
                      []() -> std::string {
                          ADD_FAILURE() << "journal hit re-simulated";
                          return "{}";
                      });
        runner.submit(tartan::sim::CellSpec{"replayed", 2, opt.seed,
                                            true},
                      []() -> std::string {
                          ADD_FAILURE() << "journal hit re-simulated";
                          return "{}";
                      });
        const auto outcomes = runner.gather();
        EXPECT_EQ(runner.stats().journalHits, 2u);
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_EQ(outcomes[0].payload, payloads[0]);
        EXPECT_EQ(outcomes[1].payload, payloads[1]);
    }
}
