/**
 * @file
 * Measurement plumbing of the host-time benchmark: clocks, resource
 * usage, medians, the in-memory span tracer, and the per-iteration
 * outcome every workload returns.
 *
 * Spans are recorded only here, around the benchmark's own calls into
 * the library; nothing inside the simulator is instrumented. A span
 * whose name starts with "probe." marks extra work a traced iteration
 * performs purely to derive a per-layer number (a direct run beside a
 * capture run, say). Probe time is excluded from the iteration's wall
 * before attribution and tracing overhead are computed.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "sim/checksum.hh"

namespace perfbench {

/** Monotonic host seconds. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process (getrusage). */
inline double
cpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Peak resident set of this process, in MB (10^6 bytes). */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}

/** Median of @p v (0 when empty); the mean of the middle pair. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host-speed reference: a fixed piece of work that belongs to the
 * benchmark, not to the simulator, so no change to the library moves
 * it. It mixes what the workloads lean on: float multiply-adds on
 * L1-resident data, random reads over a 4 MiB table (past the private
 * caches), and a sort plus open-addressing hash inserts and lookups
 * (branches). On a shared host its time moves with the contention
 * from other tenants, as the workloads' does; dividing an iteration's
 * time by it removes most of that movement. All its memory is
 * allocated once, so it leaves the heap as it found it. A pass takes
 * about 30 ms on an idle host.
 */
class HostReference
{
  public:
    /** Host seconds of one pass. */
    struct Pass {
        double wall = 0.0;
        double cpu = 0.0;
    };

    /** Least host time between the passes tick() runs. */
    static constexpr double kTickGap = 0.5;

    HostReference()
        : table(std::size_t(1) << 20), keys(50000), slots(kSlots)
    {
        for (std::size_t i = 0; i < 1024; ++i) {
            a[i] = float(i) * 0.001f;
            b[i] = 1.0f - float(i) * 0.0005f;
        }
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = std::uint32_t(i * 2654435761u);
    }

    /**
     * Between two cells: run a pass if kTickGap seconds have gone by
     * since the last one, so the passes follow the host's speed through
     * an iteration. takeTicks() hands them over.
     */
    void
    tick()
    {
        if (nowSec() - lastEnd >= kTickGap)
            ticks.push_back(run());
    }

    /** The passes tick() ran since the last call. */
    std::vector<Pass>
    takeTicks()
    {
        std::vector<Pass> out;
        out.swap(ticks);
        return out;
    }

    /** One pass of the reference work. */
    Pass
    run()
    {
        const double w0 = nowSec(), c0 = cpuSec();
        float acc[8] = {};
        for (int r = 0; r < 75000; ++r)
            for (std::size_t i = 0; i < 1024; i += 8)
                for (std::size_t k = 0; k < 8; ++k)
                    acc[k] += a[i + k] * b[i + k];
        std::uint64_t x = 88172645463325252ull, sum = 0;
        for (int i = 0; i < 1000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum += table[x & (table.size() - 1)];
        }
        for (auto &k : keys) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            k = std::uint32_t(x);
        }
        std::sort(keys.begin(), keys.end());
        // Slot: key + 1 in the high half (0 = empty), value in the low.
        std::fill(slots.begin(), slots.end(), 0);
        const auto slot = [&](std::uint32_t key) -> std::uint64_t & {
            std::size_t i = (key * 2654435761u) & (kSlots - 1);
            while (slots[i] && slots[i] >> 32 != key + 1u)
                i = (i + 1) & (kSlots - 1);
            return slots[i];
        };
        for (std::size_t i = 0; i < keys.size() / 2; ++i) {
            const std::uint32_t key = keys[i] % 50000;
            std::uint64_t &e = slot(key);
            e = (std::uint64_t(key + 1u) << 32) |
                std::uint32_t(std::uint32_t(e) + std::uint32_t(i));
        }
        for (std::uint32_t k : keys)
            sum += std::uint32_t(slot(k % 60000));
        for (float v : acc)
            sum += std::uint64_t(v);
        sink = sum;
        lastEnd = nowSec();
        return {lastEnd - w0, cpuSec() - c0};
    }

  private:
    static constexpr std::size_t kSlots = std::size_t(1) << 16;

    float a[1024], b[1024];
    std::vector<std::uint32_t> table;
    std::vector<std::uint32_t> keys;
    std::vector<std::uint64_t> slots;
    volatile std::uint64_t sink = 0;
    double lastEnd = 0.0;
    std::vector<Pass> ticks;
};

/**
 * The reference Outcome::cell() ticks between cells; set only around
 * untraced iterations.
 */
inline HostReference *activeReference = nullptr;

/** In-memory span recorder of one traced iteration. */
class Tracer
{
  public:
    struct Span {
        std::string name;
        int parent = -1;     //!< index of the enclosing span, -1 = top
        double start = 0.0;
        double end = 0.0;
    };

    int
    open(std::string name)
    {
        spans.push_back({std::move(name), current, nowSec(), 0.0});
        current = int(spans.size()) - 1;
        return current;
    }

    void
    close(int idx)
    {
        spans[idx].end = nowSec();
        current = spans[idx].parent;
    }

    const std::vector<Span> &all() const { return spans; }

    /** Total duration of the spans named exactly @p name. */
    double
    total(std::string_view name) const
    {
        double t = 0.0;
        for (const Span &s : spans)
            if (s.name == name)
                t += s.end - s.start;
        return t;
    }

    /** Total duration of the top-level spans whose name starts with @p prefix. */
    double
    totalTopPrefix(std::string_view prefix) const
    {
        double t = 0.0;
        for (const Span &s : spans)
            if (s.parent < 0 && s.name.starts_with(prefix))
                t += s.end - s.start;
        return t;
    }

    /** Self time per span name: duration minus direct children. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::map<std::string, double> self;
        for (const Span &s : spans)
            self[s.name] += s.end - s.start;
        for (const Span &s : spans)
            if (s.parent >= 0)
                self[spans[s.parent].name] -= s.end - s.start;
        return self;
    }

  private:
    std::vector<Span> spans;
    int current = -1;
};

/** RAII span; a null tracer makes it a no-op (the untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, std::string name) : tracer(t)
    {
        if (tracer)
            idx = tracer->open(std::move(name));
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->close(idx);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    int idx = -1;
};

/** Prefix of spans that exist only to derive per-layer numbers. */
inline constexpr std::string_view kProbePrefix = "probe.";

/** One checked unit of work and the digest of its outputs. */
struct Cell {
    std::string name;
    std::uint64_t digest = 0; //!< FNV-1a 64 of the cell's outputs
    bool failed = false;
};

/** The cells of one iteration plus what it measured. */
struct Outcome {
    /** Every cell attempted, in order. */
    std::vector<Cell> cells;
    /** Per-layer numbers of this iteration (counts and span-derived). */
    std::map<std::string, double> layer;
    /** Simulated instructions and training samples completed. */
    double simInstructions = 0.0;
    double trainSamples = 0.0;
    /** Capture bytes written to disk. */
    double captureBytes = 0.0;
    /** Optional one-line description of the outputs (quality numbers). */
    std::string summary;

    /** Record one cell; @p why non-empty marks it failed. */
    void
    cell(const std::string &name, std::uint64_t digest,
         const std::string &why)
    {
        if (activeReference)
            activeReference->tick();
        cells.push_back({name, digest, false});
        if (!why.empty())
            fail(cells.back(), why);
    }

    /** Mark @p c failed for @p why; a cell counts as failed once. */
    static void
    fail(Cell &c, const std::string &why)
    {
        std::fprintf(stderr, "perfbench: cell %s FAILED: %s\n",
                     c.name.c_str(), why.c_str());
        c.failed = true;
    }

    std::uint64_t
    failedCount() const
    {
        return std::uint64_t(std::count_if(
            cells.begin(), cells.end(), [](const Cell &c) { return c.failed; }));
    }
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
