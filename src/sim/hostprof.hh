/**
 * @file
 * Host-side self-profiling of the per-access simulation pipeline.
 *
 * The simulator's usefulness is bounded by its own host throughput
 * (ZSim's core argument): every modeled load/store costs host time in
 * translate → cache walk → prefetcher bookkeeping. HostProfiler is a
 * passive accumulator a MemPath fills when one is attached
 * (MemPath::setHostProfiler): wall-clock nanoseconds per pipeline
 * layer, so bench/selfbench can report where host time actually goes.
 *
 * Attaching a profiler changes *host* timing only — the modeled
 * stats stream is bit-identical with and without it: profiled accesses
 * take the production walk, and the profiler's hooks in it are
 * null-checked branches that read the clock and touch nothing else.
 */

#ifndef TARTAN_SIM_HOSTPROF_HH
#define TARTAN_SIM_HOSTPROF_HH

#include <cstdint>
#include <ctime>

namespace tartan::sim {

/** Per-layer host-time accumulator for the access pipeline. */
struct HostProfiler {
    /** Demand accesses measured (denominator for per-access costs). */
    std::uint64_t accesses = 0;
    /** Host ns spent in AddrMap::translate. */
    std::uint64_t translateNs = 0;
    /** Host ns in the cache hierarchy walk (excluding prefetch and
     *  fill work). */
    std::uint64_t cacheNs = 0;
    /** Host ns in prefetcher observe + issue. */
    std::uint64_t prefetchNs = 0;
    /** Host ns in demand fills and victim write-back chains. */
    std::uint64_t fillNs = 0;
    /** Host ns attributed to no pipeline layer (caller bookkeeping).
     *  Computed by finalizeWall() as the explicit remainder, never
     *  accumulated directly: the layers + other always sum to wallNs. */
    std::uint64_t otherNs = 0;
    /** Total wall ns of the profiled run (set by finalizeWall; the
     *  denominator for per-layer shares). */
    std::uint64_t wallNs = 0;

    /** Host ns the instrumented layers account for (excludes other). */
    std::uint64_t
    attributedNs() const
    {
        return translateNs + cacheNs + prefetchNs + fillNs;
    }

    /**
     * Close the breakdown against the measured wall time @p wall_ns:
     * otherNs becomes the explicit remainder, so afterwards
     * attributedNs() + otherNs == wallNs exactly. Clock granularity
     * can make the per-layer sums overshoot a short wall measurement;
     * in that case the wall is widened to the attributed total (other
     * = 0) rather than silently truncating a layer.
     */
    void
    finalizeWall(std::uint64_t wall_ns)
    {
        const std::uint64_t attr = attributedNs();
        wallNs = wall_ns < attr ? attr : wall_ns;
        otherNs = wallNs - attr;
    }

    /** Monotonic host clock in nanoseconds. */
    static std::uint64_t
    now()
    {
        timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        return std::uint64_t(ts.tv_sec) * 1000000000ull +
               std::uint64_t(ts.tv_nsec);
    }

    /** Clock and layer totals at the start of one access's walk. */
    struct Walk {
        std::uint64_t start = 0;       //!< clock at the walk's start
        std::uint64_t prefetchNs = 0;  //!< prefetchNs at the start
        std::uint64_t fillNs = 0;      //!< fillNs at the start
    };

    /** Open the timing of one access's hierarchy walk. */
    Walk beginWalk() const { return Walk{now(), prefetchNs, fillNs}; }

    /**
     * Close it: one more access, and the walk's host time minus the
     * prefetch and fill work accumulated inside it is cache time.
     */
    void
    endWalk(const Walk &walk)
    {
        ++accesses;
        cacheNs += (now() - walk.start) - (prefetchNs - walk.prefetchNs) -
                   (fillNs - walk.fillNs);
    }

    /** Zero all accumulators. */
    void reset() { *this = HostProfiler{}; }
};

} // namespace tartan::sim

#endif // TARTAN_SIM_HOSTPROF_HH
