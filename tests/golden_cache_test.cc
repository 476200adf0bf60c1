/**
 * @file
 * Golden-model check: the set-associative cache is driven with long
 * randomized traces and compared, op by op, against an
 * obviously-correct reference model written from the specification
 * (LRU recency, dirty/prefetch/UDM state, FCP manipulation). Run for
 * several geometries (associativity x line size) as a property sweep.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cache.hh"
#include "sim/rng.hh"

namespace {

using namespace tartan::sim;

/**
 * The cache specification, written as plainly as possible: a vector of
 * ways per set, each carrying its tag, explicit LRU recency (0 = MRU),
 * dirty / prefetched / shared bits, the prefetch ready cycle and the
 * 4-byte-granule UDM bitmap. Nothing here is shared with sim/cache:
 * the set index comes from the configured policy's virtual index(),
 * and FCP's m(x) is evaluated from its definition.
 *
 *  - A hit counts, consumes a prefetched line (charging the residual
 *    wait past readyAt), dirties on a store, marks the touched granules
 *    and promotes: every valid way younger than the hit way ages by one.
 *  - A fill of a resident line only promotes it (and dirties it when
 *    asked). Otherwise the victim is the first invalid way, else the
 *    first way of maximal recency; every valid way then ages by one,
 *    saturating at assoc-1, and the new line lands at recency 0.
 *  - FCP: after the insertion every other valid line of the new line's
 *    region takes recency min(m(recency), 4*(assoc-1)+1).
 */
class ReferenceLru
{
  public:
    struct Way {
        bool valid = false;
        std::uint64_t line = 0;
        std::uint32_t recency = 0;
        bool dirty = false;
        bool prefetched = false;
        bool shared = false;
        Cycles readyAt = 0;
        std::uint64_t touched = 0;
    };

    explicit ReferenceLru(const CacheParams &params)
        : cfg(params),
          numSets(params.sizeBytes / (params.assoc * params.lineBytes)),
          sets(numSets, std::vector<Way>(params.assoc))
    {
    }

    /** Demand lookup (Cache::access, including count_miss). */
    Cache::LookupResult
    access(Addr addr, AccessType type, std::uint32_t size, Cycles now,
           bool count_miss = true)
    {
        Cache::LookupResult res;
        std::vector<Way> &set = setOf(addr);
        Way *way = find(set, addr);
        if (!way) {
            if (count_miss)
                ++stats.misses;
            return res;
        }
        ++stats.hits;
        res.hit = true;
        if (way->prefetched) {
            res.prefetched = true;
            ++stats.prefetchHits;
            res.latePenalty = way->readyAt > now ? way->readyAt - now : 0;
            way->prefetched = false;
        }
        if (type == AccessType::Store)
            way->dirty = true;
        if (cfg.trackUdm) {
            const std::uint32_t off =
                static_cast<std::uint32_t>(addr % cfg.lineBytes);
            std::uint32_t last = off + (size ? size - 1 : 0);
            if (last >= cfg.lineBytes)
                last = cfg.lineBytes - 1;
            for (std::uint32_t g = off / 4; g <= last / 4; ++g)
                way->touched |= 1ull << g;
        }
        promote(set, *way);
        return res;
    }

    /** Install a line (Cache::fill / Cache::fillAtWay). */
    Cache::Eviction
    fill(Addr addr, bool prefetch = false, bool dirty = false,
         Cycles ready_at = 0)
    {
        std::vector<Way> &set = setOf(addr);
        if (Way *way = find(set, addr)) {
            if (dirty)
                way->dirty = true;
            promote(set, *way);
            return {};
        }
        std::size_t victim = set.size();
        for (std::size_t w = 0; w < set.size() && victim == set.size(); ++w)
            if (!set[w].valid)
                victim = w;
        if (victim == set.size()) {
            victim = 0;
            for (std::size_t w = 1; w < set.size(); ++w)
                if (set[w].recency > set[victim].recency)
                    victim = w;
        }
        Cache::Eviction ev;
        if (set[victim].valid) {
            ev.valid = true;
            ev.lineAddr = set[victim].line * cfg.lineBytes;
            ev.dirty = set[victim].dirty;
            evict(set[victim]);
        }
        for (Way &w : set)
            if (w.valid && w.recency < cfg.assoc - 1)
                ++w.recency;
        Way &slot = set[victim];
        slot = Way{};
        slot.valid = true;
        slot.line = addr / cfg.lineBytes;
        slot.dirty = dirty;
        slot.prefetched = prefetch;
        slot.readyAt = prefetch ? ready_at : 0;
        if (prefetch)
            ++stats.prefetchFills;
        if (cfg.fcp) {
            const std::uint32_t ceiling = 4 * (cfg.assoc - 1) + 1;
            for (Way &w : set) {
                if (&w == &slot || !w.valid ||
                    region(w.line) != region(slot.line))
                    continue;
                const std::uint32_t x = w.recency;
                std::uint32_t m = x * x;
                if (cfg.fcp->func == FcpReplacement::Func::XPlus1)
                    m = x + 1;
                else if (cfg.fcp->func == FcpReplacement::Func::TwoX)
                    m = 2 * x;
                w.recency = m < ceiling ? m : ceiling;
            }
        }
        return ev;
    }

    bool probe(Addr addr) { return find(setOf(addr), addr) != nullptr; }

    void
    invalidate(Addr addr)
    {
        if (Way *way = find(setOf(addr), addr))
            evict(*way);
    }

    MesiState
    lineState(Addr addr)
    {
        const Way *way = find(setOf(addr), addr);
        if (!way)
            return MesiState::Invalid;
        if (way->dirty)
            return MesiState::Modified;
        return way->shared ? MesiState::Shared : MesiState::Exclusive;
    }

    std::uint64_t
    count(bool Way::*flag) const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets)
            for (const Way &w : set)
                n += w.valid && w.*flag;
        return n;
    }

    CacheStats stats;

  private:
    std::vector<Way> &
    setOf(Addr addr)
    {
        const std::uint64_t line = addr / cfg.lineBytes;
        return sets[cfg.indexing ? cfg.indexing->index(line, numSets)
                                 : line % numSets];
    }

    Way *
    find(std::vector<Way> &set, Addr addr)
    {
        for (Way &w : set)
            if (w.valid && w.line == addr / cfg.lineBytes)
                return &w;
        return nullptr;
    }

    void
    promote(std::vector<Way> &set, Way &way)
    {
        for (Way &w : set)
            if (w.valid && w.recency < way.recency)
                ++w.recency;
        way.recency = 0;
    }

    void
    evict(Way &way)
    {
        ++stats.evictions;
        stats.dirtyEvictions += way.dirty;
        stats.prefetchUnused += way.prefetched;
        if (cfg.trackUdm) {
            stats.udmFetchedBytes += cfg.lineBytes;
            stats.udmUsedBytes += 4 * std::popcount(way.touched);
        }
        way = Way{};
    }

    std::uint64_t
    region(std::uint64_t line) const
    {
        return line * cfg.lineBytes / cfg.fcp->regionBytes;
    }

    CacheParams cfg;
    std::uint64_t numSets;
    std::vector<std::vector<Way>> sets;
};

class GoldenCacheSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GoldenCacheSweep, MatchesReferenceOnRandomTrace)
{
    const std::uint32_t assoc = std::get<0>(GetParam());
    const std::uint32_t line = std::get<1>(GetParam());

    CacheParams params;
    params.sizeBytes = 16 * 1024;
    params.assoc = assoc;
    params.lineBytes = line;
    Cache cache(params);
    ReferenceLru ref(params);

    Rng rng(assoc * 1000 + line);
    // A footprint a few times the cache size, with hot/cold skew.
    const Addr hot_span = 8 * 1024;
    const Addr cold_span = 128 * 1024;
    std::uint64_t hits = 0, accesses = 0;
    for (int step = 0; step < 50000; ++step) {
        const bool hot = rng.uniform() < 0.7;
        const Addr addr =
            hot ? rng.uniformInt(hot_span)
                : hot_span + rng.uniformInt(cold_span);
        const bool got = cache.access(addr, AccessType::Load, 4).hit;
        const bool want = ref.access(addr, AccessType::Load, 4, 0).hit;
        ASSERT_EQ(got, want) << "step " << step << " addr " << addr;
        if (!got) {
            cache.fill(addr);
            ref.fill(addr);
        }
        hits += got;
        ++accesses;
    }
    // Sanity: the skewed trace must produce a non-trivial hit rate.
    EXPECT_GT(hits, accesses / 4);
    EXPECT_LT(hits, accesses);
    EXPECT_EQ(cache.stats().hits, hits);
    EXPECT_EQ(cache.stats().misses, accesses - hits);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GoldenCacheSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(32, 64)));

TEST(GoldenCache, FillEvictionsMatchReferenceOccupancy)
{
    // Every fill beyond capacity must evict exactly one line, and the
    // evicted line must be the least recently used of its set.
    CacheParams params;
    params.sizeBytes = 2048;
    params.assoc = 4;
    params.lineBytes = 64;
    Cache cache(params);

    Rng rng(99);
    std::uint64_t fills = 0, evictions = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr addr = rng.uniformInt(64 * 1024);
        if (!cache.access(addr, AccessType::Load, 4).hit) {
            auto ev = cache.fill(addr);
            ++fills;
            if (ev.valid) {
                ++evictions;
                // The victim must no longer be resident...
                EXPECT_FALSE(cache.probe(ev.lineAddr));
                // ...and the new line must be.
                EXPECT_TRUE(cache.probe(addr));
            }
        }
    }
    EXPECT_EQ(cache.stats().evictions, evictions);
    // After warm-up nearly every fill evicts (footprint >> capacity).
    EXPECT_GT(evictions, fills - 64);
}

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &where)
{
    ASSERT_EQ(got.hits, want.hits) << where;
    ASSERT_EQ(got.misses, want.misses) << where;
    ASSERT_EQ(got.evictions, want.evictions) << where;
    ASSERT_EQ(got.dirtyEvictions, want.dirtyEvictions) << where;
    ASSERT_EQ(got.prefetchFills, want.prefetchFills) << where;
    ASSERT_EQ(got.prefetchHits, want.prefetchHits) << where;
    ASSERT_EQ(got.prefetchUnused, want.prefetchUnused) << where;
    ASSERT_EQ(got.udmFetchedBytes, want.udmFetchedBytes) << where;
    ASSERT_EQ(got.udmUsedBytes, want.udmUsedBytes) << where;
}

void
expectSameEviction(const Cache::Eviction &got, const Cache::Eviction &want,
                   const std::string &where)
{
    ASSERT_EQ(got.valid, want.valid) << where;
    if (want.valid) {
        ASSERT_EQ(got.lineAddr, want.lineAddr) << where;
        ASSERT_EQ(got.dirty, want.dirty) << where;
    }
}

/**
 * The cache against the reference model, op by op, over a long seeded
 * stream that mixes every way MemPath drives a cache: demand lookups
 * retiring their miss through the scan's victim (fillAtWay) or a plain
 * fill(), repeat hits on the memoised line, prefetch fills behind a
 * probe, write-back lookups that must not count misses, refills of
 * resident lines and invalidations. Every op's outcome and every stats
 * counter is compared after every op; the whole resident state
 * (residency, MESI state, dirty and prefetched counts) periodically and
 * at the end. Variants cover standard indexing and FCP indexing with
 * each m(x), across associativities.
 */
TEST(GoldenCache, MatchesReferenceModelOpByOp)
{
    struct Variant {
        std::uint32_t sizeBytes;
        std::uint32_t assoc;
        bool fcp;
        FcpReplacement::Func func;
        Addr span;  //!< address range the stream draws from
    };
    const Variant variants[] = {
        {8 * 1024, 8, false, FcpReplacement::Func::XSquared, 64 * 1024},
        {8 * 1024, 4, true, FcpReplacement::Func::XSquared, 64 * 1024},
        {8 * 1024, 8, true, FcpReplacement::Func::TwoX, 64 * 1024},
        {8 * 1024, 16, true, FcpReplacement::Func::XPlus1, 64 * 1024},
        // One set holding lines of a few regions: same-region fills
        // repeat, so manipulated recencies reach the clamp and tie.
        {512, 8, true, FcpReplacement::Func::TwoX, 4 * 1024},
        {256, 4, true, FcpReplacement::Func::XSquared, 3 * 1024},
    };
    for (const Variant &v : variants) {
        const Addr kSpan = v.span;
        FcpIndexing fcp_index(1024, 64, 1);
        FcpReplacement fcp;
        fcp.func = v.func;
        CacheParams params;
        params.sizeBytes = v.sizeBytes;
        params.assoc = v.assoc;
        params.lineBytes = 64;
        params.trackUdm = true;
        if (v.fcp) {
            params.fcp = &fcp;
            // The single-set variants keep standard indexing.
            if (v.sizeBytes > v.assoc * 64)
                params.indexing = &fcp_index;
        }
        Cache cache(params);
        ReferenceLru ref(params);

        Rng rng(7 + v.sizeBytes + v.assoc + (v.fcp ? 100 : 0));
        Cycles now = 0;
        Addr last = 0;
        for (int step = 0; step < 40000; ++step) {
            const std::string where =
                "size " + std::to_string(v.sizeBytes) + " assoc " +
                std::to_string(v.assoc) + " fcp " + std::to_string(v.fcp) +
                " step " + std::to_string(step);
            now += 1 + rng.uniformInt(6);
            const double op = rng.uniform();
            // Hot/cold skew: a third of the span takes 70% of the ops.
            Addr addr = rng.uniform() < 0.7 ? rng.uniformInt(kSpan / 3)
                                            : rng.uniformInt(kSpan);
            if (op < 0.1)
                addr = last + rng.uniformInt(4) * 4;  // memo repeats
            last = addr;
            const bool store = rng.uniform() < 0.3;
            const AccessType type =
                store ? AccessType::Store : AccessType::Load;
            const std::uint32_t size = 4u << rng.uniformInt(5);

            if (op < 0.55) {
                // Demand lookup; a miss fills like MemPath does.
                std::uint32_t victim = 0;
                const auto got =
                    cache.access(addr, type, size, now, &victim);
                const auto want = ref.access(addr, type, size, now);
                ASSERT_EQ(got.hit, want.hit) << where;
                ASSERT_EQ(got.prefetched, want.prefetched) << where;
                ASSERT_EQ(got.latePenalty, want.latePenalty) << where;
                if (!got.hit) {
                    const auto ev =
                        rng.uniform() < 0.7
                            ? cache.fillAtWay(addr, victim, false, store)
                            : cache.fill(addr, false, store);
                    expectSameEviction(ev, ref.fill(addr, false, store),
                                       where);
                }
            } else if (op < 0.7) {
                // Prefetch fill behind a probe.
                std::uint32_t victim = 0;
                const bool resident = cache.probe(addr, &victim);
                ASSERT_EQ(resident, ref.probe(addr)) << where;
                if (!resident) {
                    const Cycles ready = now + rng.uniformInt(40);
                    expectSameEviction(
                        cache.fillAtWay(addr, victim, true, false, ready),
                        ref.fill(addr, true, false, ready), where);
                }
            } else if (op < 0.85) {
                // Write-back: lookup without a miss count, dirty fill.
                std::uint32_t victim = 0;
                const auto got = cache.access(addr, AccessType::Store, 0,
                                              now, &victim, false);
                const auto want =
                    ref.access(addr, AccessType::Store, 0, now, false);
                ASSERT_EQ(got.hit, want.hit) << where;
                ASSERT_EQ(got.prefetched, want.prefetched) << where;
                if (!got.hit)
                    expectSameEviction(
                        cache.fillAtWay(addr, victim, false, true),
                        ref.fill(addr, false, true), where);
            } else if (op < 0.95) {
                // fill() of a line that may already be resident.
                expectSameEviction(cache.fill(addr, false, store),
                                   ref.fill(addr, false, store), where);
            } else {
                cache.invalidate(addr);
                ref.invalidate(addr);
            }
            expectSameStats(cache.stats(), ref.stats, where);
            ASSERT_EQ(cache.lineState(addr), ref.lineState(addr)) << where;

            if (step % 1000 == 999) {
                for (Addr a = 0; a < kSpan; a += 64)
                    ASSERT_EQ(cache.lineState(a), ref.lineState(a))
                        << where << " addr " << a;
                ASSERT_EQ(cache.dirtyLines(),
                          ref.count(&ReferenceLru::Way::dirty))
                    << where;
                ASSERT_EQ(cache.prefetchedLines(),
                          ref.count(&ReferenceLru::Way::prefetched))
                    << where;
            }
        }
        // The stream must have exercised every accounting path.
        EXPECT_GT(ref.stats.prefetchHits, 0u);
        EXPECT_GT(ref.stats.prefetchUnused, 0u);
        EXPECT_GT(ref.stats.dirtyEvictions, 0u);
        EXPECT_GT(ref.stats.udmUsedBytes, 0u);
    }
}

TEST(GoldenCache, WritebackLookupDoesNotCountMisses)
{
    // A write-back lookup (count_miss = false) reports the miss — and
    // the victim way its scan chose — without bumping the miss counter.
    CacheParams params;
    Cache cache(params);
    std::uint32_t victim = 99;
    EXPECT_FALSE(
        cache.access(0x1000, AccessType::Store, 0, 0, &victim, false).hit);
    EXPECT_EQ(victim, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    cache.fillAtWay(0x1000, victim, false, true);
    EXPECT_TRUE(
        cache.access(0x1000, AccessType::Store, 0, 0, &victim, false).hit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 0u);
    // A demand lookup counts the miss exactly once.
    EXPECT_FALSE(cache.access(0x2000, AccessType::Load, 4).hit);
    EXPECT_EQ(cache.stats().misses, 1u);
}

} // namespace
