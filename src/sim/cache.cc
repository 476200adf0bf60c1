/**
 * @file
 * Set-associative cache model implementation.
 */

#include "sim/cache.hh"

#include <bit>
#include <cstring>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace tartan::sim {

Cache::Cache(const CacheParams &params)
    : config(params),
      indexing(params.indexing ? params.indexing : &defaultIndexing),
      stdIndexing(params.indexing == nullptr),
      fcpIndex(dynamic_cast<const FcpIndexing *>(indexing))
{
    TARTAN_ASSERT(config.sizeBytes % (config.assoc * config.lineBytes) == 0,
                  "cache geometry must divide evenly");
    setCount = config.sizeBytes / (config.assoc * config.lineBytes);
    TARTAN_ASSERT(std::has_single_bit(setCount),
                  "set count must be a power of two");
    lineBits = log2u(config.lineBytes);
    maxRecency = config.assoc - 1;
    const std::size_t ways = std::size_t(setCount) * config.assoc;
    // Every way starts invalid (kInvalidTag is all-ones). memset runs at
    // one speed wherever the linker places this constructor; the scalar
    // loop assign() compiles to did not (a third slower after an
    // unrelated code-size change), and a machine is built per cell.
    static_assert(kInvalidTag == ~std::uint64_t(0));
    tags.resize(ways);
    std::memset(tags.data(), 0xff, ways * sizeof(std::uint64_t));
    recency.assign(ways, 0);
    flags.assign(ways, 0);
    touched.assign(ways, 0);
    readyAt.assign(ways, 0);
}

std::uint64_t
Cache::regionOf(std::uint64_t line_number) const
{
    TARTAN_ASSERT(config.fcp, "regionOf requires an FCP configuration");
    return line_number >> log2u(config.fcp->regionBytes / config.lineBytes);
}

Cache::LookupResult
Cache::access(Addr addr, AccessType type, std::uint32_t size, Cycles now)
{
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;

    for (std::uint32_t way = 0; way < config.assoc; ++way) {
        if (tags[base + way] != line_number)
            continue;
        const std::size_t idx = base + way;
        ++statsData.hits;
        LookupResult res{true, (flags[idx] & kPrefetched) != 0, 0};
        if (flags[idx] & kPrefetched) {
            ++statsData.prefetchHits;
            if (readyAt[idx] > now)
                res.latePenalty = readyAt[idx] - now;
            flags[idx] &= static_cast<std::uint8_t>(~kPrefetched);
        }
        if (type == AccessType::Store)
            flags[idx] |= kDirty;
        touch(idx, addr, size);
        promote(base, way);
        return res;
    }
    ++statsData.misses;
    return LookupResult{false, false};
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;
    for (std::uint32_t way = 0; way < config.assoc; ++way)
        if (tags[base + way] == line_number)
            return true;
    return false;
}

std::uint32_t
Cache::victimWay(std::size_t set_base) const
{
    std::uint32_t victim = 0;
    std::uint32_t best = 0;
    bool found = false;
    for (std::uint32_t way = 0; way < config.assoc; ++way) {
        const std::size_t idx = set_base + way;
        if (!(flags[idx] & kValid))
            return way;
        if (!found || recency[idx] > best) {
            best = recency[idx];
            victim = way;
            found = true;
        }
    }
    return victim;
}

void
Cache::evictLine(std::size_t idx)
{
    ++statsData.evictions;
    if (flags[idx] & kDirty)
        ++statsData.dirtyEvictions;
    if (flags[idx] & kPrefetched)
        ++statsData.prefetchUnused;
    if (config.trackUdm) {
        statsData.udmFetchedBytes += config.lineBytes;
        statsData.udmUsedBytes +=
            4ull * static_cast<std::uint64_t>(std::popcount(touched[idx]));
    }
    if (evictionListener)
        evictionListener(tags[idx] << lineBits);
    flags[idx] = 0;
    touched[idx] = 0;
    tags[idx] = kInvalidTag;
    if (memoIdx == idx)
        memoIdx = kNoMemo;
}

Cache::Eviction
Cache::fill(Addr addr, bool prefetch, bool dirty, Cycles ready_at)
{
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;

    // Refilling a resident line is a no-op apart from flag updates.
    for (std::uint32_t way = 0; way < config.assoc; ++way) {
        if (tags[base + way] != line_number)
            continue;
        if (dirty)
            flags[base + way] |= kDirty;
        promote(base, way);
        return Eviction{};
    }

    return fillAbsent(base, line_number, prefetch, dirty, ready_at);
}

Cache::Eviction
Cache::fillKnownAbsent(Addr addr, bool prefetch, bool dirty,
                       Cycles ready_at)
{
    TARTAN_DCHECK(!probe(addr),
                  "fillKnownAbsent called on a resident line");
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;

    // Fused fill: one scan selects the victim exactly as victimWay()
    // would (first invalid way, else the earliest way of strictly
    // maximal recency), then one write pass retires the eviction, the
    // insertion aging and the FCP manipulation together. Element for
    // element this is the fillAbsent() sequence — aging and m(x) touch
    // disjoint state per way, so pass order cannot change the result.
    std::uint32_t victim = 0;
    std::uint32_t best = 0;
    bool found = false;
    for (std::uint32_t way = 0; way < config.assoc; ++way) {
        const std::size_t idx = base + way;
        if (!(flags[idx] & kValid)) {
            victim = way;
            found = false;
            break;
        }
        if (!found || recency[idx] > best) {
            best = recency[idx];
            victim = way;
            found = true;
        }
    }

    return finishFill(base, line_number, victim, prefetch, dirty,
                      ready_at);
}

Cache::Eviction
Cache::fillAtWay(Addr addr, std::uint32_t victim_way, bool prefetch,
                 bool dirty, Cycles ready_at)
{
    TARTAN_DCHECK(!probe(addr), "fillAtWay called on a resident line");
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;
    TARTAN_DCHECK(victim_way == victimWay(base),
                  "fillAtWay victim is stale (set modified since the "
                  "selecting scan)");
    return finishFill(base, line_number, victim_way, prefetch, dirty,
                      ready_at);
}

/**
 * Shared fill tail: eviction, insertion aging, FCP manipulation and
 * installation, with the victim already chosen. One write pass; element
 * for element the fillAbsent() sequence.
 */
Cache::Eviction
Cache::finishFill(std::size_t base, std::uint64_t line_number,
                  std::uint32_t victim, bool prefetch, bool dirty,
                  Cycles ready_at)
{
    const std::size_t vidx = base + victim;
    Eviction ev;
    if (flags[vidx] & kValid) {
        ev.valid = true;
        ev.lineAddr = tags[vidx] << lineBits;
        ev.dirty = (flags[vidx] & kDirty) != 0;
        evictLine(vidx);
    }

    if (!config.fcp) {
        // Branchless insertion aging: invalid ways' recency is dead
        // state (no reader looks at it before checking validity), and
        // the victim way's aged value is overwritten by the install
        // below, so neither needs excluding and the saturating
        // increment vectorises.
        for (std::uint32_t w = 0; w < config.assoc; ++w) {
            const std::size_t idx = base + w;
            recency[idx] += recency[idx] < maxRecency ? 1u : 0u;
        }
    } else {
        const std::uint32_t ceiling = manipCeiling();
        const std::uint64_t region = regionOf(line_number);
        for (std::uint32_t w = 0; w < config.assoc; ++w) {
            const std::size_t idx = base + w;
            if (w == victim || !(flags[idx] & kValid))
                continue;
            std::uint32_t rec = recency[idx];
            if (rec < maxRecency)
                ++rec;
            if (regionOf(tags[idx]) == region) {
                const std::uint32_t manipulated = config.fcp->apply(rec);
                rec = manipulated > ceiling ? ceiling : manipulated;
            }
            recency[idx] = rec;
        }
    }

    tags[vidx] = line_number;
    flags[vidx] = static_cast<std::uint8_t>(
        kValid | (dirty ? kDirty : 0) | (prefetch ? kPrefetched : 0));
    // Dead-store elimination the historical install skips: touched is
    // only ever read under trackUdm, and readyAt only under the
    // kPrefetched flag (which every prefetch fill rewrites before
    // setting), so the unconditional clears would drag two more host
    // cache lines into every fill for nothing.
    if (config.trackUdm)
        touched[vidx] = 0;
    recency[vidx] = 0;
    if (prefetch) {
        readyAt[vidx] = ready_at;
        ++statsData.prefetchFills;
    }
    memoIdx = vidx;
    return ev;
}

/** Victim selection + installation tail of the historical fill path. */
Cache::Eviction
Cache::fillAbsent(std::size_t base, std::uint64_t line_number,
                  bool prefetch, bool dirty, Cycles ready_at)
{
    const std::uint32_t way = victimWay(base);
    const std::size_t vidx = base + way;
    Eviction ev;
    if (flags[vidx] & kValid) {
        ev.valid = true;
        ev.lineAddr = tags[vidx] << lineBits;
        ev.dirty = (flags[vidx] & kDirty) != 0;
        evictLine(vidx);
    }
    // Insertion: age every resident line (saturating at the natural LRU
    // maximum) and install the new line at MRU.
    for (std::uint32_t w = 0; w < config.assoc; ++w) {
        const std::size_t idx = base + w;
        if ((flags[idx] & kValid) && recency[idx] < maxRecency)
            ++recency[idx];
    }
    tags[vidx] = line_number;
    flags[vidx] = static_cast<std::uint8_t>(
        kValid | (dirty ? kDirty : 0) | (prefetch ? kPrefetched : 0));
    touched[vidx] = 0;
    recency[vidx] = 0;
    readyAt[vidx] = prefetch ? ready_at : 0;
    memoIdx = vidx;
    if (prefetch)
        ++statsData.prefetchFills;

    // FCP: age every same-region line in this set through m(x), making
    // regions that already occupy much of the set evict sooner. The
    // manipulated recency may exceed the natural LRU maximum (up to
    // manipCeiling) so that an over-occupying region's lines outrank
    // naturally old lines of other regions at eviction time.
    if (config.fcp) {
        const std::uint32_t ceiling = manipCeiling();
        const std::uint64_t region = regionOf(line_number);
        for (std::uint32_t w = 0; w < config.assoc; ++w) {
            const std::size_t idx = base + w;
            if (w == way || !(flags[idx] & kValid))
                continue;
            if (regionOf(tags[idx]) == region) {
                const std::uint32_t manipulated =
                    config.fcp->apply(recency[idx]);
                recency[idx] =
                    manipulated > ceiling ? ceiling : manipulated;
            }
        }
    }
    return ev;
}

void
Cache::invalidate(Addr addr)
{
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;
    for (std::uint32_t way = 0; way < config.assoc; ++way) {
        if (tags[base + way] == line_number) {
            evictLine(base + way);
            return;
        }
    }
}

std::size_t
Cache::findWay(Addr addr) const
{
    const std::uint64_t line_number = addr >> lineBits;
    const std::size_t base = setIndex(line_number) * config.assoc;
    for (std::uint32_t way = 0; way < config.assoc; ++way)
        if (tags[base + way] == line_number)
            return base + way;
    return kNoMemo;
}

MesiState
Cache::lineState(Addr addr) const
{
    const std::size_t idx = findWay(addr);
    if (idx == kNoMemo || !(flags[idx] & kValid))
        return MesiState::Invalid;
    if (flags[idx] & kDirty)
        return MesiState::Modified;
    return (flags[idx] & kShared) ? MesiState::Shared
                                  : MesiState::Exclusive;
}

bool
Cache::snoopInvalidate(Addr addr, bool *was_dirty)
{
    const std::size_t idx = findWay(addr);
    if (idx == kNoMemo)
        return false;
    if (was_dirty)
        *was_dirty = (flags[idx] & kDirty) != 0;
    evictLine(idx);
    return true;
}

bool
Cache::snoopDowngrade(Addr addr, bool *was_dirty)
{
    const std::size_t idx = findWay(addr);
    if (idx == kNoMemo)
        return false;
    if (was_dirty)
        *was_dirty = (flags[idx] & kDirty) != 0;
    flags[idx] = static_cast<std::uint8_t>(
        (flags[idx] & ~kDirty) | kShared);
    return true;
}

void
Cache::markShared(Addr addr)
{
    const std::size_t idx = findWay(addr);
    if (idx != kNoMemo)
        flags[idx] |= kShared;
}

void
Cache::clearShared(Addr addr)
{
    const std::size_t idx = findWay(addr);
    if (idx != kNoMemo)
        flags[idx] &= static_cast<std::uint8_t>(~kShared);
}

std::uint64_t
Cache::dirtyLines() const
{
    std::uint64_t count = 0;
    for (const std::uint8_t f : flags)
        if ((f & (kValid | kDirty)) == (kValid | kDirty))
            ++count;
    return count;
}

std::uint64_t
Cache::prefetchedLines() const
{
    std::uint64_t count = 0;
    for (const std::uint8_t f : flags)
        if ((f & (kValid | kPrefetched)) == (kValid | kPrefetched))
            ++count;
    return count;
}

void
Cache::registerStats(StatsGroup &group) const
{
    group.addCounter("hits", &statsData.hits, "demand hits");
    group.addCounter("misses", &statsData.misses, "demand misses");
    group.addCounter("evictions", &statsData.evictions,
                     "valid lines displaced");
    group.addCounter("dirtyEvictions", &statsData.dirtyEvictions,
                     "displaced lines that were dirty");
    group.addCounter("prefetchFills", &statsData.prefetchFills,
                     "fills triggered by a prefetcher");
    group.addCounter("prefetchHits", &statsData.prefetchHits,
                     "hits on prefetched-unused lines");
    group.addCounter("prefetchUnused", &statsData.prefetchUnused,
                     "prefetched lines evicted unused");
    group.addCounter("udmFetchedBytes", &statsData.udmFetchedBytes,
                     "bytes brought in (UDM tracking)");
    group.addCounter("udmUsedBytes", &statsData.udmUsedBytes,
                     "bytes actually referenced");
    group.addDerived(
        "missRatio", [this] { return statsData.missRatio(); },
        "misses / accesses");
    group.addDerived(
        "residentDirty", [this] { return double(dirtyLines()); },
        "dirty lines currently resident");
    group.addDerived(
        "residentPrefetched", [this] { return double(prefetchedLines()); },
        "prefetched-unused lines currently resident");
}

void
Cache::setEvictionListener(EvictionListener listener)
{
    evictionListener = std::move(listener);
}

} // namespace tartan::sim
