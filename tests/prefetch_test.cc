/**
 * @file
 * Dedicated Bingo prefetcher tests: trigger/footprint replay, retire on
 * eviction, FIFO eviction at capacity, triggerKey packing, the
 * historyFifo churn regression, and op-by-op agreement with a reference
 * model written from the specification.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/bingo.hh"
#include "sim/types.hh"

using namespace tartan::sim;

namespace {

constexpr std::uint32_t kLine = 64;
constexpr std::uint32_t kPage = 2048;
constexpr std::uint32_t kLinesPerPage = kPage / kLine;

Addr
lineAddr(std::uint64_t page, std::uint32_t line)
{
    return page * kPage + line * kLine;
}

/** Touch the trigger line plus @p extras on @p page, then evict it. */
void
learnFootprint(BingoPrefetcher &bingo, std::uint64_t page, PcId pc,
               std::uint32_t trigger,
               const std::vector<std::uint32_t> &extras)
{
    std::vector<Addr> out;
    bingo.observe({lineAddr(page, trigger), pc, true}, out);
    for (std::uint32_t line : extras)
        bingo.observe({lineAddr(page, line), pc, true}, out);
    bingo.onEviction(lineAddr(page, 0));
}

/** Replay targets from a fresh trigger access on @p page. */
std::vector<Addr>
replay(BingoPrefetcher &bingo, std::uint64_t page, PcId pc,
       std::uint32_t trigger)
{
    std::vector<Addr> out;
    bingo.observe({lineAddr(page, trigger), pc, true}, out);
    return out;
}

} // namespace

TEST(Prefetch, TriggerReplaysLearnedFootprintInLineOrder)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);

    // Learn lines {2, 7, 5, 31} on page 3; the trigger line itself
    // must not be replayed, and targets come out in ascending line
    // order regardless of observation order.
    learnFootprint(bingo, 3, 42, 2, {7, 5, 31});
    const auto out = replay(bingo, 9, 42, 2);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], lineAddr(9, 5));
    EXPECT_EQ(out[1], lineAddr(9, 7));
    EXPECT_EQ(out[2], lineAddr(9, 31));
}

TEST(Prefetch, NoReplayBeforeRetire)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);

    std::vector<Addr> out;
    bingo.observe({lineAddr(0, 2), 42, true}, out);
    bingo.observe({lineAddr(0, 6), 42, true}, out);
    EXPECT_TRUE(out.empty());

    // The footprint is still active — a second page with the same
    // trigger has nothing to replay until the first page retires.
    bingo.observe({lineAddr(1, 2), 42, true}, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(bingo.historySize(), 0u);

    bingo.onEviction(lineAddr(0, 0));
    EXPECT_EQ(bingo.historySize(), 1u);
    EXPECT_FALSE(replay(bingo, 5, 42, 2).empty());
}

TEST(Prefetch, EvictionOfUntrackedPageIsIgnored)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);
    bingo.onEviction(lineAddr(17, 3));
    EXPECT_EQ(bingo.historySize(), 0u);
}

TEST(Prefetch, TriggerKeyPacksPcAndOffsetWithoutAliasing)
{
    BingoPrefetcher bingo(kLine, kPage, 1024);

    // key = (pc << 6) | offset. With a naive pc+offset or pc|offset
    // packing, (pc=1, off=1) and (pc=2, off=0) or (pc=1, off=0) and
    // (pc=1, off=1) could alias; each (pc, offset) pair must learn
    // its own footprint.
    learnFootprint(bingo, 0, 1, 1, {4});
    learnFootprint(bingo, 1, 2, 0, {9});
    learnFootprint(bingo, 2, 1, 0, {13});

    const auto a = replay(bingo, 10, 1, 1);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0], lineAddr(10, 4));

    const auto b = replay(bingo, 11, 2, 0);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], lineAddr(11, 9));

    const auto c = replay(bingo, 12, 1, 0);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0], lineAddr(12, 13));
}

TEST(Prefetch, HistoryEvictsOldestTriggerAtCapacity)
{
    BingoPrefetcher bingo(kLine, kPage, 2);

    learnFootprint(bingo, 0, 100, 0, {1});
    learnFootprint(bingo, 1, 200, 0, {2});
    EXPECT_EQ(bingo.historySize(), 2u);

    // Re-learning an existing trigger overwrites in place — no FIFO
    // slot is consumed and nothing is evicted.
    learnFootprint(bingo, 2, 200, 0, {3});
    EXPECT_EQ(bingo.historySize(), 2u);
    EXPECT_EQ(bingo.fifoLive(), 2u);

    // A third distinct trigger evicts the oldest (pc 100).
    learnFootprint(bingo, 3, 300, 0, {4});
    EXPECT_EQ(bingo.historySize(), 2u);
    EXPECT_TRUE(replay(bingo, 10, 100, 0).empty());
    const auto b = replay(bingo, 11, 200, 0);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], lineAddr(11, 3));
    EXPECT_FALSE(replay(bingo, 12, 300, 0).empty());
}

TEST(Prefetch, FifoBackingStaysBoundedUnderChurn)
{
    // Regression for the historyFifo leak: fifoHead used to advance on
    // every capacity eviction while the vector kept its retired prefix
    // forever, so backing slots grew linearly with history churn. Drive
    // far more distinct triggers than the capacity holds and check the
    // backing storage stays bounded (the fixed ring) while the live
    // window tracks the table exactly.
    constexpr std::uint32_t kCapacity = 64;
    BingoPrefetcher bingo(kLine, kPage, kCapacity);

    constexpr std::uint64_t kChurn = 20000;
    for (std::uint64_t i = 0; i < kChurn; ++i)
        learnFootprint(bingo, i, static_cast<PcId>(1000 + i), 0, {1});

    EXPECT_EQ(bingo.historySize(), kCapacity);
    EXPECT_EQ(bingo.fifoLive(), kCapacity);
    EXPECT_LE(bingo.fifoBackingSlots(), std::size_t(kCapacity))
        << "fifo backing grew with churn (leak regressed)";

    // The survivors are exactly the most recent kCapacity triggers.
    EXPECT_TRUE(replay(bingo, kChurn + 1, 1000, 0).empty());
    EXPECT_FALSE(
        replay(bingo, kChurn + 2,
               static_cast<PcId>(1000 + kChurn - 1), 0)
            .empty());
}

namespace {

/**
 * Bingo as specified, on ordered containers: regions under observation
 * map page -> (trigger key, footprint); the history maps trigger key
 * (pc << 6 | trigger offset) -> footprint; a deque records history
 * insertion order. A page's first access is its trigger and replays
 * the learned footprint of its key (every set line but the trigger, in
 * ascending line order); later accesses only extend the footprint. An
 * eviction retires the page: a known key is overwritten in place,
 * otherwise the key is appended, evicting the oldest key first when
 * the history is full.
 */
class ReferenceBingo
{
  public:
    explicit ReferenceBingo(std::size_t capacity) : capacity(capacity) {}

    void
    observe(const PrefetchObservation &obs, std::vector<Addr> &out)
    {
        const std::uint64_t page = obs.addr / kPage;
        const std::uint32_t offset =
            static_cast<std::uint32_t>(obs.addr % kPage / kLine);
        auto it = active.find(page);
        if (it != active.end()) {
            it->second.second |= 1ull << offset;
            return;
        }
        const std::uint64_t key = (std::uint64_t(obs.pc) << 6) | offset;
        active[page] = {key, 1ull << offset};
        auto hist = history.find(key);
        if (hist == history.end())
            return;
        for (std::uint32_t line = 0; line < kLinesPerPage; ++line)
            if (line != offset && (hist->second >> line & 1))
                out.push_back(lineAddr(page, line));
    }

    void
    onEviction(Addr line_addr)
    {
        auto it = active.find(line_addr / kPage);
        if (it == active.end())
            return;
        const auto [key, footprint] = it->second;
        active.erase(it);
        if (!history.count(key)) {
            if (history.size() >= capacity) {
                history.erase(fifo.front());
                fifo.pop_front();
            }
            fifo.push_back(key);
        }
        history[key] = footprint;
    }

    std::size_t historySize() const { return history.size(); }
    std::size_t fifoLive() const { return fifo.size(); }

  private:
    std::size_t capacity;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> active;
    std::map<std::uint64_t, std::uint64_t> history;
    std::deque<std::uint64_t> fifo;
};

} // namespace

TEST(Prefetch, MatchesReferenceBingoOnRandomStream)
{
    // Long seeded streams of observations and evictions over a page
    // pool larger than the history, for several capacities: the
    // prediction stream and the table sizes must match the reference
    // after every op, so capacity eviction order is checked too.
    for (const std::size_t capacity : {1, 7, 32, 200}) {
        BingoPrefetcher bingo(kLine, kPage,
                              static_cast<std::uint32_t>(capacity));
        ReferenceBingo ref(capacity);
        std::mt19937_64 rng(12345 + capacity);
        std::vector<Addr> got, want;
        std::uint64_t replays = 0;
        for (int i = 0; i < 60000; ++i) {
            const std::uint64_t page = rng() % 96;
            if (rng() % 8 == 0) {
                const Addr line =
                    lineAddr(page, static_cast<std::uint32_t>(
                                       rng() % kLinesPerPage));
                bingo.onEviction(line);
                ref.onEviction(line);
            } else {
                const PrefetchObservation obs{
                    lineAddr(page, static_cast<std::uint32_t>(
                                       rng() % kLinesPerPage)),
                    static_cast<PcId>(rng() % 16), true};
                got.clear();
                want.clear();
                bingo.observe(obs, got);
                ref.observe(obs, want);
                ASSERT_EQ(got, want)
                    << "capacity " << capacity << " step " << i;
                replays += !want.empty();
            }
            ASSERT_EQ(bingo.historySize(), ref.historySize())
                << "capacity " << capacity << " step " << i;
            ASSERT_EQ(bingo.fifoLive(), ref.fifoLive())
                << "capacity " << capacity << " step " << i;
        }
        EXPECT_GT(replays, 10u) << "capacity " << capacity;
    }
}
