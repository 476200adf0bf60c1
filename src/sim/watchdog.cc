/**
 * @file
 * Watchdog implementation: the background deadline scanner and the
 * slow half of the heartbeat.
 */

#include "sim/watchdog.hh"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace tartan::sim {

thread_local HeartbeatState tlsHeartbeat;

namespace {

/**
 * The process-wide deadline scanner. One background thread wakes every
 * ~20 ms while any watch is registered, compares deadlines against
 * steady_clock::now() and raises the `expired` flag — the watched
 * thread itself does the throwing, from its next heartbeat, so the
 * unwinding always happens on the cell's own stack.
 */
class Watchdog
{
  public:
    static Watchdog &
    instance()
    {
        static Watchdog dog;
        return dog;
    }

    void
    add(std::shared_ptr<CellWatch> watch)
    {
        std::lock_guard<std::mutex> lock(mtx);
        watches.push_back(std::move(watch));
        if (!scanner.joinable())
            scanner = std::thread([this] { scanLoop(); });
        cv.notify_all();
    }

    void
    remove(const CellWatch *watch)
    {
        std::lock_guard<std::mutex> lock(mtx);
        watches.erase(std::remove_if(watches.begin(), watches.end(),
                                     [watch](const auto &w) {
                                         return w.get() == watch;
                                     }),
                      watches.end());
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            stopping = true;
        }
        cv.notify_all();
        if (scanner.joinable())
            scanner.join();
    }

  private:
    void
    scanLoop()
    {
        std::unique_lock<std::mutex> lock(mtx);
        while (!stopping) {
            for (const auto &w : watches)
                if (!w->expired.load(std::memory_order_relaxed) &&
                    std::chrono::steady_clock::now() >= w->deadline)
                    w->expired.store(true, std::memory_order_relaxed);
            cv.wait_for(lock, std::chrono::milliseconds(20),
                        [this] { return stopping; });
        }
    }

    std::mutex mtx;
    std::condition_variable cv;
    std::vector<std::shared_ptr<CellWatch>> watches;
    std::thread scanner;
    bool stopping = false;
};

} // namespace

void
heartbeatSlow()
{
    HeartbeatState &hb = tlsHeartbeat;
    CellWatch *watch = hb.watch;
    watch->beats.store(hb.local, std::memory_order_relaxed);
    if (watch->expired.load(std::memory_order_relaxed))
        throw CellTimeoutError("cell '" + watch->cell +
                               "' exceeded its deadline (TARTAN_TIMEOUT)");
}

ScopedCellWatch::ScopedCellWatch(std::chrono::milliseconds timeout,
                                 std::string cell)
{
    if (timeout.count() <= 0)
        return;
    watch = std::make_shared<CellWatch>();
    watch->deadline = std::chrono::steady_clock::now() + timeout;
    watch->cell = std::move(cell);
    tlsHeartbeat.local = 0;
    tlsHeartbeat.watch = watch.get();
    Watchdog::instance().add(watch);
}

ScopedCellWatch::~ScopedCellWatch()
{
    if (!watch)
        return;
    tlsHeartbeat.watch = nullptr;
    tlsHeartbeat.local = 0;
    Watchdog::instance().remove(watch.get());
}

void
hangUntilWatchdog()
{
    for (;;) {
        HeartbeatState &hb = tlsHeartbeat;
        if (hb.watch) {
            hb.watch->beats.store(hb.local, std::memory_order_relaxed);
            if (hb.watch->expired.load(std::memory_order_relaxed))
                throw CellTimeoutError(
                    "cell '" + hb.watch->cell +
                    "' exceeded its deadline (TARTAN_TIMEOUT)");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

} // namespace tartan::sim
