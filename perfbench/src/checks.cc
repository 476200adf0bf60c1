#include "checks.hh"

#include <chrono>
#include <exception>

#include "sim/watchdog.hh"
#include "workloads/cellcodec.hh"

namespace perfbench {

using tartan::workloads::RunResult;

namespace {

std::string
checkCpiStacks(const RunResult &r)
{
    for (const auto &k : r.kernels)
        if (k.cpi.sum() != k.cycles)
            return "kernel " + k.name + " CPI stack sums to " +
                   std::to_string(k.cpi.sum()) + ", not " +
                   std::to_string(k.cycles);
    return {};
}

std::string
checkRobotOutput(const RunResult &r)
{
    if (r.robot == "FlyBot") {
        auto it = r.metrics.find("planFound");
        if (it == r.metrics.end() || it->second != 1.0)
            return "FlyBot planner found no path";
    }
    return {};
}

} // namespace

std::string
guarded(const std::string &cell, const std::function<std::string()> &fn,
        double timeout_s)
{
    try {
        tartan::sim::ScopedCellWatch watch(
            std::chrono::milliseconds(std::int64_t(timeout_s * 1e3)), cell);
        return fn();
    } catch (const tartan::sim::CellTimeoutError &e) {
        return std::string("timeout: ") + e.what();
    } catch (const std::exception &e) {
        return std::string("exception: ") + e.what();
    } catch (...) {
        return "unknown exception";
    }
}

std::string
checkCell(const RunResult &r, Tracer *tracer, std::uint64_t &digest,
          std::string *payload_out)
{
    std::string err;
    {
        ScopedSpan span(tracer, "check");
        err = checkCpiStacks(r);
        if (err.empty())
            err = checkRobotOutput(r);
    }
    std::string payload;
    {
        ScopedSpan span(tracer, "cellcodec.encode");
        payload = tartan::workloads::encodeRunResult(r);
    }
    RunResult back;
    std::string codec_err;
    bool ok = false;
    {
        ScopedSpan span(tracer, "cellcodec.decode");
        ok = tartan::workloads::decodeRunResult(payload, back, &codec_err);
    }
    digest = tartan::sim::fnv1a64(payload);
    if (err.empty() && !ok)
        err = "cell codec rejects its own payload: " + codec_err;
    if (err.empty()) {
        ScopedSpan span(tracer, "check");
        if (tartan::workloads::encodeRunResult(back) != payload)
            err = "cell codec round trip is not exact";
    }
    if (payload_out)
        *payload_out = std::move(payload);
    return err;
}

std::string
diffPayloads(const std::string &a, const std::string &b)
{
    if (a == b)
        return {};
    std::size_t p = 0;
    while (p < a.size() && p < b.size() && a[p] == b[p])
        ++p;
    // The payload is one JSON object: name the key the difference is in.
    const std::size_t colon = a.rfind("\":", p);
    const std::size_t open =
        colon == std::string::npos || colon == 0
            ? std::string::npos
            : a.rfind('"', colon - 1);
    const std::string key = open == std::string::npos
                                ? std::string("(start)")
                                : a.substr(open + 1, colon - open - 1);
    const auto near = [p](const std::string &s) {
        return s.substr(p, 24);
    };
    return "field \"" + key + "\" differs at byte " + std::to_string(p) +
           ": '" + near(a) + "' vs '" + near(b) + "'";
}

} // namespace perfbench
