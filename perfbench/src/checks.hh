/**
 * @file
 * Output checks of the host-time benchmark. Every check returns an
 * empty string on success and a one-line reason otherwise; a non-empty
 * reason marks the cell failed.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "harness.hh"
#include "workloads/common.hh"

namespace perfbench {

/** A cell still running after this many host seconds fails (timeout). */
inline constexpr double kCellTimeoutSec = 30.0;

/**
 * Run @p fn as cell @p cell under the library's cell watchdog: a
 * simulation still running @p timeout_s seconds after the start throws
 * sim::CellTimeoutError from its next heartbeat. Exceptions, timeouts
 * and a non-empty reason returned by @p fn all come back as the
 * failure reason. Calls do not nest.
 */
std::string guarded(const std::string &cell,
                    const std::function<std::string()> &fn,
                    double timeout_s = kCellTimeoutSec);

/**
 * The checks every run result passes, first failure wins: every
 * kernel's CPI stack sums to its cycles; FlyBot found its plan; the
 * cell codec round-trips the result exactly (spans "cellcodec.encode"
 * / "cellcodec.decode"). Sets @p digest to the FNV-1a 64 of the
 * encoded result and, when non-null, @p payload to that encoding.
 */
std::string checkCell(const tartan::workloads::RunResult &r,
                      Tracer *tracer, std::uint64_t &digest,
                      std::string *payload = nullptr);

/**
 * Compare two encodeRunResult payloads, which carry every field of a
 * run result. Empty when equal; otherwise names the first field that
 * differs.
 */
std::string diffPayloads(const std::string &a, const std::string &b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
