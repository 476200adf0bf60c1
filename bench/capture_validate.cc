/**
 * @file
 * Schema checker for capture files: loads each argument as a .tcap
 * capture (header magic/version, whole-file CRC, record tags and the
 * aux-cursor walk — the full validation the replay loader applies) and
 * prints a one-line summary per valid file, then the totals with the
 * average file bytes per captured op — a fused memory+compute record
 * holds two ops. CI runs a sweep under TARTAN_CAPTURE_DIR and feeds
 * every emitted file through this tool.
 *
 * Usage: capture_validate [--max-bytes-per-op N]
 *                         capture_<hash>_<seed>.tcap ...
 *
 * With --max-bytes-per-op, the run also fails when the files average
 * more than N bytes (header, records and aux) per captured op.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "sim/capture.hh"
#include "sim/checksum.hh"

int
main(int argc, char **argv)
{
    double max_per_op = 0.0;
    int first = 1;
    if (argc > 2 && std::string(argv[1]) == "--max-bytes-per-op") {
        max_per_op = std::atof(argv[2]);
        first = 3;
    }
    if (first >= argc || (first == 3 && max_per_op <= 0.0)) {
        std::fprintf(stderr,
                     "usage: %s [--max-bytes-per-op N] <capture.tcap>...\n",
                     argv[0]);
        return 2;
    }
    int failures = 0;
    std::uintmax_t total_bytes = 0;
    std::size_t total_records = 0;
    std::size_t total_ops = 0;
    for (int i = first; i < argc; ++i) {
        const std::string path = argv[i];
        tartan::sim::CaptureTrace trace;
        std::string err;
        if (tartan::sim::CaptureTrace::load(path, trace, &err)) {
            std::printf("%s: ok (config %s, seed %llu, %zu records, "
                        "%zu aux bytes)\n",
                        path.c_str(),
                        tartan::sim::hex64(trace.configHash).c_str(),
                        static_cast<unsigned long long>(trace.seed),
                        trace.records.size(), trace.aux.size());
            total_bytes += std::filesystem::file_size(path);
            total_records += trace.records.size();
            for (const tartan::sim::CapRecord &r : trace.records)
                total_ops += tartan::sim::capOpCount(r);
        } else {
            std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                         err.empty() ? "cannot open" : err.c_str());
            ++failures;
        }
    }
    const double per_op =
        total_ops ? double(total_bytes) / double(total_ops) : 0.0;
    std::printf("total: %d valid files, %zu records holding %zu ops, "
                "%ju bytes, %.2f bytes/op\n",
                argc - first - failures, total_records, total_ops,
                total_bytes, per_op);
    if (max_per_op > 0.0 && per_op > max_per_op) {
        std::fprintf(stderr,
                     "captures average %.2f bytes per op, above the "
                     "%.2f limit\n",
                     per_op, max_per_op);
        ++failures;
    }
    return failures ? 1 : 0;
}
