/**
 * @file
 * Schema checker for capture files: loads each argument as a .tcap
 * capture (header magic/version, whole-file CRC, record tags and the
 * aux-cursor walk — the full validation the replay loader applies) and
 * prints a one-line summary per valid file, then the totals with the
 * average file bytes per captured op — a fused memory+compute record
 * holds two ops. Exits 1 if any file is invalid.
 *
 * Usage: capture_validate <capture.tcap>...
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "sim/capture.hh"
#include "sim/checksum.hh"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <capture.tcap>...\n", argv[0]);
        return 2;
    }
    int failures = 0;
    std::uintmax_t total_bytes = 0;
    std::size_t total_records = 0;
    std::size_t total_ops = 0;
    for (int i = 1; i < argc; ++i) {
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
                argc - 1 - failures, total_records, total_ops,
                total_bytes, per_op);
    return failures ? 1 : 0;
}
