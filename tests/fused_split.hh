/**
 * @file
 * Test-only oracle for fused capture records: splitFused() rewrites a
 * capture so that every fused memory+compute record becomes the two
 * primitive records it stands for, leaving the aux stream untouched.
 * Replaying the split trace must give exactly what replaying the fused
 * one gives, on one core and in a fleet; the expansion here is written
 * independently of ReplayStream's so a decoding slip shows as a
 * mismatch.
 */

#ifndef TARTAN_TESTS_FUSED_SPLIT_HH
#define TARTAN_TESTS_FUSED_SPLIT_HH

#include <cstddef>

#include "sim/capture.hh"

namespace tartan::testutil {

/** @p in with every fused record expanded into its two primitives. */
inline tartan::sim::CaptureTrace
splitFused(const tartan::sim::CaptureTrace &in)
{
    using tartan::sim::CapOp;
    using tartan::sim::CapRecord;
    tartan::sim::CaptureTrace out;
    out.configHash = in.configHash;
    out.seed = in.seed;
    out.aux = in.aux;
    std::size_t fused = 0;
    for (const CapRecord &r : in.records)
        fused += tartan::sim::capOpCount(r) - 1;
    out.records.reserve(in.records.size() + fused);
    for (const CapRecord &r : in.records) {
        CapRecord mem = r;
        CapRecord compute;
        switch (CapOp(r.op)) {
          case CapOp::LoadExec:
          case CapOp::StoreExec:
            mem.op = std::uint8_t(CapOp(r.op) == CapOp::LoadExec
                                      ? CapOp::Load
                                      : CapOp::Store);
            mem.a16 = r.a16 & 0xff;
            mem.a8 = r.a8 & 0xf;
            compute.op = std::uint8_t(CapOp::Exec);
            compute.b = r.a16 >> 8;
            compute.a8 = r.a8 >> 4;
            break;
          case CapOp::VecLoadContiguousVecOp:
            mem.op = std::uint8_t(CapOp::VecLoadContiguous);
            mem.a8 = 0;
            compute.op = std::uint8_t(CapOp::VecOp);
            compute.b = r.a8;
            break;
          case CapOp::VecLoadLanesVecOp:
            mem.op = std::uint8_t(CapOp::VecLoadLanes);
            mem.a16 = r.a16 & 0xff;
            compute.op = std::uint8_t(CapOp::VecOp);
            compute.b = r.a16 >> 8;
            break;
          default:
            out.records.push_back(r);
            continue;
        }
        out.records.push_back(mem);
        out.records.push_back(compute);
    }
    return out;
}

} // namespace tartan::testutil

#endif // TARTAN_TESTS_FUSED_SPLIT_HH
