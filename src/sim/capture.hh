/**
 * @file
 * Capture / replay trace engine.
 *
 * PR 4's deterministic addressing made the Core-boundary op stream of a
 * robot run a pure function of the access *sequence*: host addresses
 * are translated through the AddrMap (arena segments map linearly,
 * everything else through a 16-byte-grain first-touch table), so the
 * simulated addresses — and with them every cache/prefetcher/FCP
 * decision — depend only on the order of operations, never on the
 * machine's timing configuration. A capture therefore records that
 * sequence once, at the Core's public API boundary, and a ReplayMachine
 * re-issues it against an arbitrary timing configuration without
 * touching robot code. Its users are fleet replay (one stream per core
 * of a multi-core machine), saved .tcap files and the replay-vs-direct
 * tests; single-core sweeps run direct, because replay still runs the
 * whole timing model, which dominates a run's host time.
 *
 * What is captured (a 16-byte POD record per op, lane addresses,
 * strings and rare wide arguments in a side "aux" byte stream):
 *  - every Core op (exec / stall / load / store / vector and device
 *    loads) with its *host* addresses and static arguments — never its
 *    latencies or timestamps, which replay recomputes;
 *  - MemPath address-space registrations (mapSegment, write-through and
 *    no-allocate ranges) in stream order, because the first-touch
 *    table and the host-address range checks are order-sensitive;
 *  - Pipeline stage/item/serial markers, so replay reproduces the LPT
 *    makespan wall-clock model exactly;
 *  - semantic NPU events (configure / infer with layer widths) instead
 *    of the raw stalls they expand to, because those stall amounts
 *    depend on NpuConfig — the one sweepable knob that shapes op
 *    *arguments* — and must be recomputed from the replay config;
 *  - the run's functional outputs (robot name, quality metrics), which
 *    replay cannot recompute and which are timing-independent.
 *
 * Record layout (format v2): a record is {op, a8, a16, a32, b} — a tag,
 * three small scalars and one 64-bit argument (see CapOp for each op's
 * field map). Records carry no aux offsets: the aux stream is consumed
 * strictly in record order, so a reader keeps an implicit *aux cursor*
 * and advances it by the bytes each record owns (capAuxBytes()). A
 * 16-bit field holding kCapWide16, or the high half of a packed
 * (pc | cycles << 32) holding kCapWide32, means the full value follows
 * in the aux stream as a u64; that covers the rare wide sizes and
 * cycle counts without widening every record.
 *
 * Fused records: a memory op immediately followed by its compute op —
 * Load then Exec, Store then Exec, VecLoadContiguous then VecOp,
 * VecLoadLanes then VecOp — is stored as one record when the compute
 * op's arguments fit the head record's spare bits. The session rewrites
 * the last record in place, never across a suppression boundary, and
 * replay expands the fused record into exactly the two original Core
 * calls. Only memory-then-compute pairs fuse: replayFleet picks the
 * min-cycle core *before* each step, and a compute op touches no shared
 * state, so folding it into the memory op before it leaves every
 * cross-core access in the same global order. Folding a compute op into
 * the memory op *after* it would let that access jump ahead of other
 * cores' accesses issued in between.
 *
 * File format (`.tcap`): a fixed 64-byte header (magic, format
 * version, CRC-32 via checksum.hh of the header with its CRC field
 * zeroed then the records then the aux bytes, config hash, seed,
 * record/aux counts) followed by the record array and the aux bytes. Corruption policy mirrors the run journal: a
 * truncated tail, a bit flip anywhere in the file, or a foreign-version
 * header (v1 files included) make the file invalid as a whole, and the
 * remedy is to capture again — a capture is a cache entry, never a
 * source of truth.
 *
 * Record buffers use the MmapAlloc substrate from sim/trace: capture
 * runs read host pointers as simulated addresses, so buffers growing
 * inside the malloc arena would perturb the very workload allocations
 * being captured. A session reserves its record buffer's address space
 * once, up front, so recording appends in place instead of remapping
 * and copying the records at every doubling.
 */

#ifndef TARTAN_SIM_CAPTURE_HH
#define TARTAN_SIM_CAPTURE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace tartan::sim {

/** Bumped whenever the record layout or encoding changes. */
constexpr std::uint32_t kCaptureFormatVersion = 2;

/** A 16-bit field holding this value: the full value is in the aux. */
constexpr std::uint16_t kCapWide16 = 0xffff;
/** A packed cycle count's high half holding this: the same for u64s. */
constexpr std::uint32_t kCapWide32 = 0xffffffff;

/**
 * Operation tags of the capture stream, with each op's field map.
 * "aux:" lists what the record owns in the aux stream, in cursor order;
 * "(wide)" marks a u64 present only when its field holds kCapWide16 /
 * kCapWide32. "b=pc|x" packs b = pc | x << 32.
 */
enum class CapOp : std::uint8_t {
    RegisterKernel = 1, //!< a32=name len; aux: name
    SetKernel,          //!< a32=kernel id
    Exec,               //!< b=ops, a8=OpClass
    Stall,              //!< b=cycles, a8=CpiCat
    CountInstructions,  //!< b=n
    Load,               //!< b=host addr, a32=pc, a8=MemDep, a16=size;
                        //!< aux: size (wide)
    Store,              //!< b=host addr, a32=pc, a16=size; aux: size (wide)
    VecOp,              //!< b=n
    DeviceLoadLanes,    //!< a32=lanes, b=pc|device cycles, a8=CpiCat;
                        //!< aux: lanes, cycles (wide)
    VecLoadLanes,       //!< a32=lanes, b=pc|ag latency, a16=lane size,
                        //!< a8=CpiCat; aux: lanes, latency (wide),
                        //!< lane size (wide)
    VecLoadContiguous,  //!< b=host base, a32=pc, a16=bytes;
                        //!< aux: bytes (wide)
    MapSegment,         //!< b=host base; aux: bytes
    WriteThroughRange,  //!< b=host base; aux: bytes
    NoAllocateRange,    //!< b=host base; aux: bytes
    StageBegin,         //!< a32=threads
    ItemBegin,          //!< (no payload)
    ItemEnd,            //!< (no payload)
    StageEnd,           //!< (no payload)
    SerialBegin,        //!< (no payload)
    SerialEnd,          //!< (no payload)
    NpuConfigure,       //!< b=parameter count
    NpuInfer,           //!< b=input floats, a32=layer count;
                        //!< aux: output floats, u64 widths
    Metric,             //!< a32=name len, b=double bits; aux: name
    RobotName,          //!< a32=name len; aux: name
    OverlapBegin,       //!< (no payload)
    OverlapEnd,         //!< (no payload)
    Discount,           //!< a8=kind (0 region, 1 kernels), b=divisor,
                        //!< a32=kernel count; aux: u64 ids
    // Fused memory+compute pairs: the head's fields, with the compute
    // op's arguments in the bits the head leaves free.
    LoadExec,           //!< Load with a16=size | ops << 8,
                        //!< a8=MemDep | OpClass << 4; then Exec
    StoreExec,          //!< Store with a16=size | ops << 8,
                        //!< a8=OpClass << 4; then Exec
    VecLoadContiguousVecOp, //!< VecLoadContiguous with a8=n; then VecOp
    VecLoadLanesVecOp,  //!< VecLoadLanes with a16=lane size | n << 8;
                        //!< aux: lanes, latency (wide); then VecOp
    NumOps
};

/** One captured operation. POD, fixed 16 bytes, no padding. */
struct CapRecord {
    std::uint8_t op = 0;   //!< CapOp tag
    std::uint8_t a8 = 0;   //!< small enum argument (dep / cat / class)
    std::uint16_t a16 = 0; //!< small scalar (sizes, lane size)
    std::uint32_t a32 = 0; //!< medium scalar (pc, counts, ids)
    std::uint64_t b = 0;   //!< wide argument (addresses, counts)
};

static_assert(sizeof(CapRecord) == 16, "capture records are 16-byte POD");

/** Bytes record @p r owns in the aux stream (its cursor advance). */
constexpr std::uint64_t
capAuxBytes(const CapRecord &r)
{
    const std::uint64_t wide16 = r.a16 == kCapWide16 ? 8 : 0;
    const std::uint64_t wide32 = (r.b >> 32) == kCapWide32 ? 8 : 0;
    switch (CapOp(r.op)) {
      case CapOp::RegisterKernel:
      case CapOp::Metric:
      case CapOp::RobotName:
        return r.a32;
      case CapOp::Load:
      case CapOp::Store:
      case CapOp::VecLoadContiguous:
        return wide16;
      case CapOp::DeviceLoadLanes:
      case CapOp::VecLoadLanesVecOp:
        return 8 * std::uint64_t(r.a32) + wide32;
      case CapOp::VecLoadLanes:
        return 8 * std::uint64_t(r.a32) + wide32 + wide16;
      case CapOp::MapSegment:
      case CapOp::WriteThroughRange:
      case CapOp::NoAllocateRange:
        return 8;
      case CapOp::NpuInfer:
        return 8 + 8 * std::uint64_t(r.a32);
      case CapOp::Discount:
        return 8 * std::uint64_t(r.a32);
      default:
        return 0;
    }
}

/** Core-boundary ops record @p r stands for: two for a fused record. */
constexpr unsigned
capOpCount(const CapRecord &r)
{
    switch (CapOp(r.op)) {
      case CapOp::LoadExec:
      case CapOp::StoreExec:
      case CapOp::VecLoadContiguousVecOp:
      case CapOp::VecLoadLanesVecOp:
        return 2;
      default:
        return 1;
    }
}

/** Vector on the mmap substrate (workload-heap neutrality). */
template <typename T>
using CapVec = std::vector<T, MmapAlloc<T>>;

/**
 * One finished capture: the op stream, its aux bytes, and the identity
 * of the (robot, machine, options) cell it was recorded from. The
 * configHash content-addresses the capture exactly like a cache entry;
 * a loaded file whose hash or seed differs from the expectation is a
 * foreign capture and must be ignored.
 */
struct CaptureTrace {
    std::uint64_t configHash = 0; //!< capture-cell content hash
    std::uint64_t seed = 0;       //!< workload seed
    CapVec<CapRecord> records;    //!< op stream in record order
    CapVec<std::uint8_t> aux;     //!< variable payloads, record order

    /** @{ Aux reads at cursor @p at, which each advances past. */
    std::string_view
    auxString(std::uint64_t &at, std::uint32_t len) const
    {
        const std::string_view s(
            reinterpret_cast<const char *>(aux.data()) + at, len);
        at += len;
        return s;
    }

    std::uint64_t
    auxU64(std::uint64_t &at) const
    {
        std::uint64_t v = 0;
        std::memcpy(&v, aux.data() + at, 8);
        at += 8;
        return v;
    }

    /** Copy @p count u64 values into @p out. */
    template <typename V>
    void
    auxU64s(std::uint64_t &at, std::uint32_t count, V &out) const
    {
        out.resize(count);
        for (std::uint32_t i = 0; i < count; ++i)
            out[i] = static_cast<typename V::value_type>(auxU64(at));
    }
    /** @} */

    /**
     * Write header + records + aux to @p path (atomically: a temp file
     * renamed into place, so a crashed save never leaves a torn file
     * under the content address). Returns false with @p err on failure.
     */
    bool save(const std::string &path, std::string *err = nullptr) const;

    /**
     * Load and fully validate a capture file. Every failure mode —
     * unreadable file, bad magic, foreign format version, size
     * mismatch against the header's counts (truncated tail), CRC
     * mismatch (bit rot in the header or body), out-of-range op tags,
     * an aux cursor that overruns or falls short of the aux stream —
     * returns false; @p err stays empty when the file simply does not
     * exist and describes the corruption otherwise. An invalid file is
     * never partially trusted: the caller re-captures.
     */
    static bool load(const std::string &path, CaptureTrace &out,
                     std::string *err = nullptr);

    /**
     * Structural validation of an in-memory trace: known op tags, and
     * an aux cursor that ends exactly at the end of the aux stream.
     */
    bool validate(std::string *err = nullptr) const;
};

/**
 * The recording half: attached to a Core (and its MemPath) for one
 * robot run, it appends one record per public-API op, fusing a compute
 * op into the memory op recorded just before it (see the file comment).
 * Record methods no-op while suppressed — the NPU model suppresses raw
 * recording around its internal Core charges and emits semantic events
 * instead.
 */
class CaptureSession
{
  public:
    /**
     * Address space reserved up front for the record buffer (1 GiB,
     * 64 Mi records). MmapAlloc pages are faulted in on first write, so
     * the reservation costs no memory until records fill it, and a
     * capture that fits never regrows: no remap, no copy of the records
     * so far. Past it the buffer grows by doubling as before.
     */
    static constexpr std::size_t kReservedRecords = std::size_t(1) << 26;

    CaptureSession(std::uint64_t config_hash, std::uint64_t seed)
    {
        data.configHash = config_hash;
        data.seed = seed;
        try {
            data.records.reserve(kReservedRecords);
        } catch (const std::bad_alloc &) {
            // No room for the reservation (address-space limit, strict
            // overcommit): record with ordinary growth instead.
        }
    }

    /** @{ Core-boundary ops. */
    void
    registerKernel(std::string_view name)
    {
        CapRecord r = rec(CapOp::RegisterKernel);
        r.a32 = std::uint32_t(name.size());
        auxBytes(name.data(), name.size());
        push(r);
    }

    void
    setKernel(std::uint32_t id)
    {
        CapRecord r = rec(CapOp::SetKernel);
        r.a32 = id;
        push(r);
    }

    void
    exec(std::uint64_t ops, std::uint8_t cls)
    {
        if ((head == CapOp::Load || head == CapOp::Store) && ops <= 0xff &&
            cls <= 0xf) {
            CapRecord &last = data.records.back();
            if (last.a16 <= 0xff && last.a8 <= 0xf) {
                last.op = std::uint8_t(head == CapOp::Load ? CapOp::LoadExec
                                                           : CapOp::StoreExec);
                last.a16 = std::uint16_t(last.a16 | ops << 8);
                last.a8 = std::uint8_t(last.a8 | cls << 4);
                head = CapOp{};
                return;
            }
        }
        CapRecord r = rec(CapOp::Exec);
        r.b = ops;
        r.a8 = cls;
        push(r);
    }

    void
    stall(Cycles cycles, std::uint8_t cat)
    {
        CapRecord r = rec(CapOp::Stall);
        r.b = cycles;
        r.a8 = cat;
        push(r);
    }

    void
    countInstructions(std::uint64_t n)
    {
        CapRecord r = rec(CapOp::CountInstructions);
        r.b = n;
        push(r);
    }

    void
    load(Addr addr, PcId pc, std::uint8_t dep, std::uint32_t size)
    {
        CapRecord r = rec(CapOp::Load);
        r.b = addr;
        r.a32 = pc;
        r.a8 = dep;
        r.a16 = wide16(size);
        push(r, true);
    }

    void
    store(Addr addr, PcId pc, std::uint32_t size)
    {
        CapRecord r = rec(CapOp::Store);
        r.b = addr;
        r.a32 = pc;
        r.a16 = wide16(size);
        push(r, true);
    }

    void
    vecOp(std::uint64_t n)
    {
        if (head != CapOp{} && n <= 0xff) {
            CapRecord &last = data.records.back();
            if (head == CapOp::VecLoadContiguous && last.a16 != kCapWide16) {
                last.op = std::uint8_t(CapOp::VecLoadContiguousVecOp);
                last.a8 = std::uint8_t(n);
                head = CapOp{};
                return;
            }
            if (head == CapOp::VecLoadLanes && last.a16 <= 0xff) {
                last.op = std::uint8_t(CapOp::VecLoadLanesVecOp);
                last.a16 = std::uint16_t(last.a16 | n << 8);
                head = CapOp{};
                return;
            }
        }
        CapRecord r = rec(CapOp::VecOp);
        r.b = n;
        push(r);
    }

    void
    deviceLoadLanes(std::span<const Addr> lanes, PcId pc,
                    Cycles device_cycles, std::uint8_t cat)
    {
        CapRecord r = rec(CapOp::DeviceLoadLanes);
        r.a32 = std::uint32_t(lanes.size());
        auxBytes(lanes.data(), lanes.size_bytes());
        r.b = pcCycles(pc, device_cycles);
        r.a8 = cat;
        push(r);
    }

    void
    vecLoadLanes(std::span<const Addr> lanes, PcId pc, Cycles ag_latency,
                 std::uint32_t lane_size, std::uint8_t cat)
    {
        CapRecord r = rec(CapOp::VecLoadLanes);
        r.a32 = std::uint32_t(lanes.size());
        auxBytes(lanes.data(), lanes.size_bytes());
        r.b = pcCycles(pc, ag_latency);
        r.a16 = wide16(lane_size);
        r.a8 = cat;
        push(r, true);
    }

    void
    vecLoadContiguous(Addr base, std::uint32_t bytes, PcId pc)
    {
        CapRecord r = rec(CapOp::VecLoadContiguous);
        r.b = base;
        r.a32 = pc;
        r.a16 = wide16(bytes);
        push(r, true);
    }
    /** @} */

    /** @{ MemPath address-space registrations (order-sensitive). */
    void
    mapSegment(Addr base, std::uint64_t bytes)
    {
        pushRange(CapOp::MapSegment, base, bytes);
    }

    void
    writeThroughRange(Addr base, std::uint64_t bytes)
    {
        pushRange(CapOp::WriteThroughRange, base, bytes);
    }

    void
    noAllocateRange(Addr base, std::uint64_t bytes)
    {
        pushRange(CapOp::NoAllocateRange, base, bytes);
    }
    /** @} */

    /** @{ Pipeline wall-clock markers. */
    void
    stageBegin(std::uint32_t threads)
    {
        CapRecord r = rec(CapOp::StageBegin);
        r.a32 = threads;
        push(r);
    }

    void itemBegin() { push(rec(CapOp::ItemBegin)); }
    void itemEnd() { push(rec(CapOp::ItemEnd)); }
    void stageEnd() { push(rec(CapOp::StageEnd)); }
    void serialBegin() { push(rec(CapOp::SerialBegin)); }
    void serialEnd() { push(rec(CapOp::SerialEnd)); }
    void overlapBegin() { push(rec(CapOp::OverlapBegin)); }
    void overlapEnd() { push(rec(CapOp::OverlapEnd)); }

    /**
     * Wall discount of the overlap-region accumulator: the cycles
     * bracketed by overlapBegin/overlapEnd pairs since the last
     * discountRegion() ran on parallel threads, keeping only a
     * 1/divisor wall share. Replay re-measures the regions on its own
     * clock, so the discount scales with the replay machine's timing.
     */
    void
    discountRegion(std::uint64_t divisor)
    {
        CapRecord r = rec(CapOp::Discount);
        r.a8 = 0;
        r.b = divisor;
        push(r);
    }

    /** Wall discount of the named kernels' cycle totals (same model). */
    void
    discountKernels(std::span<const std::uint32_t> kernels,
                    std::uint64_t divisor)
    {
        CapRecord r = rec(CapOp::Discount);
        r.a8 = 1;
        r.b = divisor;
        r.a32 = std::uint32_t(kernels.size());
        for (std::uint32_t k : kernels)
            auxU64(k);
        push(r);
    }
    /** @} */

    /** @{ Semantic NPU events (config-dependent charges). */
    void
    npuConfigure(std::uint64_t param_count)
    {
        CapRecord r = rec(CapOp::NpuConfigure);
        r.b = param_count;
        push(r);
    }

    void
    npuInfer(std::uint64_t in_floats, std::uint64_t out_floats,
             std::span<const std::uint32_t> layers)
    {
        CapRecord r = rec(CapOp::NpuInfer);
        r.b = in_floats;
        r.a32 = std::uint32_t(layers.size());
        auxU64(out_floats);
        for (std::uint32_t w : layers)
            auxU64(w);
        push(r);
    }
    /** @} */

    /** @{ Functional run outputs (replay cannot recompute these). */
    void
    setRobot(std::string_view name)
    {
        CapRecord r = rec(CapOp::RobotName);
        r.a32 = std::uint32_t(name.size());
        auxBytes(name.data(), name.size());
        push(r);
    }

    void
    addMetric(std::string_view name, double value)
    {
        CapRecord r = rec(CapOp::Metric);
        r.a32 = std::uint32_t(name.size());
        auxBytes(name.data(), name.size());
        std::memcpy(&r.b, &value, 8);
        push(r);
    }
    /** @} */

    /**
     * Suppression: record methods no-op while the depth is nonzero.
     * Either edge ends a fusable pair: a compute op never fuses into a
     * memory op recorded on the other side of a suppressed stretch.
     */
    void
    pushSuppress()
    {
        ++suppressDepth;
        head = CapOp{};
    }

    void
    popSuppress()
    {
        --suppressDepth;
        head = CapOp{};
    }

    bool suppressed() const { return suppressDepth != 0; }

    const CaptureTrace &trace() const { return data; }
    /** Move the finished trace out; the session is then spent. */
    CaptureTrace take() { return std::move(data); }

  private:
    CapRecord
    rec(CapOp op) const
    {
        CapRecord r;
        r.op = std::uint8_t(op);
        return r;
    }

    /**
     * Append @p r. A @p fusion_head record (a memory op) may absorb the
     * compute op recorded right after it; anything else ends the pair.
     */
    void
    push(const CapRecord &r, bool fusion_head = false)
    {
        head = CapOp{};
        if (suppressDepth)
            return;
        data.records.push_back(r);
        if (fusion_head)
            head = CapOp(r.op);
    }

    /** An address-space registration: base in b, byte count in aux. */
    void
    pushRange(CapOp op, Addr base, std::uint64_t bytes)
    {
        CapRecord r = rec(op);
        r.b = base;
        auxU64(bytes);
        push(r);
    }

    /** Append raw bytes to the aux stream (at the cursor's end). */
    void
    auxBytes(const void *bytes, std::size_t n)
    {
        if (suppressDepth)
            return;
        const auto *p = static_cast<const std::uint8_t *>(bytes);
        data.aux.insert(data.aux.end(), p, p + n);
    }

    void auxU64(std::uint64_t v) { auxBytes(&v, 8); }

    /** @p v as a 16-bit field, or kCapWide16 with @p v sent to aux. */
    std::uint16_t
    wide16(std::uint64_t v)
    {
        if (v < kCapWide16)
            return std::uint16_t(v);
        auxU64(v);
        return kCapWide16;
    }

    /** pc | cycles << 32, or a kCapWide32 high half with cycles in aux. */
    std::uint64_t
    pcCycles(PcId pc, Cycles cycles)
    {
        std::uint64_t hi = cycles;
        if (cycles >= kCapWide32) {
            auxU64(cycles);
            hi = kCapWide32;
        }
        return std::uint64_t(pc) | hi << 32;
    }

    CaptureTrace data;
    unsigned suppressDepth = 0;
    /** The last record, while it may still absorb a compute op. */
    CapOp head{};
};

/** RAII suppression guard (tolerates a null session). */
class CaptureSuppress
{
  public:
    explicit CaptureSuppress(CaptureSession *session) : sess(session)
    {
        if (sess)
            sess->pushSuppress();
    }
    ~CaptureSuppress()
    {
        if (sess)
            sess->popSuppress();
    }

    CaptureSuppress(const CaptureSuppress &) = delete;
    CaptureSuppress &operator=(const CaptureSuppress &) = delete;

  private:
    CaptureSession *sess;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_CAPTURE_HH
