/**
 * @file
 * Checksum primitives for the campaign-resilience layer: CRC-32
 * (IEEE reflected polynomial) guarding journal records, cache
 * payloads and capture bodies against torn writes and bit rot — the
 * project's one CRC implementation — and FNV-1a 64 hashing
 * configuration descriptions into stable content-address keys. Both
 * are pure functions of their input bytes — no host state, no
 * endianness dependence — so a checksum computed on one machine
 * validates on any other.
 */

#ifndef TARTAN_SIM_CHECKSUM_HH
#define TARTAN_SIM_CHECKSUM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tartan::sim {

namespace detail {

/**
 * The reflected CRC-32 (IEEE 802.3) slicing tables, computed at compile
 * time. Table 0 is the classic byte table; table k advances a byte
 * through k further zero bytes, so sixteen lookups fold a whole 16-byte
 * block into the register at once.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 16>
makeCrc32Tables()
{
    std::array<std::array<std::uint32_t, 256>, 16> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 16; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

/** The sixteen slicing tables (16 KiB, constant-initialized). */
inline constexpr auto kCrc32Tables = makeCrc32Tables();

/** Little-endian 32-bit word at @p p, independent of host byte order. */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // namespace detail

/**
 * Extend the CRC-32 (IEEE, reflected) @p crc of some prefix by the
 * @p n bytes at @p data: crc32Update(crc32(a), b) == crc32(a + b), and
 * crc32Update(0, ...) starts a fresh checksum (the zlib convention).
 * Slicing-by-16: whole 16-byte blocks take sixteen table lookups, the
 * remaining bytes go one at a time; both give the bytewise values.
 */
inline std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t n)
{
    const auto &t = detail::kCrc32Tables;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = ~crc;
    for (; n >= 16; n -= 16, p += 16) {
        const std::uint32_t w0 = detail::loadLe32(p) ^ c;
        const std::uint32_t w1 = detail::loadLe32(p + 4);
        const std::uint32_t w2 = detail::loadLe32(p + 8);
        const std::uint32_t w3 = detail::loadLe32(p + 12);
        c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
            t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
            t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
            t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
            t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
            t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
            t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
            t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
    }
    for (; n; --n, ++p)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return ~c;
}

/** CRC-32 (IEEE, reflected) of @p data. */
inline std::uint32_t
crc32(std::string_view data)
{
    return crc32Update(0, data.data(), data.size());
}

/** FNV-1a 64-bit hash of @p data (stable across platforms and runs). */
inline std::uint64_t
fnv1a64(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : data) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Fold one more 64-bit word into an FNV-1a 64 state (key mixing). */
inline std::uint64_t
fnv1a64Mix(std::uint64_t h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xffull;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Fixed-width lowercase hex of a 64-bit value (16 characters). */
inline std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Fixed-width lowercase hex of a 32-bit value (8 characters). */
inline std::string
hex32(std::uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

} // namespace tartan::sim

#endif // TARTAN_SIM_CHECKSUM_HH
