#pragma once

/**
 * @file
 * Shared little-endian wire-format primitives for the versioned image
 * formats (`s2e.state.v1`, `s2e.witness.v1`): byte-buffer Writer,
 * bounds-latching Reader, the FNV-1a payload checksum, and the common
 * 32-byte image header (8-byte magic, version, reserved, payload size,
 * checksum). Extracted from the state serializer so every image format
 * shares one header/checksum convention.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace s2e::core::lifecycle::wire {

/** Image header size shared by all s2e.*.v1 image formats. */
constexpr size_t kHeaderSize = 32;

inline uint64_t
fnv1a(const uint8_t *data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Writer {
    std::vector<uint8_t> buf;

    void u8(uint8_t v) { buf.push_back(v); }
    void
    u16(uint16_t v)
    {
        buf.push_back(v & 0xFF);
        buf.push_back(v >> 8);
    }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back((v >> (8 * i)) & 0xFF);
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back((v >> (8 * i)) & 0xFF);
    }
    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }
    void
    bytes(const uint8_t *data, size_t n)
    {
        buf.insert(buf.end(), data, data + n);
    }
};

/** Bounds-checked little-endian reader; any overrun latches fail(). */
struct Reader {
    const uint8_t *data;
    size_t size;
    size_t off = 0;
    bool ok = true;

    Reader(const uint8_t *d, size_t n) : data(d), size(n) {}

    bool
    need(size_t n)
    {
        if (!ok || size - off < n) {
            ok = false;
            return false;
        }
        return true;
    }
    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data[off++];
    }
    uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        uint16_t v = static_cast<uint16_t>(data[off]) |
                     static_cast<uint16_t>(data[off + 1]) << 8;
        off += 2;
        return v;
    }
    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data[off + i]) << (8 * i);
        off += 4;
        return v;
    }
    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data[off + i]) << (8 * i);
        off += 8;
        return v;
    }
    std::string
    str()
    {
        uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data + off), n);
        off += n;
        return s;
    }
    bool
    bytes(uint8_t *out, size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, data + off, n);
        off += n;
        return true;
    }
};

/** Prepend the standard 32-byte header (magic, version, payload size,
 *  FNV-1a checksum) to a serialized payload. */
inline std::vector<uint8_t>
sealImage(const char (&magic)[8], uint32_t version, const Writer &payload)
{
    Writer header;
    header.u32(version);
    header.u32(0); // reserved
    header.u64(payload.buf.size());
    header.u64(fnv1a(payload.buf.data(), payload.buf.size()));
    // Sized up front and filled by copies: GCC 12 reports spurious
    // -Warray-bounds/-Wstringop-overflow for vector::insert here.
    std::vector<uint8_t> image(kHeaderSize + payload.buf.size());
    std::memcpy(image.data(), magic, sizeof(magic));
    std::memcpy(image.data() + sizeof(magic), header.buf.data(),
                header.buf.size());
    std::copy(payload.buf.begin(), payload.buf.end(),
              image.begin() + kHeaderSize);
    return image;
}

/** Validate the standard header: magic, exact version, payload size
 *  and checksum. On failure writes a reason into *error (if given). */
inline bool
checkImage(const char (&magic)[8], uint32_t version,
           const std::vector<uint8_t> &image, std::string *error)
{
    auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    if (image.size() < kHeaderSize)
        return fail("image shorter than header");
    if (std::memcmp(image.data(), magic, sizeof(magic)) != 0)
        return fail("bad magic");
    Reader r(image.data() + sizeof(magic), kHeaderSize - sizeof(magic));
    uint32_t got_version = r.u32();
    r.u32(); // reserved
    uint64_t payload_size = r.u64();
    uint64_t checksum = r.u64();
    if (got_version != version)
        return fail("unsupported version");
    if (payload_size != image.size() - kHeaderSize)
        return fail("payload size mismatch");
    if (checksum != fnv1a(image.data() + kHeaderSize, payload_size))
        return fail("checksum mismatch");
    return true;
}

} // namespace s2e::core::lifecycle::wire
