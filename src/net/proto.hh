/**
 * @file
 * Wire formats: Ethernet II, IPv4 and TCP headers, with real big-endian
 * serialization and the Internet ones'-complement checksum.
 */

#ifndef FLEXOS_NET_PROTO_HH
#define FLEXOS_NET_PROTO_HH

#include <cstdint>
#include <cstring>

namespace flexos {

/** @name Big-endian accessors. @{ */
inline void
putBe16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
}

inline void
putBe32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

inline std::uint16_t
getBe16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

inline std::uint32_t
getBe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) << 24 |
           static_cast<std::uint32_t>(p[1]) << 16 |
           static_cast<std::uint32_t>(p[2]) << 8 |
           static_cast<std::uint32_t>(p[3]);
}
/** @} */

/** Ethernet II header. */
struct EthHeader
{
    static constexpr std::size_t wireSize = 14;
    static constexpr std::uint16_t typeIp4 = 0x0800;

    std::uint8_t dst[6];
    std::uint8_t src[6];
    std::uint16_t etherType;

    void
    serialize(std::uint8_t *p) const
    {
        std::memcpy(p, dst, 6);
        std::memcpy(p + 6, src, 6);
        putBe16(p + 12, etherType);
    }

    void
    parse(const std::uint8_t *p)
    {
        std::memcpy(dst, p, 6);
        std::memcpy(src, p + 6, 6);
        etherType = getBe16(p + 12);
    }
};

/** IPv4 header (no options). */
struct Ip4Header
{
    static constexpr std::size_t wireSize = 20;
    static constexpr std::uint8_t protoTcp = 6;
    static constexpr std::uint8_t protoUdp = 17;

    std::uint16_t totalLen = 0;
    std::uint16_t id = 0;
    std::uint8_t ttl = 64;
    std::uint8_t protocol = protoTcp;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;

    void serialize(std::uint8_t *p) const;

    /** @return false if the version/checksum is invalid. */
    bool parse(const std::uint8_t *p, std::size_t len);
};

/** TCP flag bits. */
enum TcpFlags : std::uint8_t
{
    tcpFin = 0x01,
    tcpSyn = 0x02,
    tcpRst = 0x04,
    tcpPsh = 0x08,
    tcpAck = 0x10,
};

/** TCP header (no options). */
struct TcpHeader
{
    static constexpr std::size_t wireSize = 20;

    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint8_t flags = 0;
    std::uint16_t window = 0;

    void serialize(std::uint8_t *p, std::uint32_t srcIp,
                   std::uint32_t dstIp, const std::uint8_t *payload,
                   std::size_t payloadLen) const;

    /** @return false if the checksum fails. */
    bool parse(const std::uint8_t *p, std::size_t segmentLen,
               std::uint32_t srcIp, std::uint32_t dstIp);
};

/**
 * Internet checksum (RFC 1071) over a byte range, summed a 64-bit word
 * at a time. `seed` is added to the word sum before folding.
 */
std::uint16_t inetChecksum(const std::uint8_t *data, std::size_t len,
                           std::uint32_t seed = 0);

/** Render an IPv4 address for diagnostics. */
inline std::uint32_t
makeIp(unsigned a, unsigned b, unsigned c, unsigned d)
{
    return static_cast<std::uint32_t>(a) << 24 |
           static_cast<std::uint32_t>(b) << 16 |
           static_cast<std::uint32_t>(c) << 8 | static_cast<std::uint32_t>(d);
}

/** @name TCP sequence-number arithmetic (mod 2^32). @{ */
inline bool
seqLt(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) < 0;
}

inline bool
seqLe(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) <= 0;
}
/** @} */

} // namespace flexos

#endif // FLEXOS_NET_PROTO_HH
