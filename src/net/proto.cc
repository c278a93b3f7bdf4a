#include "net/proto.hh"

namespace flexos {

std::uint16_t
inetChecksum(const std::uint8_t *data, std::size_t len, std::uint32_t seed)
{
    std::uint32_t sum = seed;
    std::size_t i = 0;
    for (; i + 1 < len; i += 2)
        sum += static_cast<std::uint32_t>(data[i] << 8 | data[i + 1]);
    if (i < len)
        sum += static_cast<std::uint32_t>(data[i] << 8);
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
}

namespace {

/** TCP/UDP pseudo-header checksum seed. */
std::uint32_t
pseudoSeed(std::uint32_t srcIp, std::uint32_t dstIp, std::uint8_t proto,
           std::size_t l4Len)
{
    std::uint32_t sum = 0;
    sum += srcIp >> 16;
    sum += srcIp & 0xffff;
    sum += dstIp >> 16;
    sum += dstIp & 0xffff;
    sum += proto;
    sum += static_cast<std::uint32_t>(l4Len);
    return sum;
}

} // namespace

void
Ip4Header::serialize(std::uint8_t *p) const
{
    p[0] = 0x45; // version 4, IHL 5
    p[1] = 0;    // DSCP/ECN
    putBe16(p + 2, totalLen);
    putBe16(p + 4, id);
    putBe16(p + 6, 0); // flags/fragment offset
    p[8] = ttl;
    p[9] = protocol;
    putBe16(p + 10, 0); // checksum placeholder
    putBe32(p + 12, src);
    putBe32(p + 16, dst);
    putBe16(p + 10, inetChecksum(p, wireSize));
}

bool
Ip4Header::parse(const std::uint8_t *p, std::size_t len)
{
    if (len < wireSize || (p[0] >> 4) != 4 || (p[0] & 0xf) != 5)
        return false;
    if (inetChecksum(p, wireSize) != 0)
        return false;
    totalLen = getBe16(p + 2);
    id = getBe16(p + 4);
    ttl = p[8];
    protocol = p[9];
    src = getBe32(p + 12);
    dst = getBe32(p + 16);
    return totalLen >= wireSize && totalLen <= len;
}

void
TcpHeader::serialize(std::uint8_t *p, std::uint32_t srcIp,
                     std::uint32_t dstIp, const std::uint8_t *payload,
                     std::size_t payloadLen) const
{
    putBe16(p, srcPort);
    putBe16(p + 2, dstPort);
    putBe32(p + 4, seq);
    putBe32(p + 8, ack);
    p[12] = 5 << 4; // data offset: 5 words
    p[13] = flags;
    putBe16(p + 14, window);
    putBe16(p + 16, 0); // checksum placeholder
    putBe16(p + 18, 0); // urgent pointer

    std::uint32_t seed = pseudoSeed(srcIp, dstIp, Ip4Header::protoTcp,
                                    wireSize + payloadLen);
    // Checksum covers header then payload; fold header first (even size).
    std::uint32_t sum = seed;
    for (std::size_t i = 0; i < wireSize; i += 2)
        sum += static_cast<std::uint32_t>(p[i] << 8 | p[i + 1]);
    std::uint16_t csum = inetChecksum(payload, payloadLen, sum);
    putBe16(p + 16, csum);
}

bool
TcpHeader::parse(const std::uint8_t *p, std::size_t segmentLen,
                 std::uint32_t srcIp, std::uint32_t dstIp)
{
    if (segmentLen < wireSize)
        return false;
    std::uint32_t seed = pseudoSeed(srcIp, dstIp, Ip4Header::protoTcp,
                                    segmentLen);
    if (inetChecksum(p, segmentLen, seed) != 0)
        return false;
    srcPort = getBe16(p);
    dstPort = getBe16(p + 2);
    seq = getBe32(p + 4);
    ack = getBe32(p + 8);
    flags = p[13];
    window = getBe16(p + 14);
    return (p[12] >> 4) == 5;
}

} // namespace flexos
