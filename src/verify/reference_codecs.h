/**
 * @file
 * Bit-accurate *reference* codecs for differential verification.
 *
 * Every class here is a deliberately naive, byte-at-a-time reimplementation
 * of one of the paper's encodings, written directly from the paper text
 * (§III-B Base+XOR, §IV-A Zero Data Remapping, §IV-C Universal Base+XOR,
 * §II-B DBI-DC) with **no shared code with `src/core/`**: no word loads, no
 * popcount intrinsics, no shared lane helpers, and an independent spec
 * parser. The reference implementations are the obviously-correct model the
 * optimized hot paths are checked against; keep them slow and simple.
 */

#ifndef BXT_VERIFY_REFERENCE_CODECS_H
#define BXT_VERIFY_REFERENCE_CODECS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bxt::verify {

/** Reference analogue of core Encoded: payload bytes + beat-major metadata. */
struct RefEncoded
{
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> meta; ///< One 0/1 entry per metadata bit.
    unsigned metaWiresPerBeat = 0;
};

/** A reference transaction encoder/decoder over plain byte vectors. */
class RefCodec
{
  public:
    virtual ~RefCodec() = default;

    /** Scheme name (matches the core codec's name for the same spec). */
    virtual std::string name() const = 0;

    /** Encode one transaction's bytes. */
    virtual RefEncoded encode(const std::vector<std::uint8_t> &in) = 0;

    /** Recover the original bytes from an encoding. */
    virtual std::vector<std::uint8_t> decode(const RefEncoded &enc) = 0;

    /** Dedicated metadata wires per beat (static per configuration). */
    virtual unsigned metaWiresPerBeat() const { return 0; }
};

/** Owning reference-codec handle. */
using RefCodecPtr = std::unique_ptr<RefCodec>;

/** Reference identity ("baseline"): transmits data unchanged. */
class RefIdentityCodec : public RefCodec
{
  public:
    std::string name() const override { return "baseline"; }
    RefEncoded encode(const std::vector<std::uint8_t> &in) override;
    std::vector<std::uint8_t> decode(const RefEncoded &enc) override;
};

/**
 * Reference N-byte Base+XOR (paper §III-B Figure 4) with optional Zero Data
 * Remapping (§IV-A Figure 10) and the fixed-base ablation (§V-B).
 */
class RefBaseXorCodec : public RefCodec
{
  public:
    RefBaseXorCodec(std::size_t base_size, bool zdr, bool adjacent_base);
    std::string name() const override;
    RefEncoded encode(const std::vector<std::uint8_t> &in) override;
    std::vector<std::uint8_t> decode(const RefEncoded &enc) override;

  private:
    std::size_t base_size_;
    bool zdr_;
    bool adjacent_base_;
};

/** Reference Universal Base+XOR (paper §IV-C Figures 7-8), lane-wise ZDR. */
class RefUniversalXorCodec : public RefCodec
{
  public:
    RefUniversalXorCodec(unsigned stages, bool zdr, std::size_t zdr_lane = 4);
    std::string name() const override;
    RefEncoded encode(const std::vector<std::uint8_t> &in) override;
    std::vector<std::uint8_t> decode(const RefEncoded &enc) override;

  private:
    unsigned clampedStages(std::size_t size) const;

    unsigned stages_;
    bool zdr_;
    std::size_t zdr_lane_;
};

/** Reference DBI-DC (paper §II-B): invert groups with > half their bits set. */
class RefDbiCodec : public RefCodec
{
  public:
    RefDbiCodec(std::size_t group_bytes, std::size_t bus_bytes);
    std::string name() const override;
    RefEncoded encode(const std::vector<std::uint8_t> &in) override;
    std::vector<std::uint8_t> decode(const RefEncoded &enc) override;
    unsigned metaWiresPerBeat() const override;

  private:
    std::size_t group_bytes_;
    std::size_t bus_bytes_;
};

/** Reference pipeline: stage-by-stage encode, per-beat meta interleaving. */
class RefPipelineCodec : public RefCodec
{
  public:
    explicit RefPipelineCodec(std::vector<RefCodecPtr> stages);
    std::string name() const override;
    RefEncoded encode(const std::vector<std::uint8_t> &in) override;
    std::vector<std::uint8_t> decode(const RefEncoded &enc) override;
    unsigned metaWiresPerBeat() const override;

  private:
    std::vector<RefCodecPtr> stages_;
};

/**
 * Independent parser for the `codec_factory` spec grammar, covering the
 * paper's schemes: `baseline`/`identity`, `xorN[+zdr][+fixed]`,
 * `universal[S][+zdr]`, `dbiN`, and `|`-joined pipelines of those.
 *
 * @return nullptr when @p spec contains a stage outside the reference set
 *         (`bd`, `dbi-acN`) — callers fall back to round-trip-only checks —
 *         and aborts via the error helpers on specs the core factory would
 *         itself reject.
 */
RefCodecPtr makeRefCodec(const std::string &spec, std::size_t bus_bytes = 4);

/*
 * Naive lane primitives, exposed so the invariant checker can state the
 * ZDR bijectivity property (the 0 ↔ base⊕C output swap) independently of
 * src/core, and so tests/test_simd.cpp can diff the SIMD primitives
 * against them. All operate on @p n byte lanes, most-significant byte
 * last.
 */

/** Set-bit count of one byte, one bit at a time. */
std::size_t refPopcountByte(std::uint8_t value);

/** Reference plain XOR lane: out = in ⊕ base, byte by byte. */
std::vector<std::uint8_t> refXorLane(const std::vector<std::uint8_t> &in,
                                     const std::vector<std::uint8_t> &base);

/** Reference ZDR lane encode (paper §IV-A, Figure 10). */
std::vector<std::uint8_t> refZdrLaneEncode(const std::vector<std::uint8_t> &in,
                                           const std::vector<std::uint8_t> &base);

/** Reference ZDR lane decode (inverse of refZdrLaneEncode for one base). */
std::vector<std::uint8_t> refZdrLaneDecode(const std::vector<std::uint8_t> &in,
                                           const std::vector<std::uint8_t> &base);

/** The ZDR low-weight constant C for an @p n byte lane (0x40 in the MSB). */
std::vector<std::uint8_t> refZdrConstant(std::size_t n);

} // namespace bxt::verify

#endif // BXT_VERIFY_REFERENCE_CODECS_H
