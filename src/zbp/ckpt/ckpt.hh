/**
 * @file
 * Versioned, checksummed machine-state snapshots (the SimpleScalar
 * eio.c pattern): a crash-interrupted long run restarts from its latest
 * valid checkpoint instead of from scratch, and a truncated or
 * bit-flipped snapshot is *detected* — restore throws CkptError and the
 * caller falls back to a full re-run, never to wrong counters.
 *
 * Format (all integers little-endian, explicit widths — no raw struct
 * dumps, so snapshots are independent of in-memory padding and of the
 * compiler's struct layout):
 *
 *   file   := "ZBPC" u32(formatVersion) section* endSection
 *   section:= u32(tag) u64(payloadLen) payload u32(crc32(payload))
 *   endSection has tag kEndTag and an empty payload.
 *
 * Sections form a flat sequence in a fixed order: each component
 * serializes into exactly one section with its own tag, and the reader
 * demands the same tags in the same order (a mismatch means the file
 * was written by a different configuration or version — CkptError).
 * Every scalar inside a payload is encoded explicitly: one put/get per
 * header field, and storeLe/loadLe over a Writer::extend /
 * Reader::take span for bulk tables, which costs one bounds check per
 * span instead of one per scalar.  closeSection() insists the payload
 * was consumed exactly, so *any* corruption is caught by the CRC, the
 * bounds checks, or a semantic validator (e.g. LRU permutation
 * checks).
 *
 * Restores decode straight into the live structures, so a restore that
 * throws CkptError may leave its component half-overwritten.  The
 * contract is discard-on-CkptError: the caller throws the whole model
 * away (every runner rebuilds it before falling back to a from-scratch
 * run), which is how partial state never leaks into a run.
 */

#ifndef ZBP_CKPT_CKPT_HH
#define ZBP_CKPT_CKPT_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace zbp::ckpt
{

/** Snapshot rejected: truncated, corrupt, wrong version, or written by
 * an incompatible configuration.  Callers catch this and fall back to a
 * from-scratch run. */
class CkptError : public std::runtime_error
{
  public:
    explicit CkptError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Bump when the section layout changes incompatibly. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Terminates the section sequence. */
inline constexpr std::uint32_t kEndTag = 0xFFFFFFFFu;

/** One tag per serializable component type.  Instances of the same
 * type are distinguished by their fixed position in the section
 * sequence (e.g. BTB1 then BTBP then BTB2), not by tag. */
namespace tag
{
inline constexpr std::uint32_t kBtb = 0x01;
inline constexpr std::uint32_t kPht = 0x02;
inline constexpr std::uint32_t kCtb = 0x03;
inline constexpr std::uint32_t kSurpriseBht = 0x04;
inline constexpr std::uint32_t kHistory = 0x05;
inline constexpr std::uint32_t kFit = 0x06;
inline constexpr std::uint32_t kSearchPipe = 0x07;
inline constexpr std::uint32_t kHierarchy = 0x08;
inline constexpr std::uint32_t kBtb2Engine = 0x09;
inline constexpr std::uint32_t kICache = 0x0A;
inline constexpr std::uint32_t kSharedL2I = 0x0B;
inline constexpr std::uint32_t kSot = 0x0C;
inline constexpr std::uint32_t kFault = 0x0D;
inline constexpr std::uint32_t kOutcomes = 0x0E;
inline constexpr std::uint32_t kCore = 0x0F;
inline constexpr std::uint32_t kArbiter = 0x10;
inline constexpr std::uint32_t kCmp = 0x11;
inline constexpr std::uint32_t kJob = 0x12;
inline constexpr std::uint32_t kGang = 0x13;
} // namespace tag

/** CRC-32 (IEEE 802.3, the zlib polynomial) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n);

/** Store @p v at @p p as explicit little-endian bytes and advance @p p
 * past it: one memcpy on little-endian hosts, a byte shuffle elsewhere,
 * so the image is the same on every host. */
template <typename T>
inline void
storeLe(std::uint8_t *&p, T v)
{
    static_assert(std::is_unsigned_v<T>, "ckpt scalars are unsigned");
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    p += sizeof(T);
}

/** Load a little-endian @p T from @p p and advance @p p past it. */
template <typename T>
inline T
loadLe(const std::uint8_t *&p)
{
    static_assert(std::is_unsigned_v<T>, "ckpt scalars are unsigned");
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
    }
    p += sizeof(T);
    return v;
}

/**
 * Sort @p v ascending by the u64 @p key of each element.  Address books
 * (util/flat_addr_map.hh) are written in this order so that saving a
 * restored structure reproduces its image byte for byte; each save
 * sorts only the keys added since the previous one.  LSD radix, a byte
 * per pass, skipping the bytes every key shares: a comparison sort of
 * the few thousand addresses in a book costs more than encoding the
 * whole BTB.
 */
template <typename T, typename Key>
void
sortByKey(std::vector<T> &v, Key key)
{
    if (v.size() < 2)
        return;
    std::array<std::array<std::size_t, 256>, 8> count{};
    for (const T &x : v)
        for (unsigned d = 0; d < 8; ++d)
            ++count[d][(key(x) >> (8 * d)) & 0xFFu];
    std::vector<T> out(v.size());
    for (unsigned d = 0; d < 8; ++d) {
        auto &at = count[d];
        if (at[(key(v[0]) >> (8 * d)) & 0xFFu] == v.size())
            continue;
        std::size_t sum = 0;
        for (std::size_t &c : at)
            sum += std::exchange(c, sum);
        for (const T &x : v)
            out[at[(key(x) >> (8 * d)) & 0xFFu]++] = x;
        v.swap(out);
    }
}

/** Accumulates a snapshot into a byte vector, one section at a time. */
class Writer
{
  public:
    /** Append @p n bytes and return a pointer to the first of them; the
     * caller fills all @p n (storeLe) before the next append, which may
     * move the buffer.  Bulk sections write whole tables through one
     * extend() instead of one put per scalar. */
    std::uint8_t *
    extend(std::size_t n)
    {
        const std::size_t at = buf.size();
        buf.resize(at + n);
        return buf.data() + at;
    }

    void putU8(std::uint8_t v) { put(v); }
    void putU32(std::uint32_t v) { put(v); }
    void putU64(std::uint64_t v) { put(v); }
    void putBool(bool v) { putU8(v ? 1 : 0); }

    void
    putBytes(const void *data, std::size_t n)
    {
        if (n != 0)
            std::memcpy(extend(n), data, n);
    }

    /** Open a section; every put until endSection() lands in its
     * payload.  Sections never nest. */
    void beginSection(std::uint32_t tag);

    /** Close the open section: back-patch the length, append the CRC. */
    void endSection();

    /** Append the terminal section.  The writer is complete after. */
    void finish();

    /** Start a new, empty snapshot, keeping the buffer's capacity (a
     * warm-up pass reuses one writer for every snapshot it takes). */
    void clear();

    const std::vector<std::uint8_t> &bytes() const { return buf; }

  private:
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t *p = extend(sizeof(T));
        storeLe(p, v);
    }

    std::vector<std::uint8_t> buf;
    std::size_t payloadStart = 0; ///< first payload byte of open section
    bool inSection = false;
    bool finished = false;
};

/** Bounds-checked, CRC-verified reader over a snapshot byte image.
 * Every failure path throws CkptError. */
class Reader
{
  public:
    /** @p data must outlive the reader.  Verifies magic + version. */
    Reader(const std::uint8_t *data, std::size_t n);

    /**
     * Consume @p count records of @p width bytes (width >= 1) and
     * return a pointer to the first byte; the caller decodes them with
     * loadLe.  One overflow-safe bounds check covers the whole span, so
     * an untrusted record count can never read past the open section.
     */
    const std::uint8_t *
    take(std::uint64_t count, std::size_t width = 1)
    {
        const std::size_t limit = inSection ? payloadEnd : size;
        if (count > (limit - pos) / width)
            throwTruncated();
        const std::uint8_t *p = base + pos;
        pos += static_cast<std::size_t>(count) * width;
        return p;
    }

    std::uint8_t getU8() { return get<std::uint8_t>(); }
    std::uint32_t getU32() { return get<std::uint32_t>(); }
    std::uint64_t getU64() { return get<std::uint64_t>(); }
    bool getBool() { return getU8() != 0; }

    void
    getBytes(void *out, std::size_t n)
    {
        const std::uint8_t *p = take(n);
        if (n != 0)
            std::memcpy(out, p, n);
    }

    /** Open the next section, which must carry @p tag; verifies its CRC
     * before any payload byte is handed out. */
    void openSection(std::uint32_t tag);

    /** Close the open section; throws unless the payload was consumed
     * exactly. */
    void closeSection();

    /** Consume the terminal section; throws on trailing garbage. */
    void finish();

  private:
    template <typename T>
    T
    get()
    {
        const std::uint8_t *p = take(sizeof(T));
        return loadLe<T>(p);
    }

    [[noreturn]] void throwTruncated() const;

    const std::uint8_t *base;
    std::size_t size;
    std::size_t pos = 0;
    std::size_t payloadEnd = 0; ///< one past the open section's payload
    bool inSection = false;
};

// ---- in-memory snapshots --------------------------------------------

/**
 * An in-memory snapshot image: byte-for-byte what saveCkptFile would
 * publish, but held in a buffer so a warm-up pass can fan snapshots out
 * to parallel interval jobs without touching the filesystem.  The image
 * is immutable once captured; any number of Readers can be opened over
 * it (restore does not consume the buffer).
 */
class SnapshotBuffer
{
  public:
    SnapshotBuffer() = default;

    /** Capture a copy of the image of @p w, which must be finish()ed.
     * The copy is exact-size: none of the writer's spare capacity is
     * retained, so @p w can be cleared and reused. */
    static SnapshotBuffer
    capture(const Writer &w)
    {
        return SnapshotBuffer(w.bytes());
    }

    /** Adopt a raw image (e.g. from loadCkptFile); validity is judged
     * by the Reader, not here. */
    explicit SnapshotBuffer(std::vector<std::uint8_t> image)
        : buf(std::move(image))
    {}

    bool empty() const { return buf.empty(); }
    std::size_t sizeBytes() const { return buf.size(); }
    const std::vector<std::uint8_t> &bytes() const { return buf; }

    /** A reader over this image; the buffer must outlive it.  Throws
     * CkptError on a bad header, like any Reader. */
    Reader
    reader() const
    {
        return Reader(buf.data(), buf.size());
    }

    bool
    operator==(const SnapshotBuffer &o) const
    {
        return buf == o.buf;
    }

  private:
    std::vector<std::uint8_t> buf;
};

/** One row of a per-section snapshot comparison. */
struct SectionDiff
{
    enum class Kind
    {
        kMatch,   ///< same tag, same payload bytes
        kDiffers, ///< same tag, payload bytes differ
        kTagMismatch, ///< different tag at this position
        kOnlyA,   ///< section present only in the first snapshot
        kOnlyB,   ///< section present only in the second snapshot
    };

    std::size_t index = 0;    ///< position in the section sequence
    std::uint32_t tagA = 0;   ///< kEndTag when absent in A
    std::uint32_t tagB = 0;   ///< kEndTag when absent in B
    Kind kind = Kind::kMatch;
    std::size_t lenA = 0;     ///< payload bytes in A
    std::size_t lenB = 0;     ///< payload bytes in B
    std::size_t firstByteDiff = 0; ///< payload offset of first mismatch
};

/** Human-readable name for a section tag ("core", "btb", ...); hex for
 * unknown tags. */
std::string tagName(std::uint32_t tag);

/**
 * Structural comparison of two snapshot images: walk both section
 * sequences in parallel and report, per position, whether the payloads
 * match byte for byte.  This is the debugging surface behind the
 * byte-identity tests — a mismatch names the component (tag) instead of
 * "images differ".  Throws CkptError when either image has a bad
 * header or a truncated section frame.
 */
std::vector<SectionDiff> diffSnapshots(const SnapshotBuffer &a,
                                       const SnapshotBuffer &b);

/** One-line-per-mismatch rendering of diffSnapshots (empty string when
 * the images are identical). */
std::string diffSummary(const SnapshotBuffer &a, const SnapshotBuffer &b);

// ---- snapshot files -------------------------------------------------

/** Durably publish @p w (which must be finish()ed) at @p path via the
 * same-directory tmp + fsync + rename helper.  Returns false, warned,
 * on I/O failure — a checkpoint that fails to publish never aborts the
 * run it was meant to protect. */
bool saveCkptFile(const std::string &path, const Writer &w);

/** Load a snapshot image; throws CkptError when the file is absent,
 * unreadable, or shorter than the header. */
std::vector<std::uint8_t> loadCkptFile(const std::string &path);

/** True when a snapshot file exists at @p path (readability/validity
 * are judged by loadCkptFile + the Reader, not here). */
bool ckptFileExists(const std::string &path);

/** Best-effort removal of a consumed snapshot (job completed: the file
 * is stale and must not satisfy a future resume). */
void removeCkptFile(const std::string &path);

// ---- runner environment contract ------------------------------------

/** ZBP_CKPT_INTERVAL: instructions between snapshots; 0 = checkpointing
 * off (the default — no checkpoint object is ever constructed). */
std::uint64_t ckptIntervalFromEnv();

/** ZBP_CKPT_DIR: directory for snapshot files; empty = off. */
std::string ckptDirFromEnv();

/** Snapshot path for one resume identity: ZBP_CKPT_DIR/zbp-<hash>.ckpt
 * (FNV-1a over the key, so the name is stable across processes). */
std::string ckptPathFor(const std::string &dir, const std::string &key);

} // namespace zbp::ckpt

#endif // ZBP_CKPT_CKPT_HH
