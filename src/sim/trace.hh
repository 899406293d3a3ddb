/**
 * @file
 * Typed trace of the protocol actions the memory system takes: new
 * speculative versions (§4.1), group commits and aborts (§4.4), VID
 * resets (§4.6), SLA mismatches (§5.1) and overflow-table spills (§8).
 */

#ifndef HMTX_SIM_TRACE_HH
#define HMTX_SIM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/spec_state.hh"
#include "core/types.hh"
#include "core/version_rules.hh"

namespace hmtx::sim
{

/** What a TraceRecord records. Fields a kind does not name are 0. */
enum class TraceKind : std::uint8_t
{
    /** A store made version S-M(vid, vid) of line addr at core,
     *  superseding a cached version. */
    NewVersion,
    /** The same, built from main memory: no version was cached. */
    ColdNewVersion,
    /** VID vid committed. */
    Commit,
    /** Group abort; addr, state and tag are the offending line's, or
     *  state is Invalid when no line is at fault (an SLA mismatch, a
     *  limited-set bound, an overflowed pristine version). */
    Abort,
    /** VIDs recycled. */
    VidReset,
    /** Version state/tag of line addr moved to the overflow table. */
    Spill,
    /** The SLA of VID vid from core found the value at byte addr
     *  changed. */
    SlaMismatch,
};

/** Names of the TraceKinds in Trace::dump() output. */
inline constexpr const char* kTraceKindNames[] = {
    "new_version", "cold_new_version", "commit", "abort",
    "vid_reset",   "spill",            "sla_mismatch"};
static_assert(std::size(kTraceKindNames) ==
              static_cast<std::size_t>(TraceKind::SlaMismatch) + 1);

/** One traced protocol action. */
struct TraceRecord
{
    Tick when = 0;
    Addr addr = 0;
    CoreId core = 0;
    Vid vid = 0;
    /** (modVID, highVID). */
    VersionTag tag{};
    TraceKind kind = TraceKind::NewVersion;
    State state = State::Invalid;

    bool operator==(const TraceRecord&) const = default;
};

static_assert(std::is_trivially_copyable_v<TraceRecord>);

/**
 * A ring of the last kCapacity records. A disabled trace records
 * nothing and allocates nothing: the ring is allocated by the first
 * recorded event, and each record() is one branch.
 */
class Trace
{
  public:
    static constexpr std::size_t kCapacity = 4096;

    explicit Trace(bool enabled = false) : enabled_(enabled) {}

    void
    record(const TraceRecord& r)
    {
        if (!enabled_)
            return;
        if (ring_.size() < kCapacity) {
            if (ring_.empty())
                ring_.reserve(kCapacity);
            ring_.push_back(r);
        } else {
            ring_[head_] = r;
            head_ = (head_ + 1) % kCapacity;
        }
        ++recorded_;
    }

    /** Events recorded, including those the ring has since dropped. */
    std::uint64_t recorded() const { return recorded_; }

    /** Applies @p fn to the retained records, oldest first. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t i = 0; i < ring_.size(); ++i)
            fn(ring_[(head_ + i) % ring_.size()]);
    }

    /** Writes the retained records to @p out, one JSON object a line. */
    void
    dump(std::FILE* out = stderr) const
    {
        forEach([out](const TraceRecord& r) {
            const std::string_view st = stateName(r.state);
            std::fprintf(
                out,
                "{\"when\":%llu,\"kind\":\"%s\",\"core\":%u,\"vid\":%u,"
                "\"addr\":\"0x%llx\",\"state\":\"%.*s\",\"mod\":%u,"
                "\"high\":%u}\n",
                static_cast<unsigned long long>(r.when),
                kTraceKindNames[static_cast<int>(r.kind)], r.core, r.vid,
                static_cast<unsigned long long>(r.addr),
                static_cast<int>(st.size()), st.data(), r.tag.mod,
                r.tag.high);
        });
    }

    /** Drops every record and zeroes recorded() (the ring keeps its
     *  storage); @p enabled turns recording on or off. */
    void
    reset(bool enabled)
    {
        enabled_ = enabled;
        ring_.clear();
        head_ = 0;
        recorded_ = 0;
    }

  private:
    bool enabled_;
    /** Oldest record at head_ once the ring is full. */
    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_TRACE_HH
