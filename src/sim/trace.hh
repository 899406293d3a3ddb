/**
 * @file
 * Lightweight categorized trace facility for debugging simulations,
 * in the spirit of gem5's DPRINTF flags.
 */

#ifndef HMTX_SIM_TRACE_HH
#define HMTX_SIM_TRACE_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>

#include "core/types.hh"

namespace hmtx::sim
{

/** Trace categories; combine with bitwise OR. */
enum TraceFlags : std::uint32_t
{
    TraceNone = 0,
    /** Coherence protocol actions: hits, new versions, supersedes. */
    TraceProtocol = 1u << 0,
    /** Commits, aborts, VID resets. */
    TraceCommit = 1u << 1,
    /** Evictions, spills, refills. */
    TraceEvict = 1u << 2,
    /** SLA traffic and wrong-path loads. */
    TraceSla = 1u << 3,
    /** Runtime events: queue ops, recovery barriers. */
    TraceRuntime = 1u << 4,
    TraceAll = ~0u,
};

/**
 * A bounded in-memory trace log. Events are recorded only for enabled
 * categories; the ring keeps the most recent entries so a failing test
 * can dump the lead-up to the failure without drowning in output.
 *
 * The simulator components take a Trace reference and call
 * event(flag, fmt, ...); the default-constructed Trace has everything
 * disabled and each call is a single branch.
 */
class Trace
{
  public:
    /**
     * @param flags    enabled categories
     * @param capacity max retained entries
     */
    explicit Trace(std::uint32_t flags = TraceNone,
                   std::size_t capacity = 4096)
        : flags_(flags), capacity_(capacity)
    {}

    /** True if @p flag is enabled. */
    bool on(TraceFlags flag) const { return (flags_ & flag) != 0; }

    /** Enables/disables categories at run time. */
    void setFlags(std::uint32_t flags) { flags_ = flags; }

    /** Records one event if its category is enabled. */
    void
    event(TraceFlags flag, Tick when, const char* fmt, ...)
#if defined(__GNUC__)
        __attribute__((format(printf, 4, 5)))
#endif
    {
        if (!on(flag))
            return;
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        if (entries_.size() >= capacity_) {
            entries_.pop_front();
            ++dropped_;
        }
        entries_.push_back({when, flag, buf});
        ++recorded_;
    }

    struct Entry
    {
        Tick when;
        TraceFlags flag;
        std::string text;
    };

    /** Retained entries, oldest first. */
    const std::deque<Entry>& entries() const { return entries_; }

    /** Events recorded (including those later dropped by the ring). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events dropped by the ring. */
    std::uint64_t dropped() const { return dropped_; }

    /** Formats the retained entries to @p out. */
    void
    dump(std::FILE* out = stderr) const
    {
        for (const Entry& e : entries_)
            std::fprintf(out, "%10llu %s\n",
                         static_cast<unsigned long long>(e.when),
                         e.text.c_str());
    }

    /** Clears the retained entries (counters persist). */
    void clear() { entries_.clear(); }

    /** Clears the entries and zeroes the counters; @p flags become
     *  the enabled categories. */
    void
    reset(std::uint32_t flags)
    {
        flags_ = flags;
        entries_.clear();
        recorded_ = 0;
        dropped_ = 0;
    }

  private:
    std::uint32_t flags_;
    std::size_t capacity_;
    std::deque<Entry> entries_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_TRACE_HH
