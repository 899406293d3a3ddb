/**
 * @file
 * GoldenModel implementation. Everything here is a direct transcription
 * of the §3/§4 semantics; the point is that none of it knows about
 * caches, fabrics, or the overflow table.
 */

#include <algorithm>
#include <cassert>

#include "check/golden.hh"

namespace hmtx::check
{

namespace
{

/** First element of sorted @p v whose key is not below @p k. */
template <typename T, typename Key, typename Proj>
auto
lowerBound(T& v, const Key& k, Proj proj)
{
    return std::lower_bound(
        v.begin(), v.end(), k,
        [&](const auto& e, const Key& key) { return proj(e) < key; });
}

} // namespace

GoldenModel::Word&
GoldenModel::wordOf(Addr a)
{
    const Addr w = a & ~Addr{7};
    auto it = lowerBound(words_, w, [](const Word& x) { return x.addr; });
    if (it == words_.end() || it->addr != w)
        it = words_.insert(it, Word{w, 0});
    return *it;
}

const GoldenModel::Word*
GoldenModel::wordIf(Addr a) const
{
    const Addr w = a & ~Addr{7};
    auto it = lowerBound(words_, w, [](const Word& x) { return x.addr; });
    return it == words_.end() || it->addr != w ? nullptr : &*it;
}

GoldenModel::LineCtl&
GoldenModel::lineOf(Addr a)
{
    const Addr la = lineAddr(a);
    auto it =
        lowerBound(lines_, la, [](const LineCtl& x) { return x.line; });
    if (it == lines_.end() || it->line != la)
        it = lines_.insert(it, LineCtl{la});
    return *it;
}

const GoldenModel::LineCtl*
GoldenModel::lineIf(Addr a) const
{
    const Addr la = lineAddr(a);
    auto it =
        lowerBound(lines_, la, [](const LineCtl& x) { return x.line; });
    return it == lines_.end() || it->line != la ? nullptr : &*it;
}

std::uint64_t
GoldenModel::wordValueAt(Addr word, std::uint64_t base, Vid vid) const
{
    // §4.1 visibility: the store with the largest writer VID <= vid;
    // committed stores have already folded their VIDs' order into the
    // same list, so one search covers both.
    auto it = std::upper_bound(
        vers_.begin(), vers_.end(), std::pair{word, vid},
        [](const std::pair<Addr, Vid>& k, const Version& v) {
            return k < std::pair{v.word, v.vid};
        });
    if (it == vers_.begin() || std::prev(it)->word != word)
        return base;
    return std::prev(it)->value;
}

void
GoldenModel::dropVersions(Addr word)
{
    auto first =
        lowerBound(vers_, word, [](const Version& v) { return v.word; });
    auto last = first;
    while (last != vers_.end() && last->word == word)
        ++last;
    vers_.erase(first, last);
}

void
GoldenModel::rwInsert(Vid vid, bool write, Addr line)
{
    const RwEntry e{vid, write, line};
    auto it = std::lower_bound(rw_.begin(), rw_.end(), e);
    if (it == rw_.end() || *it != e)
        rw_.insert(it, e);
}

void
GoldenModel::rwSet(Vid vid, bool write, std::vector<Addr>& out) const
{
    out.clear();
    for (auto it = std::lower_bound(rw_.begin(), rw_.end(),
                                    RwEntry{vid, write, 0});
         it != rw_.end() && it->vid == vid && it->write == write; ++it)
        out.push_back(it->line);
}

std::uint64_t
GoldenModel::valueAt(Addr a, unsigned size, Vid vid) const
{
    unsigned off = static_cast<unsigned>(a & 7);
    assert(off + size <= 8 && "accesses must not straddle a word");
    if (vid == kNonSpecVid)
        vid = lc_; // non-speculative accesses see the committed image
    const Word* w = wordIf(a);
    std::uint64_t word = w ? wordValueAt(w->addr, w->base, vid) : 0;
    std::uint64_t v = word >> (8 * off);
    if (size < 8)
        v &= (std::uint64_t{1} << (8 * size)) - 1;
    return v;
}

bool
GoldenModel::storeAborts(Addr a, Vid vid) const
{
    const LineCtl* lc = lineIf(a);
    Vid mark = lc ? lc->mark : kNonSpecVid;
    Vid writer = lc ? lc->writer : kNonSpecVid;
    if (vid == kNonSpecVid) {
        // A non-speculative store may not land under uncommitted
        // speculative accesses: it has no version order to slot into.
        return writer > lc_ || mark > lc_;
    }
    // §4.3: a store below any VID that already accessed the line is a
    // flow/output-dependence violation. `mark` aggregates the latest
    // version's writer and every read mark on it; a store below the
    // latest *writer* additionally means the store hits a superseded
    // version, which aborts for the same reason. mark >= writer, so
    // one compare covers both.
    return vid < mark;
}

bool
GoldenModel::limitedSetWouldAbort(Addr a, Vid vid) const
{
    if (!policy_.limitsSpecSets())
        return false;
    // The VID's entries: its read set, then its write set.
    const auto reads = std::lower_bound(rw_.begin(), rw_.end(),
                                        RwEntry{vid, false, 0});
    const auto writes = std::lower_bound(reads, rw_.end(),
                                         RwEntry{vid, true, 0});
    const auto end = std::lower_bound(writes, rw_.end(),
                                      RwEntry{vid + 1, false, 0});
    const RwEntry r{vid, false, lineAddr(a)};
    const RwEntry w{vid, true, lineAddr(a)};
    // Re-touching a line already in the sets never costs a new entry.
    if (std::binary_search(reads, writes, r) ||
        std::binary_search(writes, end, w))
        return false;
    std::size_t combined = static_cast<std::size_t>(writes - reads);
    for (auto it = writes; it != end; ++it)
        if (!std::binary_search(reads, writes,
                                RwEntry{vid, false, it->line}))
            ++combined;
    return policy_.limitedSetExceeded(combined);
}

void
GoldenModel::applyLoad(Addr a, Vid vid, bool wrongPath)
{
    if (vid == kNonSpecVid)
        return; // committed-image reads leave no marks
    // §5.1: with SLAs the wrong-path load defers its mark to the ack;
    // without them it marks immediately (and may cause false aborts).
    bool marks = !wrongPath || !slaEnabled_;
    if (marks)
        applyConfirm(a, vid);
    if (!wrongPath)
        rwInsert(vid, false, lineAddr(a));
}

void
GoldenModel::applyConfirm(Addr a, Vid vid)
{
    LineCtl& lc = lineOf(a);
    // A read marks only the version it hits; reads of superseded
    // versions are already bounded by the superseding writer's VID
    // and need no mark (§4.2).
    if (vid >= lc.writer)
        lc.mark = std::max(lc.mark, vid);
}

void
GoldenModel::applyStore(Addr a, std::uint64_t v, unsigned size, Vid vid)
{
    assert(!storeAborts(a, vid));
    unsigned off = static_cast<unsigned>(a & 7);
    assert(off + size <= 8 && "accesses must not straddle a word");
    Word& w = wordOf(a);
    Vid at = vid == kNonSpecVid ? lc_ : vid;
    // Read-modify-write of the containing word at the store's VID:
    // bytes outside the store come from the version visible to it.
    std::uint64_t merged = wordValueAt(w.addr, w.base, at);
    if (size == 8) {
        merged = v;
    } else {
        std::uint64_t mask = ((std::uint64_t{1} << (8 * size)) - 1)
                             << (8 * off);
        merged = (merged & ~mask) | ((v << (8 * off)) & mask);
    }
    if (vid == kNonSpecVid) {
        // Non-speculative store: every surviving version is committed
        // (the abort predicate guaranteed it); fold the word and write
        // the new committed image.
        dropVersions(w.addr);
        w.base = merged;
        return;
    }
    const Version nv{w.addr, vid, merged};
    auto it = std::lower_bound(
        vers_.begin(), vers_.end(), nv, [](const Version& x, const Version& y) {
            return std::pair{x.word, x.vid} < std::pair{y.word, y.vid};
        });
    if (it != vers_.end() && it->word == nv.word && it->vid == vid)
        it->value = merged;
    else
        vers_.insert(it, nv);
    LineCtl& lc = lineOf(a);
    lc.writer = std::max(lc.writer, vid);
    lc.mark = std::max(lc.mark, vid);
    rwInsert(vid, true, lineAddr(a));
}

void
GoldenModel::commit(Vid vid)
{
    assert(vid == lc_ + 1 && "commits must occur consecutively (§4.7)");
    policy_.onCommit(vid);
    lc_ = vid;
    // Committed versions stay in the word lists (they are the
    // committed image for later VIDs); line marks <= lc_ are inert
    // because every future access carries a VID > lc_.
    rw_.erase(std::remove_if(rw_.begin(), rw_.end(),
                             [&](const RwEntry& e) { return e.vid == vid; }),
              rw_.end());
}

void
GoldenModel::abortAll()
{
    policy_.onAbort();
    vers_.erase(std::remove_if(vers_.begin(), vers_.end(),
                               [&](const Version& v) { return v.vid > lc_; }),
                vers_.end());
    // All surviving state is committed: marks reset exactly as the
    // hardware clears mod/high tags (Figure 7).
    for (LineCtl& lc : lines_)
        lc = LineCtl{lc.line};
    rw_.clear();
}

void
GoldenModel::vidReset()
{
    assert(vidResetLegal());
    policy_.onVidReset();
    for (Word& w : words_)
        w.base = wordValueAt(w.addr, w.base, lc_);
    vers_.clear();
    for (LineCtl& lc : lines_)
        lc = LineCtl{lc.line};
    lc_ = kNonSpecVid;
}

void
GoldenModel::readSet(Vid vid, std::vector<Addr>& out) const
{
    rwSet(vid, false, out);
}

void
GoldenModel::writeSet(Vid vid, std::vector<Addr>& out) const
{
    rwSet(vid, true, out);
}

void
GoldenModel::touchedWords(std::vector<Addr>& out) const
{
    out.clear();
    for (const Word& w : words_)
        out.push_back(w.addr);
}

} // namespace hmtx::check
