#include <algorithm>
#include <utility>

#include "perfbench.hh"
#include "common/random.hh"

namespace perfbench
{

namespace
{

/** The innermost open span on this thread: the parent of the next. */
thread_local std::int64_t tlsOpenSpan = -1;

} // namespace

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::int64_t
SpanLog::sinceEpochNs(Clock::time_point when) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(when -
                                                                epoch_)
        .count();
}

std::int64_t
SpanLog::open()
{
    return nextId_.fetch_add(1, std::memory_order_relaxed);
}

void
SpanLog::close(std::int64_t id, std::int64_t parent, const char *name,
               const char *detail, std::int64_t item,
               Clock::time_point start, std::uint64_t work)
{
    const auto end = Clock::now();
    Span span;
    span.id = id;
    span.parent = parent;
    span.name = name;
    span.detail = detail;
    span.item = item;
    span.work = work;
    span.startNs = sinceEpochNs(start);
    span.endNs = sinceEpochNs(end);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::int64_t
SpanLog::nowNs() const
{
    return sinceEpochNs(Clock::now());
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

SpanScope::SpanScope(SpanLog *log, const char *name, std::int64_t item,
                     const char *detail)
    : log_(log), name_(name), detail_(detail), item_(item)
{
    if (log_ == nullptr)
        return;
    id_ = log_->open();
    parent_ = tlsOpenSpan;
    tlsOpenSpan = id_;
    start_ = Clock::now();
}

SpanScope::~SpanScope()
{
    if (log_ == nullptr)
        return;
    log_->close(id_, parent_, name_, detail_, item_, start_, work_);
    tlsOpenSpan = parent_;
}

namespace
{

/** Length of the union of [begin, end) intervals, in ns. */
std::int64_t
unionNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t curBegin = 0;
    std::int64_t curEnd = -1;
    for (const auto &[begin, end] : intervals) {
        if (begin > curEnd) {
            if (curEnd > curBegin)
                total += curEnd - curBegin;
            curBegin = begin;
            curEnd = end;
        } else {
            curEnd = std::max(curEnd, end);
        }
    }
    if (curEnd > curBegin)
        total += curEnd - curBegin;
    return total;
}

} // namespace

std::map<std::int64_t, double>
selfMs(const std::vector<Span> &spans)
{
    std::map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                 std::int64_t>>>
        children;
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[span.parent].emplace_back(span.startNs, span.endNs);
    std::map<std::int64_t, double> out;
    for (const Span &span : spans) {
        std::int64_t self = span.endNs - span.startNs;
        const auto it = children.find(span.id);
        if (it != children.end())
            self -= unionNs(it->second);
        out[span.id] = static_cast<double>(self) / 1e6;
    }
    return out;
}

double
coveredMs(const std::vector<Span> &spans, std::int64_t beginNs,
          std::int64_t endNs)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> clipped;
    for (const Span &span : spans) {
        const std::int64_t begin = std::max(span.startNs, beginNs);
        const std::int64_t end = std::min(span.endNs, endNs);
        if (end > begin)
            clipped.emplace_back(begin, end);
    }
    return static_cast<double>(unionNs(std::move(clipped))) / 1e6;
}

SimStats
statsOf(dee::ModelKind kind, int et, const dee::SimResult &result)
{
    SimStats stats;
    stats.model = dee::modelName(kind);
    stats.et = et;
    stats.instructions = result.instructions;
    stats.cycles = result.cycles;
    stats.branches = result.branches;
    stats.mispredicted = result.mispredicted;
    stats.speedup = result.speedup;
    stats.account = result.account;
    return stats;
}

namespace
{

/** Folds @p value into @p h with a full SplitMix64 avalanche. */
void
mix(std::uint64_t &h, std::uint64_t value)
{
    std::uint64_t state = h ^ value;
    h = dee::splitMix64(state);
}

} // namespace

std::uint64_t
digestOf(const ItemResult &item)
{
    std::uint64_t h = 0;
    for (const char c : item.label)
        mix(h, static_cast<unsigned char>(c));
    for (const SimStats &run : item.runs) {
        mix(h, run.instructions);
        mix(h, run.cycles);
        mix(h, run.branches);
        mix(h, run.mispredicted);
        for (std::size_t c = 0; c < dee::obs::kNumSlotClasses; ++c)
            mix(h, run.account.slots(static_cast<dee::obs::SlotClass>(c)));
        for (std::size_t b = 0; b < dee::obs::kNumConfidenceBuckets; ++b)
            mix(h, run.account.squashedInBucket(b));
        mix(h, run.account.pes());
        mix(h, run.account.cycles());
    }
    return h;
}

} // namespace perfbench
