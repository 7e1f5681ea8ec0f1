#include "trace/trace_io.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace dee
{

namespace
{

constexpr char kMagic[8] = {'D', 'E', 'E', 'T', 'R', 'A', 'C', '1'};
constexpr std::size_t kRecordSize = 24;

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
packU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
packU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
unpackU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
unpackU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Size in bytes of an open file, false if it has none (a pipe);
 *  leaves the read position unchanged. */
bool
fileSize(std::FILE *f, std::uint64_t &size)
{
    const long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0)
        return false;
    const long end = std::ftell(f);
    if (end < pos || std::fseek(f, pos, SEEK_SET) != 0)
        return false;
    size = static_cast<std::uint64_t>(end);
    return true;
}

bool
validReg(RegId r)
{
    return r < kNumRegs || r == kNoReg;
}

/** Sets *err to the concatenated @p args; returns false. */
template <typename... Args>
bool
fail(std::string *err, Args &&...args)
{
    *err = detail::concat(std::forward<Args>(args)...);
    return false;
}

/** Fields the simulators use as indices must be in range. */
bool
checkRecord(const TraceRecord &r, std::uint32_t num_static,
            const std::string &path, std::uint64_t index, std::string *err)
{
    if (r.op > Opcode::Nop)
        return fail(err, "'", path, "' record ", index, ": opcode ",
                    int{static_cast<std::uint8_t>(r.op)}, " out of range");
    if (!validReg(r.rd) || !validReg(r.rs1) || !validReg(r.rs2))
        return fail(err, "'", path, "' record ", index,
                    ": register out of range");
    if (r.sid >= num_static)
        return fail(err, "'", path, "' record ", index, ": static id ",
                    r.sid, " out of range (numStatic ", num_static, ")");
    return true;
}

} // namespace

bool
writeTrace(const Trace &trace, const std::string &path, std::string *err)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return fail(err, "cannot open '", path, "' for writing");

    unsigned char header[8 + 4 + 8];
    std::memcpy(header, kMagic, 8);
    packU32(header + 8, trace.numStatic);
    packU64(header + 12, trace.records.size());
    if (std::fwrite(header, sizeof(header), 1, f.get()) != 1)
        return fail(err, "short write to '", path, "'");

    std::vector<unsigned char> buf;
    buf.reserve(kRecordSize * 4096);
    auto flush = [&]() {
        const bool ok =
            buf.empty() ||
            std::fwrite(buf.data(), 1, buf.size(), f.get()) == buf.size();
        buf.clear();
        return ok;
    };
    for (const auto &r : trace.records) {
        unsigned char rec[kRecordSize] = {};
        packU32(rec + 0, r.sid);
        packU32(rec + 4, r.block);
        rec[8] = static_cast<unsigned char>(r.op);
        rec[9] = r.rd;
        rec[10] = r.rs1;
        rec[11] = r.rs2;
        rec[12] = static_cast<unsigned char>((r.isBranch ? 1 : 0) |
                                             (r.taken ? 2 : 0) |
                                             (r.backward ? 4 : 0));
        packU64(rec + 16, r.memAddr);
        buf.insert(buf.end(), rec, rec + kRecordSize);
        if (buf.size() >= kRecordSize * 4096 && !flush())
            return fail(err, "short write to '", path, "'");
    }
    if (!flush() || std::fflush(f.get()) != 0)
        return fail(err, "short write to '", path, "'");
    return true;
}

bool
readTrace(const std::string &path, Trace *out, std::string *err)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail(err, "cannot open '", path, "' for reading");

    unsigned char header[8 + 4 + 8];
    if (std::fread(header, sizeof(header), 1, f.get()) != 1)
        return fail(err, "'", path, "' is too short to be a trace file");
    if (std::memcmp(header, kMagic, 8) != 0)
        return fail(err, "'", path, "' is not a DEETRAC1 trace file");

    Trace trace;
    trace.numStatic = unpackU32(header + 8);
    const std::uint64_t count = unpackU64(header + 12);
    // The header's count sizes the allocation, so it must first fit in
    // the file: a forged count is a format error, not a huge reserve().
    // (A stream with no size is read without the up-front reserve.)
    std::uint64_t size = 0;
    if (fileSize(f.get(), size)) {
        if (count > (size - sizeof(header)) / kRecordSize)
            return fail(err, "'", path, "' is truncated: the header claims ",
                        count, " records");
        trace.records.reserve(count);
    }

    std::vector<unsigned char> buf(kRecordSize * 4096);
    std::uint64_t remaining = count;
    while (remaining > 0) {
        const std::size_t batch =
            std::min<std::uint64_t>(remaining, 4096);
        if (std::fread(buf.data(), kRecordSize, batch, f.get()) != batch)
            return fail(err, "'", path, "' is truncated");
        for (std::size_t i = 0; i < batch; ++i) {
            const unsigned char *rec = buf.data() + i * kRecordSize;
            TraceRecord r;
            r.sid = unpackU32(rec + 0);
            r.block = unpackU32(rec + 4);
            r.op = static_cast<Opcode>(rec[8]);
            r.rd = rec[9];
            r.rs1 = rec[10];
            r.rs2 = rec[11];
            r.isBranch = (rec[12] & 1) != 0;
            r.taken = (rec[12] & 2) != 0;
            r.backward = (rec[12] & 4) != 0;
            r.memAddr = unpackU64(rec + 16);
            if (!checkRecord(r, trace.numStatic, path,
                             count - remaining + i, err))
                return false;
            trace.records.push_back(r);
        }
        remaining -= batch;
    }
    *out = std::move(trace);
    return true;
}

} // namespace dee
